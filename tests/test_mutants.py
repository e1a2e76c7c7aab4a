"""Every named acceptance criterion catches its mutant of the physics.

Each row is (name, monkeypatch target in ``holopath.schemes``, replacement,
criteria expected to fail).  A case patches the closed forms in process,
runs only the criteria it names at fast level, and asserts that each of
them fails.  The oracle writes its own drives, so criterion 7 catches every
mutant of the closed forms' error model.
"""

import numpy as np
import pytest

from holopath import schemes, verify

_relative_error_angles = schemes.relative_error_angles
_bright_coupling = schemes._bright_coupling


def _kappa_squared_on_drive_1(theta, error):
    c0 = (1.0 + error.epsilon0) * np.cos(theta / 2.0)
    s1 = (1.0 + error.epsilon1 + 5.0 * error.kappa**2) * np.sin(theta / 2.0)
    return 2.0 * np.arctan2(s1, c0), np.hypot(c0, s1) - 1.0


def _two_eps_squared_in_delta(theta, error):
    theta_p, delta = _relative_error_angles(theta, error)
    return theta_p, delta + 2.0 * error.epsilon**2


MUTANTS = [
    ("kappa^2", "relative_error_angles", _kappa_squared_on_drive_1, {7}),
    ("+2 eps^2 in delta", "relative_error_angles", _two_eps_squared_in_delta, {5, 6, 7}),
    ("phi -> -phi", "_bright_coupling", lambda bright, phi: _bright_coupling(bright, -phi), {2, 4, 5, 6, 7, 8}),
]


@pytest.mark.parametrize("name, target, replacement, criteria", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_mutant_fails_its_criteria(monkeypatch, name, target, replacement, criteria):
    monkeypatch.setattr(schemes, target, replacement)
    results = [verify.ALL_CHECKS[n - 1](level="fast", seed=verify.DEFAULT_SEED) for n in sorted(criteria)]
    survivors = [result.line for result in results if result.passed]
    assert not survivors, (name, survivors)
