"""Every named acceptance criterion catches its mutant of the physics.

Each row is (name, patched module, monkeypatch target in it, replacement,
criteria expected to fail).  A case patches the closed forms, the scheme
table or the oracle in process, runs only the criteria it names at fast
level, and asserts that each of them fails.  The oracle writes its own
drives, so criterion 7 catches every mutant of the closed forms' error
model, and a mutant of the oracle.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from holopath import analytic, oracle, pathfinder, schemes, verify
from holopath.linalg import IDENTITY, KET_E

from helpers import reference_single_shot_errored, reference_single_shot_ideal

_relative_error_angles = schemes.relative_error_angles
_bright_coupling = schemes._bright_coupling
_propagate = oracle.propagate
_single_loop_gates = schemes.single_loop_gates
_two_loop_form = analytic.SCHEMES["two-loop"].quadratic_form


def _kappa_squared_on_drive_1(theta, error):
    c0 = (1.0 + error.epsilon0) * np.cos(theta / 2.0)
    s1 = (1.0 + error.epsilon1 + 5.0 * error.kappa**2) * np.sin(theta / 2.0)
    return 2.0 * np.arctan2(s1, c0), np.hypot(c0, s1) - 1.0


def _two_eps_squared_in_delta(theta, error):
    theta_p, delta = _relative_error_angles(theta, error)
    return theta_p, delta + 2.0 * error.epsilon**2


def _coupling_without_hermitian_conjugate(bright, phi):
    return np.exp(1j * phi)[..., None, None] * (bright[..., :, None] * KET_E.conj())


def _pulse_without_second_order_term(generator, square, area):
    return IDENTITY - 1j * np.sin(np.asarray(area, dtype=float)[..., None, None]) * generator


def _propagate_segments_reversed(schedule, steps_per_segment):
    # the oracle's combine step multiplying the stepped segments out of time order
    return _propagate(oracle.Schedule(schedule.segments[::-1]), steps_per_segment)


def _detuning_sign_flipped(path, error):
    # the single-shot builder with its detuning term sin(gamma) (|e><e| - |b><b|) of the wrong sign: at sign +1
    # the reference equals the builder bit for bit (test_grid.py), so this differs from it in that term alone
    return reference_single_shot_ideal(path), reference_single_shot_errored(path, error, detuning_sign=-1.0)


def _single_loop_built_at_shifted_phi(path, error):
    # both gates built at phi + 0.02: phi - phi' is off, so the gate and its error coefficient move with it
    return _single_loop_gates(dataclasses.replace(path, phi=path.phi + 0.02), error)


def _two_loop_form_with_half_b(path):
    a, b, c = _two_loop_form(path)
    return a, b / 2.0, c


def _f2_with_cos_theta(theta_gate):
    # (1 - cos(theta)) / 2 for (1 - cos(2 theta)) / 2: the figure1 endpoint at pi/2 moves from 1 to 0.5
    out = 0.5 * (1.0 - np.cos(np.asarray(theta_gate, dtype=float)))
    return out if out.ndim else float(out)


MUTANTS = [
    ("kappa^2", schemes, "relative_error_angles", _kappa_squared_on_drive_1, {7}),
    ("+2 eps^2 in delta", schemes, "relative_error_angles", _two_eps_squared_in_delta, {5, 6, 7}),
    ("phi -> -phi", schemes, "_bright_coupling", lambda b, phi: _bright_coupling(b, -phi), {2, 4, 5, 6, 7, 8}),
    # _pulse checks neither hermiticity nor G^2 = P: these two rows show the criteria catch either defect
    ("no + h.c.", schemes, "_bright_coupling", _coupling_without_hermitian_conjugate, {2, 3, 4, 5, 6, 7, 8}),
    ("no (cos a - 1) G^2", schemes, "_pulse", _pulse_without_second_order_term, {2, 3, 5, 6, 7, 8}),
    # the figure1 curve alone: the scheme table keeps its own reference to the true f2
    ("f2 with cos theta", analytic, "f2", _f2_with_cos_theta, {1}),
    # the oracle itself: criterion 7 holds it against the closed forms, so it catches a wrong oracle too
    ("segments out of time order", oracle, "propagate", _propagate_segments_reversed, {7}),
    # criterion 3 cannot catch a flipped detuning: f3 depends on cos^4 gamma only
    ("detuning sign", schemes, "single_shot_gates", _detuning_sign_flipped, {7, 8}),
    # a builder mutant whose fidelities the coefficient fit still accepts: criterion 3 reads the wrong coefficient
    ("single-loop built at phi + 0.02", schemes, "single_loop_gates", _single_loop_built_at_shifted_phi, {3, 7, 8}),
    # the second-order model alone: the gates, and so criterion 7, are untouched
    ("b / 2 in the two-loop form", analytic, "SCHEMES", {
        **analytic.SCHEMES,
        "two-loop": dataclasses.replace(analytic.SCHEMES["two-loop"], quadratic_form=_two_loop_form_with_half_b),
    }, {5, 6}),
]


@pytest.mark.parametrize("name, module, target, replacement, criteria", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_mutant_fails_its_criteria(monkeypatch, name, module, target, replacement, criteria):
    monkeypatch.setattr(module, target, replacement)
    results = [verify.ALL_CHECKS[n - 1](level="fast", seed=verify.DEFAULT_SEED) for n in sorted(criteria)]
    survivors = [result.line for result in results if result.passed]
    assert not survivors, (name, survivors)


def test_criterion_8_fails_on_an_identity_solution(monkeypatch):
    # an identity-like gate has no rotation axis: the round trip counts it as the largest axis error, pi
    trivial = schemes.TwoLoopPath(schemes.LoopParams(0.0, 0.0, 0.0), schemes.LoopParams(0.0, 0.0, 0.0))
    monkeypatch.setattr(pathfinder, "solve_two_loop", lambda target, constraints: SimpleNamespace(path=trivial))
    result = verify.check_structural(level="fast", seed=verify.DEFAULT_SEED)
    assert not result.passed
    round_trips = {gate.label: gate for gate in result.gates}["round trips"]
    assert round_trips.measured == pytest.approx(np.pi)


def test_coefficient_criteria_name_the_refused_fit(monkeypatch):
    # fidelities outside (0, 1] are refused by the fit: the point counts as failed, and the note names it
    monkeypatch.setattr(schemes, "_pulse", _pulse_without_second_order_term)
    result = verify.check_two_loop_coefficients(level="fast", seed=verify.DEFAULT_SEED)
    assert not result.passed
    assert result.gates[0].measured == np.inf
    assert "4 of 4 points refused, first two-loop at theta_gate=0.3927: fidelities must lie in (0, 1]" in result.note


def test_criterion_3_reads_the_builder_mutant_through_an_accepted_fit(monkeypatch):
    # no point is refused: the coefficient is fitted, and it is off by about 5%
    monkeypatch.setattr(schemes, "single_loop_gates", _single_loop_built_at_shifted_phi)
    result = verify.check_other_scheme_coefficients(level="fast", seed=verify.DEFAULT_SEED)
    assert not result.passed and result.note == ""
    assert result.gates[0].measured == pytest.approx(0.0478, abs=1e-3)
