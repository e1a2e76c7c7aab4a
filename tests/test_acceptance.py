"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The checks themselves live in holopath.verify so that `holopath verify`
runs the identical suite from the command line.  Each test also holds the
criterion's gates to the pinned table below, so a loosened bound fails here.
"""

import numpy as np
import pytest

from holopath import verify

LEVEL = "full"

#: each criterion's gates at full level, as (label, bound, strict)
GATES = {
    "criterion-1 figure1": [
        ("exit code", 0, False),
        ("runtime (s)", 1.0, True),
        ("dominance", 0, False),
        ("monotone", 0, False),
        ("endpoint dev", 1e-12, False),
    ],
    "criterion-2 two-loop coefficients": [("max relative coefficient error", 1e-3, False), ("runtime (s)", 5.0, True)],
    "criterion-3 single-loop/single-shot coefficients": [("max relative coefficient error", 1e-3, False)],
    "criterion-4 phi_b optimality": [
        ("argmin phi_b miss from pi", 2 * np.pi / 360 + 1e-12, False),
        # the bound is the phi_b = 0 path's a, which the other schemes' coefficients must stay below
        ("other schemes' max coefficient vs phi_b=0 a", pytest.approx(12.658619934159422, rel=1e-12), True),
    ],
    "criterion-5 relative-error consistency": [
        ("max |F_exact - F''| / (|eps|+|kappa|)^3", 6.0, False),
        ("kappa=0 reduction dev", 1e-12, False),
    ],
    "criterion-6 kappa optimality": [
        ("max |dF/dkappa| balanced", 1e-8, False),
        ("unbalanced |FD - (-2 b eps)|", 1e-5, False),
        ("|-2 b eps - (-0.0096358)|", 1e-6, False),
    ],
    "criterion-7 oracle equivalence": [("max |stepped - closed|", 1e-8, False), ("runtime (s)", 120.0, True)],
    "criterion-8 structural suite": [
        ("unitarity", 1e-12, False),
        ("zero-error reduction", 1e-13, False),
        ("closed vs direct", 1e-11, False),
        ("gauge invariances", 1e-13, False),
        ("round trips", 1e-10, False),
    ],
}


def _run(check):
    result = check(level=LEVEL, seed=verify.DEFAULT_SEED)
    print(result.line)
    assert result.passed, result.line
    assert [(gate.label, gate.bound, gate.strict) for gate in result.gates] == GATES[result.name]
    return result


def test_criterion_1_figure1_reproduction():
    _run(verify.check_figure1)


def test_criterion_2_two_loop_coefficients():
    _run(verify.check_two_loop_coefficients)


def test_criterion_3_single_loop_and_single_shot_coefficients():
    _run(verify.check_other_scheme_coefficients)


def test_criterion_4_phi_b_optimality():
    _run(verify.check_phi_b_optimality)


def test_criterion_5_relative_error_consistency():
    _run(verify.check_relative_error_consistency)


def test_criterion_6_kappa_optimality():
    _run(verify.check_kappa_optimality)


def test_criterion_7_oracle_equivalence():
    result = _run(verify.check_oracle_equivalence)
    assert result.seconds < 120.0


def test_criterion_8_structural_suite():
    _run(verify.check_structural)
