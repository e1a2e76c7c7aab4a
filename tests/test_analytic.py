import numpy as np
import pytest

from holopath import analytic
from holopath.analytic import (
    TargetGate,
    dF_dkappa_at_zero,
    extract_quadratic_coefficient,
    f1,
    f2,
    f3,
    fid2_relative,
    fid2_single_loop,
    fid2_single_shot,
    fid2_two_loop,
    fidelity_pair,
    fidelity_report,
)
from holopath.linalg import gate_fidelity
from holopath.pathfinder import PathConstraints, solve_single_shot, solve_two_loop
from holopath.schemes import (
    LoopParams,
    RabiError,
    TwoLoopPath,
    bright_dark,
    phi_b_of,
    two_loop_errored_relative,
    two_loop_ideal,
)
from holopath.verify import CUBIC_BOUND_CONSTANT


def unbalanced_fixture():
    # theta1 = pi/3, theta2 = pi/2, psi21 = pi/2 (so eta = pi/2), phi_b = pi
    b1, _ = bright_dark(np.pi / 3, 0.0)
    b2, _ = bright_dark(np.pi / 2, np.pi / 2)
    phi2 = np.pi - np.angle(np.vdot(b1, b2))
    return TwoLoopPath(LoopParams(np.pi / 3, 0.0, 0.0), LoopParams(np.pi / 2, np.pi / 2, phi2))


# -------------------------------------------------------------- f1, f2, f3


def test_f_functions_vanish_at_zero():
    assert f1(0.0) == 0.0
    assert f2(0.0) == 0.0
    assert f3(0.0) == 0.0


def test_f_functions_right_endpoint():
    assert f1(np.pi / 2) == pytest.approx(2 - np.sqrt(2), abs=1e-15)
    assert f1(np.pi / 2) == pytest.approx(0.585786, abs=1e-6)
    assert f2(np.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert f3(np.pi / 2) == pytest.approx(1.0, abs=1e-15)


def test_f_functions_domain_check():
    for fn in (f1, f2, f3):
        with pytest.raises(ValueError):
            fn(-0.1)
        with pytest.raises(ValueError):
            fn(np.pi / 2 + 0.1)


def test_f1_dominates_on_grid():
    theta = np.linspace(1e-6, np.pi / 2, 1000)
    assert np.all(f1(theta) < f2(theta))
    assert np.all(f1(theta) < f3(theta))


def test_f_functions_monotone_increasing():
    theta = np.linspace(0.0, np.pi / 2, 1000)
    for fn in (f1, f2, f3):
        assert np.all(np.diff(fn(theta)) > 0)


def test_f_gaps_increase_on_lower_range():
    # the dominance gaps grow with the rotation angle up to ~0.4 pi; both
    # peak before pi/2 (f2 - f1 turns at exactly 2 pi / 5)
    theta = np.linspace(0.0, 1.2, 400)
    assert np.all(np.diff(f2(theta) - f1(theta)) > 0)
    assert np.all(np.diff(f3(theta) - f1(theta)) > 0)


def test_phi_b_zero_counter_check():
    # with phi_b = 0 the two-loop coefficient exceeds both other schemes
    theta = np.linspace(1e-3, np.pi / 2, 200)
    for t in theta:
        coeff0 = analytic.quad_coeff_two_loop(t, 0.0)
        assert coeff0 > f2(t) * np.pi**2 / 3
        assert coeff0 > f3(t) * np.pi**2 / 3


# ------------------------------------------------------------ fid2 formulas


def test_fid2_two_loop_values():
    assert fid2_two_loop(1.0, 2.0, 0.0) == 1.0
    assert fid2_two_loop(np.pi / 2, np.pi, 1e-2) == pytest.approx(0.999807283986570, abs=1e-15)
    assert fid2_two_loop(np.pi / 2, np.pi, 1e-2) == pytest.approx(0.99980728, abs=1e-8)
    assert fid2_two_loop(np.pi / 2, 0.0, 1e-2) == pytest.approx(0.998876768759951, abs=1e-15)
    assert fid2_two_loop(np.pi / 2, 0.0, 1e-2) == pytest.approx(0.99887686, abs=1e-7)


def test_fid2_single_loop_values():
    assert fid2_single_loop(0.3, 0.0) == 1.0
    assert fid2_single_loop(np.pi, 0.05) == pytest.approx(1.0, abs=1e-15)
    assert fid2_single_loop(0.0, 1e-2) == pytest.approx(0.999671013186630, abs=1e-15)
    assert fid2_single_loop(0.0, 1e-2) == pytest.approx(0.99967101, abs=1e-8)


def test_fid2_single_shot_values():
    assert fid2_single_shot(np.pi / 2, 0.05) == pytest.approx(1.0, abs=1e-15)
    assert fid2_single_shot(0.0, 1e-2) == pytest.approx(0.999671013186630, abs=1e-15)


def test_fid2_single_shot_rotation_angle_identity():
    # cos^4(gamma) = 16 t^2 (1 - t/pi)^2 / pi^2 when sin(gamma) = 1 - 2 t / pi
    for theta_gate in np.linspace(0.0, np.pi / 2, 50):
        gamma = np.arcsin(1 - 2 * theta_gate / np.pi)
        lhs = fid2_single_shot(gamma, 0.03)
        rhs = 1 - (16 / 3) * theta_gate**2 * (1 - theta_gate / np.pi) ** 2 * 0.03**2
        assert lhs == pytest.approx(rhs, abs=1e-14)


def test_fid2_epsilon_domain():
    with pytest.raises(ValueError):
        fid2_two_loop(1.0, np.pi, 0.2)
    with pytest.raises(ValueError):
        fid2_single_loop(1.0, -0.2)
    with pytest.raises(ValueError):
        fid2_single_shot(1.0, 0.11)


# ------------------------------------------------------------- fid2_relative


def test_fid2_relative_common_error_reduction(rng):
    for _ in range(100):
        path = TwoLoopPath(
            LoopParams(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)),
            LoopParams(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)),
        )
        dec = phi_b_of(path)
        if dec.degenerate:
            continue
        eps = rng.uniform(-0.1, 0.1)
        breakdown, fid = fid2_relative(path, RabiError(eps))
        assert abs(breakdown.y) <= 1e-15
        assert fid == pytest.approx(fid2_two_loop(dec.eta, dec.phi_b, eps), abs=1e-12)


def test_fid2_relative_phi_b_pi_matches_f1(rng):
    # at phi_b = pi and kappa = 0 the z term reduces to f1(eta) eps^2
    path = unbalanced_fixture()
    dec = phi_b_of(path)
    eps = 0.02
    breakdown, fid = fid2_relative(path, RabiError(eps))
    assert 1 - fid == pytest.approx(f1(dec.eta) * np.pi**2 * eps**2 / 3, abs=1e-12)


def test_fid2_relative_zero_error():
    _, fid = fid2_relative(unbalanced_fixture(), RabiError(0.0, 0.0))
    assert fid == 1.0


def test_fid2_relative_regression_fixture():
    # frozen from exact-propagation cross-check of this pipeline
    breakdown, fid = fid2_relative(unbalanced_fixture(), RabiError(1e-2, 5e-3))
    assert fid == pytest.approx(0.999682496088484, abs=1e-12)
    assert not breakdown.degenerate
    exact = gate_fidelity(
        two_loop_ideal(unbalanced_fixture()),
        two_loop_errored_relative(unbalanced_fixture(), RabiError(1e-2, 5e-3)),
    )
    assert abs(fid - exact) <= 6.0 * (1e-2 + 5e-3) ** 3


def test_fid2_relative_breakdown_invariants(rng):
    for _ in range(200):
        path = TwoLoopPath(
            LoopParams(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)),
            LoopParams(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)),
        )
        error = RabiError(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
        breakdown, fid = fid2_relative(path, error)
        assert np.isfinite(fid)
        if breakdown.degenerate:
            continue
        assert breakdown.y >= 0.0
        assert breakdown.z >= 0.0
        assert breakdown.y**2 == pytest.approx(
            breakdown.theta11**2
            + breakdown.theta22**2
            - 2 * breakdown.theta11 * breakdown.theta22 * np.cos(breakdown.psi21),
            abs=1e-15,
        )


@pytest.mark.parametrize("kappa", [0.0, 0.01, -0.01])
def test_fid2_relative_orthogonal_bright_states(kappa):
    # loops at theta = 0 and theta = pi: eta = pi, where phi_b is undefined
    path = TwoLoopPath(LoopParams(0.0, 0.0, 0.0), LoopParams(np.pi, 0.0, 0.0))
    error = RabiError(0.01, kappa)
    breakdown, fid = fid2_relative(path, error)
    assert breakdown.degenerate
    assert np.isnan(breakdown.phi_b)
    exact = gate_fidelity(two_loop_ideal(path), two_loop_errored_relative(path, error))
    assert abs(exact - fid) <= CUBIC_BOUND_CONSTANT * (abs(error.epsilon) + abs(kappa)) ** 3
    assert fidelity_pair("two-loop", path, error) == (exact, fid)


# ------------------------------------------------------------- dF/dkappa


def test_dF_dkappa_balanced_is_zero():
    path = solve_two_loop(TargetGate(np.pi / 2, [0, 0, 1])).path
    assert dF_dkappa_at_zero(path, 0.05) == pytest.approx(0.0, abs=1e-12)


def test_dF_dkappa_fixture_value():
    value = dF_dkappa_at_zero(unbalanced_fixture(), 1e-2)
    expected = -(2 / 3) * (1 - np.cos(np.pi / 4)) * 0.5 * np.pi**2 * 1e-2
    assert value == pytest.approx(expected, abs=1e-15)
    assert value == pytest.approx(-9.6358e-3, abs=1e-6)


def test_dF_dkappa_matches_finite_difference():
    path = unbalanced_fixture()
    eps, h = 1e-2, 1e-5
    ideal = two_loop_ideal(path)
    f_plus = gate_fidelity(ideal, two_loop_errored_relative(path, RabiError(eps, h)))
    f_minus = gate_fidelity(ideal, two_loop_errored_relative(path, RabiError(eps, -h)))
    fd = (f_plus - f_minus) / (2 * h)
    assert abs(fd - dF_dkappa_at_zero(path, eps)) <= 1e-5


def test_dF_dkappa_linear_in_epsilon():
    path = unbalanced_fixture()
    assert dF_dkappa_at_zero(path, -0.01) == pytest.approx(-dF_dkappa_at_zero(path, 0.01), abs=1e-15)


# ------------------------------------------------- coefficient extraction


def test_extract_quadratic_synthetic_exact():
    # magnitudes large enough that 1 - F carries no cancellation noise
    samples = [(e, 1 - 2 * e**2) for e in (0.1, -0.1, 0.01, -0.01)]
    coeff = extract_quadratic_coefficient(samples)
    assert coeff == pytest.approx(2.0, abs=1e-10)


def test_extract_quadratic_two_loop_target():
    path = solve_two_loop(TargetGate(np.pi / 2, [1, 0, 0])).path
    ideal = two_loop_ideal(path)
    samples = [
        (e, gate_fidelity(ideal, two_loop_errored_relative(path, RabiError(e))))
        for e in (1e-3, -1e-3, 1e-4, -1e-4)
    ]
    coeff = extract_quadratic_coefficient(samples)
    assert coeff == pytest.approx((2 - np.sqrt(2)) * np.pi**2 / 3, rel=1e-3)
    assert coeff == pytest.approx(1.92716, rel=1e-3)


def test_extract_quadratic_single_shot_target():
    from holopath.schemes import single_shot_errored, single_shot_ideal

    path = solve_single_shot(TargetGate(np.pi / 4, [1, 0, 0]))
    assert path.gamma == pytest.approx(np.pi / 6, abs=1e-14)
    ideal = single_shot_ideal(path)
    samples = [
        (e, gate_fidelity(ideal, single_shot_errored(path, RabiError(e))))
        for e in (1e-3, -1e-3, 1e-4, -1e-4)
    ]
    coeff = extract_quadratic_coefficient(samples)
    assert coeff == pytest.approx((9 / 16) * np.pi**2 / 3, rel=1e-3)
    assert coeff == pytest.approx(1.85055, rel=1e-3)


def test_extract_quadratic_validation():
    with pytest.raises(ValueError):
        extract_quadratic_coefficient([(1e-3, 0.999)])
    with pytest.raises(ValueError):
        extract_quadratic_coefficient([(1e-3, 0.999), (1e-3, 0.999), (1e-3, 0.999)])
    with pytest.raises(ValueError):  # missing sign pair
        extract_quadratic_coefficient([(1e-3, 0.999), (2e-3, 0.996), (4e-3, 0.984)])
    with pytest.raises(ValueError):  # zero epsilon
        extract_quadratic_coefficient([(0.0, 1.0), (1e-3, 0.999), (-1e-3, 0.999)])
    with pytest.raises(ValueError):  # fidelity out of range
        extract_quadratic_coefficient([(1e-3, 1.5), (-1e-3, 0.999), (1e-4, 0.9999)])


# ------------------------------------------------------------ report helpers


def test_fidelity_pair_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        fidelity_pair("three-loop", None, RabiError(0.0))


def test_fidelity_report_consistency():
    path = solve_two_loop(TargetGate(np.pi / 4, [0, 1, 0])).path
    report = fidelity_report("two-loop", path, RabiError(1e-2))
    assert report.exact == pytest.approx(report.analytic2, abs=1e-6)
    assert report.quad_coeff_exact == pytest.approx(report.quad_coeff_analytic, rel=1e-3)
    assert report.quad_coeff_analytic == pytest.approx(f1(np.pi / 4) * np.pi**2 / 3, rel=1e-6)


@pytest.mark.parametrize("error", [RabiError(np.array([0.01, 0.02])), RabiError(0.01, np.array([0.0, 0.01]))])
def test_fidelity_report_rejects_error_grid(error):
    path = solve_two_loop(TargetGate(np.pi / 4, [0, 1, 0])).path
    with pytest.raises(ValueError, match="one error point"):
        fidelity_report("two-loop", path, error)


def test_target_gate_validation():
    gate = TargetGate(0.3, [0, 0, 2.0])
    assert np.linalg.norm(gate.axis) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        TargetGate(2.0, [0, 0, 1])
    with pytest.raises(ValueError):
        TargetGate(0.3, [0, 0, 0])
