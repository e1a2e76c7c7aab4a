import numpy as np
import pytest

from holopath.analytic import SCHEMES, TargetGate
from holopath.linalg import gate_fidelity
from holopath.pathfinder import (
    PathConstraints,
    gate_angle_axis,
    solve_single_loop,
    solve_single_shot,
    solve_two_loop,
)
from holopath.schemes import (
    NO_ERROR,
    RabiError,
    phi_b_of,
    single_loop_gates,
    single_shot_gates,
    two_loop_gates,
)

from helpers import bloch_vector, projective_distance_qubit, qubit_rotation


def embed(block):
    u = np.eye(3, dtype=complex)
    u[:2, :2] = block
    return u


def axis_angle(a, b):
    # chord form: precise near zero, unlike arccos of the dot product
    return 2 * np.arcsin(min(1.0, np.linalg.norm(np.asarray(a) - np.asarray(b)) / 2))


def random_target(rng):
    axis = rng.normal(size=3)
    return TargetGate(rng.uniform(0.02, np.pi / 2 - 0.02), axis / np.linalg.norm(axis))


# ------------------------------------------------------------------ two-loop


def test_solve_two_loop_z_axis_equatorial():
    sol = solve_two_loop(TargetGate(np.pi / 2, [0, 0, 1]))
    assert sol.path.loop1.theta == pytest.approx(np.pi / 2, abs=1e-14)
    assert sol.path.loop2.theta == pytest.approx(np.pi / 2, abs=1e-14)
    assert sol.path.loop1.psi == pytest.approx(0.0, abs=1e-14)


def test_solve_two_loop_x_axis_balanced():
    sol = solve_two_loop(TargetGate(np.pi / 2, [1, 0, 0]))
    path = sol.path
    cos_sum = np.cos(path.loop1.theta) + np.cos(path.loop2.theta)
    assert abs(cos_sum) <= 1e-12
    # n1_z = -n2_z = cos(pi/2 + theta/2) magnitude sin(pi/4)
    assert abs(abs(np.cos(path.loop1.theta)) - np.sin(np.pi / 4)) <= 1e-12
    u = two_loop_gates(path, NO_ERROR)[0]
    np.testing.assert_allclose(u[:2, :2], qubit_rotation(np.pi / 2, [1, 0, 0]), atol=1e-12)


def test_solve_two_loop_forces_phi_b(rng):
    for _ in range(100):
        target = random_target(rng)
        dec = phi_b_of(solve_two_loop(target).path)
        assert dec.phi_b == pytest.approx(np.pi, abs=1e-12)
        dec0 = phi_b_of(solve_two_loop(target, PathConstraints(force_phi_b=0.5)).path)
        assert dec0.phi_b == pytest.approx(0.5, abs=1e-12)
        assert dec.eta == pytest.approx(target.theta_gate, abs=1e-12)


def test_solve_two_loop_geometry(rng):
    for _ in range(200):
        target = random_target(rng)
        balanced = bool(rng.integers(2))
        sign = 1 if rng.random() < 0.5 else -1
        path = solve_two_loop(
            target, PathConstraints(force_balanced=balanced, orientation_sign=sign)
        ).path
        n1 = bloch_vector(path.loop1.theta, path.loop1.psi)
        n2 = bloch_vector(path.loop2.theta, path.loop2.psi)
        assert abs(np.dot(n1, target.axis)) <= 1e-12
        assert abs(np.dot(n2, target.axis)) <= 1e-12
        assert np.dot(n1, n2) == pytest.approx(np.cos(target.theta_gate), abs=1e-12)
        np.testing.assert_allclose(np.cross(n2, n1), np.sin(target.theta_gate) * target.axis, atol=1e-12)
        if balanced:
            assert abs(np.cos(path.loop1.theta) + np.cos(path.loop2.theta)) <= 1e-12


def test_solve_two_loop_reconstruction_exact(rng):
    for _ in range(200):
        target = random_target(rng)
        u = two_loop_gates(solve_two_loop(target).path, NO_ERROR)[0]
        expected = qubit_rotation(target.theta_gate, target.axis)
        # exact gate match, no global-phase quotient needed
        assert np.max(np.abs(u[:2, :2] - expected)) <= 1e-12
        assert abs(u[2, 2] - 1.0) <= 1e-12


def test_solve_two_loop_balanced_kills_kappa_sensitivity(rng):
    for _ in range(50):
        target = random_target(rng)
        path = solve_two_loop(target).path
        b = SCHEMES["two-loop"].quadratic_form(path)[1]
        for eps in (-0.1, 0.02, 0.1):
            assert -2.0 * b * eps == pytest.approx(0.0, abs=1e-12)


def test_solve_two_loop_orientation_solutions_equivalent(rng):
    for _ in range(50):
        target = random_target(rng)
        pa = solve_two_loop(target, PathConstraints(orientation_sign=1)).path
        pb = solve_two_loop(target, PathConstraints(orientation_sign=-1)).path
        error = RabiError(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
        fa = gate_fidelity(*two_loop_gates(pa, error))
        fb = gate_fidelity(*two_loop_gates(pb, error))
        assert fa == pytest.approx(fb, abs=1e-13)


@pytest.mark.parametrize("axis", [[0, 0, 1], [0, 0, -1], [1, 0, 0], [1, 1, 1]], ids=["+z", "-z", "x", "111"])
@pytest.mark.parametrize("sign", [1, -1])
def test_solve_two_loop_identity_target_undoes_each_loop(axis, sign):
    # theta_gate = 0 takes the general construction: n1 = n2 at phi_b = pi, so loop 2 undoes loop 1 at any error
    target = TargetGate(0.0, np.asarray(axis) / np.linalg.norm(axis))
    path = solve_two_loop(target, PathConstraints(orientation_sign=sign)).path
    assert SCHEMES["two-loop"].quadratic_form(path) == (0.0, 0.0, 0.0)
    grid = np.linspace(-0.1, 0.1, 9)
    ideal, errored = two_loop_gates(path, RabiError(*np.meshgrid(grid, grid, indexing="ij")))
    np.testing.assert_allclose(ideal, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(errored, np.broadcast_to(np.eye(3), errored.shape), atol=1e-14)


def test_solve_two_loop_determinism():
    target = TargetGate(0.7, [0.3, -0.4, 0.5])
    assert solve_two_loop(target) == solve_two_loop(target)


def test_path_constraints_validation():
    with pytest.raises(ValueError):
        PathConstraints(orientation_sign=2)


@pytest.mark.parametrize("phi_b", [None, np.nan])
def test_path_constraints_refuse_a_missing_or_nan_phi_b(phi_b):
    with pytest.raises(ValueError, match="force_phi_b"):
        PathConstraints(force_phi_b=phi_b)


# --------------------------------------------------------------- single-loop


def test_solve_single_loop_mapping_endpoints():
    path = solve_single_loop(TargetGate(np.pi / 2, [1, 0, 0]))
    assert path.phase_diff == pytest.approx(0.0, abs=1e-12)
    path0 = solve_single_loop(TargetGate(0.0, [1, 0, 0]))
    assert path0.phase_diff == pytest.approx(np.pi, abs=1e-12)


def test_solve_single_loop_example():
    path = solve_single_loop(TargetGate(np.pi / 4, [1, 0, 0]))
    assert path.theta == pytest.approx(np.pi / 2, abs=1e-14)
    assert path.psi == pytest.approx(0.0, abs=1e-14)
    assert path.phase_diff == pytest.approx(np.pi / 2, abs=1e-12)
    u = single_loop_gates(path, NO_ERROR)[0]
    target = embed(qubit_rotation(np.pi / 4, [1, 0, 0]))
    assert projective_distance_qubit(u, target) <= 1e-12


def test_solve_single_loop_round_trip(rng):
    for _ in range(300):
        target = random_target(rng)
        u = single_loop_gates(solve_single_loop(target), NO_ERROR)[0]
        theta, axis = gate_angle_axis(u)
        assert abs(theta - target.theta_gate) <= 1e-10
        assert axis_angle(axis, target.axis) <= 1e-10


# --------------------------------------------------------------- single-shot


def test_solve_single_shot_endpoints():
    assert solve_single_shot(TargetGate(0.0, [1, 0, 0])).gamma == pytest.approx(np.pi / 2, abs=1e-14)
    assert solve_single_shot(TargetGate(np.pi / 2, [1, 0, 0])).gamma == pytest.approx(0.0, abs=1e-14)


def test_solve_single_shot_quarter_rotation():
    path = solve_single_shot(TargetGate(np.pi / 4, [1, 0, 0]))
    assert path.gamma == pytest.approx(np.pi / 6, abs=1e-14)
    assert path.beta0 == 0.0
    u = single_shot_gates(path, NO_ERROR)[0]
    target = embed(qubit_rotation(np.pi / 4, [1, 0, 0]))
    assert projective_distance_qubit(u, target) <= 1e-12


def test_solve_single_shot_round_trip(rng):
    for _ in range(300):
        target = random_target(rng)
        u = single_shot_gates(solve_single_shot(target), NO_ERROR)[0]
        theta, axis = gate_angle_axis(u)
        assert abs(theta - target.theta_gate) <= 1e-10
        assert axis_angle(axis, target.axis) <= 1e-10


# ------------------------------------------------------------ angle and axis


def test_gate_angle_axis_synthetic(rng):
    for _ in range(200):
        theta = rng.uniform(0.02, np.pi / 2 - 0.02)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        block = np.exp(1j * rng.uniform(0, 2 * np.pi)) * qubit_rotation(theta, axis)
        measured_theta, measured_axis = gate_angle_axis(embed(block))
        assert abs(measured_theta - theta) <= 1e-12
        np.testing.assert_allclose(measured_axis, axis, atol=1e-12)


def test_gate_angle_axis_identity():
    theta, axis = gate_angle_axis(np.eye(3, dtype=complex))
    assert theta == pytest.approx(0.0, abs=1e-12)
    assert axis is None


def test_two_loop_phi_b_scan_minimum_at_pi():
    # coarse version of the optimality scan: 36 points at theta = pi/4
    from holopath.schemes import LoopParams, TwoLoopPath

    base = solve_two_loop(TargetGate(np.pi / 4, [0, 1, 0]), PathConstraints(force_phi_b=0.0)).path
    best_phi_b, best_infidelity = None, np.inf
    for offset in np.arange(36) * 2 * np.pi / 36:
        path = TwoLoopPath(
            base.loop1, LoopParams(base.loop2.theta, base.loop2.psi, base.loop2.phi + offset)
        )
        infidelity = 1 - gate_fidelity(*two_loop_gates(path, RabiError(1e-2)))
        if infidelity < best_infidelity:
            best_infidelity = infidelity
            best_phi_b = phi_b_of(path).phi_b
    assert abs(best_phi_b - np.pi) <= 2 * np.pi / 36 + 1e-12
