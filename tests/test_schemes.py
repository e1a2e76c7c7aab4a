import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from holopath import oracle, schemes
from holopath.linalg import (
    IDENTITY,
    KET_0,
    KET_1,
    KET_E,
    PROJ_E,
    expm,
    gate_fidelity,
)
from holopath.schemes import (
    NO_ERROR,
    LoopParams,
    RabiError,
    SingleLoopPath,
    SingleShotPath,
    TwoLoopPath,
    bright_dark,
    phi_b_of,
    relative_error_angles,
    single_loop_gates,
    single_shot_gates,
    two_loop_gates,
)

from helpers import (
    bloch_vector,
    coupling_generator,
    pauli_dot,
    projector,
    projective_distance_qubit,
    qubit_rotation,
    single_shot_bright,
    single_shot_frame,
    single_shot_rabi_parameters,
)


def random_two_loop(rng):
    return TwoLoopPath(
        LoopParams(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)),
        LoopParams(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)),
    )


# ---------------------------------------------------------------- bright/dark


def test_bright_dark_theta_zero():
    b, d = bright_dark(0.0, 1.3)
    np.testing.assert_allclose(b, [1, 0, 0], atol=1e-15)
    assert abs(d[1]) == pytest.approx(1.0, abs=1e-15)
    assert abs(d[0]) <= 1e-15


def test_bright_dark_equal_superposition():
    b, d = bright_dark(np.pi / 2, 0.0)
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(b, [s, s, 0], atol=1e-15)
    np.testing.assert_allclose(d, [s, -s, 0], atol=1e-15)


def test_bright_dark_orthonormal(rng):
    for _ in range(1000):
        b, d = bright_dark(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        assert abs(np.vdot(b, b) - 1) <= 1e-14
        assert abs(np.vdot(d, d) - 1) <= 1e-14
        assert abs(np.vdot(b, d)) <= 1e-14
        assert abs(b[2]) == 0 and abs(d[2]) == 0


def test_bloch_vector_poles_and_equator():
    np.testing.assert_allclose(bloch_vector(0.0, 0.0), [0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(bloch_vector(np.pi / 2, np.pi / 2), [0, 1, 0], atol=1e-15)


def test_bloch_vector_reconstructs_projector_difference(rng):
    for _ in range(1000):
        theta, psi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        n = bloch_vector(theta, psi)
        assert abs(np.linalg.norm(n) - 1) <= 1e-14
        b, d = bright_dark(theta, psi)
        np.testing.assert_allclose(projector(b) - projector(d), pauli_dot(n), atol=1e-14)


# ---------------------------------------------------------- closed-form pulses

PHASES = st.floats(0.0, 2 * np.pi)
#: None for one generator; n for a stack of n, the empty stack included
STACKS = st.none() | st.integers(0, 3)
AREAS = st.sampled_from([0.0, np.pi / 2, np.pi, 0.9 * np.pi, 1.1 * np.pi])
PULSE_SETTINGS = settings(max_examples=60, deadline=None)


def _floats(draw, stack, lo, hi):
    if stack is None:
        return draw(st.floats(lo, hi))
    return np.array(draw(st.lists(st.floats(lo, hi), min_size=stack, max_size=stack)))


def _single_shot_path(draw):
    return SingleShotPath(draw(st.floats(0.0, np.pi / 2)), draw(PHASES), draw(PHASES),
                          draw(st.floats(-np.pi / 2, np.pi / 2)))


def _coupling(draw, stack):
    return coupling_generator(*(_floats(draw, stack, 0.0, hi) for hi in (np.pi, 2 * np.pi, 2 * np.pi)))


def _errored_frame(draw, stack):
    """A drawn single-shot path and its errored frame, one per drawn (epsilon, kappa) point."""
    path = _single_shot_path(draw)
    error = RabiError(_floats(draw, stack, -0.1, 0.1), _floats(draw, stack, -0.1, 0.1))
    return path, single_shot_frame(path, error)


def _bright_excited(draw, stack):
    return PROJ_E + _errored_frame(draw, stack)[1][2]


def _sigma(draw, stack):
    path, (_, delta, pb, cross) = _errored_frame(draw, stack)
    return schemes._error_operator(pb, cross, path.gamma, delta)[1]


#: every generator kind the gate constructors exponentiate, by name
PULSE_GENERATORS = {"coupling": _coupling, "bright/excited projector": _bright_excited, "sigma": _sigma}


@pytest.mark.parametrize("kind", PULSE_GENERATORS)
@PULSE_SETTINGS
@given(data=st.data())
def test_pulse_matches_expm(kind, data):
    g = PULSE_GENERATORS[kind](data.draw, data.draw(STACKS))
    # an area per generator of the stack, or a (k,) array over one generator
    shape = data.draw(st.sampled_from([(), g.shape[:-2] or (data.draw(st.integers(0, 3)),)]))
    size = int(np.prod(shape))
    area = np.array(data.draw(st.lists(AREAS, min_size=size, max_size=size))).reshape(shape)
    area = float(area) if area.ndim == 0 else area
    closed, reference = schemes._pulse(g, area), expm(g, area)
    assert closed.shape == reference.shape
    np.testing.assert_allclose(closed, reference, rtol=0, atol=1e-14)


@pytest.mark.parametrize("kind", PULSE_GENERATORS)
@PULSE_SETTINGS
@given(data=st.data())
def test_pulse_generators_satisfy_cube_identity(kind, data):
    # _pulse's precondition G^3 = G, checked here for every kind rather than on every call
    g = PULSE_GENERATORS[kind](data.draw, data.draw(STACKS))
    np.testing.assert_allclose(g @ g @ g, g, rtol=0, atol=1e-15)


def test_pulse_keeps_expm_contracts():
    # _pulse trusts its generators' hermiticity; a non-Hermitian coupling is a row of test_mutants.py
    with pytest.raises(ValueError, match="area must be finite"):
        schemes._pulse(coupling_generator(1.0, 0.0, 0.0), np.array([np.pi, np.nan]))


# ------------------------------------------------------------------- two-loop


def test_two_loop_parallel_loops_give_identity_qubit_block():
    loop = LoopParams(0.7, 1.1, 0.3)
    u = two_loop_gates(TwoLoopPath(loop, LoopParams(0.7, 1.1, 2.9)), NO_ERROR)[0]
    np.testing.assert_allclose(u[:2, :2], np.eye(2), atol=1e-14)


def test_two_loop_cross_product_form(rng):
    for _ in range(300):
        path = random_two_loop(rng)
        n1 = bloch_vector(path.loop1.theta, path.loop1.psi)
        n2 = bloch_vector(path.loop2.theta, path.loop2.psi)
        expected = PROJ_E + np.dot(n1, n2) * (IDENTITY - PROJ_E) - 1j * pauli_dot(np.cross(n1, n2))
        np.testing.assert_allclose(two_loop_gates(path, NO_ERROR)[0], expected, atol=1e-12)


def test_two_loop_example_quarter_rotation_about_minus_z():
    path = TwoLoopPath(LoopParams(np.pi / 2, 0.0, 0.0), LoopParams(np.pi / 2, np.pi / 2, 0.0))
    u = two_loop_gates(path, NO_ERROR)[0]
    np.testing.assert_allclose(u[:2, :2], qubit_rotation(np.pi / 2, [0, 0, -1]), atol=1e-14)
    assert abs(u[2, 2] - 1) <= 1e-14


def test_two_loop_total_phase_independence():
    u_ref = None
    for phi1, phi2 in itertools.product(np.linspace(0, 2 * np.pi, 5), repeat=2):
        path = TwoLoopPath(LoopParams(0.9, 0.4, phi1), LoopParams(1.7, 2.2, phi2))
        u = two_loop_gates(path, NO_ERROR)[0]
        if u_ref is None:
            u_ref = u
        np.testing.assert_allclose(u, u_ref, atol=1e-12)


def test_two_loop_errored_zero_error_reduction(rng):
    for _ in range(100):
        path = random_two_loop(rng)
        ideal, errored, _ = two_loop_gates(path, RabiError(0.0))
        diff = errored - ideal
        assert np.max(np.abs(diff)) <= 1e-13


def test_two_loop_errored_fidelity_fixture():
    # phi_b = pi path realizing a pi/2 rotation: F = 1 - (2/3)(1 - cos(pi/4)) pi^2 eps^2 + O(eps^3)
    b1, _ = bright_dark(np.pi / 2, 3 * np.pi / 4)
    b2, _ = bright_dark(np.pi / 2, np.pi / 4)
    phi2 = np.pi - np.angle(np.vdot(b1, b2))
    path = TwoLoopPath(LoopParams(np.pi / 2, 3 * np.pi / 4, 0.0), LoopParams(np.pi / 2, np.pi / 4, phi2))
    eps = 1e-3
    exact = gate_fidelity(*two_loop_gates(path, RabiError(eps))[:2])
    expected = 1 - (2 / 3) * (1 - np.cos(np.pi / 4)) * np.pi**2 * eps**2
    assert expected == pytest.approx(1 - 1.9272e-6, abs=1e-10)
    assert abs(exact - expected) <= 1e-11


def test_two_loop_fidelity_depends_only_on_phase_difference(rng):
    path = random_two_loop(rng)
    eps = RabiError(5e-3)
    f_ref = gate_fidelity(*two_loop_gates(path, eps)[:2])
    for shift in np.linspace(0, 2 * np.pi, 9):
        shifted = TwoLoopPath(
            LoopParams(path.loop1.theta, path.loop1.psi, path.loop1.phi + shift),
            LoopParams(path.loop2.theta, path.loop2.psi, path.loop2.phi + shift),
        )
        f = gate_fidelity(*two_loop_gates(shifted, eps)[:2])
        assert abs(f - f_ref) <= 1e-13


# ------------------------------------------------------- two-loop, relative


def test_relative_error_angles_fixture():
    # theta = pi/2, epsilon0 = 0.02, epsilon1 = 0
    theta_p, delta = relative_error_angles(np.pi / 2, RabiError(0.01, 0.01))
    assert theta_p == pytest.approx(2 * np.arctan(1 / 1.02), abs=1e-15)
    assert theta_p == pytest.approx(1.550994993618919, abs=1e-12)
    assert delta == pytest.approx(np.sqrt(1.0202) - 1, abs=1e-15)
    assert delta == pytest.approx(0.010049503737317, abs=1e-12)


def test_relative_error_angles_at_pi():
    # tan(theta/2) diverges at theta = pi; the atan2 form stays exact
    theta_p, delta = relative_error_angles(np.pi, RabiError(0.05, 0.02))
    assert theta_p == pytest.approx(np.pi, abs=1e-15)
    assert delta == pytest.approx(0.03, abs=1e-15)


def test_relative_reduces_to_common_error(rng):
    # at kappa = 0 each loop is its ideal loop followed by an extra eps*pi rotation
    for _ in range(200):
        path = random_two_loop(rng)
        eps = rng.uniform(-0.1, 0.1)
        g1 = coupling_generator(path.loop1.theta, path.loop1.psi, path.loop1.phi)
        g2 = coupling_generator(path.loop2.theta, path.loop2.psi, path.loop2.phi)
        common = expm(g2, np.pi) @ expm(g2, eps * np.pi) @ expm(g1, eps * np.pi) @ expm(g1, np.pi)
        diff = two_loop_gates(path, RabiError(eps))[1] - common
        assert np.max(np.abs(diff)) <= 1e-13


def test_relative_zero_error_is_ideal(rng):
    path = random_two_loop(rng)
    ideal, errored, _ = two_loop_gates(path, RabiError(0.0, 0.0))
    diff = errored - ideal
    assert np.max(np.abs(diff)) <= 1e-13


def test_relative_factored_vs_direct(rng):
    # each errored loop factors into its pi-area loop and a residual delta*pi rotation
    for _ in range(300):
        path = random_two_loop(rng)
        error = RabiError(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
        factored = IDENTITY
        for loop in (path.loop1, path.loop2):
            theta_p, delta = relative_error_angles(loop.theta, error)
            gen = coupling_generator(theta_p, loop.psi, loop.phi)
            factored = expm(gen, delta * np.pi) @ expm(gen, np.pi) @ factored
        assert np.max(np.abs(two_loop_gates(path, error)[1] - factored)) <= 1e-13


# ---------------------------------------------------------------- single-loop


def test_single_loop_closed_form_no_phase_jump():
    path = SingleLoopPath(0.8, 1.9, 1.1, 1.1)
    b, d = bright_dark(0.8, 1.9)
    expected = -PROJ_E - projector(b) + projector(d)
    np.testing.assert_allclose(single_loop_gates(path, NO_ERROR)[0], expected, atol=1e-12)


def test_single_loop_segment_composition():
    # scipy's Pade exponential, not linalg.expm: the eigh product is itself ~1e-15 from the exact answer
    path = SingleLoopPath(1.2, 0.5, 2.0, 0.7)
    seg1 = scipy.linalg.expm(-0.5j * np.pi * coupling_generator(1.2, 0.5, 2.0))
    seg2 = scipy.linalg.expm(-0.5j * np.pi * coupling_generator(1.2, 0.5, 0.7))
    np.testing.assert_allclose(single_loop_gates(path, NO_ERROR)[0], seg2 @ seg1, atol=1e-15)


def test_single_loop_realizes_rotation(rng):
    for _ in range(50):
        theta, psi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        theta_gate = rng.uniform(0, np.pi / 2)
        path = SingleLoopPath(theta, psi, np.pi - 2 * theta_gate, 0.0)
        u = single_loop_gates(path, NO_ERROR)[0]
        target = np.eye(3, dtype=complex)
        target[:2, :2] = qubit_rotation(theta_gate, bloch_vector(theta, psi))
        assert projective_distance_qubit(u, target) <= 1e-12


def test_single_loop_errored_fixture():
    # phase jump pi/2: F = 1 - (1/6)(1 + cos(pi/2)) pi^2 eps^2 + O(eps^3)
    path = SingleLoopPath(0.7, 1.1, np.pi / 2, 0.0)
    eps = 1e-3
    exact = gate_fidelity(*single_loop_gates(path, RabiError(eps))[:2])
    expected = 1 - (1 / 6) * (1 + np.cos(np.pi / 2)) * np.pi**2 * eps**2
    assert expected == pytest.approx(1 - 1.6449e-6, abs=1e-10)
    assert abs(exact - expected) <= 1e-11


def test_single_loop_zero_error_and_common_shift(rng):
    path = SingleLoopPath(0.8, 0.3, 1.1, 0.0)
    ideal, errored, _ = single_loop_gates(path, RabiError(0.0))
    diff = errored - ideal
    assert np.max(np.abs(diff)) <= 1e-13
    f_ref = gate_fidelity(*single_loop_gates(path, RabiError(1e-2))[:2])
    for shift in np.linspace(0, 2 * np.pi, 9):
        shifted = SingleLoopPath(0.8, 0.3, 1.1 + shift, shift)
        f = gate_fidelity(*single_loop_gates(shifted, RabiError(1e-2))[:2])
        assert abs(f - f_ref) <= 1e-13


def test_single_loop_relative_error_matches_oracle_limit(rng):
    for _ in range(50):
        path = SingleLoopPath(rng.uniform(0, np.pi), *rng.uniform(0, 2 * np.pi, 3))
        error = RabiError(rng.uniform(-0.1, 0.1), rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 0.1))
        limit = oracle.closed_form_limit(oracle.schedule_for_single_loop(path, error, "square"))
        assert np.max(np.abs(single_loop_gates(path, error)[1] - limit)) <= 1e-12


# ---------------------------------------------------------------- single-shot


def test_single_shot_gamma_half_pi_is_identity():
    u = single_shot_gates(SingleShotPath(0.4, 0.0, 1.0, np.pi / 2), NO_ERROR)[0]
    np.testing.assert_allclose(u, IDENTITY, atol=1e-12)


def test_single_shot_resonant_limit():
    # gamma = 0 is a resonant pi pulse: -|e><e| - |b><b| + |d><d|
    path = SingleShotPath(0.4, 0.2, 1.0, 0.0)
    pb = projector(single_shot_bright(path))
    expected = -PROJ_E - pb + (IDENTITY - PROJ_E - pb)
    np.testing.assert_allclose(single_shot_gates(path, NO_ERROR)[0], expected, atol=1e-12)


def test_single_shot_realizes_rotation(rng):
    for _ in range(50):
        alpha = rng.uniform(0, np.pi / 2)
        beta1 = rng.uniform(0, 2 * np.pi)
        gamma = rng.uniform(-np.pi / 2, np.pi / 2)
        path = SingleShotPath(alpha, 0.0, beta1, gamma)
        zeta = np.pi * (1 - np.sin(gamma))
        axis = bloch_vector(2 * alpha, beta1)
        target = np.eye(3, dtype=complex)
        target[:2, :2] = qubit_rotation(zeta / 2, axis)
        assert projective_distance_qubit(single_shot_gates(path, NO_ERROR)[0], target) <= 1e-12


def test_single_shot_closed_vs_full_hamiltonian_grid():
    # >= 1000-point (alpha, gamma, beta0, beta1, epsilon) grid
    alphas = np.linspace(0, np.pi / 2, 4)
    gammas = np.linspace(-np.pi / 2, np.pi / 2, 4)
    betas = np.linspace(0, 2 * np.pi, 4, endpoint=False)
    epsilons = (-0.1, -0.01, 0.0, 0.1)
    count = 0
    worst = 0.0
    for alpha, gamma, b0, b1, eps in itertools.product(alphas, gammas, betas, betas, epsilons):
        path = SingleShotPath(alpha, b0, b1, gamma)
        direct = expm(oracle.schedule_for_single_shot(path, RabiError(eps), "square").segments[0].generator, np.pi)
        worst = max(worst, np.max(np.abs(single_shot_gates(path, RabiError(eps))[1] - direct)))
        if eps == 0.0:
            worst = max(worst, np.max(np.abs(single_shot_gates(path, NO_ERROR)[0] - direct)))
        count += 1
    assert count >= 1000
    assert worst <= 1e-11


def test_single_shot_error_operator_properties(rng):
    for _ in range(100):
        path = SingleShotPath(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi),
                              rng.uniform(0, 2 * np.pi), rng.uniform(-np.pi / 2, np.pi / 2))
        _, delta, pb, cross = single_shot_frame(path, RabiError(*rng.uniform(-0.1, 0.1, 2)))
        lam, sigma = schemes._error_operator(pb, cross, path.gamma, delta)
        assert lam > 0
        assert abs(np.trace(sigma)) <= 1e-12
        np.testing.assert_allclose(sigma @ sigma, PROJ_E + pb, atol=1e-12)


def test_single_shot_errored_fixture():
    # gamma = pi/6: F = 1 - (1/3) pi^2 eps^2 (9/16) + O(eps^3)
    path = SingleShotPath(0.4, 0.0, 0.9, np.pi / 6)
    eps = 1e-3
    exact = gate_fidelity(*single_shot_gates(path, RabiError(eps))[:2])
    expected = 1 - np.pi**2 * eps**2 * (9 / 16) / 3
    assert expected == pytest.approx(1 - 1.8506e-6, abs=1e-10)
    assert abs(exact - expected) <= 1e-8


def test_single_shot_zero_error_reduction(rng):
    path = SingleShotPath(0.7, 0.1, 2.2, -0.4)
    ideal, errored, _ = single_shot_gates(path, RabiError(0.0))
    diff = errored - ideal
    assert np.max(np.abs(diff)) <= 1e-13


def test_single_shot_relative_error_matches_oracle_limit(rng):
    for _ in range(50):
        path = SingleShotPath(
            rng.uniform(0, np.pi / 2), *rng.uniform(0, 2 * np.pi, 2), rng.uniform(-np.pi / 2, np.pi / 2)
        )
        error = RabiError(rng.uniform(-0.1, 0.1), rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 0.1))
        limit = oracle.closed_form_limit(oracle.schedule_for_single_shot(path, error, "square"))
        assert np.max(np.abs(single_shot_gates(path, error)[1] - limit)) <= 1e-12


def test_single_shot_rabi_parameters():
    path = SingleShotPath(np.pi / 6, 0.4, -1.1, np.pi / 6)
    delta, om0, om1 = single_shot_rabi_parameters(path, omega=2.0)
    assert delta == pytest.approx(-2 * 2.0 * 0.5)
    assert om0 == pytest.approx(2.0 * np.cos(np.pi / 6) * np.cos(np.pi / 6))
    assert om1 == pytest.approx(2.0 * np.sin(np.pi / 6) * np.cos(np.pi / 6))
    # the detuning and the two phased Rabi drives rebuild the scaled single-shot generator
    drive = np.outer(om0 * np.exp(1j * path.beta0) * KET_0 + om1 * np.exp(1j * path.beta1) * KET_1, KET_E)
    hamiltonian = -delta * PROJ_E + drive + drive.conj().T
    generator = oracle.schedule_for_single_shot(path, RabiError(0.0), "square").segments[0].generator
    np.testing.assert_allclose(hamiltonian, 2.0 * generator, atol=1e-14)


# --------------------------------------------------------------------- phi_b


def test_phi_b_identical_loops_up_to_phase():
    path = TwoLoopPath(LoopParams(0.9, 1.2, 0.4), LoopParams(0.9, 1.2, 2.0))
    dec = phi_b_of(path)
    assert dec.eta == pytest.approx(0.0, abs=1e-7)
    assert dec.phi_b == pytest.approx(2.0 - 0.4, abs=1e-12)
    assert not dec.degenerate


def test_phi_b_quarter_turn_fixture():
    # <b1|b2> = (1 + 1j)/2 so eta = pi/2 and phi_b = pi/4
    path = TwoLoopPath(LoopParams(np.pi / 2, 0.0, 0.0), LoopParams(np.pi / 2, np.pi / 2, 0.0))
    b1, _ = bright_dark(np.pi / 2, 0.0)
    b2, _ = bright_dark(np.pi / 2, np.pi / 2)
    assert np.vdot(b1, b2) == pytest.approx((1 + 1j) / 2, abs=1e-15)
    dec = phi_b_of(path)
    assert dec.eta == pytest.approx(np.pi / 2, abs=1e-12)
    assert dec.phi_b == pytest.approx(np.pi / 4, abs=1e-12)


def test_phi_b_reconstruction_round_trip(rng):
    for _ in range(200):
        path = random_two_loop(rng)
        dec = phi_b_of(path)
        if dec.degenerate:
            continue
        b1, d1 = bright_dark(path.loop1.theta, path.loop1.psi)
        b2, _ = bright_dark(path.loop2.theta, path.loop2.psi)
        rebuilt = (
            np.cos(dec.eta / 2) * np.exp(1j * (dec.phi_b + path.loop1.phi)) * b1
            + np.sin(dec.eta / 2) * np.exp(1j * dec.phi_d) * d1
        )
        np.testing.assert_allclose(rebuilt, np.exp(1j * path.loop2.phi) * b2, atol=1e-13)


def test_phi_b_degenerate_flagged():
    # orthogonal bright states: theta2 = pi - theta1, psi2 = psi1 + pi
    path = TwoLoopPath(LoopParams(0.6, 0.3, 0.0), LoopParams(np.pi - 0.6, 0.3 + np.pi, 1.0))
    dec = phi_b_of(path)
    assert dec.degenerate
    assert dec.eta == pytest.approx(np.pi, abs=1e-12)
    assert np.isnan(dec.phi_b)


# ----------------------------------------------------- second-order agreement


def second_order_residuals(make_exact, analytic_coeff):
    residuals = []
    for eps in (1e-2, 1e-3, 1e-4):
        exact = make_exact(eps)
        residuals.append(abs(exact - (1 - analytic_coeff * eps**2)))
    return residuals


@pytest.mark.parametrize("scheme", ["two-loop", "single-loop", "single-shot"])
def test_second_order_agreement_cubic_suppression(scheme, rng):
    from holopath import analytic

    if scheme == "two-loop":
        path = random_two_loop(rng)
        dec = phi_b_of(path)
        coeff = analytic.quad_coeff_two_loop(dec.eta, dec.phi_b)
        make = lambda e: gate_fidelity(*two_loop_gates(path, RabiError(e))[:2])
    elif scheme == "single-loop":
        path = SingleLoopPath(0.9, 0.3, 2.1, 0.6)
        coeff = analytic.quad_coeff_single_loop(path.phase_diff)
        make = lambda e: gate_fidelity(*single_loop_gates(path, RabiError(e))[:2])
    else:
        path = SingleShotPath(0.7, 0.2, 1.4, 0.5)
        coeff = analytic.quad_coeff_single_shot(path.gamma)
        make = lambda e: gate_fidelity(*single_shot_gates(path, RabiError(e))[:2])
    r = second_order_residuals(make, coeff)
    floor = 5e-16
    assert r[0] / max(r[1], floor) >= 1e2
    assert r[1] / max(r[2], floor) >= 1e2


# ----------------------------------------------------------------- dataclasses


def test_loop_params_normalization_and_domain():
    loop = LoopParams(1.0, 2 * np.pi + 0.5, -0.5)
    assert loop.psi == pytest.approx(0.5, abs=1e-12)
    assert 0 <= loop.phi < 2 * np.pi
    assert loop.phi == pytest.approx(2 * np.pi - 0.5, abs=1e-12)
    with pytest.raises(ValueError):
        LoopParams(3.5, 0.0, 0.0)


def test_rabi_error_bounds_and_split():
    err = RabiError(0.02, -0.01)
    assert err.epsilon0 == pytest.approx(0.01)
    assert err.epsilon1 == pytest.approx(0.03)
    with pytest.raises(ValueError):
        RabiError(0.2)
    with pytest.raises(ValueError):
        RabiError(0.0, 0.11)


def test_single_shot_path_domains():
    with pytest.raises(ValueError):
        SingleShotPath(-0.1, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        SingleShotPath(0.4, 0.0, 0.0, 2.0)
    # closed interval ends are legal
    SingleShotPath(0.0, 0.0, 0.0, np.pi / 2)
    SingleShotPath(np.pi / 2, 0.0, 0.0, -np.pi / 2)


def test_all_constructors_return_unitary(rng):
    for _ in range(200):
        path = random_two_loop(rng)
        err = RabiError(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
        sl = SingleLoopPath(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi),
                            rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        ss = SingleShotPath(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi),
                            rng.uniform(0, 2 * np.pi), rng.uniform(-np.pi / 2, np.pi / 2))
        common = RabiError(err.epsilon)
        for u in (
            two_loop_gates(path, NO_ERROR)[0],
            two_loop_gates(path, common)[1],
            two_loop_gates(path, err)[1],
            single_loop_gates(sl, NO_ERROR)[0],
            single_loop_gates(sl, common)[1],
            single_shot_gates(ss, NO_ERROR)[0],
            single_shot_gates(ss, common)[1],
        ):
            assert np.max(np.abs(u.conj().T @ u - IDENTITY)) <= 1e-12
