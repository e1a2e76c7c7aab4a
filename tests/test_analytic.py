import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holopath import schemes
from holopath.analytic import (
    SCHEMES,
    TargetGate,
    extract_quadratic_coefficient,
    f1,
    f2,
    f3,
    fidelity_pair,
    probe_quadratic_coefficient,
)
from holopath.linalg import gate_fidelity
from holopath.pathfinder import PathConstraints, solve_single_shot, solve_two_loop
from holopath.schemes import (
    NO_ERROR,
    LoopParams,
    RabiError,
    SingleLoopPath,
    SingleShotPath,
    TwoLoopPath,
    bright_state,
    phi_b_of,
    single_shot_gates,
    two_loop_gates,
)
from holopath.verify import CUBIC_BOUND_CONSTANT

from helpers import exact_quadratic_fit, reference_quadratic_coefficient


def unbalanced_fixture():
    # theta1 = pi/3, theta2 = pi/2, psi21 = pi/2 (so eta = pi/2), phi_b = pi
    b1 = bright_state(np.pi / 3, 0.0)
    b2 = bright_state(np.pi / 2, np.pi / 2)
    phi2 = np.pi - np.angle(np.vdot(b1, b2))
    return TwoLoopPath(LoopParams(np.pi / 3, 0.0, 0.0), LoopParams(np.pi / 2, np.pi / 2, phi2))


def two_loop_form(path):
    return SCHEMES["two-loop"].quadratic_form(path)


def two_loop_kappa_zero(theta_gate, phi_b, epsilon):
    """1 - a eps^2 of the two-loop path solved at eta = theta_gate and that phi_b."""
    path = solve_two_loop(TargetGate(theta_gate, [0.3, -0.5, 0.8]), PathConstraints(force_phi_b=phi_b)).path
    return 1.0 - two_loop_form(path)[0] * epsilon * epsilon


def dF_dkappa(path, epsilon):
    """-2 b eps: the kappa slope of the fidelity at kappa = 0."""
    return -2.0 * two_loop_form(path)[1] * epsilon


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
    # with phi_b = 0 the two-loop coefficient a exceeds both other schemes
    theta = np.linspace(1e-3, np.pi / 2, 200)
    for t in theta:
        path = solve_two_loop(TargetGate(t, [0.3, -0.5, 0.8]), PathConstraints(force_phi_b=0.0)).path
        coeff0 = two_loop_form(path)[0]
        assert coeff0 > f2(t) * np.pi**2 / 3
        assert coeff0 > f3(t) * np.pi**2 / 3


# ------------------------------------------------------------ fid2 formulas


def test_fid2_two_loop_values():
    assert two_loop_kappa_zero(1.0, 2.0, 0.0) == 1.0
    assert two_loop_kappa_zero(np.pi / 2, np.pi, 1e-2) == pytest.approx(0.999807283986570, abs=1e-15)
    assert two_loop_kappa_zero(np.pi / 2, np.pi, 1e-2) == pytest.approx(0.99980728, abs=1e-8)
    assert two_loop_kappa_zero(np.pi / 2, 0.0, 1e-2) == pytest.approx(0.998876768759951, abs=1e-15)
    assert two_loop_kappa_zero(np.pi / 2, 0.0, 1e-2) == pytest.approx(0.99887686, abs=1e-7)


def single_loop_second_order(phase_diff, epsilon):
    """fidelity_pair's single-loop second order at (epsilon, kappa = 0), on a path with that phase jump."""
    return fidelity_pair("single-loop", SingleLoopPath(0.9, 0.4, phase_diff, 0.0), RabiError(epsilon))[1]


def single_shot_second_order(gamma, epsilon):
    """fidelity_pair's single-shot second order at (epsilon, kappa = 0), on a path with that gamma."""
    return fidelity_pair("single-shot", SingleShotPath(0.6, 0.2, 1.3, gamma), RabiError(epsilon))[1]


def test_fid2_single_loop_values():
    assert single_loop_second_order(0.3, 0.0) == 1.0
    assert single_loop_second_order(np.pi, 0.05) == pytest.approx(1.0, abs=1e-15)
    assert single_loop_second_order(0.0, 1e-2) == pytest.approx(0.999671013186630, abs=1e-15)
    assert single_loop_second_order(0.0, 1e-2) == pytest.approx(0.99967101, abs=1e-8)


def test_fid2_single_shot_values():
    assert single_shot_second_order(np.pi / 2, 0.05) == pytest.approx(1.0, abs=1e-15)
    assert single_shot_second_order(0.0, 1e-2) == pytest.approx(0.999671013186630, abs=1e-15)


def test_fid2_single_shot_rotation_angle_identity():
    # cos^4(gamma) = 16 t^2 (1 - t/pi)^2 / pi^2 when sin(gamma) = 1 - 2 t / pi
    for theta_gate in np.linspace(0.0, np.pi / 2, 50):
        gamma = np.arcsin(1 - 2 * theta_gate / np.pi)
        lhs = single_shot_second_order(gamma, 0.03)
        rhs = 1 - (16 / 3) * theta_gate**2 * (1 - theta_gate / np.pi) ** 2 * 0.03**2
        assert lhs == pytest.approx(rhs, abs=1e-14)


def test_fid2_epsilon_domain():
    # every second order takes a RabiError, which holds the cap
    with pytest.raises(ValueError):
        two_loop_second_order(unbalanced_fixture(), RabiError(0.2))
    with pytest.raises(ValueError):
        single_loop_second_order(1.0, -0.2)
    with pytest.raises(ValueError):
        single_shot_second_order(1.0, 0.11)


# ------------------------------------------------- two-loop second order


def two_loop_second_order(path, error):
    """fidelity_pair's two-loop second order, the one reader of the relative-error formula."""
    return fidelity_pair("two-loop", path, error)[1]


def test_two_loop_second_order_common_error_reduction(rng):
    for _ in range(100):
        path = TwoLoopPath(
            LoopParams(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)),
            LoopParams(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)),
        )
        if phi_b_of(path).degenerate:
            continue
        eps = rng.uniform(-0.1, 0.1)
        fid = two_loop_second_order(path, RabiError(eps))
        assert fid == pytest.approx(1.0 - two_loop_form(path)[0] * eps * eps, abs=1e-12)


def test_two_loop_second_order_phi_b_pi_matches_f1(rng):
    # at phi_b = pi and kappa = 0 the z term reduces to f1(eta) eps^2
    path = unbalanced_fixture()
    dec = phi_b_of(path)
    eps = 0.02
    fid = two_loop_second_order(path, RabiError(eps))
    assert 1 - fid == pytest.approx(f1(dec.eta) * np.pi**2 * eps**2 / 3, abs=1e-12)


def test_two_loop_second_order_zero_error():
    assert two_loop_second_order(unbalanced_fixture(), RabiError(0.0, 0.0)) == 1.0


def test_two_loop_second_order_regression_fixture():
    # 1 - Q of the fixture's quadratic form, pinned; within the cubic bound of the exact value
    fid = two_loop_second_order(unbalanced_fixture(), RabiError(1e-2, 5e-3))
    assert fid == pytest.approx(0.999680209974044, abs=1e-12)
    exact = gate_fidelity(*two_loop_gates(unbalanced_fixture(), RabiError(1e-2, 5e-3)))
    assert abs(fid - exact) <= 6.0 * (1e-2 + 5e-3) ** 3


def test_two_loop_second_order_invariants(rng):
    # 1 - F'' = Q, and Q is positive semidefinite: a >= 0, c >= 0 and ac - b^2 >= 0 up to rounding, at any
    # eta, eta = pi (orthogonal bright states, where the form takes m = 0) included; so F'' never exceeds 1
    for index in range(200):
        loop1 = LoopParams(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        if index % 10:
            loop2 = LoopParams(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        else:  # the bright state orthogonal to loop 1's: eta = pi
            loop2 = LoopParams(np.pi - loop1.theta, loop1.psi + np.pi, rng.uniform(0, 2 * np.pi))
        path = TwoLoopPath(loop1, loop2)
        assert phi_b_of(path).degenerate or index % 10
        a, b, c = SCHEMES["two-loop"].quadratic_form(path)
        scale = max(abs(a), abs(b), abs(c))
        assert a >= 0.0 and c >= 0.0
        assert a * c - b * b >= -1e-15 * scale * scale
        fid = two_loop_second_order(path, RabiError(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)))
        assert np.isfinite(fid) and fid <= 1.0


def test_two_loop_second_order_shapes_on_a_grid():
    path = TwoLoopPath(LoopParams(0.7, 0.3, 1.1), LoopParams(2.0, 2.5, 4.0))
    epsilons = np.array([0.01, 0.02])
    exact, fid = fidelity_pair("two-loop", path, RabiError(epsilons, 0.005))
    assert np.shape(exact) == (2,)
    assert np.shape(fid) == (2,)
    for k, eps in enumerate(epsilons):
        assert fid[k] == two_loop_second_order(path, RabiError(float(eps), 0.005))


@pytest.mark.parametrize("kappa", [0.0, 0.01, -0.01])
def test_two_loop_second_order_orthogonal_bright_states(kappa):
    # loops at theta = 0 and theta = pi: eta = pi, where phi_b is undefined
    path = TwoLoopPath(LoopParams(0.0, 0.0, 0.0), LoopParams(np.pi, 0.0, 0.0))
    error = RabiError(0.01, kappa)
    dec = phi_b_of(path)
    assert dec.degenerate
    assert np.isnan(dec.phi_b)
    exact, fid = fidelity_pair("two-loop", path, error)
    assert exact == gate_fidelity(*two_loop_gates(path, error))
    assert abs(exact - fid) <= CUBIC_BOUND_CONSTANT * (abs(error.epsilon) + abs(kappa)) ** 3


# ------------------------------------------------------------- dF/dkappa


def test_dF_dkappa_balanced_is_zero():
    path = solve_two_loop(TargetGate(np.pi / 2, [0, 0, 1])).path
    assert dF_dkappa(path, 0.05) == pytest.approx(0.0, abs=1e-12)


def test_dF_dkappa_fixture_value():
    value = dF_dkappa(unbalanced_fixture(), 1e-2)
    expected = -(2 / 3) * (1 - np.cos(np.pi / 4)) * 0.5 * np.pi**2 * 1e-2
    assert value == pytest.approx(expected, abs=1e-15)
    assert value == pytest.approx(-9.6358e-3, abs=1e-6)


def test_dF_dkappa_matches_finite_difference():
    path = unbalanced_fixture()
    eps, h = 1e-2, 1e-5
    ideal = two_loop_gates(path, NO_ERROR)[0]
    f_plus = gate_fidelity(ideal, two_loop_gates(path, RabiError(eps, h))[1])
    f_minus = gate_fidelity(ideal, two_loop_gates(path, RabiError(eps, -h))[1])
    fd = (f_plus - f_minus) / (2 * h)
    assert abs(fd - dF_dkappa(path, eps)) <= 1e-5


def test_dF_dkappa_linear_in_epsilon():
    path = unbalanced_fixture()
    assert dF_dkappa(path, -0.01) == pytest.approx(-dF_dkappa(path, 0.01), abs=1e-15)


# ------------------------------------------------- coefficient extraction


def test_extract_quadratic_synthetic_exact():
    # magnitudes large enough that 1 - F carries no cancellation noise
    samples = [(e, 1 - 2 * e**2) for e in (0.1, -0.1, 0.01, -0.01)]
    coeff = extract_quadratic_coefficient(samples)
    assert coeff == pytest.approx(2.0, abs=1e-10)


def test_extract_quadratic_two_loop_target():
    path = solve_two_loop(TargetGate(np.pi / 2, [1, 0, 0])).path
    ideal = two_loop_gates(path, NO_ERROR)[0]
    samples = [
        (e, gate_fidelity(ideal, two_loop_gates(path, RabiError(e))[1]))
        for e in (1e-3, -1e-3, 1e-4, -1e-4)
    ]
    coeff = extract_quadratic_coefficient(samples)
    assert coeff == pytest.approx((2 - np.sqrt(2)) * np.pi**2 / 3, rel=1e-3)
    assert coeff == pytest.approx(1.92716, rel=1e-3)


def test_extract_quadratic_single_shot_target():
    path = solve_single_shot(TargetGate(np.pi / 4, [1, 0, 0]))
    assert path.gamma == pytest.approx(np.pi / 6, abs=1e-14)
    ideal = single_shot_gates(path, NO_ERROR)[0]
    samples = [
        (e, gate_fidelity(ideal, single_shot_gates(path, RabiError(e))[1]))
        for e in (1e-3, -1e-3, 1e-4, -1e-4)
    ]
    coeff = extract_quadratic_coefficient(samples)
    assert coeff == pytest.approx((9 / 16) * np.pi**2 / 3, rel=1e-3)
    assert coeff == pytest.approx(1.85055, rel=1e-3)


INVALID_SAMPLE_SETS = [
    [(1e-3, 0.999)],
    [(1e-3, 0.999), (1e-3, 0.999), (1e-3, 0.999)],
    [(1e-3, 0.999), (2e-3, 0.996), (4e-3, 0.984)],  # missing sign pair
    [(0.0, 1.0), (1e-3, 0.999), (-1e-3, 0.999)],  # zero epsilon
    [(1e-3, 1.5), (-1e-3, 0.999), (1e-4, 0.9999)],  # fidelity out of range
]


def test_extract_quadratic_validation():
    for samples in INVALID_SAMPLE_SETS:
        with pytest.raises(ValueError):
            extract_quadratic_coefficient(samples)


@pytest.mark.parametrize("samples", INVALID_SAMPLE_SETS)
def test_extract_quadratic_validation_messages_match_reference(samples):
    with pytest.raises(ValueError) as expected:
        reference_quadratic_coefficient(samples)
    with pytest.raises(ValueError) as got:
        extract_quadratic_coefficient(samples)
    assert str(got.value) == str(expected.value)


@st.composite
def fit_samples(draw):
    """Valid sample sets: 1-4 magnitudes in [1e-4, 1e-1], adjacent ratio >= 1.1, repeats, any order."""
    logs = draw(
        st.lists(st.floats(-4.0, -1.0), min_size=1, max_size=4)
        .map(sorted)
        .filter(lambda v: all(b - a >= math.log10(1.1) for a, b in zip(v, v[1:])))
    )
    samples = []
    for m in (10.0**x for x in logs):
        for sign in (1.0, -1.0):
            least = 2 if len(logs) == 1 and sign > 0 else 1  # at least 3 samples in all
            fids = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=least, max_size=2))
            samples += [(sign * m, f) for f in fids]
    return draw(st.permutations(samples))


def _rounding_scale(u, g) -> float:
    """First-order rounding sensitivity of extract_quadratic_coefficient at exact fit points (u, g).

    Each sign-averaged 1 - F carries an absolute rounding error of order eps, so g_i = (1 - F)/u_i one
    of order eps (|g_i| + 1/u_i), weighted by w_i in c = sum w_i g_i; the centered form g_mean - s u_mean
    adds one of order eps |g_mean|, and eps u_max u_mean sum |g_i - g_mean| / spread from the rounded u_i.
    """
    u, g = np.array(u, dtype=float), np.array(g, dtype=float)
    if u.size == 1:
        return float(abs(g[0]) + 1.0 / u[0])
    du = u - u.mean()
    spread = np.sum(du * du)
    w = 1.0 / u.size - u.mean() * du / spread
    centered = abs(g.mean()) + u.max() * u.mean() * np.sum(np.abs(g - g.mean())) / spread
    return float(np.sum(np.abs(w) * (np.abs(g) + 1.0 / u)) + centered)


@settings(max_examples=200, deadline=None)
@given(samples=fit_samples())
@example(samples=[(1e-4, 1.0), (-1e-4, 1.0), (0.1, 1.0), (-0.1, 0.5)])
def test_extract_quadratic_matches_lstsq_reference(samples):
    # the least-squares reference is exact, so the bound is the code's own rounding alone
    u, g, exact = exact_quadratic_fit(samples)
    got = extract_quadratic_coefficient(samples)
    assert abs(Fraction(got) - exact) <= 1e-14 * _rounding_scale(u, g)


@settings(max_examples=100, deadline=None)
@given(
    mags=st.sampled_from([(1e-4, 1e-3), (1e-3, 1e-2)]),
    c=st.floats(0.01, 20.0),
    odd=st.floats(-1.0, 1.0),
    quartic=st.floats(-100.0, 100.0),
)
def test_extract_quadratic_probe_sets_match_lstsq_reference(mags, c, odd, quartic):
    # F = 1 - c eps^2 - odd c eps^3 - quartic c eps^4 on the survey's and probe_quadratic_coefficient's magnitudes
    samples = [(s * m, 1.0 - c * m * m * (1.0 + odd * s * m + quartic * m * m)) for m in mags for s in (1.0, -1.0)]
    reference = reference_quadratic_coefficient(samples)
    assert abs(extract_quadratic_coefficient(samples) - reference) <= 2e-15 * abs(reference)


# ------------------------------------------------------------ report helpers


def test_fidelity_pair_rejects_unknown_scheme():
    message = "scheme must be one of ('two-loop', 'single-loop', 'single-shot'), got 'three-loop'"
    with pytest.raises(ValueError, match=re.escape(message)):
        fidelity_pair("three-loop", None, RabiError(0.0))


def test_fidelity_pair_rejects_a_path_of_another_scheme():
    paths = {
        "two-loop": TwoLoopPath(LoopParams(0.7, 0.3, 1.1), LoopParams(2.0, 2.5, 4.0)),
        "single-loop": SingleLoopPath(0.7, 0.3, 1.1, 2.0),
        "single-shot": SingleShotPath(0.4, 0.3, 1.2, 0.5),
    }
    for scheme, expected in paths.items():
        for other, path in paths.items():
            if other != scheme:
                message = f"scheme {scheme} takes a {type(expected).__name__}, got {type(path).__name__}"
                with pytest.raises(ValueError, match=f"^{message}$"):
                    fidelity_pair(scheme, path, RabiError(0.01))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_fidelity_pair_at_one_point_returns_python_floats(scheme):
    path = SCHEMES[scheme].random_path(np.random.default_rng(3))
    exact, second_order = fidelity_pair(scheme, path, RabiError(0.01, 0.003))
    assert type(exact) is float and type(second_order) is float
    for column in fidelity_pair(scheme, path, RabiError(np.array([0.01]), 0.003)):
        assert type(column) is np.ndarray and column.shape == (1,)


# --------------------------------------------- fidelity_pair answers and work

ANSWER_PATHS = {
    "two-loop": (
        TwoLoopPath(LoopParams(0.7, 0.3, 1.1), LoopParams(2.0, 2.5, 4.0)),
        TwoLoopPath(LoopParams(0.0, 0.0, 0.0), LoopParams(np.pi, 0.0, 0.3)),  # orthogonal bright states, eta' = pi
        TwoLoopPath(LoopParams(np.pi / 2 + 0.35, 0.0, 0.0), LoopParams(np.pi / 2 - 0.35, 1.2, 2.9)),
    ),
    "single-loop": (SingleLoopPath(1.1, 0.4, 2.2, 0.3), SingleLoopPath(2.6, 5.1, 0.2, 1.7)),
    "single-shot": (SingleShotPath(0.6, 0.2, 1.3, 0.4), SingleShotPath(np.pi / 4, 0.0, 0.0, -0.9)),
}
_COMMON_ERRORS = (RabiError(0.01), RabiError(-0.04), RabiError(np.array([-0.02, 0.001, 0.03])))
ANSWER_ERRORS = {
    "two-loop": (
        RabiError(0.01, 0.005),
        RabiError(-0.03, 0.02),
        RabiError(0.002),
        RabiError(np.array([[-0.02], [0.0], [0.015]]), np.array([[-0.01, 0.0, 0.01]])),
    ),
    "single-loop": _COMMON_ERRORS,
    "single-shot": _COMMON_ERRORS,
}

# float.hex of fidelity_pair's exact values, then its second-order values, for
# each path and error above, as computed before the two-loop record was shared; five
# single-loop and single-shot exact values moved by at most 3 ulp when those schemes
# took the tilted (epsilon, kappa) error model, and 46 exact values by at most 6 ulp
# when the gates' products, pulse squares and trace became elementwise sums without
# BLAS, whose bits had depended on the kernel it picks for the CPU; 17 two-loop
# second-order values moved, by at most 5.5e-5, when the second order became 1 - Q of
# the quadratic form in place of the paper's expression at the errored angles; one
# two-loop exact value at zero error, 1 ulp above 1, reads 1.0 since the trace fidelity
# maps rounding above 1 to 1; two single-shot exact values at epsilon = 0.01, the first of
# each path's row, moved down by 1 ulp when the errored single-shot gate became one
# closed form in place of a phase pulse times a rotation
PARENT_ANSWERS = {
    "two-loop": [
        [
            ("0x1.ffae75f166aa5p-1", "0x1.ffae579cdc1d4p-1"),
            ("0x1.fd5ad3076248dp-1", "0x1.fd5cf49bef354p-1"),
            ("0x1.fffddfc6fb583p-1", "0x1.fffddfc6137abp-1"),
            (
                "0x1.feb8d5d774849p-1", "0x1.ff2b8cbd56928p-1", "0x1.ff0315bf78545p-1", "0x1.ffb2ea5a01cc7p-1",
                "0x1.0000000000000p+0", "0x1.ffb327e812523p-1", "0x1.ff57b36352ccbp-1", "0x1.ff887676ed668p-1",
                "0x1.ff2066eedbbecp-1", "0x1.feb95e7370752p-1", "0x1.ff2b695f9be9ep-1", "0x1.ff037f5e26ceep-1",
                "0x1.ffb305892fb82p-1", "0x1.0000000000000p+0", "0x1.ffb305892fb82p-1", "0x1.ff573d26fbcd5p-1",
                "0x1.ff886b45c7b39p-1", "0x1.ff1fa476f30a0p-1",
            ),
        ],
        [
            ("0x1.ff9438c5388b8p-1", "0x1.ff943295fa935p-1"),
            ("0x1.fba156bb54cccp-1", "0x1.fb9edae49462ap-1"),
            ("0x1.fffc8ce3d7bd1p-1", "0x1.fffc8ce1fbbb0p-1"),
            (
                "0x1.fe512d43bbb77p-1", "0x1.fea750e02fc29p-1", "0x1.fe512d43bbb77p-1", "0x1.ffa9c69b96bafp-1",
                "0x1.0000000000000p+0", "0x1.ffa9c69b96bafp-1", "0x1.fee7de7de8fd0p-1", "0x1.ff3e0ba164bc8p-1",
                "0x1.fee7de7de8fd0p-1", "0x1.fe50ca57ea4d5p-1", "0x1.fea70846550abp-1", "0x1.fe50ca57ea4d5p-1",
                "0x1.ffa9c2119542bp-1", "0x1.0000000000000p+0", "0x1.ffa9c2119542bp-1", "0x1.fee7b6b92518bp-1",
                "0x1.ff3df4a78fd60p-1", "0x1.fee7b6b92518bp-1",
            ),
        ],
        [
            ("0x1.ffdf21cdb1b89p-1", "0x1.ffdf148ca5739p-1"),
            ("0x1.fe951676a9974p-1", "0x1.fe96ad32d2fb2p-1"),
            ("0x1.ffff0e0e66cbbp-1", "0x1.ffff0e0e0811fp-1"),
            (
                "0x1.ff7c0a9b3861bp-1", "0x1.ffa18bee05ab9p-1", "0x1.ff7c0a9b38258p-1", "0x1.ffdad61692737p-1",
                "0x1.0000000000000p+0", "0x1.ffdad6169272bp-1", "0x1.ffa5fc1b2e6dbp-1", "0x1.ffcadb27cea40p-1",
                "0x1.ffa5fc1b2e62dp-1", "0x1.ff7c523295ce6p-1", "0x1.ffa17d7b26ff1p-1", "0x1.ff7c523295ce6p-1",
                "0x1.ffdad4b76ecf5p-1", "0x1.0000000000000p+0", "0x1.ffdad4b76ecf5p-1", "0x1.ffa5ab4cb4becp-1",
                "0x1.ffcad69545ef7p-1", "0x1.ffa5ab4cb4becp-1",
            ),
        ],
    ],
    "single-loop": [
        [
            ("0x1.fff169372fc99p-1", "0x1.fff168e88bdbap-1"),
            ("0x1.ff16dd22bd12bp-1", "0x1.ff168e88bdb9bp-1"),
            (
                "0x1.ffc5a88c4e839p-1", "0x1.ffffdaa62c5f3p-1", "0x1.ff7cc90d1be49p-1", "0x1.ffc5a3a22f6e7p-1",
                "0x1.ffffdaa62a5bdp-1", "0x1.ff7cb02ceab87p-1",
            ),
        ],
        [
            ("0x1.ffe8ea9209684p-1", "0x1.ffe8ea159b4d4p-1"),
            ("0x1.fe8f1db818e08p-1", "0x1.fe8ea159b4d3bp-1"),
            (
                "0x1.ffa3b01d1c9a8p-1", "0x1.ffffc4e6a0e60p-1", "0x1.ff30621ea5525p-1", "0x1.ffa3a8566d34fp-1",
                "0x1.ffffc4e69db69p-1", "0x1.ff303ac275b71p-1",
            ),
        ],
    ],
    "single-shot": [
        [
            ("0x1.ffe0ebbd43578p-1", "0x1.ffe0f737fe556p-1"),
            ("0x1.fe13073366ad0p-1", "0x1.fe0f737fe555dp-1"),
            (
                "0x1.ff844652aa49bp-1", "0x1.ffffb08a4a49fp-1", "0x1.fee799d391267p-1", "0x1.ff83dcdff9557p-1",
                "0x1.ffffb08d5c24bp-1", "0x1.fee8b0f7f1004p-1",
            ),
        ],
        [
            ("0x1.fff985c47d83cp-1", "0x1.fff98fd62bfe5p-1"),
            ("0x1.ff9b8f8dfcafbp-1", "0x1.ff98fd62bfe49p-1"),
            (
                "0x1.ffe690f18cc25p-1", "0x1.ffffef821d26dp-1", "0x1.ffc50116e6df1p-1", "0x1.ffe63f58aff92p-1",
                "0x1.ffffef84b3a3dp-1", "0x1.ffc60e878bf09p-1",
            ),
        ],
    ],
}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_fidelity_pair_answers_are_unchanged(scheme):
    for path, expected_row in zip(ANSWER_PATHS[scheme], PARENT_ANSWERS[scheme], strict=True):
        for error, expected in zip(ANSWER_ERRORS[scheme], expected_row, strict=True):
            exact, analytic2 = fidelity_pair(scheme, path, error)
            got = tuple(float(x).hex() for x in np.concatenate([np.ravel(exact), np.ravel(analytic2)]))
            assert got == expected, (path, error)


def count_calls(monkeypatch, *names):
    """Wrap each named ``schemes`` function in a counter; returns the live {name: calls} dict."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        original = getattr(schemes, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(schemes, name, counting(name))
    return calls


def test_two_loop_fidelity_pair_builds_the_errored_loops_once(monkeypatch):
    names = ("two_loop_gates", "phi_b_of", "relative_error_angles", "bright_state", "_pulse")
    calls = count_calls(monkeypatch, *names)
    path = TwoLoopPath(LoopParams(0.7, 0.3, 1.1), LoopParams(2.0, 2.5, 4.0))
    for error in (RabiError(0.01, 0.005), RabiError(np.linspace(-0.02, 0.02, 9), 0.005)):
        calls.update(dict.fromkeys(names, 0))
        fidelity_pair("two-loop", path, error)
        # one builder pass at a point or a grid: the ideal loops ride along with the errored ones, so one
        # bright-state call and one pulse call build every loop; the quadratic form's phi_b_of makes the
        # other bright-state call, both loops' ideal states stacked, once per fidelity_pair call
        assert calls == {"two_loop_gates": 1, "phi_b_of": 1, "relative_error_angles": 1, "bright_state": 2, "_pulse": 1}


def test_single_loop_fidelity_pair_builds_one_coupling_generator(monkeypatch):
    calls = count_calls(monkeypatch, "bright_state", "_bright_coupling", "_pulse")
    fidelity_pair("single-loop", SingleLoopPath(0.7, 0.3, 1.1, 2.0), RabiError(0.01, 0.005))
    # both segments, ideal and errored, in one pass
    assert calls == {"bright_state": 1, "_bright_coupling": 1, "_pulse": 1}


def test_single_shot_fidelity_pair_builds_one_frame(monkeypatch):
    calls = count_calls(monkeypatch, "bright_state", "_bright_frame", "_pulse")
    fidelity_pair("single-shot", SingleShotPath(0.4, 0.3, 1.2, 0.5), RabiError(0.01, 0.005))
    # the ideal bright state rides along with the errored one; the errored gate is one closed form, no pulse call
    assert calls == {"bright_state": 1, "_bright_frame": 1, "_pulse": 0}


def test_probe_consistency():
    path = solve_two_loop(TargetGate(np.pi / 4, [0, 1, 0])).path
    exact, second_order = fidelity_pair("two-loop", path, RabiError(1e-2))
    a = SCHEMES["two-loop"].quadratic_form(path)[0]
    assert exact == pytest.approx(second_order, abs=1e-6)
    assert probe_quadratic_coefficient("two-loop", path, (1.0, 0.0)) == pytest.approx(a, rel=1e-3)
    assert a == pytest.approx(f1(np.pi / 4) * np.pi**2 / 3, rel=1e-6)


@pytest.mark.parametrize("theta_gate", [np.pi / 8, np.pi / 4, np.pi / 2 - 1e-3])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_probe_pure_kappa_coefficients_agree(scheme, theta_gate):
    path = SCHEMES[scheme].solve(TargetGate(theta_gate, np.ones(3)), PathConstraints())
    c = SCHEMES[scheme].quadratic_form(path)[2]
    assert probe_quadratic_coefficient(scheme, path, (0.0, 1.0)) == pytest.approx(c, rel=1e-6)


@pytest.mark.parametrize("extent", [0.02, 0.05])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_relative_error_second_order_cubic_bound_grid(scheme, extent, rng):
    # criterion 5's cubic bound on the two-loop 1 - Q holds for every scheme's 1 - Q at kappa != 0, on criterion
    # 5's |eps|, |kappa| <= 0.02 and out to 0.05 (two-loop worst about 5.25 there over 2000 random paths)
    grid = np.linspace(-extent, extent, 10)
    eps, kappa = np.meshgrid(grid, grid, indexing="ij")
    bound = CUBIC_BOUND_CONSTANT * (np.abs(eps) + np.abs(kappa)) ** 3
    for _ in range(30):
        exact, second_order = fidelity_pair(scheme, SCHEMES[scheme].random_path(rng), RabiError(eps, kappa))
        assert np.all(np.abs(exact - second_order) <= bound)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_exact_fidelity_at_zero_error_lies_in_unit_interval(scheme, rng):
    # rounding lifts |Tr(V^dag V)| / 3 up to 3 ulp above 1; the trace fidelity reads that as 1, at one point
    # and at a grid's (0, 0), on the solved paths of random and boundary targets
    targets = [TargetGate(theta, axis) for theta in (0.0, np.pi / 2) for axis in ([0, 0, 1], [0, 0, -1], [1, 1, 1])]
    targets += [TargetGate(rng.uniform(0.0, np.pi / 2), rng.normal(size=3)) for _ in range(100)]
    for target in targets:
        path = SCHEMES[scheme].solve(target, PathConstraints())
        point = fidelity_pair(scheme, path, NO_ERROR)[0]
        grid = fidelity_pair(scheme, path, RabiError(np.array([0.0, 0.01]), np.array([[0.0], [0.02]])))[0]
        assert 0.0 <= point <= 1.0 and np.all((0.0 <= grid) & (grid <= 1.0)), target


@pytest.mark.parametrize("direction", [(0.0, 0.0), (math.nan, 0.0), (math.inf, 1.0)])
def test_probe_refuses_a_zero_or_non_finite_direction(direction):
    path = solve_two_loop(TargetGate(np.pi / 4, [0, 1, 0])).path
    with pytest.raises(ValueError, match=re.escape(f"got {direction!r}")):
        probe_quadratic_coefficient("two-loop", path, direction)


def test_target_gate_validation():
    gate = TargetGate(0.3, [0, 0, 2.0])
    assert np.linalg.norm(gate.axis) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        TargetGate(2.0, [0, 0, 1])
    with pytest.raises(ValueError):
        TargetGate(0.3, [0, 0, 0])
