"""Each scheme's quadratic form 1 - F = a eps^2 + 2 b eps kappa + c kappa^2 is half the exact infidelity's Hessian.

Two references: central differences of ``fidelity_pair``'s exact value in floats, and the 40-digit
model of ``mp_reference``, whose Hamiltonians share no code with the closed forms.  ``fidelity_pair``'s
second-order column is 1 - Q of the form, and the exact values that test_analytic pins are checked
against the model too.
"""

import numpy as np
import pytest

import mp_reference
from test_analytic import ANSWER_ERRORS, ANSWER_PATHS, PARENT_ANSWERS
from holopath.analytic import SCHEMES, fidelity_pair
from holopath.pathfinder import PathConstraints
from holopath.schemes import LoopParams, RabiError, SingleShotPath, TargetGate, TwoLoopPath
from holopath.verify import CUBIC_BOUND_CONSTANT

U = 2.0**-53  # unit roundoff of a float
STEP = 1e-4  # of the float difference Hessian

#: theta_gate 0, pi/4 and pi/2 about +z, -z and (1,1,1)/sqrt 3
TARGETS = [TargetGate(t, axis) for t in (0.0, np.pi / 4, np.pi / 2) for axis in ([0, 0, 1], [0, 0, -1], [1, 1, 1])]
EXTRA_PATHS = {
    "two-loop": [
        TwoLoopPath(LoopParams(0.0, 0.0, 0.0), LoopParams(np.pi, 0.0, 0.3)),  # eta = pi, phi_b NaN
        TwoLoopPath(LoopParams(0.6, 0.3, 0.0), LoopParams(np.pi - 0.6, 0.3 + np.pi, 1.0)),  # eta = pi
        TwoLoopPath(LoopParams(0.0, 0.0, 0.0), LoopParams(np.pi - 1e-3, 0.0, 0.3)),  # eta near pi
        TwoLoopPath(LoopParams(0.6, 0.3, 0.0), LoopParams(np.pi - 0.6 - 1e-6, 0.3 + np.pi, 1.0)),
    ]
    + [SCHEMES["two-loop"].solve(t, PathConstraints(force_phi_b=0.0)) for t in TARGETS],
    "single-loop": [],
    "single-shot": [
        SingleShotPath(0.4, 0.3, 1.2, gamma) for gamma in (np.pi / 2, -np.pi / 2, np.pi / 2 - 1e-3, -np.pi / 2 + 1e-3)
    ],
}


def form_paths(scheme, count=50):
    """The solved paths of TARGETS, the scheme's boundary paths, then seeded random paths up to ``count``."""
    entry = SCHEMES[scheme]
    paths = [entry.solve(t, PathConstraints()) for t in TARGETS] + EXTRA_PATHS[scheme]
    rng = np.random.default_rng(24)
    return paths + [entry.random_path(rng) for _ in range(count - len(paths))]


def difference_form(scheme, path):
    """(a, b, c) by central differences of fidelity_pair's exact value, from one 3x3 error grid."""
    steps = np.array([-STEP, 0.0, STEP])
    f = fidelity_pair(scheme, path, RabiError(steps[:, None], steps[None, :]))[0]
    a = (2.0 * f[1, 1] - f[2, 1] - f[0, 1]) / (2.0 * STEP**2)
    c = (2.0 * f[1, 1] - f[1, 2] - f[1, 0]) / (2.0 * STEP**2)
    b = -(f[2, 2] - f[2, 0] - f[0, 2] + f[0, 0]) / (8.0 * STEP**2)
    return np.array([a, b, c])


@pytest.mark.parametrize("scheme", SCHEMES)
def test_quadratic_form_matches_difference_hessian(scheme):
    # within 1e-6 relative, above the quotients' rounding floor: each exact F is within about 5 u of
    # the 40-digit model (see the test below), and a quotient's weights sum to at most 2 / STEP^2
    for path in form_paths(scheme):
        form = np.array(SCHEMES[scheme].quadratic_form(path))
        assert np.all(np.isfinite(form)), path
        bound = 1e-6 * np.max(np.abs(form)) + 10.0 * U / STEP**2
        assert np.max(np.abs(difference_form(scheme, path) - form)) <= bound, path


@pytest.mark.parametrize("scheme", SCHEMES)
def test_second_order_is_one_minus_the_form(scheme):
    # fidelity_pair's second column is 1 - (a e e + 2 b e k + c k k) in plain products, bit for bit, at one
    # point and on a grid, so a grid value equals its one-point value; it is within criterion 5's cubic bound
    # on the solved and boundary paths too (eta = pi, gamma = +/- pi/2)
    grid = np.linspace(-0.02, 0.02, 10)
    eps, kappa = np.meshgrid(grid, grid, indexing="ij")
    bound = CUBIC_BOUND_CONSTANT * (np.abs(eps) + np.abs(kappa)) ** 3
    for index, path in enumerate(form_paths(scheme, count=30)):
        a, b, c = SCHEMES[scheme].quadratic_form(path)
        exact, second_order = fidelity_pair(scheme, path, RabiError(eps, kappa))
        assert np.all(np.abs(exact - second_order) <= bound), path
        assert np.array_equal(second_order, 1.0 - (a * eps * eps + 2.0 * b * eps * kappa + c * kappa * kappa))
        e, k = float(eps.flat[index % 100]), float(kappa.flat[index % 100])
        point = fidelity_pair(scheme, path, RabiError(e, k))[1]
        assert point == 1.0 - (a * e * e + 2.0 * b * e * k + c * k * k) == second_order.flat[index % 100]


#: two paths per scheme for the 40-digit model: one boundary or solved path, one random
MP_PATHS = {
    "two-loop": [EXTRA_PATHS["two-loop"][0], SCHEMES["two-loop"].random_path(np.random.default_rng(5))],
    "single-loop": [
        SCHEMES["single-loop"].solve(TargetGate(np.pi / 2, [0, 0, -1]), PathConstraints()),
        SCHEMES["single-loop"].random_path(np.random.default_rng(5)),
    ],
    "single-shot": [
        SCHEMES["single-shot"].solve(TargetGate(np.pi / 4, [1, 1, 1]), PathConstraints()),
        SCHEMES["single-shot"].random_path(np.random.default_rng(5)),
    ],
}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_quadratic_form_equals_40_digit_hessian(scheme):
    for path in MP_PATHS[scheme]:
        reference = mp_reference.quadratic_form(scheme, path)
        assert np.max(np.abs(np.array(SCHEMES[scheme].quadratic_form(path)) - reference)) <= 1e-13, path


#: every closed-form gate entry has magnitude <= 1 and passes through about 30 roundings (bright state,
#: coupling, the pulse's sin and cos, two 3x3 products), so it is within 32 u of exact; by Cauchy-Schwarz
#: the 9-term trace is then within 2 * sqrt(9) 32 u * sqrt(3) + 9 u * 3 of exact, about 360 u, and F = |Tr| / 3
#: within about 120 u.  The measured deviation is at most 5 u.
FIDELITY_BOUND = 128 * U


@pytest.mark.parametrize("scheme", SCHEMES)
def test_exact_fidelity_is_within_rounding_of_40_digit_model(scheme):
    points = ((0.03, -0.02), (-0.1, 0.1))
    for path in MP_PATHS[scheme]:
        for (epsilon, kappa), model in zip(points, mp_reference.fidelities(scheme, path, points)):
            exact = fidelity_pair(scheme, path, RabiError(epsilon, kappa))[0]
            assert abs(exact - float(model)) <= FIDELITY_BOUND


@pytest.mark.parametrize("scheme", SCHEMES)
def test_pinned_exact_answers_are_within_rounding_of_the_model(scheme):
    # every exact value that test_fidelity_pair_answers_are_unchanged pins is within FIDELITY_BOUND of the
    # model, so a later ulp move can be judged against the truth; 30 digits keep the model's own rounding
    # (1e-30) far below a float's last bit, at a quarter less time than 40
    for path, row in zip(ANSWER_PATHS[scheme], PARENT_ANSWERS[scheme], strict=True):
        points, exacts = [], []
        for error, pinned in zip(ANSWER_ERRORS[scheme], row, strict=True):
            epsilon, kappa = np.broadcast_arrays(error.epsilon, error.kappa)
            assert len(pinned) == 2 * epsilon.size
            points += zip(map(float, epsilon.flat), map(float, kappa.flat))
            exacts += pinned[: epsilon.size]
        models = mp_reference.fidelities(scheme, path, points, digits=30)
        for (e, k), exact, model in zip(points, exacts, models, strict=True):
            assert abs(float.fromhex(exact) - float(model)) <= FIDELITY_BOUND, (path, e, k)


def test_worst_drive_error_direction_reverses_the_papers_ranking_at_axis_x():
    # along each scheme's worst (eps, kappa) direction, the top eigenvector of its form, the exact balanced
    # two-loop infidelity exceeds the single-loop one; along the common error eps alone the paper's order holds
    target = TargetGate(np.pi / 2 - 1e-3, [1.0, 0.0, 0.0])
    worst, common = {}, {}
    for scheme in ("two-loop", "single-loop"):
        path = SCHEMES[scheme].solve(target, PathConstraints())
        a, b, c = SCHEMES[scheme].quadratic_form(path)
        direction = np.linalg.eigh(np.array([[a, b], [b, c]]))[1][:, -1]
        worst[scheme] = 1.0 - fidelity_pair(scheme, path, RabiError(*(1e-3 * direction)))[0]
        common[scheme] = 1.0 - fidelity_pair(scheme, path, RabiError(1e-3))[0]
    assert worst["two-loop"] > worst["single-loop"]
    assert common["two-loop"] < common["single-loop"]
    assert (worst["two-loop"], worst["single-loop"]) == pytest.approx((5.612e-6, 3.290e-6), rel=1e-3)
    assert common["two-loop"] == pytest.approx(1.925e-6, rel=1e-3)
