"""Error grids: one stacked call must equal the loop over its points, bit for bit.

The per-point loop is the reference.  The grid call runs the same
arithmetic on stacked arrays, so every value must be identical
(``np.array_equal``), not merely close.  In the same way each scheme's
builder, which stacks the ideal gate with the errored ones, must equal
separate ideal and errored constructors (``helpers.reference_*``).
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holopath import analytic
from holopath.analytic import extract_quadratic_coefficient, fidelity_pair, probe_quadratic_coefficient
from holopath.linalg import expm, gate_fidelity
from holopath.schemes import (
    NO_ERROR,
    LoopParams,
    RabiError,
    SingleLoopPath,
    SingleShotPath,
    TwoLoopPath,
    bright_state,
    phi_b_of,
    relative_error_angles,
    single_loop_errored,
    single_loop_gates,
    single_shot_errored,
    single_shot_gates,
    two_loop_errored_relative,
    two_loop_gates,
)
from holopath.verify import CUBIC_BOUND_CONSTANT

from helpers import (
    reference_single_loop_errored,
    reference_single_loop_ideal,
    reference_single_shot_errored,
    reference_single_shot_ideal,
    reference_two_loop_errored_relative,
    reference_two_loop_ideal,
)

GRID_SETTINGS = settings(max_examples=25, deadline=None)

TAU = 2 * math.pi
thetas = st.floats(0.0, math.pi) | st.sampled_from([0.0, math.pi / 2, math.pi])
phases = st.floats(0.0, TAU, exclude_max=True)
fractions = st.floats(-0.1, 0.1) | st.just(0.0)


@st.composite
def two_loop_paths(draw):
    return TwoLoopPath(*(LoopParams(draw(thetas), draw(phases), draw(phases)) for _ in range(2)))


@st.composite
def orthogonal_two_loop_paths(draw):
    """Loops at theta = 0 and pi: orthogonal bright states, eta' = pi at every kappa, phi_b NaN."""
    return TwoLoopPath(LoopParams(0.0, draw(phases), draw(phases)), LoopParams(math.pi, draw(phases), draw(phases)))


@st.composite
def single_loop_paths(draw):
    return SingleLoopPath(draw(thetas), draw(phases), draw(phases), draw(phases))


@st.composite
def single_shot_paths(draw):
    return SingleShotPath(
        draw(st.floats(0.0, math.pi / 2)), draw(phases), draw(phases), draw(st.floats(-math.pi / 2, math.pi / 2))
    )


@st.composite
def error_grids(draw):
    """An (n, m) grid as an epsilon column and a kappa row; kappa = 0 is always one of the columns.

    Besides the drawn values, which favour the edges, each axis holds
    uniform ones: a roundoff difference shows on typical values.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = draw(st.lists(fractions, min_size=1, max_size=4)) + list(rng.uniform(-0.1, 0.1, 6))
    kappa = [0.0] + draw(st.lists(fractions, max_size=3)) + list(rng.uniform(-0.1, 0.1, 4))
    return np.array(eps)[:, None], np.array(kappa)[None, :]


def per_point(evaluate, eps, kappa):
    """The reference: ``evaluate`` on one scalar RabiError per grid point, stacked in grid order."""
    e, k = np.broadcast_arrays(eps, kappa)
    values = [evaluate(RabiError(float(a), float(b))) for a, b in zip(e.flat, k.flat)]
    return np.array(values).reshape(e.shape + np.shape(values[0]))


def per_index(evaluate, shape):
    """The reference for a stack: ``evaluate`` at each index of ``shape``, stacked in index order."""
    values = [evaluate(index) for index in np.ndindex(shape)]
    return np.array(values).reshape(shape + np.shape(values[0]))


def assert_pair_equals_loop(scheme, path, eps, kappa):
    exact, second_order = fidelity_pair(scheme, path, RabiError(eps, kappa))
    reference = per_point(lambda error: fidelity_pair(scheme, path, error), eps, kappa)
    assert exact.shape == second_order.shape == np.broadcast_shapes(eps.shape, kappa.shape)
    assert np.array_equal(exact, reference[..., 0])
    assert np.array_equal(second_order, reference[..., 1])


@GRID_SETTINGS
@given(two_loop_paths(), error_grids())
def test_fidelity_pair_two_loop_grid_equals_loop(path, grid):
    assert_pair_equals_loop("two-loop", path, *grid)


@GRID_SETTINGS
@given(single_loop_paths(), error_grids())
def test_fidelity_pair_single_loop_grid_equals_loop(path, grid):
    assert_pair_equals_loop("single-loop", path, *grid)
    # at kappa = 0 the second-order value is the common-error formula's, to roundoff
    second_order = fidelity_pair("single-loop", path, RabiError(grid[0], 0.0))[1]
    common = 1.0 - analytic.SCHEMES["single-loop"].quadratic_form(path)[0] * grid[0] * grid[0]
    np.testing.assert_allclose(second_order, common, rtol=0, atol=1e-15)


@GRID_SETTINGS
@given(single_shot_paths(), error_grids())
def test_fidelity_pair_single_shot_grid_equals_loop(path, grid):
    assert_pair_equals_loop("single-shot", path, *grid)
    second_order = fidelity_pair("single-shot", path, RabiError(grid[0], 0.0))[1]
    common = 1.0 - analytic.SCHEMES["single-shot"].quadratic_form(path)[0] * grid[0] * grid[0]
    np.testing.assert_allclose(second_order, common, rtol=0, atol=1e-15)


@GRID_SETTINGS
@given(two_loop_paths(), error_grids())
def test_two_loop_errored_relative_grid_equals_loop(path, grid):
    stack = two_loop_gates(path, RabiError(*grid))[1]
    assert np.array_equal(stack, per_point(lambda error: two_loop_gates(path, error)[1], *grid))


@st.composite
def errors(draw):
    """One error point or a 2-D error grid."""
    if draw(st.booleans()):
        return RabiError(draw(fractions), draw(fractions))
    return RabiError(*draw(error_grids()))


#: uniform random paths of each scheme: a last-bit difference shows on typical angles, which
#: hypothesis's own floats, favouring simple ones, draw less often
UNIFORM_PATHS = {
    "two-loop": lambda rng: TwoLoopPath(
        *(LoopParams(rng.uniform(0, math.pi), *rng.uniform(0, TAU, 2)) for _ in range(2))
    ),
    "single-loop": lambda rng: SingleLoopPath(rng.uniform(0, math.pi), *rng.uniform(0, TAU, 3)),
    "single-shot": lambda rng: SingleShotPath(
        rng.uniform(0, math.pi / 2), *rng.uniform(0, TAU, 2), rng.uniform(-math.pi / 2, math.pi / 2)
    ),
}


#: the errored views that schemes keeps beside the builders, each with its builder
ERRORED_VIEWS = {
    "two-loop": (two_loop_errored_relative, two_loop_gates),
    "single-loop": (single_loop_errored, single_loop_gates),
    "single-shot": (single_shot_errored, single_shot_gates),
}


@pytest.mark.parametrize("scheme", ERRORED_VIEWS)
def test_errored_view_is_the_builders_errored_gates(scheme, rng):
    view, builder = ERRORED_VIEWS[scheme]
    for _ in range(8):
        path = UNIFORM_PATHS[scheme](rng)
        point = RabiError(*rng.uniform(-0.1, 0.1, 2))
        grid = RabiError(rng.uniform(-0.1, 0.1, 7), rng.uniform(-0.1, 0.1, 7))
        for error in (point, grid):
            assert np.array_equal(view(path, error), builder(path, error)[1])


def drawn_and_uniform(scheme, path, seed, count=16):
    """The drawn path followed by ``count`` uniform ones from ``seed``."""
    rng = np.random.default_rng(seed)
    return [path] + [UNIFORM_PATHS[scheme](rng) for _ in range(count)]


def assert_gates_equal(got, reference):
    assert len(got) == len(reference)
    for gate, expected in zip(got, reference):
        assert np.array_equal(gate, expected), (np.shape(gate), np.shape(expected))


BUILDER_SETTINGS = settings(max_examples=60, deadline=None)
seeds = st.integers(0, 2**32 - 1)


@BUILDER_SETTINGS
@given(two_loop_paths(), errors(), seeds)
def test_two_loop_builder_equals_separate_constructors(drawn, error, seed):
    for path in drawn_and_uniform("two-loop", drawn, seed):
        ideal, errored = two_loop_gates(path, error)
        reference = (reference_two_loop_ideal(path), reference_two_loop_errored_relative(path, error))
        assert_gates_equal((ideal, errored), reference)
        assert np.array_equal(two_loop_gates(path, NO_ERROR)[0], ideal)  # the ideal does not depend on the grid


@BUILDER_SETTINGS
@given(single_loop_paths(), errors(), seeds)
def test_single_loop_builder_equals_separate_constructors(drawn, error, seed):
    for path in drawn_and_uniform("single-loop", drawn, seed):
        ideal, errored = single_loop_gates(path, error)
        reference = (reference_single_loop_ideal(path), reference_single_loop_errored(path, error))
        assert_gates_equal((ideal, errored), reference)
        assert np.array_equal(single_loop_gates(path, NO_ERROR)[0], ideal)


@BUILDER_SETTINGS
@given(single_shot_paths(), errors(), seeds)
def test_single_shot_builder_equals_separate_constructors(drawn, error, seed):
    for path in drawn_and_uniform("single-shot", drawn, seed):
        ideal, errored = single_shot_gates(path, error)
        assert_gates_equal((ideal, errored), (reference_single_shot_ideal(path), reference_single_shot_errored(path, error)))
        assert np.array_equal(single_shot_gates(path, NO_ERROR)[0], ideal)


def probe_by_loop(scheme, path, direction):
    """The reference: the +/- probe along direction / hypot(direction) as a loop of one-point fidelity_pair calls."""
    scale = float(np.hypot(*direction))
    u, v = direction[0] / scale, direction[1] / scale
    points = []
    for mag in (1e-3, 1e-4):
        for sign in (1.0, -1.0):
            points.append((sign * mag, fidelity_pair(scheme, path, RabiError(sign * mag * u, sign * mag * v))[0]))
    return extract_quadratic_coefficient(points)


def assert_probe_equals_loop(scheme, path, direction):
    probe, reference = probe_quadratic_coefficient(scheme, path, direction), probe_by_loop(scheme, path, direction)
    assert float(probe).hex() == float(reference).hex()


#: (epsilon, kappa) probe directions, kappa = 0 among them; (0, 0) has no direction and is refused
directions = st.tuples(fractions, fractions).filter(lambda d: d != (0.0, 0.0))


@GRID_SETTINGS
@given(two_loop_paths(), directions)
def test_probe_two_loop_equals_loop(path, direction):
    assert_probe_equals_loop("two-loop", path, direction)


@GRID_SETTINGS
@given(single_loop_paths(), directions)
def test_probe_single_loop_equals_loop(path, direction):
    assert_probe_equals_loop("single-loop", path, direction)


@GRID_SETTINGS
@given(single_shot_paths(), directions)
def test_probe_single_shot_equals_loop(path, direction):
    assert_probe_equals_loop("single-shot", path, direction)


@pytest.mark.parametrize("direction", [(1.0, 0.0), (0.01, -0.02), (0.0, 0.03), (-0.05, 0.05), (3.0, 4.0)])
def test_probe_tilted_direction_equals_loop(direction):
    # kappa != 0 tilts the probe direction away from the epsilon axis; a direction of any length is normalized
    path = TwoLoopPath(LoopParams(0.4, 0.1, 0.2), LoopParams(1.9, 2.0, 3.0))
    assert_probe_equals_loop("two-loop", path, direction)


#: rounding of the exact fidelity, which the cubic bound leaves no room for where |eps| + |kappa| is 0 or tiny:
#: at most 6.5 ulp of 1 (1.4e-15) over 2000 orthogonal paths with errors down to 1e-12
FIDELITY_ROUNDOFF = 16 * np.finfo(float).eps


@GRID_SETTINGS
@given(orthogonal_two_loop_paths(), error_grids())
def test_orthogonal_bright_states_grid_equals_loop(path, grid):
    # eta = pi through the library API: phi_b is undefined for the path, the quadratic form takes m = 0,
    # and both fidelities stay finite and within criterion 5's cubic bound
    dec = phi_b_of(path)
    assert dec.degenerate and math.isnan(dec.phi_b)
    error = RabiError(*grid)
    exact, second_order = fidelity_pair("two-loop", path, error)
    assert np.all(np.isfinite(exact)) and np.all(np.isfinite(second_order))
    bound = CUBIC_BOUND_CONSTANT * np.float_power(np.abs(grid[0]) + np.abs(grid[1]), 3)
    assert np.all(np.abs(exact - second_order) <= bound + FIDELITY_ROUNDOFF)
    assert_pair_equals_loop("two-loop", path, *grid)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(fractions, min_size=1, max_size=6),
    st.sampled_from(["epsilon", "kappa"]),
    st.data(),
)
def test_grid_rabi_error_rejects_nan_and_out_of_range(values, field, data):
    bad = data.draw(st.sampled_from([math.nan, 0.1000001, -0.2, math.inf]))
    index = data.draw(st.integers(0, len(values)))
    grid = np.array(values[:index] + [bad] + values[index:])
    other = np.zeros_like(grid)
    eps, kappa = (grid, other) if field == "epsilon" else (other, grid)
    with pytest.raises(ValueError, match=rf"\|{field}\| must be <= 0.1, got {bad!r}$"):
        RabiError(eps, kappa)


def test_grid_rabi_error_names_first_failing_point():
    # point 0 fails on kappa before point 1 fails on epsilon, as a loop over the points would find
    with pytest.raises(ValueError, match=r"\|kappa\| must be <= 0.1, got 0.5$"):
        RabiError(np.array([0.01, 0.2]), np.array([0.5, 0.0]))


def test_grid_rabi_error_shapes_must_broadcast():
    with pytest.raises(ValueError):
        RabiError(np.zeros(3), np.zeros(2))


def test_empty_grid_gives_empty_arrays():
    path = TwoLoopPath(LoopParams(0.4, 0.1, 0.2), LoopParams(1.9, 2.0, 3.0))
    exact, second_order = fidelity_pair("two-loop", path, RabiError(np.zeros(0), np.zeros(0)))
    assert exact.shape == second_order.shape == (0,)


@pytest.mark.parametrize("scheme", UNIFORM_PATHS)
def test_blocked_grid_equals_loop(scheme, rng):
    # more points than one block: fidelity_pair walks the flattened grid in blocks, the last one partial
    block = analytic._BLOCK_POINTS
    path = UNIFORM_PATHS[scheme](rng)
    line = rng.uniform(-0.1, 0.1, block + 1)
    assert_pair_equals_loop(scheme, path, line, np.asarray(rng.uniform(-0.1, 0.1)))
    eps, kappa = rng.uniform(-0.1, 0.1, (37, 1)), rng.uniform(-0.1, 0.1, block // 37 + 5)
    assert eps.size * kappa.size > block and eps.size * kappa.size % block
    assert_pair_equals_loop(scheme, path, eps, kappa)


@pytest.mark.parametrize("scheme", ["two-loop", "single-shot"])
def test_grid_memory_is_bounded_by_the_block(scheme, rng):
    path = UNIFORM_PATHS[scheme](rng)
    error = RabiError(rng.uniform(-0.1, 0.1, (200, 1)), rng.uniform(-0.1, 0.1, 200))
    tracemalloc.start()
    try:
        exact, _ = fidelity_pair(scheme, path, error)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exact.shape == (200, 200)
    assert peak < 8_000_000, peak


def test_stacked_reductions_match_scalar_builtins(rng):
    # numpy's vectorized complex abs can differ in the last bit from the builtin abs(), and a stacked
    # elementwise sum must add each point's products in the order the one-point sum does
    path = TwoLoopPath(LoopParams(0.4, 0.1, 0.2), LoopParams(1.9, 2.0, 3.0))
    error = RabiError(rng.uniform(-0.1, 0.1, (20, 1)), rng.uniform(-0.1, 0.1, 20))
    ideal, stack = two_loop_gates(path, error)
    stack = stack.reshape(-1, 3, 3)
    expected = [abs(complex((ideal.conj() * gate).sum())) / 3.0 for gate in stack]
    assert np.array_equal(gate_fidelity(ideal, stack), expected)

    # phi_b_of's overlap magnitude is the builtin abs's, at the errored loops' angles too
    theta1, theta2 = (relative_error_angles(loop.theta, error)[0].ravel() for loop in (path.loop1, path.loop2))
    for t1, t2 in zip(theta1, theta2):
        b1, b2 = bright_state(t1, path.loop1.psi), bright_state(t2, path.loop2.psi)
        expected = 2.0 * np.arccos(min(1.0, abs(complex((b1.conj() * b2).sum()))))
        loops = (LoopParams(t1, path.loop1.psi, path.loop1.phi), LoopParams(t2, path.loop2.psi, path.loop2.phi))
        assert phi_b_of(TwoLoopPath(*loops)).eta == expected


def test_expm_and_gate_fidelity_broadcast_equals_loop(rng):
    m = rng.normal(size=(4, 3, 3, 3)) + 1j * rng.normal(size=(4, 3, 3, 3))
    generators = m + np.swapaxes(m.conj(), -1, -2)
    angles = rng.uniform(-3, 3, size=(4, 3))
    stack = expm(generators, angles)
    assert np.array_equal(stack, per_index(lambda i: expm(generators[i], angles[i]), angles.shape))
    ideal = expm(generators[0, 0], 0.3)
    assert np.array_equal(
        gate_fidelity(ideal, stack), per_index(lambda i: gate_fidelity(ideal, stack[i]), angles.shape)
    )
    assert isinstance(gate_fidelity(ideal, stack[0, 0]), float)
