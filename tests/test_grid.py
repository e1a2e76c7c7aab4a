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
from holopath.analytic import (
    RelativeErrorBreakdown,
    extract_quadratic_coefficient,
    fid2_relative,
    fidelity_pair,
    fidelity_report,
    quad_coeff_single_loop,
    quad_coeff_single_shot,
)
from holopath.linalg import expm, gate_fidelity
from holopath.schemes import (
    NO_ERROR,
    LoopParams,
    RabiError,
    SingleLoopPath,
    SingleShotPath,
    TwoLoopPath,
    bright_dark,
    bright_decomposition,
    relative_error_angles,
    single_loop_errored,
    single_loop_gates,
    single_shot_errored,
    single_shot_gates,
    two_loop_errored_relative,
    two_loop_gates,
)

from helpers import (
    reference_errored_loops,
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
    common = 1.0 - quad_coeff_single_loop(path.phase_diff) * grid[0] * grid[0]
    np.testing.assert_allclose(second_order, common, rtol=0, atol=1e-15)


@GRID_SETTINGS
@given(single_shot_paths(), error_grids())
def test_fidelity_pair_single_shot_grid_equals_loop(path, grid):
    assert_pair_equals_loop("single-shot", path, *grid)
    second_order = fidelity_pair("single-shot", path, RabiError(grid[0], 0.0))[1]
    common = 1.0 - quad_coeff_single_shot(path.gamma) * grid[0] * grid[0]
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
        ideal, errored, loops = two_loop_gates(path, error)
        reference = (reference_two_loop_ideal(path), reference_two_loop_errored_relative(path, error))
        assert_gates_equal((ideal, errored), reference)
        assert np.array_equal(two_loop_gates(path, NO_ERROR)[0], ideal)  # the ideal does not depend on the grid
        assert_gates_equal(loops, reference_errored_loops(path, error))


@BUILDER_SETTINGS
@given(single_loop_paths(), errors(), seeds)
def test_single_loop_builder_equals_separate_constructors(drawn, error, seed):
    for path in drawn_and_uniform("single-loop", drawn, seed):
        ideal, errored, segments = single_loop_gates(path, error)
        reference = (reference_single_loop_ideal(path), reference_single_loop_errored(path, error))
        assert_gates_equal((ideal, errored), reference)
        assert np.array_equal(single_loop_gates(path, NO_ERROR)[0], ideal)
        assert_gates_equal(segments, reference_errored_loops(path, error))


@BUILDER_SETTINGS
@given(single_shot_paths(), errors(), seeds)
def test_single_shot_builder_equals_separate_constructors(drawn, error, seed):
    for path in drawn_and_uniform("single-shot", drawn, seed):
        ideal, errored, _ = single_shot_gates(path, error)
        assert_gates_equal((ideal, errored), (reference_single_shot_ideal(path), reference_single_shot_errored(path, error)))
        assert np.array_equal(single_shot_gates(path, NO_ERROR)[0], ideal)


def report_by_loop(scheme, path, error):
    """The reference: the +/- probe as a loop of one-point fidelity_pair calls, one coefficient at a time."""
    scale = float(np.hypot(error.epsilon, error.kappa))
    direction = (1.0, 0.0) if scale == 0.0 else (error.epsilon / scale, error.kappa / scale)
    coefficients = []
    for index in (0, 1):  # exact, then second order
        points = []
        for mag in (1e-3, 1e-4):
            for sign in (1.0, -1.0):
                pair = fidelity_pair(scheme, path, RabiError(sign * mag * direction[0], sign * mag * direction[1]))
                points.append((sign * mag, pair[index]))
        coefficients.append(extract_quadratic_coefficient(points))
    return coefficients


def bits(*values):
    return [float(v).hex() for v in values]


def assert_report_equals_loop(scheme, path, error):
    report = fidelity_report(scheme, path, error)
    assert bits(report.exact, report.analytic2) == bits(*fidelity_pair(scheme, path, error))
    assert bits(report.quad_coeff_exact, report.quad_coeff_analytic) == bits(*report_by_loop(scheme, path, error))


@GRID_SETTINGS
@given(two_loop_paths(), fractions, fractions)
def test_fidelity_report_two_loop_equals_loop(path, eps, kappa):
    assert_report_equals_loop("two-loop", path, RabiError(eps, kappa))


@GRID_SETTINGS
@given(single_loop_paths(), fractions)
def test_fidelity_report_single_loop_equals_loop(path, eps):
    assert_report_equals_loop("single-loop", path, RabiError(eps))


@GRID_SETTINGS
@given(single_shot_paths(), fractions)
def test_fidelity_report_single_shot_equals_loop(path, eps):
    assert_report_equals_loop("single-shot", path, RabiError(eps))


@pytest.mark.parametrize("eps, kappa", [(0.0, 0.0), (0.01, -0.02), (0.0, 0.03), (-0.05, 0.05)])
def test_fidelity_report_tilted_probe_equals_loop(eps, kappa):
    # kappa != 0 tilts the probe direction away from the epsilon axis; (0, 0) probes along epsilon
    path = TwoLoopPath(LoopParams(0.4, 0.1, 0.2), LoopParams(1.9, 2.0, 3.0))
    assert_report_equals_loop("two-loop", path, RabiError(eps, kappa))


def assert_breakdown_equals_loop(path, eps, kappa):
    breakdown, fidelity = fid2_relative(path, RabiError(eps, kappa))
    reference = per_point(lambda error: fid2_relative(path, error)[1], eps, kappa)
    assert np.array_equal(fidelity, reference)
    for field in RelativeErrorBreakdown.__dataclass_fields__:
        values = per_point(lambda error: getattr(fid2_relative(path, error)[0], field), eps, kappa)
        grid_values = np.broadcast_to(getattr(breakdown, field), values.shape)
        assert np.array_equal(grid_values, values, equal_nan=True), field
    return breakdown, fidelity


@GRID_SETTINGS
@given(two_loop_paths(), error_grids())
def test_fid2_relative_every_field_grid_equals_loop(path, grid):
    assert_breakdown_equals_loop(path, *grid)


@GRID_SETTINGS
@given(orthogonal_two_loop_paths(), error_grids())
def test_orthogonal_bright_states_grid_equals_loop(path, grid):
    breakdown, fidelity = assert_breakdown_equals_loop(path, *grid)
    assert np.all(breakdown.degenerate)
    assert np.all(np.isnan(breakdown.phi_b))
    assert np.all(np.isfinite(fidelity))
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
    # numpy's vectorized complex abs, and a summed product, can differ in the last bit from the
    # builtin abs() and np.vdot that the one-point formulas were first written with
    path = TwoLoopPath(LoopParams(0.4, 0.1, 0.2), LoopParams(1.9, 2.0, 3.0))
    error = RabiError(rng.uniform(-0.1, 0.1, (20, 1)), rng.uniform(-0.1, 0.1, 20))
    ideal, stack, _ = two_loop_gates(path, error)
    stack = stack.reshape(-1, 3, 3)
    expected = [abs(np.trace(ideal.conj().T @ gate)) / 3.0 for gate in stack]
    assert np.array_equal(gate_fidelity(ideal, stack), expected)

    loops = [(relative_error_angles(loop.theta, error)[0], loop.psi, loop.phi) for loop in (path.loop1, path.loop2)]
    b1, b2 = (bright_dark(theta, psi)[0].reshape(-1, 3) for theta, psi, _ in loops)
    expected = [2.0 * np.arccos(min(1.0, abs(np.vdot(x, y)))) for x, y in zip(b1, b2)]
    assert np.array_equal(bright_decomposition(*loops).eta.ravel(), expected)


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
