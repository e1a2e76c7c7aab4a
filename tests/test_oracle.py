import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from holopath import oracle
from holopath.linalg import IDENTITY, expm, gate_fidelity
from holopath.oracle import (
    PulseEnvelope,
    Schedule,
    ScheduleSegment,
    closed_form_limit,
    convergence_order,
    propagate,
    schedule_for_single_loop,
    schedule_for_single_shot,
    schedule_for_two_loop,
)
from holopath.pathfinder import solve_single_loop
from holopath.schemes import (
    LoopParams,
    RabiError,
    SingleLoopPath,
    SingleShotPath,
    TargetGate,
    TwoLoopPath,
    coupling_generator,
    relative_error_angles,
    single_loop_errored,
    single_shot_errored,
    two_loop_errored_relative,
    two_loop_ideal,
)


def random_two_loop(rng):
    return TwoLoopPath(
        LoopParams(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)),
        LoopParams(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)),
    )


@pytest.mark.parametrize("shape", ["square", "sine", "sine-squared"])
def test_envelope_calibrated_area(shape):
    env = PulseEnvelope(shape, duration=0.7, target_area=np.pi)
    area, _ = quad(lambda t: float(env.values(t)), 0.0, env.duration, limit=200)
    assert abs(area - np.pi) <= 1e-10


def test_import_does_not_load_scipy():
    # a fresh interpreter that finds the same holopath as this test session
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, holopath; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert result.stdout.strip() == "False"


def test_envelope_validation():
    with pytest.raises(ValueError):
        PulseEnvelope("triangle", 1.0, np.pi)
    with pytest.raises(ValueError):
        PulseEnvelope("square", -1.0, np.pi)
    with pytest.raises(ValueError):
        PulseEnvelope("square", 0.0, np.pi)


@pytest.mark.parametrize("area", [np.nan, np.inf, -np.inf])
def test_envelope_rejects_non_finite_area(area):
    with pytest.raises(ValueError, match="target_area"):
        PulseEnvelope("square", 1.0, area)


@pytest.mark.parametrize("duration, area", [(1e-320, 1.0), (1e-300, 1e300), (1e-300, -1e300)])
def test_envelope_rejects_overflowing_amplitude(duration, area):
    # a finite area over a tiny duration: the amplitude would be infinite and propagate all NaN
    with pytest.raises(ValueError, match=r"target_area .* duration"):
        PulseEnvelope("square", duration, area)


def test_envelope_with_underflowing_unit_area():
    # T/2 rounds to 0.0 at the smallest subnormal T: a zero area is legal, a nonzero one is refused
    env = PulseEnvelope("sine-squared", 5e-324, 0.0)
    assert env.amplitude == 0.0
    schedule = Schedule((ScheduleSegment(env, coupling_generator(0.5, 0.1, 0.2)),))
    np.testing.assert_allclose(propagate(schedule, 100), IDENTITY, rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="duration 5e-324"):
        PulseEnvelope("sine-squared", 5e-324, 1.0)


@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
def test_segment_rejects_non_finite_scale(scale):
    env = PulseEnvelope("square", 1.0, np.pi)
    with pytest.raises(ValueError, match="scale"):
        ScheduleSegment(env, coupling_generator(0.8, 0.4, 1.2), scale)


def test_segment_requires_hermitian_generator():
    from holopath.linalg import ContractViolation

    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 2] = 1.0
    with pytest.raises(ContractViolation):
        ScheduleSegment(PulseEnvelope("square", 1.0, np.pi), bad)


@pytest.mark.parametrize("shape", ["square", "sine-squared"])
def test_propagate_single_pi_pulse_matches_loop_gate(shape):
    gen = coupling_generator(0.8, 0.4, 1.2)
    schedule = Schedule((ScheduleSegment(PulseEnvelope(shape, 1.0, np.pi), gen),))
    from holopath.linalg import expm

    np.testing.assert_allclose(propagate(schedule, 10_000), expm(gen, np.pi), atol=1e-8)


def test_envelope_independence(rng):
    gen = coupling_generator(1.1, 2.0, 0.3)
    results = []
    for shape in ("square", "sine-squared"):
        schedule = Schedule((ScheduleSegment(PulseEnvelope(shape, 1.3, np.pi / 2), gen, 1.02),))
        results.append(propagate(schedule, 20_000))
    assert np.max(np.abs(results[0] - results[1])) <= 1e-8


def test_propagate_unitary(rng):
    schedule = schedule_for_two_loop(random_two_loop(rng), RabiError(0.03, -0.01), "sine-squared")
    u = propagate(schedule, 1000)
    assert np.max(np.abs(u.conj().T @ u - IDENTITY)) <= 1e-10


def test_propagate_is_literal_ordered_product_of_midpoint_steps():
    # finite-N semantics: one exponential per midpoint step, applied in time
    # order within and across segments with non-commuting generators
    from holopath.linalg import expm

    steps = 200
    segments = (
        ScheduleSegment(PulseEnvelope("sine", 1.0, np.pi), coupling_generator(0.8, 0.4, 1.2), 1.03),
        ScheduleSegment(PulseEnvelope("sine-squared", 0.6, np.pi / 2), coupling_generator(2.1, 1.7, -0.5), 0.97),
    )
    total = IDENTITY.copy()
    for seg in segments:
        h = seg.envelope.duration / steps
        for k in range(steps):
            total = expm(seg.generator, seg.scale * float(seg.envelope.values((k + 0.5) * h)) * h) @ total
    assert np.max(np.abs(segments[0].generator @ segments[1].generator
                         - segments[1].generator @ segments[0].generator)) > 0.1
    assert np.max(np.abs(propagate(Schedule(segments), steps) - total)) <= 1e-12


def test_propagate_requires_enough_steps(rng):
    schedule = schedule_for_two_loop(random_two_loop(rng))
    with pytest.raises(ValueError):
        propagate(schedule, 99)


@pytest.mark.parametrize("steps", [1000.5, 1000.0, np.float64(1000.0), "1000"])
def test_propagate_rejects_non_integer_steps(steps):
    schedule = schedule_for_single_loop(SingleLoopPath(0.5, 0.1, 0.2, 0.3), RabiError(0.01))
    with pytest.raises(ValueError, match="steps_per_segment"):
        propagate(schedule, steps)


def test_propagate_accepts_numpy_integer_steps():
    schedule = schedule_for_single_loop(SingleLoopPath(0.5, 0.1, 0.2, 0.3), RabiError(0.01))
    np.testing.assert_array_equal(propagate(schedule, np.int64(1000)), propagate(schedule, 1000))


def test_propagate_matches_complex_exp_phase_product():
    # the per-step factors against numpy's complex exp of the same midpoint
    # angles, multiplied over the step axis, per segment in time order
    steps = 10_000
    segments = (
        ScheduleSegment(PulseEnvelope("sine", 1.0, np.pi), coupling_generator(0.8, 0.4, 1.2), 1.03),
        ScheduleSegment(PulseEnvelope("sine-squared", 0.6, np.pi / 2), coupling_generator(2.1, 1.7, -0.5), 0.97),
    )
    total = IDENTITY.copy()
    for seg in segments:
        h = seg.envelope.duration / steps
        areas = seg.scale * seg.envelope.values((np.arange(steps) + 0.5) * h) * h
        vals, vecs = np.linalg.eigh(seg.generator)
        total = (vecs * np.prod(np.exp(-1j * np.outer(areas, vals)), axis=0)) @ vecs.conj().T @ total
    assert np.max(np.abs(segments[0].generator @ segments[1].generator
                         - segments[1].generator @ segments[0].generator)) > 0.1
    assert np.max(np.abs(propagate(Schedule(segments), steps) - total)) <= 1e-12


def _whole_segment_propagate(schedule, steps):
    # the one-product formula: every step's factor in one (3, steps) array, one np.prod per segment,
    # then divided by its modulus once, as propagate does
    total = IDENTITY.copy()
    for seg in schedule.segments:
        h = seg.envelope.duration / steps
        areas = seg.scale * seg.envelope.values((np.arange(steps) + 0.5) * h) * h
        vals, vecs = np.linalg.eigh(seg.generator)
        angles = np.outer(vals, areas)
        factors = np.empty(angles.shape, dtype=complex)
        np.cos(angles, out=factors.real)
        np.sin(angles, out=factors.imag)
        product = np.prod(factors, axis=1)
        total = (vecs * (product / np.abs(product)).conj()) @ vecs.conj().T @ total
    return total


def _two_segment_schedule(shape):
    return Schedule((
        ScheduleSegment(PulseEnvelope(shape, 1.0, np.pi), coupling_generator(0.8, 0.4, 1.2), 1.03),
        ScheduleSegment(PulseEnvelope(shape, 0.6, np.pi / 2), coupling_generator(2.1, 1.7, -0.5), 0.97),
    ))


B = oracle._BLOCK_STEPS


@pytest.mark.parametrize("steps", [100, B - 1, B, B + 1, 2 * B + 3, 100_000])
@pytest.mark.parametrize("shape", oracle.SHAPES)
def test_blocked_propagate_equals_whole_segment_product_bit_for_bit(shape, steps):
    # the running product carried between blocks multiplies every factor in step order
    schedule = _two_segment_schedule(shape)
    assert np.array_equal(propagate(schedule, steps), _whole_segment_propagate(schedule, steps))


def test_square_envelope_oracle_gate_passes_the_unitarity_contract():
    # 5e4 equal square-envelope factors round alike: without propagate's final division their modulus
    # error compounds past linalg's 1e-12 unitarity contract, and gate_fidelity refuses the gate
    rng = np.random.default_rng(7)
    path = solve_single_loop(TargetGate(rng.uniform(0.1, np.pi / 2), rng.normal(size=3)))
    gate = propagate(oracle.schedule_for_single_loop(path, RabiError(0.03), "square"), 50_000)
    assert np.max(np.abs(gate.conj().T @ gate - IDENTITY)) <= 1e-13
    assert gate_fidelity(single_loop_errored(path, RabiError(0.03)), gate) == pytest.approx(1.0, abs=1e-12)


def test_propagate_memory_is_bounded_by_the_block():
    # a whole-segment array of 1e5 steps is 4.8 MB of complex factors alone
    schedule = _two_segment_schedule("sine")
    propagate(schedule, 100)
    tracemalloc.start()
    try:
        propagate(schedule, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


@pytest.mark.parametrize("shape", ["sine", "sine-squared"])
def test_zero_duration_sine_shapes_are_zero_at_their_endpoint(shape):
    env = PulseEnvelope(shape, 0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert env.unit(0.0) == 0.0
        np.testing.assert_array_equal(env.unit(np.array([0.0, 0.0])), [0.0, 0.0])
    assert PulseEnvelope("square", 0.0, 0.0).unit(0.0) == 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", oracle.SHAPES)
def test_zero_duration_envelope_values_are_zero(shape):
    env = PulseEnvelope(shape, 0.0, 0.0)
    assert env.values(0.0) == 0.0
    np.testing.assert_array_equal(env.values(np.array([0.0, 0.0])), [0.0, 0.0])


def test_propagate_empty_schedule_warns():
    with pytest.warns(RuntimeWarning):
        u = propagate(Schedule(()), 1000)
    np.testing.assert_allclose(u, IDENTITY, atol=0)


def test_propagate_zero_duration_segment_is_identity():
    gen = coupling_generator(0.5, 0.1, 0.2)
    schedule = Schedule((ScheduleSegment(PulseEnvelope("square", 0.0, 0.0), gen),))
    np.testing.assert_allclose(propagate(schedule, 1000), IDENTITY, atol=0)


def test_schedules_match_scheme_constructors(rng):
    # spot check at moderate step count; the acceptance suite runs the full sweep
    for _ in range(5):
        error = RabiError(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
        common = RabiError(error.epsilon)

        path2 = random_two_loop(rng)
        closed = two_loop_errored_relative(path2, error)
        for shape in ("square", "sine-squared"):
            stepped = propagate(schedule_for_two_loop(path2, error, shape), 20_000)
            assert np.max(np.abs(stepped - closed)) <= 1e-8

        path_sl = SingleLoopPath(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi),
                                 rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        closed = single_loop_errored(path_sl, common)
        stepped = propagate(schedule_for_single_loop(path_sl, common, "sine-squared"), 20_000)
        assert np.max(np.abs(stepped - closed)) <= 1e-8

        path_ss = SingleShotPath(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi),
                                 rng.uniform(0, 2 * np.pi), rng.uniform(-np.pi / 2, np.pi / 2))
        closed = single_shot_errored(path_ss, common)
        stepped = propagate(schedule_for_single_shot(path_ss, common, "square"), 20_000)
        assert np.max(np.abs(stepped - closed)) <= 1e-8


def test_single_loop_schedule_under_relative_error_is_the_tilted_loop_formula(rng):
    # each segment is the two-loop loop formula at area (1 + delta) pi/2 with the tilted theta'
    for _ in range(20):
        path = SingleLoopPath(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi),
                              rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        error = RabiError(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
        theta_p, delta = relative_error_angles(path.theta, error)
        reference = IDENTITY
        for phase in (path.phi, path.phi_prime):
            reference = expm(coupling_generator(theta_p, path.psi, phase), (1.0 + delta) * np.pi / 2) @ reference
        limit = closed_form_limit(schedule_for_single_loop(path, error))
        assert np.max(np.abs(limit - reference)) <= 1e-12


def test_two_loop_ideal_schedule(rng):
    path = random_two_loop(rng)
    stepped = propagate(schedule_for_two_loop(path), 10_000)
    assert np.max(np.abs(stepped - two_loop_ideal(path))) <= 1e-8


def test_convergence_second_order_for_half_sine():
    # the half-sine arch has a genuine O(1/N^2) midpoint quadrature error
    gen = coupling_generator(0.8, 0.4, 1.2)
    schedule = Schedule((ScheduleSegment(PulseEnvelope("sine", 1.0, np.pi), gen),))
    p = convergence_order(schedule, steps=1000)
    assert p == pytest.approx(2.0, abs=0.2)
    ref = closed_form_limit(schedule)
    err1 = np.max(np.abs(propagate(schedule, 1000) - ref))
    err2 = np.max(np.abs(propagate(schedule, 2000) - ref))
    assert err1 / err2 >= 3.0
    assert np.max(np.abs(propagate(schedule, 200_000) - ref)) <= 1e-8


def test_convergence_exact_shapes_hit_roundoff_floor():
    # midpoint integrates the square (constant) and sine-squared (periodic)
    # envelopes exactly, so the error sits at the floor and p is indeterminate
    gen = coupling_generator(0.8, 0.4, 1.2)
    for shape in ("square", "sine-squared"):
        schedule = Schedule((ScheduleSegment(PulseEnvelope(shape, 1.0, np.pi), gen),))
        assert convergence_order(schedule, steps=1000) == np.inf


def test_closed_form_limit_matches_constructor(rng):
    path = random_two_loop(rng)
    error = RabiError(0.02, 0.01)
    limit = closed_form_limit(schedule_for_two_loop(path, error))
    assert np.max(np.abs(limit - two_loop_errored_relative(path, error))) <= 1e-12

