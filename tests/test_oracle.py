import dataclasses
import os
import subprocess
import sys
import tracemalloc
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
    NO_ERROR,
    LoopParams,
    RabiError,
    SingleLoopPath,
    SingleShotPath,
    TargetGate,
    TwoLoopPath,
    relative_error_angles,
    single_loop_gates,
    single_shot_gates,
    two_loop_gates,
)

from helpers import coupling_generator


def random_two_loop(rng):
    return TwoLoopPath(
        LoopParams(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)),
        LoopParams(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)),
    )


@pytest.mark.parametrize("shape", ["square", "sine", "sine-squared"])
def test_envelope_calibrated_area(shape):
    env = PulseEnvelope(shape, target_area=np.pi)
    area, _ = quad(lambda t: float(env.values(t)), 0.0, 1.0, limit=200)
    assert abs(area - np.pi) <= 1e-10


def _run_fresh_interpreter(code):
    # a fresh interpreter that finds the same holopath as this test session
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)


def test_import_does_not_load_scipy():
    # nor the thread pool's module: the oracle imports it when it first steps a schedule
    code = "import sys, holopath, holopath.cli; print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)"
    result = _run_fresh_interpreter(code)
    assert result.returncode == 0 and result.stdout.strip() == "False False", result.stderr


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_propagate_in_a_forked_child_steps_on_its_own_pool():
    # the child inherits the parent's pool but not its threads: a task queued there would never run
    code = """if True:
        import os, signal, time
        import numpy as np
        from holopath import oracle, schemes
        path = schemes.SingleLoopPath(0.5, 0.1, 0.2, 0.3)
        schedule = oracle.schedule_for_single_loop(path, schemes.RabiError(0.01), "sine")
        parent = oracle.propagate(schedule, 1000)
        pid = os.fork()
        if pid == 0:
            os._exit(0 if np.array_equal(oracle.propagate(schedule, 1000), parent) else 1)
        deadline = time.monotonic() + 30
        while not (waited := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise SystemExit("the forked child hangs")
            time.sleep(0.05)
        print(os.waitstatus_to_exitcode(waited[1]))
    """
    result = _run_fresh_interpreter(code)
    assert result.returncode == 0 and result.stdout.strip() == "0", result.stderr


def test_envelope_validation():
    with pytest.raises(ValueError):
        PulseEnvelope("triangle", np.pi)


@pytest.mark.parametrize("area", [np.nan, np.inf, -np.inf])
def test_envelope_rejects_non_finite_area(area):
    with pytest.raises(ValueError, match="target_area"):
        PulseEnvelope("square", area)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "area", [1e308, -1e308, np.float64(1e308), np.float64(-1e308)], ids=["float", "-float", "numpy", "-numpy"]
)
def test_envelope_rejects_overflowing_amplitude(area):
    # a finite area over the unit area 1/2: the amplitude would be infinite and propagate all NaN;
    # a numpy area is taken as a Python float first, so its division does not warn in place of the refusal
    with pytest.raises(ValueError, match="target_area .* finite amplitude"):
        PulseEnvelope("sine-squared", area)


def test_envelope_stores_its_area_as_a_python_float():
    env = PulseEnvelope("sine", np.float64(np.pi))
    assert type(env.target_area) is float and env.target_area == np.pi


def test_schedule_types_hold_only_their_fields():
    # a pulse is a unit-length envelope and a generator; a schedule always names its segments
    assert [f.name for f in dataclasses.fields(PulseEnvelope)] == ["shape", "target_area"]
    assert [f.name for f in dataclasses.fields(ScheduleSegment)] == ["envelope", "generator"]
    assert [f.name for f in dataclasses.fields(Schedule)] == ["segments"]
    with pytest.raises(TypeError):
        Schedule()


def test_segment_requires_hermitian_generator():
    from holopath.linalg import ContractViolation

    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 2] = 1.0
    with pytest.raises(ContractViolation):
        ScheduleSegment(PulseEnvelope("square", np.pi), bad)


@pytest.mark.parametrize("shape", ["square", "sine-squared"])
def test_propagate_single_pi_pulse_matches_loop_gate(shape):
    gen = coupling_generator(0.8, 0.4, 1.2)
    schedule = Schedule((ScheduleSegment(PulseEnvelope(shape, np.pi), gen),))
    from holopath.linalg import expm

    np.testing.assert_allclose(propagate(schedule, 10_000), expm(gen, np.pi), atol=1e-8)


def test_envelope_independence(rng):
    gen = coupling_generator(1.1, 2.0, 0.3)
    results = []
    for shape in ("square", "sine-squared"):
        schedule = Schedule((ScheduleSegment(PulseEnvelope(shape, np.pi / 2), 1.02 * gen),))
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
    segments = _pulse_schedule("sine", "sine-squared").segments
    total = IDENTITY.copy()
    h = 1.0 / steps
    for seg in segments:
        for k in range(steps):
            total = expm(seg.generator, float(seg.envelope.values((k + 0.5) * h)) * h) @ total
    assert np.max(np.abs(segments[0].generator @ segments[1].generator
                         - segments[1].generator @ segments[0].generator)) > 0.1
    assert np.max(np.abs(propagate(Schedule(segments), steps) - total)) <= 1e-12


def test_propagate_requires_enough_steps(rng):
    schedule = schedule_for_two_loop(random_two_loop(rng), NO_ERROR, "square")
    with pytest.raises(ValueError):
        propagate(schedule, 99)


@pytest.mark.parametrize("steps", [1000.5, 1000.0, np.float64(1000.0), "1000"])
def test_propagate_rejects_non_integer_steps(steps):
    schedule = schedule_for_single_loop(SingleLoopPath(0.5, 0.1, 0.2, 0.3), RabiError(0.01), "square")
    with pytest.raises(ValueError, match="steps_per_segment"):
        propagate(schedule, steps)


def test_propagate_accepts_numpy_integer_steps():
    schedule = schedule_for_single_loop(SingleLoopPath(0.5, 0.1, 0.2, 0.3), RabiError(0.01), "square")
    np.testing.assert_array_equal(propagate(schedule, np.int64(1000)), propagate(schedule, 1000))


def test_propagate_matches_complex_exp_phase_product():
    # the per-step factors against numpy's complex exp of the same midpoint
    # angles, multiplied over the step axis, per segment in time order
    steps = 10_000
    segments = _pulse_schedule("sine", "sine-squared").segments
    total = IDENTITY.copy()
    h = 1.0 / steps
    for seg in segments:
        areas = seg.envelope.values((np.arange(steps) + 0.5) * h) * h
        vals, vecs = np.linalg.eigh(seg.generator)
        total = (vecs * np.prod(np.exp(-1j * np.outer(areas, vals)), axis=0)) @ vecs.conj().T @ total
    assert np.max(np.abs(segments[0].generator @ segments[1].generator
                         - segments[1].generator @ segments[0].generator)) > 0.1
    assert np.max(np.abs(propagate(Schedule(segments), steps) - total)) <= 1e-12


def _whole_segment_propagate(schedule, steps):
    # the one-product formula: every step's factor in one (3, steps) array, one np.prod per segment,
    # then divided by its modulus once, as propagate does
    total = IDENTITY.copy()
    h = 1.0 / steps
    for seg in schedule.segments:
        areas = seg.envelope.values((np.arange(steps) + 0.5) * h) * h
        vals, vecs = np.linalg.eigh(seg.generator)
        angles = np.outer(vals, areas)
        factors = np.empty(angles.shape, dtype=complex)
        np.cos(angles, out=factors.real)
        np.sin(angles, out=factors.imag)
        product = np.prod(factors, axis=1)
        total = (vecs * (product / np.abs(product)).conj()) @ vecs.conj().T @ total
    return total


#: (area, generator scale, coupling angles) of up to three pulses that pairwise do not commute
_PULSES = ((np.pi, 1.03, (0.8, 0.4, 1.2)), (np.pi / 2, 0.97, (2.1, 1.7, -0.5)), (0.7 * np.pi, 1.01, (0.3, 2.6, 0.9)))


def _pulse_schedule(*shapes):
    # one pulse per shape, each scaled off its calibrated area through its generator
    return Schedule(tuple(
        ScheduleSegment(PulseEnvelope(shape, area), scale * coupling_generator(*angles))
        for shape, (area, scale, angles) in zip(shapes, _PULSES)
    ))


B = oracle._BLOCK_STEPS


#: the two pulses of a loop scheme keep the bare shape as id; one and three pulses are named.
#: one pulse is stepped on the calling thread alone; three outnumber a two-core host's CPUs and finish in any order
_PULSE_COUNTS = {1: "-one-pulse", 2: "", 3: "-three-pulses"}


@pytest.mark.parametrize("steps", [100, B - 1, B, B + 1, 2 * B + 3, 100_000])
@pytest.mark.parametrize("shape, count", [
    pytest.param(shape, count, id=shape + suffix) for shape in oracle.SHAPES for count, suffix in _PULSE_COUNTS.items()
])
def test_blocked_propagate_equals_whole_segment_product_bit_for_bit(shape, count, steps):
    # the running product carried between blocks multiplies every factor in step order, and the segments,
    # stepped concurrently, are multiplied in time order: the same bits as one serial product per segment
    schedule = _pulse_schedule(*[shape] * count)
    assert len(schedule.segments) == count
    assert np.array_equal(propagate(schedule, steps), _whole_segment_propagate(schedule, steps))


def test_square_envelope_oracle_gate_passes_the_unitarity_contract():
    # 5e4 equal square-envelope factors round alike: without propagate's final division their modulus
    # error compounds past linalg's 1e-12 unitarity contract, and gate_fidelity refuses the gate
    rng = np.random.default_rng(7)
    path = solve_single_loop(TargetGate(rng.uniform(0.1, np.pi / 2), rng.normal(size=3)))
    gate = propagate(oracle.schedule_for_single_loop(path, RabiError(0.03), "square"), 50_000)
    assert np.max(np.abs(gate.conj().T @ gate - IDENTITY)) <= 1e-13
    assert gate_fidelity(single_loop_gates(path, RabiError(0.03))[1], gate) == pytest.approx(1.0, abs=1e-12)


def test_propagate_memory_is_bounded_by_the_block():
    # a whole-segment array of 1e5 steps is 4.8 MB of complex factors alone
    schedule = _pulse_schedule("sine", "sine")
    propagate(schedule, 100)
    tracemalloc.start()
    try:
        propagate(schedule, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", oracle.SHAPES)
def test_zero_area_envelope_values_are_zero(shape):
    env = PulseEnvelope(shape, 0.0)
    assert env.amplitude == 0.0
    assert env.values(0.5) == 0.0
    np.testing.assert_array_equal(env.values(np.linspace(0.0, 1.0, 11)), np.zeros(11))


def test_propagate_empty_schedule_warns():
    with pytest.warns(RuntimeWarning):
        u = propagate(Schedule(()), 1000)
    np.testing.assert_allclose(u, IDENTITY, atol=0)


@pytest.mark.parametrize("shape", oracle.SHAPES)
def test_zero_area_segment_propagates_to_identity(shape):
    schedule = Schedule((ScheduleSegment(PulseEnvelope(shape, 0.0), coupling_generator(0.5, 0.1, 0.2)),))
    np.testing.assert_allclose(propagate(schedule, 1000), IDENTITY, rtol=0, atol=1e-15)


def test_schedules_match_scheme_constructors(rng):
    # spot check at moderate step count; the acceptance suite runs the full sweep
    for _ in range(5):
        error = RabiError(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
        common = RabiError(error.epsilon)

        path2 = random_two_loop(rng)
        closed = two_loop_gates(path2, error)[1]
        for shape in ("square", "sine-squared"):
            stepped = propagate(schedule_for_two_loop(path2, error, shape), 20_000)
            assert np.max(np.abs(stepped - closed)) <= 1e-8

        path_sl = SingleLoopPath(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi),
                                 rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        closed = single_loop_gates(path_sl, common)[1]
        stepped = propagate(schedule_for_single_loop(path_sl, common, "sine-squared"), 20_000)
        assert np.max(np.abs(stepped - closed)) <= 1e-8

        path_ss = SingleShotPath(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi),
                                 rng.uniform(0, 2 * np.pi), rng.uniform(-np.pi / 2, np.pi / 2))
        closed = single_shot_gates(path_ss, common)[1]
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
        limit = closed_form_limit(schedule_for_single_loop(path, error, "square"))
        assert np.max(np.abs(limit - reference)) <= 1e-12


def test_two_loop_ideal_schedule(rng):
    path = random_two_loop(rng)
    stepped = propagate(schedule_for_two_loop(path, NO_ERROR, "square"), 10_000)
    assert np.max(np.abs(stepped - two_loop_gates(path, NO_ERROR)[0])) <= 1e-8


def test_convergence_second_order_for_half_sine():
    # the half-sine arch has a genuine O(1/N^2) midpoint quadrature error
    gen = coupling_generator(0.8, 0.4, 1.2)
    schedule = Schedule((ScheduleSegment(PulseEnvelope("sine", np.pi), gen),))
    p = convergence_order(schedule)
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
        schedule = Schedule((ScheduleSegment(PulseEnvelope(shape, np.pi), gen),))
        assert convergence_order(schedule) == np.inf


def test_closed_form_limit_matches_constructor(rng):
    path = random_two_loop(rng)
    error = RabiError(0.02, 0.01)
    limit = closed_form_limit(schedule_for_two_loop(path, error, "square"))
    assert np.max(np.abs(limit - two_loop_gates(path, error)[1])) <= 1e-12

