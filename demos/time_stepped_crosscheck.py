"""Validate the closed-form propagators against brute-force time stepping.

Every gate constructor in this package uses the accumulated pulse area as a
sufficient statistic.  The oracle propagator makes no such shortcut: it
slices each pulse into thousands of midpoint-sampled steps and multiplies
the per-step exponentials in order.  This script propagates one path per
scheme with two envelope shapes, reports the deviation from the closed
forms, and measures the convergence order on the half-sine envelope (the
one shape whose midpoint quadrature error does not vanish).  It closes with
the oracle's single-loop and single-shot gates under a relative drive error,
which only the oracle models for those two schemes.

Run:  python demos/time_stepped_crosscheck.py
"""

import numpy as np

import holopath as hp

rng = np.random.default_rng(7)
error = hp.RabiError(0.03, -0.01)
common = hp.RabiError(error.epsilon)

target = hp.TargetGate(rng.uniform(0.1, np.pi / 2), rng.normal(size=3))
path2 = hp.solve_two_loop(target).path
path_sl = hp.solve_single_loop(target)
path_ss = hp.solve_single_shot(target)

cases = (
    ("two-loop (relative error)", hp.schedule_for_two_loop, path2, error,
     hp.two_loop_errored_relative(path2, error)),
    ("single-loop", hp.schedule_for_single_loop, path_sl, common,
     hp.single_loop_errored(path_sl, common)),
    ("single-shot", hp.schedule_for_single_shot, path_ss, common,
     hp.single_shot_errored(path_ss, common)),
)

steps = 50_000
print(f"time-stepped vs closed-form propagators at {steps} steps per pulse:")
for name, builder, path, err, closed in cases:
    for shape in ("square", "sine-squared"):
        schedule = builder(path, err, shape)
        stepped = hp.propagate(schedule, steps)
        dev = np.max(np.abs(stepped - closed))
        print(f"  {name:28s} {shape:13s} max deviation = {dev:.2e}")

print("\nconvergence study on the half-sine envelope (genuine O(1/N^2) error):")
gen = hp.schedule_for_two_loop(path2, error, "square").segments[0].generator
schedule = hp.Schedule((hp.ScheduleSegment(hp.PulseEnvelope("sine", 1.0, np.pi), gen),))
reference = hp.closed_form_limit(schedule)
print(f"{'steps':>8} {'max error':>12}")
for n in (200, 800, 3200, 12800):
    dev = np.max(np.abs(hp.propagate(schedule, n) - reference))
    print(f"{n:8d} {dev:12.3e}")
print(f"measured order p = {hp.convergence_order(schedule, steps=1000):.3f} (expect ~2)")

for shape in ("square", "sine-squared"):
    flat = hp.Schedule((hp.ScheduleSegment(hp.PulseEnvelope(shape, 1.0, np.pi), gen),))
    print(f"{shape}: order = {hp.convergence_order(flat, steps=1000)} "
          "(midpoint integrates this shape exactly; error sits at roundoff)")

# The oracle writes each pulse from the two drives in the bare basis, so it
# models a relative drive error kappa for every scheme; the closed forms of the
# single-loop and single-shot schemes cover kappa = 0 only.
print(f"\noracle gate fidelity at eps = {error.epsilon}, sine-squared, {steps} steps per pulse:")
print(f"  {'scheme':12s} {'kappa = 0':>14s} {f'kappa = {error.kappa}':>14s}")
for name, builder, path, ideal in (
    ("single-loop", hp.schedule_for_single_loop, path_sl, hp.single_loop_ideal(path_sl)),
    ("single-shot", hp.schedule_for_single_shot, path_ss, hp.single_shot_ideal(path_ss)),
):
    gates = [hp.propagate(builder(path, err, "sine-squared"), steps) for err in (common, error)]
    print(f"  {name:12s}" + "".join(f" {hp.gate_fidelity(ideal, gate):14.10f}" for gate in gates))
