"""Validate the closed-form propagators against brute-force time stepping.

Every gate constructor in this package uses the accumulated pulse area as a
sufficient statistic.  The oracle propagator makes no such shortcut: it
slices each pulse into thousands of midpoint-sampled steps and multiplies
the per-step exponentials in order.  This script propagates one path per
scheme with two envelope shapes, reports the deviation from the closed
forms, and measures the convergence order on the half-sine envelope (the
one shape whose midpoint quadrature error does not vanish).  It closes with
the single-loop and single-shot gate fidelities under a relative drive error,
from the oracle and from the closed forms.

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
    ("two-loop", hp.schedule_for_two_loop, path2, hp.two_loop_gates(path2, error)[1]),
    ("single-loop", hp.schedule_for_single_loop, path_sl, hp.single_loop_gates(path_sl, error)[1]),
    ("single-shot", hp.schedule_for_single_shot, path_ss, hp.single_shot_gates(path_ss, error)[1]),
)

steps = 50_000
print(f"time-stepped vs closed-form propagators at {steps} steps per pulse, {error}:")
for name, builder, path, closed in cases:
    for shape in ("square", "sine-squared"):
        schedule = builder(path, error, shape)
        stepped = hp.propagate(schedule, steps)
        dev = np.max(np.abs(stepped - closed))
        print(f"  {name:28s} {shape:13s} max deviation = {dev:.2e}")

print("\nconvergence study on the half-sine envelope (genuine O(1/N^2) error):")
gen = hp.schedule_for_two_loop(path2, error, "square").segments[0].generator
schedule = hp.Schedule((hp.ScheduleSegment(hp.PulseEnvelope("sine", np.pi), gen),))
reference = hp.closed_form_limit(schedule)
print(f"{'steps':>8} {'max error':>12}")
for n in (200, 800, 3200, 12800):
    dev = np.max(np.abs(hp.propagate(schedule, n) - reference))
    print(f"{n:8d} {dev:12.3e}")
print(f"measured order p = {hp.convergence_order(schedule):.3f} (expect ~2)")

for shape in ("square", "sine-squared"):
    flat = hp.Schedule((hp.ScheduleSegment(hp.PulseEnvelope(shape, np.pi), gen),))
    print(f"{shape}: order = {hp.convergence_order(flat)} "
          "(midpoint integrates this shape exactly; error sits at roundoff)")

# The oracle writes each pulse from the two drives in the bare basis; the closed
# forms tilt each pulse's ratio angle and scale its area.  Both model kappa.
print(f"\ngate fidelity at eps = {error.epsilon}, oracle (square, {steps} steps per pulse) / closed form:")
print(f"  {'scheme':12s}{'kappa = 0':>30s}{f'kappa = {error.kappa}':>30s}")
for name, builder, path, gates in (
    ("single-loop", hp.schedule_for_single_loop, path_sl, hp.single_loop_gates),
    ("single-shot", hp.schedule_for_single_shot, path_ss, hp.single_shot_gates),
):
    line = f"  {name:12s}"
    for err in (common, error):
        ideal, closed = gates(path, err)[:2]
        oracle_f = hp.gate_fidelity(ideal, hp.propagate(builder(path, err, "square"), steps))
        line += f" {oracle_f:14.10f} {hp.gate_fidelity(ideal, closed):14.10f}"
    print(line)
