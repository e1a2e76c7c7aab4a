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
schemes = hp.analytic.SCHEMES
paths = {name: scheme.solve(target, hp.PathConstraints()) for name, scheme in schemes.items()}

steps = 50_000
print(f"time-stepped vs closed-form propagators at {steps} steps per pulse, {error}:")
for name, scheme in schemes.items():
    path = paths[name]
    closed = scheme.build(path, error)[1]
    for shape in ("square", "sine-squared"):
        stepped = hp.propagate(scheme.schedule(path, error, shape), steps)
        dev = np.max(np.abs(stepped - closed))
        print(f"  {name:28s} {shape:13s} max deviation = {dev:.2e}")

print("\nconvergence study on the half-sine envelope (genuine O(1/N^2) error):")
gen = hp.schedule_for_two_loop(paths["two-loop"], error, "square").segments[0].generator
schedule = hp.Schedule((hp.ScheduleSegment("sine", np.pi, gen),))
reference = hp.closed_form_limit(schedule)
print(f"{'steps':>8} {'max error':>12}")
for n in (200, 800, 3200, 12800):
    dev = np.max(np.abs(hp.propagate(schedule, n) - reference))
    print(f"{n:8d} {dev:12.3e}")
print(f"measured order p = {hp.convergence_order(schedule):.3f} (expect ~2)")

for shape in ("square", "sine-squared"):
    flat = hp.Schedule((hp.ScheduleSegment(shape, np.pi, gen),))
    print(f"{shape}: order = {hp.convergence_order(flat)} "
          "(midpoint integrates this shape exactly; error sits at roundoff)")

# The oracle writes each pulse from the two drives in the bare basis; the closed
# forms tilt each pulse's ratio angle and scale its area.  Both model kappa.
print(f"\ngate fidelity at eps = {error.epsilon}, oracle (square, {steps} steps per pulse) / closed form:")
print(f"  {'scheme':12s}{'kappa = 0':>30s}{f'kappa = {error.kappa}':>30s}")
for name in ("single-loop", "single-shot"):
    scheme, path = schemes[name], paths[name]
    line = f"  {name:12s}"
    for err in (common, error):
        ideal, closed = scheme.build(path, err)
        oracle_f = hp.gate_fidelity(ideal, hp.propagate(scheme.schedule(path, err, "square"), steps))
        line += f" {oracle_f:14.10f} {hp.gate_fidelity(ideal, closed):14.10f}"
    print(line)
