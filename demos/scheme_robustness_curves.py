"""Compare the error sensitivity of the three holonomic gate schemes.

Each scheme realizes the same logical rotation R(theta, m) = exp(1j theta m.sigma),
but under a systematic Rabi-frequency error epsilon their fidelities drop as

    F = 1 - f_k(theta) * (pi * epsilon)^2 / 3,

with a shape function f_k that depends only on the rotation angle.  This
script tabulates f1 (two-loop), f2 (single-loop multiple-pulse) and
f3 (single-shot) over theta in [0, pi/2], confirms each curve against the
quadratic coefficient extracted from exact error propagation, and plots
the comparison when matplotlib is available.

Run:  python demos/scheme_robustness_curves.py
"""

import numpy as np

import holopath as hp

theta = np.linspace(0.0, np.pi / 2, 101)
table = hp.comparison_table(101)

print("scheme comparison: error shape functions (lower = more robust)")
print(f"{'theta':>8} {'f1 two-loop':>12} {'f2 single-loop':>15} {'f3 single-shot':>15}")
for row in table[:: len(table) // 8]:
    print(f"{row[0]:8.4f} {row[1]:12.6f} {row[2]:15.6f} {row[3]:15.6f}")

# The two-loop curve stays below both alternatives at every angle.
assert np.all(table[1:, 1] < table[1:, 2]) and np.all(table[1:, 1] < table[1:, 3])
print("\nf1 < f2 and f1 < f3 at every sampled angle: the two-loop paths win.")

# Cross-check one point of each analytic curve against exact propagation:
# extract the quadratic coefficient c in F ~ 1 - c eps^2 and compare with
# f_k * pi^2 / 3.
print("\nexact-propagation cross-check at theta = pi/4:")
target = hp.TargetGate(np.pi / 4, [1, 0, 0])
probes = (1e-3, -1e-3, 1e-4, -1e-4)

path2 = hp.solve_two_loop(target).path
ideal2 = hp.two_loop_ideal(path2)
c2 = hp.extract_quadratic_coefficient(
    [(e, hp.gate_fidelity(ideal2, hp.two_loop_errored_relative(path2, hp.RabiError(e)))) for e in probes]
)
path_sl = hp.solve_single_loop(target)
ideal_sl = hp.single_loop_ideal(path_sl)
c_sl = hp.extract_quadratic_coefficient(
    [(e, hp.gate_fidelity(ideal_sl, hp.single_loop_errored(path_sl, hp.RabiError(e)))) for e in probes]
)
path_ss = hp.solve_single_shot(target)
ideal_ss = hp.single_shot_ideal(path_ss)
c_ss = hp.extract_quadratic_coefficient(
    [(e, hp.gate_fidelity(ideal_ss, hp.single_shot_errored(path_ss, hp.RabiError(e)))) for e in probes]
)

for name, measured, shape in (
    ("two-loop", c2, hp.f1(np.pi / 4)),
    ("single-loop", c_sl, hp.f2(np.pi / 4)),
    ("single-shot", c_ss, hp.f3(np.pi / 4)),
):
    predicted = shape * np.pi**2 / 3
    print(f"  {name:12s} extracted c = {measured:.6f}   f * pi^2/3 = {predicted:.6f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 3.2))
    ax.plot(theta, table[:, 1], label="$f_1$ two-loop")
    ax.plot(theta, table[:, 2], "--", label="$f_2$ single-loop")
    ax.plot(theta, table[:, 3], ":", label="$f_3$ single-shot")
    ax.set_xlabel("rotation angle")
    ax.set_ylabel("error shape $f$")
    ax.legend()
    fig.tight_layout()
    fig.savefig("scheme_robustness_curves.png", dpi=150)
    print("\nwrote scheme_robustness_curves.png")
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
