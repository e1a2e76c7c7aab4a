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
# fidelity_report extracts the quadratic coefficient c in F ~ 1 - c eps^2
# from +/- probes at eps = 1e-3 and 1e-4; compare it with f_k * pi^2 / 3.
print("\nexact-propagation cross-check at theta = pi/4:")
target = hp.TargetGate(np.pi / 4, [1, 0, 0])
for name, scheme in hp.analytic.SCHEMES.items():
    path = scheme.solve(target, hp.PathConstraints())
    measured = hp.fidelity_report(name, path, hp.RabiError(0.0)).quad_coeff_exact
    predicted = scheme.shape(np.pi / 4) * np.pi**2 / 3
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
