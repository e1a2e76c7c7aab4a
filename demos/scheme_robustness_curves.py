"""Compare the error sensitivity of the three holonomic gate schemes.

Each scheme realizes the same logical rotation R(theta, m) = exp(1j theta m.sigma),
but under a systematic Rabi-frequency error epsilon their fidelities drop as

    F = 1 - f_k(theta) * (pi * epsilon)^2 / 3,

with a shape function f_k that depends only on the rotation angle.  This
script tabulates f1 (two-loop), f2 (single-loop multiple-pulse) and
f3 (single-shot) over theta in [0, pi/2], confirms each curve against the
quadratic coefficient extracted from exact error propagation, and plots
the comparison when matplotlib is available.  Last, it tabulates the
coefficient under a pure relative drive error kappa (epsilon = 0), where
the ordering reverses, and cross-checks two angles against the oracle.

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

# A pure drive imbalance (epsilon = 0, kappa != 0) reverses the ordering.
# fidelity_report's second-order coefficient is per unit kappa^2 here, from
# each scheme's closed forms, which take kappa for every scheme.
print("\npure relative error: c in F ~ 1 - c kappa^2 (epsilon = 0, axis (1,1,1)/sqrt 3)")
print(f"{'theta':>8} {'two-loop':>10} {'single-loop':>12} {'single-shot':>12}")
pure_kappa = hp.RabiError(0.0, 1e-2)
reversed_everywhere = True
for theta_gate in np.linspace(np.pi / 16, np.pi / 2 - 1e-3, 8):
    target = hp.TargetGate(theta_gate, [1, 1, 1])
    row = [
        hp.fidelity_report(name, scheme.solve(target, hp.PathConstraints()), pure_kappa).quad_coeff_analytic
        for name, scheme in hp.analytic.SCHEMES.items()
    ]
    reversed_everywhere &= row[0] > max(row[1:])
    print(f"{theta_gate:8.4f} {row[0]:10.4f} {row[1]:12.4f} {row[2]:12.4f}")
print(f"two-loop the most sensitive at every sampled angle: {reversed_everywhere}")

# Cross-check two angles against the oracle's independent bare-basis drives:
# the +/- kappa probe on its infinite-step limit, as fidelity_report probes.
print("\noracle cross-check of the pure-kappa coefficient:")
schedules = {
    "two-loop": hp.schedule_for_two_loop,
    "single-loop": hp.schedule_for_single_loop,
    "single-shot": hp.schedule_for_single_shot,
}
for theta_gate in (np.pi / 4, np.pi / 2 - 1e-3):
    target = hp.TargetGate(theta_gate, [1, 1, 1])
    for name, scheme in hp.analytic.SCHEMES.items():
        path = scheme.solve(target, hp.PathConstraints())
        ideal = scheme.build(path, hp.RabiError(0.0))[0]
        samples = [
            (k, hp.gate_fidelity(ideal, hp.closed_form_limit(schedules[name](path, hp.RabiError(0.0, k), "square"))))
            for k in (1e-3, -1e-3, 1e-4, -1e-4)
        ]
        closed = hp.fidelity_report(name, path, pure_kappa).quad_coeff_analytic
        oracle_c = hp.extract_quadratic_coefficient(samples)
        print(f"  theta = {theta_gate:.4f} {name:12s} closed form c = {closed:.4f}   oracle c = {oracle_c:.4f}")

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
