"""Why the decomposition phase phi_b = pi makes two-loop gates robust.

The second-order infidelity of a two-loop gate is
(2/3)(1 + cos(eta/2) cos(phi_b)) (pi eps)^2: the relative total-phase shift
between the two loops controls whether the two loops' error kicks add up
(phi_b = 0) or interfere destructively (phi_b = pi).  This script sweeps
phi_b at a fixed geometry and tabulates exact vs second-order fidelity,
then compares the worst and best paths across error magnitudes.

Run:  python demos/two_loop_error_budget.py
"""

import numpy as np

import holopath as hp

target = hp.TargetGate(np.pi / 4, [0, 1, 0])
eps = 1e-2

print(f"target: rotation angle pi/4, axis y, error epsilon = {eps}")
print("\nsweep of the decomposition phase phi_b (48 points):")
print(f"{'phi_b':>8} {'infidelity exact':>18} {'infidelity 2nd order':>21}")
base = hp.solve_two_loop(target, hp.PathConstraints(force_phi_b=0.0)).path
rows = []
for offset in np.linspace(0.0, 2 * np.pi, 48, endpoint=False):
    loop2 = hp.LoopParams(base.loop2.theta, base.loop2.psi, base.loop2.phi + offset)
    path = hp.TwoLoopPath(base.loop1, loop2)
    dec = hp.phi_b_of(path)
    exact = hp.fidelity_pair("two-loop", path, hp.RabiError(eps))[0]
    approx = hp.fid2_two_loop(dec.eta, dec.phi_b, eps)
    rows.append((dec.phi_b, 1 - exact, 1 - approx))
rows.sort()
for phi_b, inf_exact, inf2 in rows[::6]:
    print(f"{phi_b:8.4f} {inf_exact:18.3e} {inf2:21.3e}")

best = min(rows, key=lambda r: r[1])
print(f"\nminimum exact infidelity at phi_b = {best[0]:.4f} (pi = {np.pi:.4f})")

print("\nbest path (phi_b = pi) vs worst path (phi_b = 0) across error sizes:")
path_best = hp.solve_two_loop(target).path
path_worst = hp.solve_two_loop(target, hp.PathConstraints(force_phi_b=0.0)).path
print(f"{'epsilon':>9} {'1 - F (phi_b = pi)':>19} {'1 - F (phi_b = 0)':>18} {'ratio':>7}")
for e in (1e-3, 3e-3, 1e-2, 3e-2):
    error = hp.RabiError(e)
    f_best = hp.fidelity_pair("two-loop", path_best, error)[0]
    f_worst = hp.fidelity_pair("two-loop", path_worst, error)[0]
    print(f"{e:9.0e} {1 - f_best:19.3e} {1 - f_worst:18.3e} {(1 - f_worst) / (1 - f_best):7.1f}")

# And the punchline of the comparison: a phi_b = 0 two-loop path is *worse*
# than both alternative schemes, while the phi_b = pi path beats them.
coeff_worst = hp.quad_coeff_two_loop(target.theta_gate, 0.0)
print(
    f"\nphi_b = 0 coefficient {coeff_worst:.3f} exceeds the single-loop "
    f"({hp.f2(target.theta_gate) * np.pi**2 / 3:.3f}) and single-shot "
    f"({hp.f3(target.theta_gate) * np.pi**2 / 3:.3f}) coefficients;"
)
print(
    f"phi_b = pi brings it down to {hp.quad_coeff_two_loop(target.theta_gate, np.pi):.3f}, "
    "the most robust of the three schemes."
)
