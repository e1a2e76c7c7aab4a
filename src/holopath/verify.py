"""Acceptance suite: one check per acceptance criterion, shared by CLI and tests.

Each check returns a :class:`CheckResult` with a measured-vs-required
detail string.  ``level="fast"`` trims the randomized sample counts and
oracle step counts for a sub-minute run; ``level="full"`` runs the
complete counts (notably the 1e5-step oracle comparisons).
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import analytic, oracle, pathfinder, schemes
from .linalg import IDENTITY, ContractViolation
from .pathfinder import PathConstraints
from .schemes import NO_ERROR, LoopParams, RabiError, SingleLoopPath, TargetGate, TwoLoopPath

DEFAULT_SEED = 20260809

#: cubic-remainder constant for the relative-error second-order formula
CUBIC_BOUND_CONSTANT = 6.0

_THETA_GRID = (np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2)
_COEFF_AXIS = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
#: kappa step of the central difference behind criterion 6's dF/dkappa
_KAPPA_STEP = 1e-5


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail} [{self.seconds:.2f} s]"


def _result(name: str, started: float, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail, time.perf_counter() - started)


def check_figure1(level: str, seed: int) -> CheckResult:
    """Criterion 1: figure1 CSV curves (dominance, monotonicity, endpoints, runtime)."""
    from . import cli

    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "figure1.csv")
        t0 = time.perf_counter()
        code = cli.main(["figure1", "--samples", "101", "--out", out])
        elapsed = time.perf_counter() - t0
        if code != 0:
            return _result("criterion-1 figure1", started, False, f"CLI exited with {code}")
        data = np.genfromtxt(out, delimiter=",", skip_header=1)
    theta, c1, c2, c3 = data.T
    interior = theta > 0
    dominance = bool(np.all(c1[interior] < c2[interior]) and np.all(c1[interior] < c3[interior]))
    monotone = bool(np.all(np.diff(c1) > 0) and np.all(np.diff(c2) > 0) and np.all(np.diff(c3) > 0))
    end_dev = max(abs(c1[-1] - (2 - np.sqrt(2))), abs(c2[-1] - 1), abs(c3[-1] - 1))
    ok = dominance and monotone and end_dev <= 1e-12 and elapsed < 1.0
    detail = (
        f"dominance={dominance} monotone={monotone} endpoint dev={end_dev:.2e} (<=1e-12) "
        f"runtime={elapsed:.3f} s (<1 s)"
    )
    return _result("criterion-1 figure1", started, ok, detail)


def _worst_coefficient_error(names) -> tuple[float, str]:
    """Largest relative error of the named schemes' exact quadratic coefficients against f_k * pi^2 / 3.

    A point whose fidelities the coefficient fit refuses counts as failed, with an error of inf; the
    second value is then a detail fragment naming how many points were refused and the first refusal.
    """
    worst, refusals = 0.0, []
    for theta_gate in _THETA_GRID:
        target = TargetGate(theta_gate, _COEFF_AXIS)
        for name in names:
            scheme = analytic.SCHEMES[name]
            path = scheme.solve(target, PathConstraints())
            try:
                coeff = analytic.fidelity_report(name, path, NO_ERROR).quad_coeff_exact
            except ValueError as exc:
                refusals.append(f"{name} at theta_gate={theta_gate:.4f}: {exc}")
                worst = np.inf
                continue
            worst = max(worst, abs(coeff / (scheme.shape(theta_gate) * np.pi**2 / 3.0) - 1.0))
    total = len(_THETA_GRID) * len(names)
    return worst, f", {len(refusals)} of {total} points refused, first {refusals[0]}" if refusals else ""


def check_two_loop_coefficients(level: str, seed: int) -> CheckResult:
    """Criterion 2: exact two-loop quadratic coefficients vs f1 * pi^2 / 3 at phi_b = pi."""
    started = time.perf_counter()
    worst, refused = _worst_coefficient_error(("two-loop",))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-3 and elapsed < 5.0
    detail = f"max relative coefficient error={worst:.2e} (<=1e-3){refused}, runtime={elapsed:.2f} s (<5 s)"
    return _result("criterion-2 two-loop coefficients", started, ok, detail)


def check_other_scheme_coefficients(level: str, seed: int) -> CheckResult:
    """Criterion 3: single-loop and single-shot coefficients vs f2, f3 * pi^2 / 3."""
    started = time.perf_counter()
    worst, refused = _worst_coefficient_error(("single-loop", "single-shot"))
    detail = f"max relative coefficient error={worst:.2e} (<=1e-3){refused}"
    return _result("criterion-3 single-loop/single-shot coefficients", started, worst <= 1e-3, detail)


def check_phi_b_optimality(level: str, seed: int) -> CheckResult:
    """Criterion 4: 360-point phi_b scan minimized at pi; phi_b = 0 counter-check."""
    started = time.perf_counter()
    theta_gate, eps = np.pi / 4, 1e-2
    base = pathfinder.solve_two_loop(
        TargetGate(theta_gate, np.array([0.3, -0.5, 0.8])), PathConstraints(force_phi_b=0.0)
    ).path
    offsets = np.arange(360) * 2 * np.pi / 360
    infidelities = np.empty(360)
    phi_bs = np.empty(360)
    for i, off in enumerate(offsets):
        loop2 = LoopParams(base.loop2.theta, base.loop2.psi, base.loop2.phi + off)
        path = TwoLoopPath(base.loop1, loop2)
        infidelities[i] = 1.0 - analytic.fidelity_pair("two-loop", path, RabiError(eps))[0]
        phi_bs[i] = schemes.phi_b_of(path).phi_b
    best = phi_bs[int(np.argmin(infidelities))]
    step = 2 * np.pi / 360
    miss = abs((best - np.pi + np.pi) % (2 * np.pi) - np.pi)
    coeff0 = analytic.quad_coeff_two_loop(theta_gate, 0.0)
    others = (analytic.f2(theta_gate) * np.pi**2 / 3.0, analytic.f3(theta_gate) * np.pi**2 / 3.0)
    counter = coeff0 > max(others)
    ok = miss <= step + 1e-12 and counter
    detail = (
        f"argmin phi_b={best:.4f} vs pi, miss={miss:.2e} (<= grid step {step:.2e}); "
        f"phi_b=0 coefficient {coeff0:.3f} > others {max(others):.3f}: {counter}"
    )
    return _result("criterion-4 phi_b optimality", started, ok, detail)


def check_relative_error_consistency(level: str, seed: int) -> CheckResult:
    """Criterion 5: analytic F'' within C*(|eps|+|kappa|)^3 of exact; kappa = 0 reduction."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed + 5)
    paths = []
    while len(paths) < 10:
        path = analytic.SCHEMES["two-loop"].random_path(rng)
        if schemes.phi_b_of(path).eta < np.pi - 0.2:
            paths.append(path)
    grid = np.linspace(-0.02, 0.02, 10)
    eps, kappa = np.meshgrid(grid, grid, indexing="ij")
    worst_ratio = 0.0
    worst_reduction = 0.0
    for path in paths:
        dec = schemes.phi_b_of(path)
        exact, approx = analytic.fidelity_pair("two-loop", path, RabiError(eps, kappa))
        # float_power is C pow() per point, as ** is for one float; an array's ** 3 may round differently
        scale = np.float_power(np.abs(eps) + np.abs(kappa), 3)
        worst_ratio = max(worst_ratio, np.max(np.abs(exact - approx) / scale))
        common = analytic.fid2_relative(path, RabiError(grid))[1]
        reference = analytic.fid2_two_loop(dec.eta, dec.phi_b, grid)
        worst_reduction = max(worst_reduction, np.max(np.abs(common - reference)))
    ok = worst_ratio <= CUBIC_BOUND_CONSTANT and worst_reduction <= 1e-12
    detail = (
        f"max |F_exact - F''| / (|eps|+|kappa|)^3 = {worst_ratio:.2f} (<= {CUBIC_BOUND_CONSTANT}); "
        f"kappa=0 reduction dev={worst_reduction:.2e} (<=1e-12) over 1000-point grid"
    )
    return _result("criterion-5 relative-error consistency", started, ok, detail)


def _kappa_derivative(path: TwoLoopPath, eps: float) -> float:
    kappa = np.array([_KAPPA_STEP, -_KAPPA_STEP])
    f_plus, f_minus = analytic.fidelity_pair("two-loop", path, RabiError(eps, kappa))[0]
    return (f_plus - f_minus) / (2.0 * _KAPPA_STEP)


def unbalanced_fixture_path() -> TwoLoopPath:
    """theta1 = pi/3, theta2 = pi/2, eta = pi/2 (psi21 = pi/2), tuned to phi_b = pi."""
    loop1 = LoopParams(np.pi / 3, 0.0, 0.0)
    b1, _ = schemes.bright_dark(np.pi / 3, 0.0)
    b2, _ = schemes.bright_dark(np.pi / 2, np.pi / 2)
    phi2 = np.pi - np.angle(np.vdot(b1, b2))
    return TwoLoopPath(loop1, LoopParams(np.pi / 2, np.pi / 2, phi2))


def check_kappa_optimality(level: str, seed: int) -> CheckResult:
    """Criterion 6: kappa derivative ~0 for balanced paths; unbalanced fixture value."""
    started = time.perf_counter()
    eps = 1e-2
    axes = (np.array([1.0, 0, 0]), np.array([0.0, 0, 1.0]), _COEFF_AXIS, np.array([0.3, -0.5, 0.8]))
    worst_balanced = 0.0
    for theta_gate in _THETA_GRID:
        for axis in axes:
            for sign in (1, -1):
                sol = pathfinder.solve_two_loop(
                    TargetGate(theta_gate, axis), PathConstraints(orientation_sign=sign)
                )
                worst_balanced = max(worst_balanced, abs(_kappa_derivative(sol.path, eps)))
    fixture = unbalanced_fixture_path()
    fd = _kappa_derivative(fixture, eps)
    predicted = analytic.dF_dkappa_at_zero(fixture, eps)
    fixture_dev = abs(fd - predicted)
    ok = worst_balanced <= 1e-8 and fixture_dev <= 1e-5 and abs(predicted - (-9.6358e-3)) <= 1e-6
    detail = (
        f"max |dF/dkappa| balanced={worst_balanced:.2e} (<=1e-8); "
        f"unbalanced FD={fd:.6e} vs {predicted:.6e}, dev={fixture_dev:.2e} (<=1e-5)"
    )
    return _result("criterion-6 kappa optimality", started, ok, detail)


def check_oracle_equivalence(level: str, seed: int) -> CheckResult:
    """Criterion 7: time-stepped propagation matches closed forms on random points."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed + 7)
    points = 100 if level == "full" else 10
    steps = 100_000 if level == "full" else 10_000
    worst = worst_unitary = 0.0
    for index in range(points):
        # first point of each scheme exercises the zero-error (ideal) case
        eps = 0.0 if index == 0 else rng.uniform(-0.05, 0.05)
        kappa = 0.0 if index == 0 else rng.uniform(-0.05, 0.05)
        for scheme in analytic.SCHEMES.values():
            error = RabiError(eps, kappa)
            path = scheme.random_path(rng)
            closed = scheme.build(path, error)[1]
            for shape in ("square", "sine-squared"):
                stepped = oracle.propagate(scheme.schedule(path, error, shape), steps)
                worst = max(worst, float(np.max(np.abs(stepped - closed))))
                worst_unitary = max(worst_unitary, float(np.max(np.abs(stepped.conj().T @ stepped - IDENTITY))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and (level != "full" or elapsed < 120.0)
    detail = (
        f"max |stepped - closed|={worst:.2e} (<=1e-8) over {points} points/scheme x 2 envelopes "
        f"at {steps} steps, oracle unitarity={worst_unitary:.2e}, runtime={elapsed:.1f} s"
    )
    return _result("criterion-7 oracle equivalence", started, ok, detail)


def check_structural(level: str, seed: int) -> CheckResult:
    """Criterion 8: unitarity, zero-error reduction, single-shot closed forms, gauge invariances, round trips."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed + 8)
    n_paths = 200 if level == "full" else 60
    n_targets = 1000 if level == "full" else 200

    worst_unitary = 0.0
    worst_reduction = 0.0
    worst_closed = 0.0
    for _ in range(n_paths):
        eps, kappa = rng.uniform(-0.1, 0.1, 2)
        built = {}
        for name, scheme in analytic.SCHEMES.items():
            path = scheme.random_path(rng)
            # zero error, eps, then (eps, kappa): one builder call
            ideal, errored = scheme.build(path, RabiError(np.array([0.0, eps, eps]), np.array([0.0, 0.0, kappa])))[:2]
            for gate in (ideal, *errored[1:]):
                worst_unitary = max(worst_unitary, float(np.max(np.abs(gate.conj().T @ gate - IDENTITY))))
            worst_reduction = max(worst_reduction, float(np.max(np.abs(errored[0] - ideal))))
            built[name] = path, ideal, errored[1:]
        # the single-shot closed forms against the exponential of the oracle's full Hamiltonian
        path_ss, ideal_ss, errored_ss = built["single-shot"]
        for error, gate in zip((NO_ERROR, RabiError(eps), RabiError(eps, kappa)), (ideal_ss, *errored_ss)):
            direct = oracle.closed_form_limit(oracle.schedule_for_single_shot(path_ss, error, "square"))
            worst_closed = max(worst_closed, float(np.max(np.abs(gate - direct))))

    worst_gauge = 0.0
    path2 = analytic.SCHEMES["two-loop"].random_path(rng)
    build2 = analytic.SCHEMES["two-loop"].build
    ideal2 = build2(path2, NO_ERROR)[0]
    fid2 = analytic.fidelity_pair("two-loop", path2, RabiError(1e-2))[0]
    path_sl = SingleLoopPath(0.8, 0.3, 1.1, 0.0)
    fid_sl = analytic.fidelity_pair("single-loop", path_sl, RabiError(1e-2))[0]
    for shift in np.linspace(0.0, 2 * np.pi, 17):
        shifted = TwoLoopPath(
            LoopParams(path2.loop1.theta, path2.loop1.psi, path2.loop1.phi + 1.3 * shift),
            LoopParams(path2.loop2.theta, path2.loop2.psi, path2.loop2.phi + 0.7 * shift),
        )
        worst_gauge = max(worst_gauge, float(np.max(np.abs(build2(shifted, NO_ERROR)[0] - ideal2))))
        common = TwoLoopPath(
            LoopParams(path2.loop1.theta, path2.loop1.psi, path2.loop1.phi + shift),
            LoopParams(path2.loop2.theta, path2.loop2.psi, path2.loop2.phi + shift),
        )
        fid_shift = analytic.fidelity_pair("two-loop", common, RabiError(1e-2))[0]
        worst_gauge = max(worst_gauge, abs(fid_shift - fid2))
        sl_shift = SingleLoopPath(path_sl.theta, path_sl.psi, path_sl.phi + shift, path_sl.phi_prime + shift)
        fid_sl_shift = analytic.fidelity_pair("single-loop", sl_shift, RabiError(1e-2))[0]
        worst_gauge = max(worst_gauge, abs(fid_sl_shift - fid_sl))

    worst_round = 0.0
    for _ in range(n_targets):
        theta_gate = rng.uniform(0.02, np.pi / 2 - 0.02)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        target = TargetGate(theta_gate, axis)
        for scheme in analytic.SCHEMES.values():
            gate = scheme.build(scheme.solve(target, PathConstraints()), NO_ERROR)[0]
            try:
                measured_theta, measured_axis = pathfinder.gate_angle_axis(gate)
            except ContractViolation:  # the gate leaks into |e>: it has no logical rotation to read
                measured_theta, measured_axis = theta_gate, None
            worst_round = max(worst_round, abs(measured_theta - theta_gate))
            # no axis (identity-like or leaking gate) is the largest axis error, pi, for a nonzero target;
            # the chord form of the axis angle stays precise near zero
            chord = 2.0 if measured_axis is None else np.linalg.norm(measured_axis - axis)
            axis_angle = 2.0 * np.arcsin(min(1.0, chord / 2.0))
            worst_round = max(worst_round, float(axis_angle))

    ok = (
        worst_unitary <= 1e-12
        and worst_reduction <= 1e-13
        and worst_closed <= 1e-11
        and worst_gauge <= 1e-13
        and worst_round <= 1e-10
    )
    detail = (
        f"unitarity={worst_unitary:.2e} (<=1e-12); zero-error reduction={worst_reduction:.2e} (<=1e-13); "
        f"single-shot closed vs direct={worst_closed:.2e} (<=1e-11); "
        f"gauge invariances={worst_gauge:.2e} (<=1e-13); round trips={worst_round:.2e} (<=1e-10)"
    )
    return _result("criterion-8 structural suite", started, ok, detail)


ALL_CHECKS = (
    check_figure1,
    check_two_loop_coefficients,
    check_other_scheme_coefficients,
    check_phi_b_optimality,
    check_relative_error_consistency,
    check_kappa_optimality,
    check_oracle_equivalence,
    check_structural,
)


def run_suite(level: str, seed: int) -> list[CheckResult]:
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    return [check(level=level, seed=seed) for check in ALL_CHECKS]
