"""Acceptance suite: one check per acceptance criterion, shared by CLI and tests.

Each check returns a :class:`CheckResult` of :class:`Gate` records, one per bound it checks (measured value,
bound, strict or not); pass/fail and the console line follow from them, and readings without a bound go in
its ``note``.  ``level="fast"`` trims the randomized sample counts and oracle step counts for a sub-minute
run; ``level="full"`` runs the complete counts (notably the 1e5-step oracle comparisons).
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import analytic, oracle, pathfinder, schemes
from .linalg import IDENTITY, ContractViolation
from .pathfinder import PathConstraints
from .schemes import NO_ERROR, RabiError, SingleLoopPath, TargetGate, TwoLoopPath

DEFAULT_SEED = 20260809

#: cubic-remainder constant of every scheme's second order 1 - Q, in |F - F''| <= C (|eps| + |kappa|)^3;
#: measured to hold for |eps|, |kappa| <= 0.07 (two-loop worst 5.49 there, 7.57 at 0.1)
CUBIC_BOUND_CONSTANT = 6.0

_THETA_GRID = (np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2)
_COEFF_AXIS = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
#: kappa step of the central difference behind criterion 6's dF/dkappa
_KAPPA_STEP = 1e-5


class Gate(NamedTuple):
    """One acceptance bound: ``measured`` passes when it is <= ``bound``, or < ``bound`` when ``strict``."""

    label: str
    measured: float
    bound: float
    strict: bool = False

    @property
    def passed(self) -> bool:
        return bool(self.measured < self.bound if self.strict else self.measured <= self.bound)

    def __str__(self) -> str:
        return f"{self.label}={self.measured:.3g} ({'<' if self.strict else '<='}{self.bound:.3g})"


@dataclass
class CheckResult:
    name: str
    gates: list[Gate]
    seconds: float
    note: str = ""

    @property
    def passed(self) -> bool:
        """Every gate passes; a result without gates checked nothing and fails."""
        return bool(self.gates) and all(gate.passed for gate in self.gates)

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = "; ".join([*map(str, self.gates), *filter(None, [self.note])])
        return f"[{status}] {self.name}: {text} [{self.seconds:.2f} s]"


def _result(name: str, started: float, gates: list[Gate], note: str = "") -> CheckResult:
    return CheckResult(name, gates, time.perf_counter() - started, note)


def _phase_shifted(path: TwoLoopPath, shift1: float, shift2: float) -> TwoLoopPath:
    """``path`` with loop k's total phase phi moved by ``shift<k>``."""
    loop1, loop2 = path.loop1, path.loop2
    return TwoLoopPath(replace(loop1, phi=loop1.phi + shift1), replace(loop2, phi=loop2.phi + shift2))


def check_figure1(level: str, seed: int) -> CheckResult:
    """Criterion 1: figure1 CSV curves (dominance, monotonicity, endpoints, runtime)."""
    from . import cli

    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "figure1.csv")
        t0 = time.perf_counter()
        code = cli.main(["figure1", "--samples", "101", "--out", out])
        gates = [Gate("exit code", code, 0), Gate("runtime (s)", time.perf_counter() - t0, 1.0, strict=True)]
        if code != 0:
            return _result("criterion-1 figure1", started, gates)
        data = np.genfromtxt(out, delimiter=",", skip_header=1)
    theta, c1, c2, c3 = data.T
    end_dev = max(abs(c1[-1] - (2 - np.sqrt(2))), abs(c2[-1] - 1), abs(c3[-1] - 1))
    # violation counts: interior samples where f1 is not below both f2 and f3, steps where a curve does not rise
    return _result("criterion-1 figure1", started, [
        *gates,
        Gate("dominance", np.count_nonzero(~(c1 < np.minimum(c2, c3))[theta > 0]), 0),
        Gate("monotone", np.count_nonzero(~(np.diff(data[:, 1:], axis=0) > 0)), 0),
        Gate("endpoint dev", end_dev, 1e-12),
    ])


def _coefficient_gate(names) -> tuple[Gate, str]:
    """The largest relative error of the named schemes' exact quadratic coefficients against f_k * pi^2 / 3.

    A point whose fidelities the coefficient fit refuses counts as failed, with an error of inf; the
    second value is then a note naming how many points were refused and the first refusal.
    """
    worst, refusals = 0.0, []
    for theta_gate in _THETA_GRID:
        target = TargetGate(theta_gate, _COEFF_AXIS)
        for name in names:
            scheme = analytic.SCHEMES[name]
            path = scheme.solve(target, PathConstraints())
            try:
                coeff = analytic.probe_quadratic_coefficient(name, path, (1.0, 0.0))
            except ValueError as exc:
                refusals.append(f"{name} at theta_gate={theta_gate:.4f}: {exc}")
                worst = np.inf
                continue
            worst = max(worst, abs(coeff / (scheme.shape(theta_gate) * np.pi**2 / 3.0) - 1.0))
    total = len(_THETA_GRID) * len(names)
    note = f"{len(refusals)} of {total} points refused, first {refusals[0]}" if refusals else ""
    return Gate("max relative coefficient error", worst, 1e-3), note


def check_two_loop_coefficients(level: str, seed: int) -> CheckResult:
    """Criterion 2: exact two-loop quadratic coefficients vs f1 * pi^2 / 3 at phi_b = pi."""
    started = time.perf_counter()
    gate, refused = _coefficient_gate(("two-loop",))
    gates = [gate, Gate("runtime (s)", time.perf_counter() - started, 5.0, strict=True)]
    return _result("criterion-2 two-loop coefficients", started, gates, refused)


def check_other_scheme_coefficients(level: str, seed: int) -> CheckResult:
    """Criterion 3: single-loop and single-shot coefficients vs f2, f3 * pi^2 / 3."""
    started = time.perf_counter()
    gate, refused = _coefficient_gate(("single-loop", "single-shot"))
    return _result("criterion-3 single-loop/single-shot coefficients", started, [gate], refused)


def check_phi_b_optimality(level: str, seed: int) -> CheckResult:
    """Criterion 4: 360-point phi_b scan minimized at pi; phi_b = 0 counter-check on the quadratic form's a."""
    started = time.perf_counter()
    theta_gate, eps = np.pi / 4, 1e-2
    base = pathfinder.solve_two_loop(
        TargetGate(theta_gate, np.array([0.3, -0.5, 0.8])), PathConstraints(force_phi_b=0.0)
    ).path
    offsets = np.arange(360) * 2 * np.pi / 360
    infidelities = np.empty(360)
    phi_bs = np.empty(360)
    for i, off in enumerate(offsets):
        path = _phase_shifted(base, 0.0, off)
        infidelities[i] = 1.0 - analytic.fidelity_pair("two-loop", path, RabiError(eps))[0]
        phi_bs[i] = schemes.phi_b_of(path).phi_b
    best = phi_bs[int(np.argmin(infidelities))]
    step = 2 * np.pi / 360
    miss = abs((best - np.pi + np.pi) % (2 * np.pi) - np.pi)
    coeff0 = analytic.SCHEMES["two-loop"].quadratic_form(base)[0]
    others = (analytic.f2(theta_gate) * np.pi**2 / 3.0, analytic.f3(theta_gate) * np.pi**2 / 3.0)
    return _result("criterion-4 phi_b optimality", started, [
        Gate("argmin phi_b miss from pi", miss, step + 1e-12),
        Gate("other schemes' max coefficient vs phi_b=0 a", max(others), coeff0, strict=True),
    ])


def check_relative_error_consistency(level: str, seed: int) -> CheckResult:
    """Criterion 5: analytic F'' within C*(|eps|+|kappa|)^3 of exact; kappa = 0 reduction to 1 - a eps^2.

    F'' is 1 - Q of the scheme's quadratic form, so the reduction checks the form's kappa = 0 restriction:
    fidelity_pair's second column at kappa = 0 against 1 - a eps^2, which holds by construction and reads 0.
    The grid is |eps|, |kappa| <= 0.02; C = CUBIC_BOUND_CONSTANT was measured to hold up to 0.07, not to 0.1.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(seed + 5)
    paths = []
    while len(paths) < 10:
        path = analytic.SCHEMES["two-loop"].random_path(rng)
        if schemes.phi_b_of(path).eta < np.pi - 0.2:
            paths.append(path)
    grid = np.linspace(-0.02, 0.02, 10)
    eps, kappa = np.meshgrid(grid, grid, indexing="ij")
    worst_ratio = worst_reduction = 0.0
    for path in paths:
        exact, approx = analytic.fidelity_pair("two-loop", path, RabiError(eps, kappa))
        # float_power is C pow() per point, as ** is for one float; an array's ** 3 may round differently
        scale = np.float_power(np.abs(eps) + np.abs(kappa), 3)
        worst_ratio = max(worst_ratio, np.max(np.abs(exact - approx) / scale))
        common = analytic.fidelity_pair("two-loop", path, RabiError(grid))[1]
        reference = 1.0 - analytic.SCHEMES["two-loop"].quadratic_form(path)[0] * grid * grid
        worst_reduction = max(worst_reduction, np.max(np.abs(common - reference)))
    return _result("criterion-5 relative-error consistency", started, [
        Gate("max |F_exact - F''| / (|eps|+|kappa|)^3", worst_ratio, CUBIC_BOUND_CONSTANT),
        Gate("kappa=0 reduction dev", worst_reduction, 1e-12),
    ])


def _kappa_derivative(path: TwoLoopPath, eps: float) -> float:
    kappa = np.array([_KAPPA_STEP, -_KAPPA_STEP])
    f_plus, f_minus = analytic.fidelity_pair("two-loop", path, RabiError(eps, kappa))[0]
    return (f_plus - f_minus) / (2.0 * _KAPPA_STEP)


def unbalanced_fixture_path() -> TwoLoopPath:
    """theta1 = pi/3, theta2 = pi/2, eta = pi/2 (psi21 = pi/2), tuned to phi_b = pi."""
    return pathfinder._pair_at_phi_b((np.pi / 3, 0.0), (np.pi / 2, np.pi / 2), np.pi)


def check_kappa_optimality(level: str, seed: int) -> CheckResult:
    """Criterion 6: dF/dkappa ~0 on balanced paths (b = 0, at the gauge circle's largest c); fixture vs -2 b eps."""
    started = time.perf_counter()
    eps = 1e-2
    axes = (np.array([1.0, 0, 0]), np.array([0.0, 0, 1.0]), _COEFF_AXIS, np.array([0.3, -0.5, 0.8]))
    worst_balanced = 0.0
    for theta_gate in _THETA_GRID:
        for axis in axes:
            for sign in (1, -1):
                sol = pathfinder.solve_two_loop(TargetGate(theta_gate, axis), PathConstraints(orientation_sign=sign))
                worst_balanced = max(worst_balanced, abs(_kappa_derivative(sol.path, eps)))
    fixture = unbalanced_fixture_path()
    predicted = -2.0 * analytic.SCHEMES["two-loop"].quadratic_form(fixture)[1] * eps
    pinned = -9.6358e-3
    return _result("criterion-6 kappa optimality", started, [
        Gate("max |dF/dkappa| balanced", worst_balanced, 1e-8),
        Gate("unbalanced |FD - (-2 b eps)|", abs(_kappa_derivative(fixture, eps) - predicted), 1e-5),
        Gate(f"|-2 b eps - ({pinned})|", abs(predicted - pinned), 1e-6),
    ])


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
    gates = [Gate("max |stepped - closed|", worst, 1e-8)]
    if level == "full":
        gates.append(Gate("runtime (s)", time.perf_counter() - started, 120.0, strict=True))
    note = f"{points} points/scheme x 2 envelopes at {steps} steps, oracle unitarity={worst_unitary:.2e}"
    return _result("criterion-7 oracle equivalence", started, gates, note)


def check_structural(level: str, seed: int) -> CheckResult:
    """Criterion 8: unitarity, zero-error reduction, closed vs direct propagators, gauge invariances, round trips."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed + 8)
    n_paths = 200 if level == "full" else 60
    n_targets = 1000 if level == "full" else 200

    worst_unitary = worst_reduction = worst_closed = 0.0
    for _ in range(n_paths):
        eps, kappa = rng.uniform(-0.1, 0.1, 2)
        for scheme in analytic.SCHEMES.values():
            path = scheme.random_path(rng)
            # zero error, eps, then (eps, kappa): one builder call
            ideal, errored = scheme.build(path, RabiError(np.array([0.0, eps, eps]), np.array([0.0, 0.0, kappa])))
            worst_reduction = max(worst_reduction, float(np.max(np.abs(errored[0] - ideal))))
            # each closed form against the exponential of the oracle's full Hamiltonian
            for error, gate in zip((NO_ERROR, RabiError(eps), RabiError(eps, kappa)), (ideal, *errored[1:])):
                worst_unitary = max(worst_unitary, float(np.max(np.abs(gate.conj().T @ gate - IDENTITY))))
                direct = oracle.closed_form_limit(scheme.schedule(path, error, "square"))
                worst_closed = max(worst_closed, float(np.max(np.abs(gate - direct))))

    worst_gauge = 0.0
    path2 = analytic.SCHEMES["two-loop"].random_path(rng)
    build2 = analytic.SCHEMES["two-loop"].build
    ideal2 = build2(path2, NO_ERROR)[0]
    fid2 = analytic.fidelity_pair("two-loop", path2, RabiError(1e-2))[0]
    path_sl = SingleLoopPath(0.8, 0.3, 1.1, 0.0)
    fid_sl = analytic.fidelity_pair("single-loop", path_sl, RabiError(1e-2))[0]
    for shift in np.linspace(0.0, 2 * np.pi, 17):
        shifted = _phase_shifted(path2, 1.3 * shift, 0.7 * shift)
        worst_gauge = max(worst_gauge, float(np.max(np.abs(build2(shifted, NO_ERROR)[0] - ideal2))))
        fid_shift = analytic.fidelity_pair("two-loop", _phase_shifted(path2, shift, shift), RabiError(1e-2))[0]
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

    return _result("criterion-8 structural suite", started, [
        Gate("unitarity", worst_unitary, 1e-12),
        Gate("zero-error reduction", worst_reduction, 1e-13),
        Gate("closed vs direct", worst_closed, 1e-11),
        Gate("gauge invariances", worst_gauge, 1e-13),
        Gate("round trips", worst_round, 1e-10),
    ])


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
    if seed < 0:  # each check seeds numpy's default_rng(seed + k), which refuses a negative seed
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    results = []
    for index, check in enumerate(ALL_CHECKS, 1):
        started = time.perf_counter()
        try:
            results.append(check(level=level, seed=seed))
        except Exception as exc:  # a check that raises fails its criterion, gateless; the others still run
            note = f"raised {type(exc).__name__}: {exc}"
            results.append(_result(f"criterion-{index} {check.__name__}", started, [], note))
    return results
