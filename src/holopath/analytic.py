"""The scheme table, second-order fidelity formulas, scheme comparison curves, and coefficient extraction.

All closed-form fidelities here are exact through second order in the error
fractions; the exact propagators in :mod:`holopath.schemes` differ from them
by cubic (or higher) remainders, which the tests bound explicitly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import oracle, pathfinder, schemes
from .linalg import _trace_fidelity
from .schemes import TWO_PI, LoopParams, RabiError, SingleLoopPath, SingleShotPath, TargetGate, TwoLoopPath, _in_range

PI_SQ = np.pi**2


def _square(x):
    # C pow() per element, as ** is for one float: an array's ** 2 is x * x, which differs
    # from pow() in the last bit on about 0.1% of values, so a grid would not match its points
    return np.float_power(x, 2)


def f1(theta_gate):
    """Two-loop error shape 2 - 2 cos(theta/2); infidelity is f1 * (pi eps)^2 / 3."""
    t = _in_range(theta_gate, 0.0, np.pi / 2, "theta_gate")
    out = 2.0 - 2.0 * np.cos(t / 2.0)
    return out if out.ndim else float(out)


def f2(theta_gate):
    """Single-loop multiple-pulse error shape (1 - cos(2 theta)) / 2."""
    t = _in_range(theta_gate, 0.0, np.pi / 2, "theta_gate")
    out = 0.5 * (1.0 - np.cos(2.0 * t))
    return out if out.ndim else float(out)


def f3(theta_gate):
    """Single-shot error shape 16 theta^2 (1 - theta/pi)^2 / pi^2."""
    t = _in_range(theta_gate, 0.0, np.pi / 2, "theta_gate")
    out = 16.0 * t**2 * (1.0 - t / np.pi) ** 2 / PI_SQ
    return out if out.ndim else float(out)


def comparison_table(samples: int) -> np.ndarray:
    """Rows (theta, f1, f2, f3) for theta uniform on [0, pi/2]."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    theta = np.linspace(0.0, np.pi / 2, int(samples))
    return np.column_stack([theta, f1(theta), f2(theta), f3(theta)])


def quad_coeff_two_loop(eta: float, phi_b: float) -> float:
    """Quadratic error coefficient (2/3)(1 + cos(eta/2) cos(phi_b)) pi^2.

    The phi_b term is 0 at eta = pi, where phi_b is NaN, as in :func:`fid2_relative`; elsewhere NaN raises.
    """
    term = np.cos(eta / 2.0) * np.cos(phi_b)
    if np.isnan(term):
        if not abs(np.cos(eta / 2.0)) <= schemes.DEGENERATE_OVERLAP:
            raise ValueError(f"phi_b may be NaN only at eta = pi, got eta={float(eta)!r}")
        term = 0.0
    return float((2.0 / 3.0) * (1.0 + term) * PI_SQ)


def quad_coeff_single_loop(phase_diff: float) -> float:
    """Quadratic error coefficient (1/6)(1 + cos(phi - phi')) pi^2."""
    return float((1.0 + np.cos(phase_diff)) * PI_SQ / 6.0)


def quad_coeff_single_shot(gamma: float) -> float:
    """Quadratic error coefficient (1/3) pi^2 cos^4(gamma)."""
    return float(PI_SQ * np.cos(gamma) ** 4 / 3.0)


def fid2_two_loop(eta: float, phi_b: float, epsilon: float) -> float:
    """Second-order two-loop fidelity 1 - (2/3)(1 + cos(eta/2) cos(phi_b)) pi^2 eps^2."""
    e = RabiError(epsilon).epsilon
    return 1.0 - quad_coeff_two_loop(eta, phi_b) * e * e


@dataclass(frozen=True, eq=False)
class RelativeErrorBreakdown:
    """Intermediate quantities of the two-loop relative-error fidelity.

    theta11/theta22 are the per-loop bright-direction tilts, psi21 the
    relative-phase difference, delta1/delta2 the per-loop area excesses,
    eta_prime and phi_b the bright-state decomposition of the errored
    loops, and (y, z) the two quadrature amplitudes entering the fidelity
    1 - y^2/3 - pi^2 z^2/3.  ``degenerate`` mirrors the phi_b degeneracy
    flag (orthogonal errored bright states, eta' = pi), in which case phi_b
    is NaN while z and the fidelity stay finite: the phi_b term of z^2 is
    multiplied by cos(eta'/2) = 0 there and is taken as 0.  For an error
    grid every field but psi21 is an array of the grid's shape; psi21
    depends on the path only and stays its float.
    """

    theta11: float
    theta22: float
    psi21: float
    delta1: float
    delta2: float
    eta_prime: float
    phi_b: float
    y: float
    z: float
    degenerate: bool


def fid2_relative(path: TwoLoopPath, error: RabiError) -> tuple[RelativeErrorBreakdown, float]:
    """Second-order two-loop fidelity under unequal drive errors.

    Reads the errored loop angles and bright states from the record that
    :func:`holopath.schemes.two_loop_gates` returns with the gates, takes
    (eta_prime, phi_b) from the errored bright states' overlap, and evaluates
    ``F = 1 - y^2/3 - pi^2 z^2/3`` with
    y^2 = theta11^2 + theta22^2 - 2 theta11 theta22 cos(psi21) and
    z^2 = delta1^2 + delta2^2 + 2 delta1 delta2 cos(eta'/2) cos(phi_b),
    whose last term is 0 at eta' = pi, where phi_b is undefined.  At
    kappa = 0 this reduces exactly to the common-error formula.  An error
    grid gives an array fidelity and array breakdown fields, psi21 aside.
    """
    return _fid2_errored_loops(path, schemes.two_loop_gates(path, error)[2])


def _fid2_errored_loops(path: TwoLoopPath, loops) -> tuple[RelativeErrorBreakdown, float]:
    """:func:`fid2_relative` of a path whose :func:`~holopath.schemes.two_loop_gates` record is ``loops``."""
    (t1p, t2p), (d1, d2) = loops.theta_p, loops.delta
    eta, phi_b, degenerate = schemes._overlap_angles(np.vecdot(*loops.bright), *loops.phi)
    theta11 = path.loop1.theta - t1p
    theta22 = path.loop2.theta - t2p
    psi21 = path.loop2.psi - path.loop1.psi
    y_sq = _square(theta11) + _square(theta22) - 2.0 * theta11 * theta22 * np.cos(psi21)
    cross = np.where(degenerate, 0.0, 2.0 * d1 * d2 * np.cos(eta / 2.0) * np.cos(phi_b))
    z_sq = _square(d1) + _square(d2) + cross
    y = np.sqrt(np.maximum(0.0, y_sq))
    z = np.sqrt(np.maximum(0.0, z_sq))
    fidelity = 1.0 - y * y / 3.0 - PI_SQ * z * z / 3.0
    breakdown = RelativeErrorBreakdown(
        theta11=theta11,
        theta22=theta22,
        psi21=psi21,
        delta1=d1,
        delta2=d2,
        eta_prime=eta,
        phi_b=phi_b,
        y=y,
        z=z,
        degenerate=degenerate,
    )
    return breakdown, fidelity


def _fid2_errored_segments(path: SingleLoopPath, segments) -> float:
    """1 - (1/6)(1 + cos(phi - phi')) pi^2 (delta^2 + (theta - theta')^2 / pi^2) of a single_loop_gates record."""
    delta, tilt = segments.delta[0], path.theta - segments.theta_p[0]
    return 1.0 - quad_coeff_single_loop(path.phase_diff) * (delta * delta + tilt * tilt / PI_SQ)


def _fid2_errored_pulse(path: SingleShotPath, pulse) -> float:
    """1 - (1/3) pi^2 cos^4(gamma) delta^2 - (2/3)(1 - cos zeta)(alpha - alpha')^2 of a single_shot_gates record."""
    delta, tilt = pulse.delta, path.alpha - pulse.theta_p / 2.0
    tilt_coeff = (2.0 / 3.0) * (1.0 - np.cos(np.pi * (1.0 - np.sin(path.gamma))))
    return 1.0 - quad_coeff_single_shot(path.gamma) * delta * delta - tilt_coeff * tilt * tilt


def dF_dkappa_at_zero(path: TwoLoopPath, epsilon: float) -> float:
    """First derivative of the relative-error fidelity in kappa at kappa = 0.

    Closed form -(2/3)(1 - cos(eta/2))(cos theta1 + cos theta2) pi^2 eps,
    valid for paths tuned to phi_b = pi.  Vanishes exactly when the loops
    are balanced (cos theta1 + cos theta2 = 0), when eta = 0, or at
    epsilon = 0.
    """
    e = RabiError(epsilon).epsilon
    dec = schemes.phi_b_of(path)
    cos_sum = np.cos(path.loop1.theta) + np.cos(path.loop2.theta)
    return float(-(2.0 / 3.0) * (1.0 - np.cos(dec.eta / 2.0)) * cos_sum * PI_SQ * e)


def extract_quadratic_coefficient(samples) -> float:
    """Least-squares quadratic error coefficient c in F(eps) ~ 1 - c eps^2.

    ``samples`` is a sequence of (epsilon, fidelity) pairs.  Every epsilon
    magnitude must appear with both signs; sign pairs are averaged first so
    odd-order contamination cancels.  With two or more magnitudes the
    residual quartic slope is fitted and removed (Richardson style): the line
    g = c + s u through u = eps^2, g = (1 - F)/eps^2 is fitted in plain floats
    by the centered closed form s = sum (u - u_mean)(g - g_mean) / sum (u - u_mean)^2,
    c = g_mean - s u_mean.  An epsilon that is not finite, or whose u is 0 or
    whose u or g is not finite, is refused with a ValueError naming it.
    """
    pairs = [(float(e), float(f)) for e, f in samples]
    if len(pairs) < 3:
        raise ValueError("need at least 3 (epsilon, fidelity) samples")
    if any(e == 0.0 for e, _ in pairs):
        raise ValueError("epsilon samples must be nonzero")
    if not all(0.0 < f <= 1.0 + 1e-12 for _, f in pairs):  # NaN fails too
        raise ValueError("fidelities must lie in (0, 1]")
    for e, _ in pairs:
        if not math.isfinite(e):
            raise ValueError(f"epsilon samples must be finite, got {e!r}")
    if len({e for e, _ in pairs}) < 2:
        raise ValueError("ill-conditioned sample set: all epsilon values equal")
    signs = {}
    for e, f in pairs:
        signs.setdefault(abs(e), ([], []))[e < 0].append(f)
    u, g = [], []
    for m, (plus, minus) in sorted(signs.items()):
        if not (plus and minus):
            raise ValueError(f"epsilon magnitude {m:g} lacks a +/- sign pair")
        u.append(m * m)
        g.append((1.0 - 0.5 * (sum(plus) / len(plus) + sum(minus) / len(minus))) / u[-1] if u[-1] else math.inf)
        if not (u[-1] < math.inf and math.isfinite(g[-1])):
            raise ValueError(f"epsilon magnitude {m!r} cannot be fitted: eps^2 = {u[-1]!r}, (1 - F)/eps^2 = {g[-1]!r}")
    if len(u) == 1:
        return g[0]
    u_mean, g_mean = sum(u) / len(u), sum(g) / len(g)
    du = [x - u_mean for x in u]
    spread = sum(d * d for d in du)
    coeff = g_mean - sum(d * (y - g_mean) for d, y in zip(du, g)) / spread * u_mean if spread else math.nan
    if not math.isfinite(coeff):  # magnitudes too close together or too far apart for float arithmetic
        raise ValueError(f"ill-conditioned sample set: no finite fit through epsilon magnitudes {sorted(signs)}")
    return coeff


@dataclass(frozen=True)
class FidelityReport:
    """Exact vs second-order fidelity at one (scheme, path, error) point.

    The quadratic coefficients are extracted by the symmetric +/- probe
    protocol along the direction of the error point, normalized per unit
    hypot(epsilon, kappa)^2, from the exact propagators and from the
    second-order formulas respectively.
    """

    exact: float
    analytic2: float
    quad_coeff_exact: float
    quad_coeff_analytic: float


def _two_loop_params(path: TwoLoopPath) -> dict:
    dec = schemes.phi_b_of(path)
    return {
        "theta1": path.loop1.theta,
        "psi1": path.loop1.psi,
        "phi1": path.loop1.phi,
        "theta2": path.loop2.theta,
        "psi2": path.loop2.psi,
        "phi2": path.loop2.phi,
        "eta": dec.eta,
        "phi_b": None if dec.degenerate else dec.phi_b,
        "cos_theta_sum": np.cos(path.loop1.theta) + np.cos(path.loop2.theta),
    }


def _random_loop(rng) -> LoopParams:
    return LoopParams(rng.uniform(0, np.pi), rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))


@dataclass(frozen=True)
class Scheme:
    """Every scheme-specific choice of one gate scheme, read by fidelity_pair, the CLI and verify.

    ``build(path, error)`` gives ``(ideal, errored, record)`` for any (epsilon, kappa) error point or
    grid, ``second_order(path, record)`` reads the record, ``schedule(path, error, shape)`` is the
    oracle's model of the errored gate; ``shape`` is f_k in F = 1 - f_k(theta) (pi eps)^2 / 3; only
    the two-loop ``solve(target, constraints)`` reads the constraints.  Builders, schedules and
    solvers are called through their modules, so a rebound function (test, tracer) is the one that runs.
    """

    path_type: type
    build: Callable
    schedule: Callable
    second_order: Callable
    shape: Callable
    solve: Callable
    params: Callable
    random_path: Callable


#: the three schemes by name, in the order the paper compares them
SCHEMES = {
    "two-loop": Scheme(
        path_type=TwoLoopPath,
        build=lambda path, error: schemes.two_loop_gates(path, error),
        schedule=lambda path, error, shape: oracle.schedule_for_two_loop(path, error, shape),
        second_order=lambda path, record: _fid2_errored_loops(path, record)[1],
        shape=f1,
        solve=lambda target, constraints: pathfinder.solve_two_loop(target, constraints).path,
        params=_two_loop_params,
        random_path=lambda rng: TwoLoopPath(_random_loop(rng), _random_loop(rng)),
    ),
    "single-loop": Scheme(
        path_type=SingleLoopPath,
        build=lambda path, error: schemes.single_loop_gates(path, error),
        schedule=lambda path, error, shape: oracle.schedule_for_single_loop(path, error, shape),
        second_order=_fid2_errored_segments,
        shape=f2,
        solve=lambda target, constraints: pathfinder.solve_single_loop(target),
        params=asdict,
        random_path=lambda rng: SingleLoopPath(
            rng.uniform(0, np.pi), rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)
        ),
    ),
    "single-shot": Scheme(
        path_type=SingleShotPath,
        build=lambda path, error: schemes.single_shot_gates(path, error),
        schedule=lambda path, error, shape: oracle.schedule_for_single_shot(path, error, shape),
        second_order=_fid2_errored_pulse,
        shape=f3,
        solve=lambda target, constraints: pathfinder.solve_single_shot(target),
        params=asdict,
        random_path=lambda rng: SingleShotPath(
            rng.uniform(0, np.pi / 2), rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI), rng.uniform(-np.pi / 2, np.pi / 2)
        ),
    ),
}


#: error-grid points per block of fidelity_pair: a block's gate stacks are (2, _BLOCK_POINTS + 1, 3, 3),
#: so the memory of a grid evaluation is bounded by the block, not by the grid
_BLOCK_POINTS = 1024


def fidelity_pair(scheme: str, path, error: RabiError):
    """Exact and second-order fidelity for one scheme/path/error point, from the scheme's :data:`SCHEMES` entry.

    Both are Python floats at one error point, and arrays of the grid's shape
    for an error grid (array fields of ``error``).  A grid of more than
    ``_BLOCK_POINTS`` points is flattened and evaluated one block of that many
    points per builder call, so memory is bounded by the block; every value
    still equals the one-point evaluation bit for bit.  A path of another
    scheme's type is refused with a ValueError naming the type the scheme
    takes.  The built gates are unitary by construction (criterion 8 checks
    it), so their unitarity is not rechecked.
    """
    entry = SCHEMES.get(scheme)
    if entry is None:
        raise ValueError(f"scheme must be one of {tuple(SCHEMES)}, got {scheme!r}")
    if not isinstance(path, entry.path_type):
        raise ValueError(f"scheme {scheme} takes a {entry.path_type.__name__}, got {type(path).__name__}")
    grid = np.broadcast(error.epsilon, error.kappa)
    if grid.size <= _BLOCK_POINTS:
        ideal, errored, record = entry.build(path, error)
        second_order = entry.second_order(path, record)
        return _trace_fidelity(ideal, errored), second_order if grid.ndim else float(second_order)
    epsilon, kappa = (np.broadcast_to(field, grid.shape).ravel() for field in (error.epsilon, error.kappa))
    exact, second_order = np.empty(grid.size), np.empty(grid.size)
    for start in range(0, grid.size, _BLOCK_POINTS):
        block = slice(start, start + _BLOCK_POINTS)
        ideal, errored, record = entry.build(path, RabiError(epsilon[block], kappa[block]))
        exact[block], second_order[block] = _trace_fidelity(ideal, errored), entry.second_order(path, record)
    return exact.reshape(grid.shape), second_order.reshape(grid.shape)


#: error magnitudes of the symmetric +/- probe behind FidelityReport's quadratic coefficients
_PROBE_MAGNITUDES = (1e-3, 1e-4)


def fidelity_report(scheme: str, path, error: RabiError) -> FidelityReport:
    """Full exact-vs-analytic comparison record for one error point.

    The four probe points (magnitudes 1e-3 and 1e-4 with both signs, along
    the direction of ``error``; along epsilon at zero error) are one grid
    :func:`fidelity_pair` call, and both coefficients are extracted from it.
    An error grid is refused: the probe direction is that of one point.
    """
    if error.ndim:
        raise ValueError(f"fidelity_report takes one error point, not an error grid (ndim={error.ndim})")
    exact, analytic2 = fidelity_pair(scheme, path, error)
    scale = float(np.hypot(error.epsilon, error.kappa))
    if scale == 0.0:
        direction = (1.0, 0.0)
    else:
        direction = (error.epsilon / scale, error.kappa / scale)
    signed = np.array([sign * mag for mag in _PROBE_MAGNITUDES for sign in (1.0, -1.0)])
    probes = RabiError(signed * direction[0], signed * direction[1])
    probe_exact, probe_analytic = fidelity_pair(scheme, path, probes)
    return FidelityReport(
        exact=exact,
        analytic2=analytic2,
        quad_coeff_exact=extract_quadratic_coefficient(zip(signed, probe_exact)),
        quad_coeff_analytic=extract_quadratic_coefficient(zip(signed, probe_analytic)),
    )
