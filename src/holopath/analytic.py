"""The scheme table, each scheme's second-order error form, scheme comparison curves, and coefficient probes.

Each scheme's ``quadratic_form`` gives, from the path alone, the (a, b, c) of its second order
1 - F = a eps^2 + 2 b eps kappa + c kappa^2 =: Q, and :func:`fidelity_pair`'s second-order fidelity is
1 - Q.  The exact propagators of :mod:`holopath.schemes` differ from it by cubic (or higher) remainders,
which the tests bound explicitly; :func:`probe_quadratic_coefficient` measures the exact propagators'
coefficient along one (epsilon, kappa) direction, which Q predicts.  The paper's robustness conditions
are conditions on Q: phi_b = pi minimizes the two-loop a, and balanced loops make b = 0.
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


def _two_loop_form(path: TwoLoopPath):
    """(a, b, c) = (pi^2/3)(2 + 2m, (C1 + C2)(1 + m), C1^2 + C2^2 + 2m C1 C2) + (0, 0, (4/3) y^2).

    C_k = cos theta_k, y^2 = S1^2 + S2^2 - 2 S1 S2 cos psi21 with S_k = sin theta_k, and m = cos(eta/2) cos(phi_b),
    taken as 0 at eta = pi, where phi_b is NaN and the orthogonal bright states' fidelity stays finite.

    Derivation: the paper's second order of the errored loops is 1 - F = t^2/3 + pi^2 z^2/3 with
    t^2 = t1^2 + t2^2 - 2 t1 t2 cos psi21 and z^2 = d1^2 + d2^2 + 2 m d1 d2, where t_k = theta_k - theta_k' is
    loop k's tilt and d_k its area excess (:func:`~holopath.schemes.relative_error_angles`).  To first order
    t_k = 2 kappa S_k and d_k = eps + kappa C_k, so t^2 = 4 kappa^2 y^2, and z^2 gives the (pi^2/3) terms; m is
    taken at the ideal path, since z^2 is already of second order.
    """
    dec = schemes.phi_b_of(path)
    m = 0.0 if dec.degenerate else np.cos(dec.eta / 2.0) * np.cos(dec.phi_b)
    (c1, s1), (c2, s2) = ((np.cos(loop.theta), np.sin(loop.theta)) for loop in (path.loop1, path.loop2))
    y_sq = s1 * s1 + s2 * s2 - 2.0 * s1 * s2 * np.cos(path.loop2.psi - path.loop1.psi)
    c = PI_SQ / 3.0 * (c1 * c1 + c2 * c2 + 2.0 * m * c1 * c2) + (4.0 / 3.0) * y_sq
    return (2.0 / 3.0) * (1.0 + m) * PI_SQ, PI_SQ / 3.0 * (c1 + c2) * (1.0 + m), c


def _single_loop_form(path: SingleLoopPath):
    """q (1, cos theta, cos^2 theta + 4 sin^2 theta / pi^2), q = (1/6)(1 + cos(phi - phi')) pi^2."""
    q = float((1.0 + np.cos(path.phase_diff)) * PI_SQ / 6.0)
    cos, sin = np.cos(path.theta), np.sin(path.theta)
    return q, q * cos, q * (cos * cos + 4.0 * sin * sin / PI_SQ)


def _single_shot_form(path: SingleShotPath):
    """q (1, cos 2alpha, cos^2 2alpha) + (0, 0, (2/3)(1 - cos zeta) sin^2 2alpha), q = (1/3) pi^2 cos^4(gamma).

    zeta = pi (1 - sin gamma); (2/3)(1 - cos zeta) is the infidelity per squared tilt of the rotation axis.
    """
    q = float(PI_SQ * np.cos(path.gamma) ** 4 / 3.0)
    cos, sin = np.cos(2.0 * path.alpha), np.sin(2.0 * path.alpha)
    tilt = (2.0 / 3.0) * (1.0 - np.cos(np.pi * (1.0 - np.sin(path.gamma))))
    return q, q * cos, q * cos * cos + tilt * sin * sin


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

    ``build(path, error)`` gives ``(ideal, errored)`` for any (epsilon, kappa) error point or grid;
    ``quadratic_form(path)`` gives the (a, b, c) of 1 - F = a eps^2 + 2 b eps kappa + c kappa^2 + O(3),
    the Hessian of the exact infidelity at zero error over 2, in closed form: the scheme's one
    second-order model.  ``schedule(path, error, shape)`` is the oracle's model of the errored gate;
    ``shape`` is f_k in F = 1 - f_k(theta) (pi eps)^2 / 3; only the two-loop
    ``solve(target, constraints)`` reads the constraints.  Builders, schedules and solvers are
    called through their modules, so a rebound function (test, tracer) is the one that runs.
    """

    path_type: type
    build: Callable
    schedule: Callable
    quadratic_form: Callable
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
        quadratic_form=_two_loop_form,
        shape=f1,
        solve=lambda target, constraints: pathfinder.solve_two_loop(target, constraints).path,
        params=_two_loop_params,
        random_path=lambda rng: TwoLoopPath(_random_loop(rng), _random_loop(rng)),
    ),
    "single-loop": Scheme(
        path_type=SingleLoopPath,
        build=lambda path, error: schemes.single_loop_gates(path, error),
        schedule=lambda path, error, shape: oracle.schedule_for_single_loop(path, error, shape),
        quadratic_form=_single_loop_form,
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
        quadratic_form=_single_shot_form,
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

    The exact value is the trace fidelity of the scheme's built gates; the second-order one is
    1 - (a eps eps + 2 b eps kappa + c kappa kappa), (a, b, c) the scheme's quadratic form, in plain
    products.  Both are Python floats at one error point, and arrays of the grid's shape for an error
    grid (array fields of ``error``).  A grid of more than ``_BLOCK_POINTS`` points is flattened and
    evaluated one block of that many points per builder call, so memory is bounded by the block; every
    value still equals the one-point evaluation bit for bit.  A path of another scheme's type is refused
    with a ValueError naming the type the scheme takes.  The built gates are unitary by construction
    (criterion 8 checks it), so their unitarity is not rechecked.
    """
    entry = SCHEMES.get(scheme)
    if entry is None:
        raise ValueError(f"scheme must be one of {tuple(SCHEMES)}, got {scheme!r}")
    if not isinstance(path, entry.path_type):
        raise ValueError(f"scheme {scheme} takes a {entry.path_type.__name__}, got {type(path).__name__}")
    a, b, c = entry.quadratic_form(path)

    def evaluate(error):
        e, k = error.epsilon, error.kappa
        return _trace_fidelity(*entry.build(path, error)), 1.0 - (a * e * e + 2.0 * b * e * k + c * k * k)

    grid = np.broadcast(error.epsilon, error.kappa)
    if grid.size <= _BLOCK_POINTS:
        exact, second_order = evaluate(error)
        return exact, second_order if grid.ndim else float(second_order)
    epsilon, kappa = (np.broadcast_to(field, grid.shape).ravel() for field in (error.epsilon, error.kappa))
    exact, second_order = np.empty(grid.size), np.empty(grid.size)
    for start in range(0, grid.size, _BLOCK_POINTS):
        block = slice(start, start + _BLOCK_POINTS)
        exact[block], second_order[block] = evaluate(RabiError(epsilon[block], kappa[block]))
    return exact.reshape(grid.shape), second_order.reshape(grid.shape)


#: error magnitudes of probe_quadratic_coefficient's symmetric +/- probe
_PROBE_MAGNITUDES = (1e-3, 1e-4)


def probe_quadratic_coefficient(scheme: str, path, direction) -> float:
    """The exact quadratic coefficient of 1 - F along ``direction``, per unit hypot(epsilon, kappa)^2.

    ``direction`` is an (epsilon, kappa) pair, normalized by its hypot to (u, v); a zero or non-finite one
    is refused with a ValueError naming it.  The four probe points (magnitudes 1e-3 and 1e-4 with both
    signs, along (u, v)) are one grid :func:`fidelity_pair` call, fitted by
    :func:`extract_quadratic_coefficient`.  The scheme's quadratic form predicts a u^2 + 2 b u v + c v^2.
    """
    epsilon, kappa = direction
    scale = float(np.hypot(epsilon, kappa))
    if not 0.0 < scale < math.inf:  # NaN fails too
        raise ValueError(f"direction must be a nonzero finite (epsilon, kappa) pair, got {direction!r}")
    signed = np.array([sign * mag for mag in _PROBE_MAGNITUDES for sign in (1.0, -1.0)])
    probe_exact = fidelity_pair(scheme, path, RabiError(signed * (epsilon / scale), signed * (kappa / scale)))[0]
    return extract_quadratic_coefficient(zip(signed, probe_exact))
