"""Gate constructors for three holonomic one-qubit gate schemes in a Lambda system.

Covers the two-loop scheme (two pi-area pulse pairs), the single-loop
multiple-pulse scheme (one loop split into two pi/2-area segments with a
phase jump), and the off-resonant single-shot scheme, each with its ideal
propagator and its propagator under systematic Rabi-frequency errors.

The amplitude error model multiplies each drive's envelope by its own unknown
constant fraction, so in every scheme a pulse is its coupling at a tilted ratio
angle and an errored area (:func:`relative_error_angles`): one exponential per
pulse, in closed form, for generators with G^3 = G (every pulse generator
here); exact for that model, with no eigendecomposition.  A :class:`RabiError`
whose fields are arrays is an error grid.  Each scheme's builder
(:func:`two_loop_gates`, :func:`single_loop_gates`, :func:`single_shot_gates`)
makes the ideal gate, the errored gates of a whole grid and the record its
second-order formula reads in one stacked pass: the ideal bright state rides
along as one extra leading point of the flattened error axis.  Pulse areas
are enforced exactly (pi per two-loop loop, pi/2 per single-loop segment,
total area pi for the single-shot pulse); time stepping lives in
:mod:`holopath.oracle`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    IDENTITY,
    KET_0,
    KET_1,
    KET_E,
    PROJ_E,
)

TWO_PI = 2.0 * np.pi

_RANGE_SLACK = 1e-12

#: |<b1|b2>| at or below which two bright states count as orthogonal (eta = pi, phi_b undefined)
DEGENERATE_OVERLAP = 1e-12


def _is_scalar(value) -> bool:
    # float and int first: np.ndim turns any other value into an array, which costs more
    return isinstance(value, (float, int)) or np.ndim(value) == 0


def _principal(angle):
    """Angle (float or array) reduced to [0, 2*pi); a rounding that lands on 2*pi maps to 0."""
    a = (float(angle) if _is_scalar(angle) else np.asarray(angle, dtype=float)) % TWO_PI
    return a - TWO_PI * (a >= TWO_PI)


def _in_range(value, lo: float, hi: float, name: str):
    """value (float or array) clipped into [lo, hi] if within _RANGE_SLACK of it; ValueError otherwise.

    A float comes back as a numpy float.  The error names the first entry outside, NaN included.
    """
    v = np.asarray(value, dtype=float)
    flat, middle, half = v.ravel(), (lo + hi) / 2, (hi - lo) / 2
    distance = abs(flat - middle)
    worst = distance.max(initial=0.0)  # NaN propagates, and fails the one comparison
    if not worst <= half + _RANGE_SLACK:
        first = flat[~(distance <= half + _RANGE_SLACK)][0]
        raise ValueError(f"{name} must lie in [{lo:.6g}, {hi:.6g}], got {first:.6g}")
    # worst == half also when rounding hides an entry just outside [lo, hi]: clip then too
    return (v.clip(lo, hi) if worst >= half else v)[()]


def _phase(value, name: str) -> float:
    """A path's phase field reduced to [0, 2*pi); ValueError naming the field if it is not finite."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {float(value)!r}")
    return _principal(value)


@dataclass(frozen=True)
class LoopParams:
    """Laser parameters of one two-loop evolution loop.

    theta is the Rabi-frequency ratio angle 2*arctan(Omega_1/Omega_0),
    psi the relative phase between the two drives, and phi the total phase.
    psi and phi are stored reduced to [0, 2*pi).
    """

    theta: float
    psi: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(_in_range(self.theta, 0.0, np.pi, "theta")))
        object.__setattr__(self, "psi", _phase(self.psi, "psi"))
        object.__setattr__(self, "phi", _phase(self.phi, "phi"))


@dataclass(frozen=True)
class TwoLoopPath:
    """The six laser parameters defining the two pi-pulse loops."""

    loop1: LoopParams
    loop2: LoopParams


@dataclass(frozen=True)
class SingleLoopPath:
    """Single-loop multiple-pulse parameters.

    Both segments share (theta, psi); the total phase jumps from phi to
    phi_prime at the intermediate time.  Segment areas are pi/2 each.
    """

    theta: float
    psi: float
    phi: float
    phi_prime: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(_in_range(self.theta, 0.0, np.pi, "theta")))
        object.__setattr__(self, "psi", _phase(self.psi, "psi"))
        object.__setattr__(self, "phi", _phase(self.phi, "phi"))
        object.__setattr__(self, "phi_prime", _phase(self.phi_prime, "phi_prime"))

    @property
    def phase_diff(self) -> float:
        """Total-phase jump phi - phi_prime, reduced to [0, 2*pi)."""
        return _principal(self.phi - self.phi_prime)


@dataclass(frozen=True)
class SingleShotPath:
    """Off-resonant single-shot parameters (alpha, beta0, beta1, gamma).

    gamma fixes the detuning-to-Rabi ratio: at overall scale Omega > 0
    the detuning is -2 Omega sin(gamma) and the Rabi frequencies are
    Omega cos(gamma) cos(alpha) and Omega cos(gamma) sin(alpha).
    gamma = +/- pi/2 (pure detuning, no Rabi drive) is accepted as the
    identity-gate limit.
    """

    alpha: float
    beta0: float
    beta1: float
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(_in_range(self.alpha, 0.0, np.pi / 2, "alpha")))
        object.__setattr__(self, "beta0", _phase(self.beta0, "beta0"))
        object.__setattr__(self, "beta1", _phase(self.beta1, "beta1"))
        object.__setattr__(self, "gamma", float(_in_range(self.gamma, -np.pi / 2, np.pi / 2, "gamma")))


@dataclass(frozen=True, eq=False)
class TargetGate:
    """Desired logical gate exp(1j * theta_gate * axis.sigma).

    theta_gate is half the Bloch rotation angle and lies in [0, pi/2]; the
    axis is normalized at construction.
    """

    theta_gate: float
    axis: np.ndarray

    def __post_init__(self):
        t = float(_in_range(self.theta_gate, 0.0, np.pi / 2, "theta_gate"))
        m = np.asarray(self.axis, dtype=float).reshape(3)
        norm = np.sqrt(m.dot(m))  # what np.linalg.norm computes for a real vector; schemes names no linalg
        if not np.isfinite(norm) or norm == 0.0:
            raise ValueError("axis must be a nonzero finite 3-vector")
        m = m / norm
        m.setflags(write=False)
        object.__setattr__(self, "theta_gate", t)
        object.__setattr__(self, "axis", m)


def _check_fraction(value, name: str) -> float:
    v = float(value)
    if not abs(v) <= 0.1:  # NaN fails too
        raise ValueError(f"|{name}| must be <= 0.1, got {v!r}")
    return v


@dataclass(frozen=True)
class RabiError:
    """Systematic Rabi-frequency error: average epsilon, relative half-difference kappa.

    The two drives see fractions epsilon0 = epsilon + kappa and
    epsilon1 = epsilon - kappa.  Both parameters are capped at 0.1 in
    magnitude; the perturbative analysis assumes small fractions.

    Either field may be a float array, and the two broadcast against each
    other: such an instance is an error grid, and every builder's errored
    gates and second-order formula then hold one value per grid point.
    The cap is checked per point; the first failing point is named,
    epsilon before kappa.  A grid instance holds arrays: it is not
    hashable, and == between two grids raises as it does between arrays.
    """

    epsilon: float | np.ndarray
    kappa: float | np.ndarray = 0.0

    def __post_init__(self):
        if _is_scalar(self.epsilon) and _is_scalar(self.kappa):
            fields = (_check_fraction(self.epsilon, "epsilon"), _check_fraction(self.kappa, "kappa"))
        else:
            fields = (np.asarray(self.epsilon, dtype=float), np.asarray(self.kappa, dtype=float))
            points = np.broadcast(*fields)  # raises if the shapes do not broadcast
            if not all(np.all(np.abs(f) <= 0.1) for f in fields):
                for point in points:  # the first failing point raises
                    RabiError(*point)
        object.__setattr__(self, "epsilon", fields[0])
        object.__setattr__(self, "kappa", fields[1])

    @property
    def epsilon0(self):
        return self.epsilon + self.kappa

    @property
    def epsilon1(self):
        return self.epsilon - self.kappa

    @property
    def ndim(self) -> int:
        """Number of grid axes; 0 for a single error point."""
        return max(getattr(self.epsilon, "ndim", 0), getattr(self.kappa, "ndim", 0))


NO_ERROR = RabiError(0.0)


class BrightDecomposition(NamedTuple):
    """Decomposition of the second loop's phased bright state in the first loop's frame.

    ``exp(1j phi2)|b2> = cos(eta/2) exp(1j (phi_b + phi1))|b1>
    + sin(eta/2) exp(1j phi_d)|d1>``.  When the bright states are orthogonal
    (eta = pi) phi_b is undefined: it is returned as NaN with
    ``degenerate=True``, never as a silent default.
    """

    eta: float
    phi_b: float
    phi_d: float
    degenerate: bool


def bright_dark(theta, psi) -> tuple[np.ndarray, np.ndarray]:
    """Bright and dark logical states for ratio angle theta and relative phase psi.

    |b> = cos(theta/2)|0> + sin(theta/2) e^{i psi}|1> couples to |e> under
    the drive; |d> = sin(theta/2)|0> - cos(theta/2) e^{i psi}|1> does not.
    Array angles broadcast; the states then have shape (..., 3).  theta
    must already lie in [0, pi]; it is not checked here.
    """
    half = theta / 2.0
    cos, sin, phase = np.cos(half), np.sin(half), np.exp(1j * psi)
    b = cos[..., None] * KET_0 + (sin * phase)[..., None] * KET_1
    d = sin[..., None] * KET_0 - (cos * phase)[..., None] * KET_1
    return b, d


def _bright_coupling(bright, phi) -> np.ndarray:
    """e^{i phi}|b><e| + h.c. for bright states of shape (..., 3); phi broadcasts against (...)."""
    half = np.exp(1j * phi)[..., None, None] * (bright[..., :, None] * KET_E.conj())
    return half + np.swapaxes(half.conj(), -1, -2)


def _pulse(generator, area) -> np.ndarray:
    """exp(-1j * area * G) = I - 1j sin(area) G + (cos(area) - 1) G^2 for a Hermitian G with G^3 = G.

    Every generator comes from this module's builders: neither hermiticity nor G^3 = G (spectrum in
    {-1, 0, 1}) is checked here, but by the tests and the acceptance suite.  Operands broadcast; a
    non-finite area raises ValueError.
    """
    a = np.asarray(area, dtype=float)[..., None, None]
    if not np.isfinite(a).all():
        raise ValueError(f"area must be finite, got {area!r}")
    # the sum above, operation for operation and so bit for bit, in place: three full stacks alive
    # (generator, out, square), not five; square takes the broadcast shape of a and G to be scaled in place
    out = 1j * np.sin(a) * generator
    np.subtract(IDENTITY, out, out=out)
    square = np.matmul(generator, generator, out=np.empty_like(out))
    square *= np.cos(a) - 1.0
    out += square
    return out


def relative_error_angles(theta, error: RabiError):
    """Errored ratio angle and area excess (theta_prime, delta) of one pulse.

    With drive fractions (1+e0, 1+e1) the coupled direction tilts to
    theta_prime = 2 arctan(tan(theta/2) (1+e1)/(1+e0)) and the effective
    pulse-area fraction grows by
    delta = hypot((1+e0) cos(theta/2), (1+e1) sin(theta/2)) - 1.
    theta and an error grid broadcast against each other.  theta must
    already lie in [0, pi], unchecked; theta_prime then lies there too.
    """
    c0 = (1.0 + error.epsilon0) * np.cos(theta / 2.0)
    s1 = (1.0 + error.epsilon1) * np.sin(theta / 2.0)
    return 2.0 * np.arctan2(s1, c0), np.hypot(c0, s1) - 1.0


#: errored ratio angles, area excesses, total phases and bright states; two pulses on a leading axis, or one pulse
_ErroredPulses = namedtuple("_ErroredPulses", "theta_p delta phi bright")


def _pulse_pair_gates(rows, area: float, error: RabiError) -> tuple[np.ndarray, np.ndarray, _ErroredPulses]:
    """(ideal, errored, pulses): gates U2 U1 of two pulses given as (theta, psi, phi) rows, from one pulse call.

    Each pulse is e^{i phi}|b><e| + h.c. at ``area``, the ideal riding along as point 0 of the flattened
    error axis, the errored at theta' and (1 + delta) ``area``.  ``errored`` has the grid's shape (..., 3, 3).
    """
    theta, psi, phi = np.array(rows, dtype=float).T.reshape((3, 2) + (1,) * error.ndim)
    theta_p, delta = relative_error_angles(theta, error)
    thetas = np.concatenate([theta.reshape(2, 1), theta_p.reshape(2, -1)], axis=1)
    areas = (1.0 + np.concatenate([np.zeros((2, 1)), delta.reshape(2, -1)], axis=1)) * area
    bright = bright_dark(thetas, psi.reshape(2, 1))[0]
    pulses = _pulse(_bright_coupling(bright, phi.reshape(2, 1)), areas)
    gates = pulses[1] @ pulses[0]
    record = _ErroredPulses(theta_p, delta, phi, bright[:, 1:].reshape(theta_p.shape + (3,)))
    return gates[0], gates[1:].reshape(theta_p.shape[1:] + (3, 3)), record


def two_loop_gates(path: TwoLoopPath, error: RabiError) -> tuple[np.ndarray, np.ndarray, _ErroredPulses]:
    """(ideal, errored, loops): both two-loop gates U2 U1, one pi-area pulse per loop; fid2_relative reads ``loops``.

    Each ideal loop is -|e><e| - n_k.sigma, so the ideal gate's logical block equals
    (n1.n2) I - 1j (n1 x n2).sigma, a rotation by twice the angle between the two loop Bloch vectors,
    independent of the total phases phi1, phi2.  Under drive errors each loop is one exponential of
    its errored coupling (ratio angle theta') at area pi (1 + delta), see :func:`relative_error_angles`;
    at kappa = 0, theta' = theta and delta = epsilon.
    """
    return _pulse_pair_gates([(loop.theta, loop.psi, loop.phi) for loop in (path.loop1, path.loop2)], np.pi, error)


def two_loop_errored_relative(path: TwoLoopPath, error: RabiError) -> np.ndarray:
    """``two_loop_gates(path, error)[1]``.

    Not exported by :mod:`holopath`; it stays here only because the benchmark's oracle-crosscheck
    workload (``benchmarks/workloads.py``) calls it by name, as it does the other two errored views.
    """
    return two_loop_gates(path, error)[1]


def single_loop_gates(path: SingleLoopPath, error: RabiError) -> tuple[np.ndarray, np.ndarray, _ErroredPulses]:
    """(ideal, errored, segments): both single-loop gates, two pi/2-area segments with a phase jump, any kappa.

    The two-loop machinery at rows (theta, psi, phi) and (theta, psi, phi_prime): each segment is the
    loop formula at the tilted theta' and area (1 + delta) pi/2.
    """
    return _pulse_pair_gates([(path.theta, path.psi, phi) for phi in (path.phi, path.phi_prime)], np.pi / 2, error)


def single_loop_errored(path: SingleLoopPath, error: RabiError) -> np.ndarray:
    """``single_loop_gates(path, error)[1]``; kept for the benchmark, see :func:`two_loop_errored_relative`."""
    return single_loop_gates(path, error)[1]


def _single_shot_frame(bright, phase) -> tuple[np.ndarray, np.ndarray]:
    """The projectors |b><b| and couplings e^{i phase}|b><e| + h.c. of a (..., 3) bright-state stack."""
    return bright[..., :, None] * bright[..., None, :].conj(), _bright_coupling(bright, phase)


def _error_operator(pb: np.ndarray, cross: np.ndarray, gamma: float, delta) -> tuple[float, np.ndarray]:
    """Normalized traceless rotation operator of the errored single-shot drive, given its frame.

    ``pb, cross`` are a :func:`_single_shot_frame`, stacked to match an array delta.  Returns
    (lambda, sigma) with lambda = hypot((1+delta) cos gamma, sin gamma); sigma squares to the
    bright/excited projector and is traceless.
    """
    sg, cg = np.sin(gamma), np.cos(gamma)
    drive = (1.0 + delta) * cg
    lam = np.hypot(drive, sg)
    sigma = (drive[..., None, None] * cross + sg * (PROJ_E - pb)) / lam[..., None, None]
    return lam, sigma


def single_shot_gates(path: SingleShotPath, error: RabiError) -> tuple[np.ndarray, np.ndarray, _ErroredPulses]:
    """(ideal, errored, pulse): both single-shot gates from one bright-state and one pulse call, any kappa.

    The ideal gate is e^{i zeta}(|e><e| + |b><b|) + |d><d|, zeta = pi (1 - sin gamma).  Under drive errors
    the drives tilt as a loop's do: the bright state is e^{i beta0} bright_dark(2 alpha', beta1 - beta0)
    and its area excess delta, from relative_error_angles(2 alpha).  The errored gate is a bright/excited
    phase times a rotation by lambda*pi about the tilted error axis, identity on the dark state.  The
    acceptance suite compares both with the oracle's exponential of the full Hamiltonian at area pi.
    """
    theta_p, delta = relative_error_angles(2.0 * path.alpha, error)
    bright = bright_dark(np.append(2.0 * path.alpha, theta_p), path.beta1 - path.beta0)[0]
    pb, cross = _single_shot_frame(bright, path.beta0)
    zeta = np.pi * (1.0 - np.sin(path.gamma))
    ideal = np.exp(1j * zeta) * (PROJ_E + pb[0]) + (IDENTITY - PROJ_E - pb[0])
    lam, sigma = _error_operator(pb[1:], cross[1:], path.gamma, np.ravel(delta))
    areas = np.stack([np.full_like(lam, np.pi * np.sin(path.gamma)), lam * np.pi])
    phase, rotation = _pulse(np.stack([PROJ_E + pb[1:], sigma]), areas)
    record = _ErroredPulses(theta_p, delta, path.beta0, bright[1:].reshape(np.shape(delta) + (3,)))
    return ideal, (phase @ rotation).reshape(np.shape(delta) + (3, 3)), record


def single_shot_errored(path: SingleShotPath, error: RabiError) -> np.ndarray:
    """``single_shot_gates(path, error)[1]``; kept for the benchmark, see :func:`two_loop_errored_relative`."""
    return single_shot_gates(path, error)[1]


def bright_decomposition(loop1, loop2) -> BrightDecomposition:
    """The :class:`BrightDecomposition` of two loops given as raw (theta, psi, phi) triples.

    Array angles broadcast, and every field then has their shape.  Both
    thetas must already lie in [0, pi]; nothing is checked here.
    """
    (theta1, psi1, phi1), (theta2, psi2, phi2) = loop1, loop2
    b1, d1 = bright_dark(theta1, psi1)
    b2, _ = bright_dark(theta2, psi2)
    eta, phi_b, degenerate = _overlap_angles(np.vecdot(b1, b2), phi1, phi2)
    phi_d = _principal(phi2 + np.angle(np.vecdot(d1, b2)))
    return BrightDecomposition(eta, phi_b, phi_d, degenerate)


def _overlap_angles(overlap, phi1, phi2):
    """(eta, phi_b, degenerate) of the overlap <b1|b2> of two bright states with total phases phi1, phi2."""
    # hypot, not np.abs: numpy's vectorized complex abs can differ from the scalar one in the last bit
    magnitude = np.hypot(overlap.real, overlap.imag)
    eta = 2.0 * np.arccos(np.minimum(1.0, magnitude))
    degenerate = magnitude <= DEGENERATE_OVERLAP
    phi_b = np.where(degenerate, np.nan, _principal(phi2 - phi1 + np.angle(overlap)))[()]
    return eta, phi_b, degenerate


def phi_b_of(path: TwoLoopPath) -> BrightDecomposition:
    """Decompose the second loop's phased bright state over the first loop's basis.

    eta is the Bloch-sphere angle between the two bright states (equal to
    the angle between the loop Bloch vectors); phi_b is the decomposition
    phase controlling the leading error sensitivity of the two-loop gate.
    Angles are reduced to [0, 2*pi); at eta = 0 the dark-component phase
    phi_d is immaterial and returned as phi2 by convention.
    """
    loop1, loop2 = path.loop1, path.loop2
    return bright_decomposition((loop1.theta, loop1.psi, loop1.phi), (loop2.theta, loop2.psi, loop2.phi))
