"""Brute-force time-stepped propagation of pulse-envelope Hamiltonians.

Independent validator for every closed-form propagator in
:mod:`holopath.schemes`: instead of using the accumulated pulse area, the
Hamiltonian H(t) = scale * Omega(t) * G is integrated as an ordered product
of per-step exponentials with midpoint sampling.

A :class:`ScheduleSegment` holds one fixed Hermitian generator G, so the
steps of a segment commute and share G's eigenbasis: each step is the
diagonal phase exp(-1j * a_k * vals) in that basis, and the segment's
ordered product is exactly the basis change applied to the product of the
per-step phases.  Each step's factor is cos(x) - 1j sin(x) of its own real
angle x = a_k * v, from real cosine and sine kernels on an
eigenvalue-major array whose step axis is contiguous; the factors are
multiplied step by step, and the areas are never summed first, which is
the closed forms' shortcut.  A generator that depends on time would need a
propagator of its own.

The only discretization error is then the midpoint quadrature error of the
envelope area; the "square" and "sine-squared" shapes are integrated
exactly by the midpoint rule (constant, resp. periodic integrand), while
the half-sine "sine" shape carries a genuine O(1/N^2) error and is the one
to use for convergence-order measurements.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import schemes
from .linalg import IDENTITY, expm, require_hermitian
from .schemes import RabiError, SingleLoopPath, SingleShotPath, TwoLoopPath

#: area of each unit-amplitude shape over [0, T], in units of T
_UNIT_AREA = {"square": 1.0, "sine": 2.0 / np.pi, "sine-squared": 0.5}
SHAPES = tuple(_UNIT_AREA)

#: propagation error below this is roundoff; convergence order is then indeterminate
ROUNDOFF_FLOOR = 1e-12

#: duration of every schedule_for_* pulse; a pulse's propagator depends only on its area
_PULSE_DURATION = 1.0


@dataclass(frozen=True)
class PulseEnvelope:
    """Scalar envelope Omega(t) on [0, duration] calibrated to a target area.

    The amplitude divides ``target_area`` by the closed-form area of the
    unit shape (T, 2T/pi and T/2 for square, sine and sine-squared), so the
    integrated area matches ``target_area`` regardless of shape.
    A duration whose unit-shape area is 0.0 (zero, or underflowing) is legal
    only with zero target area; amplitude 0.0 then gives the identity.
    """

    shape: str
    duration: float
    target_area: float

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"shape must be one of {SHAPES}, got {self.shape!r}")
        if self.duration < 0.0 or not np.isfinite(self.duration):
            raise ValueError("duration must be a finite nonnegative time")
        if not np.isfinite(self.target_area):
            raise ValueError(f"target_area must be finite, got {self.target_area!r}")
        if _UNIT_AREA[self.shape] * self.duration == 0.0 and self.target_area != 0.0:
            raise ValueError(f"duration {self.duration!r} is too short to carry a nonzero area")
        if not np.isfinite(self.amplitude):
            raise ValueError(
                f"amplitude overflows: target_area {self.target_area!r} over duration {self.duration!r}"
            )

    def unit(self, t):
        """Unit-amplitude shape value(s) at time(s) t."""
        t = np.asarray(t, dtype=float)
        if self.shape == "square":
            return np.ones_like(t)
        if self.shape == "sine":
            return np.sin(np.pi * t / self.duration)
        return np.sin(np.pi * t / self.duration) ** 2

    @cached_property
    def amplitude(self) -> float:
        unit_area = _UNIT_AREA[self.shape] * self.duration
        return self.target_area / unit_area if unit_area else 0.0

    def values(self, t):
        return self.amplitude * self.unit(t)


@dataclass(frozen=True, eq=False)
class ScheduleSegment:
    """One pulse: envelope, fixed Hermitian generator structure, error multiplier."""

    envelope: PulseEnvelope
    generator: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        g = require_hermitian(self.generator).copy()
        g.setflags(write=False)
        object.__setattr__(self, "generator", g)
        scale = float(self.scale)
        if not np.isfinite(scale):
            raise ValueError(f"scale must be finite, got {scale!r}")
        object.__setattr__(self, "scale", scale)


@dataclass(frozen=True)
class Schedule:
    """Ordered, non-overlapping pulse segments applied left to right in time."""

    segments: tuple[ScheduleSegment, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))


def propagate(schedule: Schedule, steps_per_segment: int) -> np.ndarray:
    """Ordered product of per-step exponentials exp(-1j H(t_k) dt), midpoint sampled.

    Each segment's generator is fixed, so its steps are diagonal in one
    eigenbasis and their ordered product is the product of the per-step
    phase factors in that basis; segments are then applied in time order.
    Step k's factor on eigenvalue v is cos(a_k v) - 1j sin(a_k v) of its own
    midpoint area a_k; the angles are laid out eigenvalue-major, so each
    eigenvalue's factors are contiguous and are multiplied in step order,
    never summed.  ``steps_per_segment`` must be an integer (``int`` or a
    numpy integer; a float such as 1000.5 raises ValueError) and at least
    100.  An empty schedule yields the identity with a warning.  The result
    is unitary to roundoff and converges to the accumulated-area propagator
    as steps increase.
    """
    try:
        steps = operator.index(steps_per_segment)
    except TypeError:
        raise ValueError(f"steps_per_segment must be an integer, got {steps_per_segment!r}") from None
    if steps < 100:
        raise ValueError("steps_per_segment must be >= 100")
    if not schedule.segments:
        warnings.warn("propagating an empty schedule: returning identity", RuntimeWarning, stacklevel=2)
        return IDENTITY.copy()
    total = IDENTITY.copy()
    for seg in schedule.segments:
        if seg.envelope.duration == 0.0:
            continue
        h = seg.envelope.duration / steps
        midpoints = (np.arange(steps) + 0.5) * h
        areas = seg.scale * seg.envelope.values(midpoints) * h
        vals, vecs = np.linalg.eigh(seg.generator)
        angles = np.outer(vals, areas)
        factors = np.empty(angles.shape, dtype=complex)
        np.cos(angles, out=factors.real)
        np.sin(angles, out=factors.imag)
        # conjugating the product conjugates every factor exactly: prod(cos - 1j sin)
        phases = np.prod(factors, axis=1).conj()
        total = (vecs * phases) @ vecs.conj().T @ total
    return total


def closed_form_limit(schedule: Schedule) -> np.ndarray:
    """Infinite-step limit: per-segment exponential at the exact scaled area."""
    total = IDENTITY.copy()
    for seg in schedule.segments:
        total = expm(seg.generator, seg.scale * seg.envelope.target_area) @ total
    return total


def convergence_order(schedule: Schedule, steps: int = 1000) -> float:
    """Empirical order p from propagation errors at ``steps`` and ``2*steps``.

    Errors are measured against the closed-form limit.  Midpoint sampling
    of a time-constant generator structure is second order, so p ~ 2 for
    shapes with genuine quadrature error (the "sine" shape).  When both
    errors sit at the roundoff floor (square and sine-squared shapes are
    integrated exactly), the order is indeterminate and +inf is returned.
    """
    reference = closed_form_limit(schedule)
    err1 = float(np.max(np.abs(propagate(schedule, steps) - reference)))
    err2 = float(np.max(np.abs(propagate(schedule, 2 * steps) - reference)))
    if err1 <= ROUNDOFF_FLOOR or err2 <= ROUNDOFF_FLOOR:
        return float("inf")
    return float(np.log2(err1 / err2))


def schedule_for_two_loop(path: TwoLoopPath, error: RabiError | None = None, shape: str = "square") -> Schedule:
    """Two-segment schedule equivalent to the (errored) two-loop gate.

    Each loop becomes one pi-area pulse of the errored bright-state
    coupling, scaled by its effective amplitude fraction 1 + delta; with
    zero error this is the ideal gate's schedule.
    """
    err = error or schemes.NO_ERROR
    segs = []
    for loop in (path.loop1, path.loop2):
        theta_p, delta = schemes.relative_error_angles(loop.theta, err)
        gen = schemes.coupling_generator(theta_p, loop.psi, loop.phi)
        segs.append(ScheduleSegment(PulseEnvelope(shape, _PULSE_DURATION, np.pi), gen, 1.0 + delta))
    return Schedule(tuple(segs))


def schedule_for_single_loop(
    path: SingleLoopPath, error: RabiError | None = None, shape: str = "square"
) -> Schedule:
    """Two pi/2-area segments at total phases phi then phi_prime, both scaled by 1 + eps."""
    err = schemes.require_common_error(error or schemes.NO_ERROR, "schedule_for_single_loop")
    scale = 1.0 + err.epsilon
    segs = []
    for phase in (path.phi, path.phi_prime):
        gen = schemes.coupling_generator(path.theta, path.psi, phase)
        segs.append(ScheduleSegment(PulseEnvelope(shape, _PULSE_DURATION, np.pi / 2), gen, scale))
    return Schedule(tuple(segs))


def schedule_for_single_shot(
    path: SingleShotPath, error: RabiError | None = None, shape: str = "square"
) -> Schedule:
    """One pi-area segment of the full (errored) single-shot Hamiltonian structure."""
    err = schemes.require_common_error(error or schemes.NO_ERROR, "schedule_for_single_shot")
    gen = schemes.single_shot_generator(path, err.epsilon)
    return Schedule((ScheduleSegment(PulseEnvelope(shape, _PULSE_DURATION, np.pi), gen, 1.0),))
