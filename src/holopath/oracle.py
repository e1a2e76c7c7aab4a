"""Brute-force time-stepped propagation of pulse-envelope Hamiltonians.

Independent validator for every closed-form propagator in
:mod:`holopath.schemes`: instead of using the accumulated pulse area, the
Hamiltonian H(t) = Omega(t) * G of each pulse, t in [0, 1], is integrated
as an ordered product of per-step exponentials with midpoint sampling.

The ``schedule_for_*`` builders write each pulse's G in the bare basis
{|0>, |1>, |e>} from the two complex drives and the detuning, drive k off by
its own fraction epsilon_k, for every scheme and any kappa.  They share none
of the closed forms' derived error model (tilted angle, area excess, frames).

A :class:`ScheduleSegment` is one pulse: a shape, its area and a fixed
Hermitian generator G, so the steps of a segment commute and share G's
eigenbasis: each step is the diagonal phase exp(-1j * a_k * vals) in that
basis, and the segment's ordered product is exactly the basis change
applied to the product of the per-step phases.  Each step's factor is
cos(x) - 1j sin(x) of its real angle x = a_k * v; steps that share one
angle (a constant envelope) share its computed factor, which is still
multiplied once per step, in step order.  A segment is stepped in blocks
of ``_BLOCK_STEPS`` steps through one reused buffer whose first
column carries the running product, so every factor is multiplied in step
order, the areas are never summed (the closed forms' shortcut), and memory
per segment is bounded by the block, not by the step count.  Segments are
stepped concurrently, on up to the usable CPUs, and multiplied in time
order, bit for bit as serially.  A generator that depends on time would
need a propagator of its own.

The only discretization error is then the midpoint quadrature error of the
envelope area; the "square" and "sine-squared" shapes are integrated
exactly by the midpoint rule (constant, resp. periodic integrand), while
the half-sine "sine" shape carries a genuine O(1/N^2) error and is the one
to use for convergence-order measurements.
"""

from __future__ import annotations

import operator
import os
import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

from .linalg import IDENTITY, expm, require_hermitian
from .schemes import RabiError, SingleLoopPath, SingleShotPath, TwoLoopPath

#: area of each unit-amplitude shape over [0, 1]
_UNIT_AREA = {"square": 1.0, "sine": 2.0 / np.pi, "sine-squared": 0.5}
SHAPES = tuple(_UNIT_AREA)
#: the shapes whose envelope is constant, so that every midpoint area of a segment is one float
_CONSTANT_SHAPES = frozenset({"square"})

#: propagation error below this is roundoff; convergence order is then indeterminate
ROUNDOFF_FLOOR = 1e-12

#: steps per block of propagate's step loop: a block's arrays fit in cache
_BLOCK_STEPS = 8192


@dataclass(frozen=True, eq=False)
class ScheduleSegment:
    """One pulse H(t) = Omega(t) G on [0, 1]: a shape, its area and a fixed Hermitian generator G, stored read-only.

    Omega(t) is the unit shape times ``area`` over the shape's closed-form area (1, 2/pi, 1/2), so it integrates to
    ``area`` whatever the shape; a scaled pulse scales G.  The area is stored as a Python float, and a non-finite
    one, or one whose amplitude overflows, is refused.
    """

    shape: str
    area: float
    generator: np.ndarray

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"shape must be one of {SHAPES}, got {self.shape!r}")
        object.__setattr__(self, "area", float(self.area))
        if not np.isfinite(self.area / _UNIT_AREA[self.shape]):
            raise ValueError(f"area {self.area!r} must be finite with a finite amplitude")
        g = require_hermitian(self.generator).copy()
        g.setflags(write=False)
        object.__setattr__(self, "generator", g)

    def envelope(self, t):
        """Omega(t) at time(s) t: the amplitude times the unit shape."""
        t = np.asarray(t, dtype=float)
        unit = np.ones_like(t) if self.shape in _CONSTANT_SHAPES else np.sin(np.pi * t)
        return self.area / _UNIT_AREA[self.shape] * (unit ** 2 if self.shape == "sine-squared" else unit)


@dataclass(frozen=True)
class Schedule:
    """Ordered, non-overlapping pulse segments applied left to right in time."""

    segments: tuple[ScheduleSegment, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))


def propagate(schedule: Schedule, steps_per_segment: int) -> np.ndarray:
    """Ordered product of per-step exponentials exp(-1j H(t_k) dt), midpoint sampled at dt = 1 / steps.

    Each segment's generator is fixed, so its steps are diagonal in one
    eigenbasis and their ordered product is the product of the per-step phase
    factors in that basis; segments are stepped concurrently, on up to the
    usable CPUs, and multiplied in time order, bit for bit as serially.  Step
    k's factor on eigenvalue v is cos(a_k v) - 1j sin(a_k v) of its midpoint
    area a_k, computed once per eigenvalue and segment on a constant envelope,
    whose steps share one area.  The steps run in blocks of ``_BLOCK_STEPS``:
    each block's factors fill columns 1.. of a reused buffer whose column 0
    holds the product of all earlier factors, so each eigenvalue's factors are
    multiplied in step order, never summed, and the result is the same, bit
    for bit, as one product over all steps.  Each eigenvalue's product is then
    divided by its modulus once, which uses only |cos x - 1j sin x| = 1: on a
    square envelope all factors round alike, and their modulus error would
    otherwise compound to about N ulp.  ``steps_per_segment`` must be an
    integer (``int`` or a numpy integer; a float such as 1000.5 raises
    ValueError) and at least 100.  An empty schedule yields the identity with
    a warning.  The result is unitary to roundoff and converges to the
    accumulated-area propagator as steps increase.
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
    # the calling thread steps the first segment itself: a one-segment schedule never waits on a pool thread
    pool = _pool(os.getpid())
    later = [pool.submit(_step_segment, seg, steps) for seg in schedule.segments[1:]]
    total = _step_segment(schedule.segments[0], steps) @ IDENTITY
    for future in later:
        total = future.result() @ total
    return total


def _step_segment(seg: ScheduleSegment, steps: int) -> np.ndarray:
    """One segment's ordered step product, in blocks of ``_BLOCK_STEPS``, as the 3x3 unitary."""
    vals, vecs = np.linalg.eigh(seg.generator)
    h = 1.0 / steps
    angles = np.empty((3, _BLOCK_STEPS))
    buf = np.ones((3, _BLOCK_STEPS + 1), dtype=complex)
    constant = seg.shape in _CONSTANT_SHAPES
    for start in range(0, steps, _BLOCK_STEPS):
        n = min(_BLOCK_STEPS, steps - start)
        # a constant envelope's steps share one angle per eigenvalue: its factor is computed for the first step
        # and copied into the first block's other columns, and each later block (none is longer) only multiplies
        if start == 0 or not constant:
            k = 1 if constant else n
            # the midpoint areas are a temporary: no block's areas stay alive while the next block's are made
            np.multiply.outer(vals, seg.envelope((np.arange(start, start + k) + 0.5) * h) * h, out=angles[:, :k])
            np.cos(angles[:, :k], out=buf[:, 1:k + 1].real)
            np.sin(angles[:, :k], out=buf[:, 1:k + 1].imag)
            buf[:, k + 1:n + 1] = buf[:, 1:2]
        buf[:, 0] = np.prod(buf[:, :n + 1], axis=1)
    buf[:, 0] /= np.abs(buf[:, 0])
    # conjugating the product conjugates every factor exactly: prod(cos - 1j sin)
    return (vecs * buf[:, 0].conj()) @ vecs.conj().T


@cache
def _pool(pid: int):
    """One pool per process id, with a thread per usable CPU: a forked child inherits no thread of its parent's pool."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def closed_form_limit(schedule: Schedule) -> np.ndarray:
    """Infinite-step limit: per-segment exponential at the exact area."""
    total = IDENTITY.copy()
    for seg in schedule.segments:
        total = expm(seg.generator, seg.area) @ total
    return total


def convergence_order(schedule: Schedule) -> float:
    """Empirical order p from propagation errors at 1000 and 2000 steps per segment.

    Errors are measured against the closed-form limit.  Midpoint sampling
    of a time-constant generator structure is second order, so p ~ 2 for
    shapes with genuine quadrature error (the "sine" shape).  When both
    errors sit at the roundoff floor (square and sine-squared shapes are
    integrated exactly), the order is indeterminate and +inf is returned.
    """
    reference = closed_form_limit(schedule)
    err1 = float(np.max(np.abs(propagate(schedule, 1000) - reference)))
    err2 = float(np.max(np.abs(propagate(schedule, 2000) - reference)))
    if err1 <= ROUNDOFF_FLOOR or err2 <= ROUNDOFF_FLOOR:
        return float("inf")
    return float(np.log2(err1 / err2))


def _drive_pulse(shape: str, area: float, error: RabiError, rabi, mixing, phases, detuning) -> ScheduleSegment:
    """One pulse of H = d0 |0><e| + d1 |1><e| + h.c. + detuning |e><e|, written in the bare basis.

    d0 = (1 + epsilon0) rabi cos(mixing) e^{i phases[0]}, d1 = (1 + epsilon1) rabi sin(mixing) e^{i phases[1]}:
    each drive is off by its own error fraction, the detuning by none.  H is not normalized.
    """
    fractions = 1.0 + np.array([error.epsilon0, error.epsilon1])
    d0, d1 = fractions * rabi * np.array([np.cos(mixing), np.sin(mixing)]) * np.exp(1j * np.asarray(phases))
    generator = np.array([[0.0, 0.0, d0], [0.0, 0.0, d1], [d0.conjugate(), d1.conjugate(), detuning]])
    return ScheduleSegment(shape, area, generator)


def schedule_for_two_loop(path: TwoLoopPath, error: RabiError, shape: str) -> Schedule:
    """One pi-area pulse per loop, drives cos(theta/2) e^{i phi}, sin(theta/2) e^{i (phi + psi)}; any kappa."""
    loops = ((lp.theta / 2, (lp.phi, lp.phi + lp.psi)) for lp in (path.loop1, path.loop2))
    return Schedule(tuple(_drive_pulse(shape, np.pi, error, 1.0, half, pair, 0.0) for half, pair in loops))


def schedule_for_single_loop(path: SingleLoopPath, error: RabiError, shape: str) -> Schedule:
    """Two pi/2-area pulses as in :func:`schedule_for_two_loop`, at total phases phi then phi_prime; any kappa."""
    phases = ((phi, phi + path.psi) for phi in (path.phi, path.phi_prime))
    return Schedule(tuple(_drive_pulse(shape, np.pi / 2, error, 1.0, path.theta / 2, pair, 0.0) for pair in phases))


def schedule_for_single_shot(path: SingleShotPath, error: RabiError, shape: str) -> Schedule:
    """One pi-area pulse, drives cos(gamma) cos(alpha) e^{i beta0}, cos(gamma) sin(alpha) e^{i beta1}; any kappa.

    The |e><e| term 2 sin(gamma) is a detuning, which the amplitude error leaves exact.
    """
    phases = (path.beta0, path.beta1)
    pulse = _drive_pulse(shape, np.pi, error, np.cos(path.gamma), path.alpha, phases, 2.0 * np.sin(path.gamma))
    return Schedule((pulse,))
