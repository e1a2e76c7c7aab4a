"""Solve scheme parameters realizing a target logical gate, with robustness-optimal defaults.

For the two-loop scheme the one-parameter gauge family of loop pairs in the
plane perpendicular to the rotation axis is pinned by two conventions: the
robustness-optimal decomposition phase (phi_b = pi by default) and the
balanced-loop condition cos(theta1) + cos(theta2) = 0 that nulls the
leading sensitivity to a relative error difference between the two drives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import ContractViolation, is_block_diagonal, PAULI_QUBIT
from .schemes import LoopParams, SingleLoopPath, SingleShotPath, TargetGate, TwoLoopPath, bright_dark

_DEGENERATE_ANGLE = 1e-14

#: the two balanced-loop orientations, as PathConstraints.orientation_sign values
ORIENTATION_SIGNS = (1, -1)


@dataclass(frozen=True)
class PathConstraints:
    """Gauge-fixing choices for the two-loop solver.

    force_phi_b pins the bright-state decomposition phase, a finite angle
    (None or NaN is refused); force_balanced pins the loops to
    theta = pi/2 +/- s; orientation_sign selects between the two balanced
    solutions, which realize identical gates with identical error sensitivity.
    """

    force_phi_b: float = np.pi
    force_balanced: bool = True
    orientation_sign: int = 1

    def __post_init__(self):
        if self.force_phi_b is None or not np.isfinite(self.force_phi_b):
            raise ValueError(f"force_phi_b must be a finite phase, got {self.force_phi_b!r}")
        if self.orientation_sign not in ORIENTATION_SIGNS:
            raise ValueError("orientation_sign must be +1 or -1")


class TwoLoopSolution(NamedTuple):
    path: TwoLoopPath
    degenerate: bool


def _polar_of(n: np.ndarray) -> tuple[float, float]:
    return float(np.arccos(np.clip(n[2], -1.0, 1.0))), float(np.arctan2(n[1], n[0]))


def _circle_frame(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # orthonormal frame of the great circle perpendicular to the axis,
    # with u at the circle's z-maximal point (u = x when the axis is +/- z)
    if abs(abs(axis[2]) - 1.0) < 1e-12:
        u = np.array([1.0, 0.0, 0.0])
    else:
        u = np.array([0.0, 0.0, 1.0]) - axis[2] * axis
        u = u / np.sqrt(u.dot(u))  # what np.linalg.norm computes for a real vector, without its overhead
    # axis x u by components, in np.cross's order of operations
    (ax, ay, az), (ux, uy, uz) = axis.tolist(), u.tolist()
    return u, np.array([ay * uz - az * uy, az * ux - ax * uz, ax * uy - ay * ux])


def solve_two_loop(target: TargetGate, constraints: PathConstraints | None = None) -> TwoLoopSolution:
    """Two-loop path whose ideal gate equals exp(1j theta m.sigma) exactly.

    The loop Bloch vectors n1, n2 lie on the great circle perpendicular to
    the target axis with angle(n1, n2) = theta_gate and n2 x n1 along the
    axis.  Balanced solutions place the pair symmetrically about the
    circle's equator crossing (parameter +/- pi/2 -/+ theta/2 from the
    z-extremal point); unbalanced ones anchor n1 at the z-extremal point.
    phi2 - phi1 is then set so the decomposition phase equals force_phi_b.

    A zero rotation angle has no meaningful axis: the trivial path with
    loop2 = loop1 is returned with ``degenerate=True``.
    """
    cons = constraints or PathConstraints()
    theta_gate = target.theta_gate
    if theta_gate <= _DEGENERATE_ANGLE:
        loop = LoopParams(np.pi / 2, 0.0, 0.0)
        return TwoLoopSolution(TwoLoopPath(loop, loop), True)

    u, v = _circle_frame(target.axis)
    if cons.force_balanced and abs(abs(target.axis[2]) - 1.0) >= 1e-12:
        center = cons.orientation_sign * np.pi / 2
        t1, t2 = center + theta_gate / 2, center - theta_gate / 2
    else:
        # axis = +/- z: the circle is the equator, every pair is balanced;
        # anchor psi1 = 0 (general unbalanced case: n1 at the z-maximal point)
        t1, t2 = 0.0, -theta_gate
    n1 = np.cos(t1) * u + np.sin(t1) * v
    n2 = np.cos(t2) * u + np.sin(t2) * v

    loop1 = LoopParams(*_polar_of(n1), 0.0)
    polar2 = _polar_of(n2)
    b1, _ = bright_dark(loop1.theta, loop1.psi)
    b2, _ = bright_dark(*polar2)
    phi2 = float(cons.force_phi_b) - float(np.angle(np.vdot(b1, b2)))
    return TwoLoopSolution(TwoLoopPath(loop1, LoopParams(*polar2, phi2)), False)


def solve_single_loop(target: TargetGate) -> SingleLoopPath:
    """Single-loop path: bright state along the axis, phase jump pi - 2 theta.

    phi_prime = 0 by convention; a zero rotation angle yields the legal
    identity-gate path with phase jump pi.
    """
    theta, psi = _polar_of(target.axis)
    return SingleLoopPath(theta, psi, np.pi - 2.0 * target.theta_gate, 0.0)


def solve_single_shot(target: TargetGate) -> SingleShotPath:
    """Single-shot path: sin(gamma) = 1 - 2 theta/pi, bright state along the axis.

    beta0 = 0 by convention; alpha and beta1 are the half-polar and
    azimuthal angles of the axis.
    """
    theta, psi = _polar_of(target.axis)
    gamma = float(np.arcsin(1.0 - 2.0 * target.theta_gate / np.pi))
    return SingleShotPath(theta / 2.0, 0.0, psi, gamma)


def gate_angle_axis(unitary) -> tuple[float, np.ndarray | None]:
    """Rotation angle and axis of a block-diagonal gate's logical block.

    Strips the global phase via the determinant, then reads the angle and
    axis off the SU(2) representative with nonnegative cos(theta).  Exactly
    at theta = pi/2 the two SU(2) representatives are phase-equivalent and
    the axis sign is fixed by making its largest-magnitude component
    positive.  Returns (0, None) for identity-like blocks.
    """
    u = np.asarray(unitary, dtype=complex)
    if not is_block_diagonal(u):
        raise ContractViolation("gate must be block-diagonal over the qubit/|e> split")
    q = u[:2, :2]
    det = q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0]
    rep = q * np.exp(-0.5j * np.angle(det))
    cos_t = float((rep[0, 0] + rep[1, 1]).real / 2.0)
    if cos_t < 0.0:
        rep = -rep
        cos_t = -cos_t
    theta = float(np.arccos(np.clip(cos_t, -1.0, 1.0)))
    sin_t = np.sin(theta)
    if sin_t < 1e-12:
        return theta, None
    axis = np.array([np.trace(s @ rep).imag / (2.0 * sin_t) for s in PAULI_QUBIT])
    axis = axis / np.linalg.norm(axis)
    if cos_t < 1e-12 and axis[np.argmax(np.abs(axis))] < 0.0:
        axis = -axis
    return theta, axis
