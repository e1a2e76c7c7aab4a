"""Solve scheme parameters realizing a target logical gate, with robustness-optimal defaults.

For the two-loop scheme the one-parameter gauge family of loop pairs in the
plane perpendicular to the rotation axis is pinned by two conventions: the
robustness-optimal decomposition phase (phi_b = pi by default) and the
balanced-loop condition cos(theta1) + cos(theta2) = 0.  In the quadratic form
1 - F = a eps^2 + 2 b eps kappa + c kappa^2 (``analytic.SCHEMES``), phi_b = pi
minimizes a, and balance buys b = 0, no first-order sensitivity to a relative
error between the drives.  It costs c: along the gauge circle (a fixed), c is
largest at the balanced pair, from about 4% (axis near z) to 55% (axis in the
xy-plane) above the circle's lowest c for theta_gate in [pi/8, pi/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import ContractViolation, is_block_diagonal, PAULI_QUBIT
from .schemes import LoopParams, SingleLoopPath, SingleShotPath, TargetGate, TwoLoopPath, bright_state

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


def _polar_of(n: np.ndarray) -> tuple[float, float]:
    return float(np.arccos(np.maximum(-1.0, np.minimum(1.0, n[2])))), float(np.arctan2(n[1], n[0]))


def _circle_frame(axis: np.ndarray, polar: bool) -> tuple[np.ndarray, np.ndarray]:
    # orthonormal frame of the great circle perpendicular to the axis,
    # with u at the circle's z-maximal point (u = x when the axis is +/- z, polar)
    if polar:
        u = np.array([1.0, 0.0, 0.0])
    else:
        u = np.array([0.0, 0.0, 1.0]) - axis[2] * axis
        u = u / np.sqrt((u * u).sum())
    # axis x u by components, in np.cross's order of operations
    (ax, ay, az), (ux, uy, uz) = axis.tolist(), u.tolist()
    return u, np.array([ay * uz - az * uy, az * ux - ax * uz, ax * uy - ay * ux])


def _pair_at_phi_b(polar1, polar2, phi_b: float) -> TwoLoopPath:
    """Loops with bright-state polars ``polar1``, ``polar2``, phi1 = 0 and phi2 = phi_b - arg<b1|b2>.

    That phi2 places the pair's decomposition phase (``schemes.phi_b_of``) at ``phi_b``.
    """
    loop1 = LoopParams(*polar1, 0.0)
    b1, b2 = bright_state(np.array([loop1.theta, polar2[0]]), np.array([loop1.psi, polar2[1]]))
    phi2 = float(phi_b) - float(np.angle((b1.conj() * b2).sum()))
    return TwoLoopPath(loop1, LoopParams(*polar2, phi2))


def solve_two_loop(target: TargetGate, constraints: PathConstraints | None = None) -> TwoLoopSolution:
    """Two-loop path whose ideal gate equals exp(1j theta m.sigma) exactly.

    The loop Bloch vectors n1, n2 lie on the great circle perpendicular to
    the target axis with angle(n1, n2) = theta_gate and n2 x n1 along the
    axis.  Balanced solutions place the pair symmetrically about the
    circle's equator crossing (parameter +/- pi/2 -/+ theta/2 from the
    z-extremal point); unbalanced ones anchor n1 at the z-extremal point.
    phi2 - phi1 is then set so the decomposition phase equals force_phi_b.

    Every target takes this one construction.  At theta_gate = 0 it gives
    n1 = n2, and at phi_b = pi loop 2 undoes loop 1 under any drive error
    (second-order form (0, 0, 0)); another force_phi_b is applied as given.
    """
    cons = constraints or PathConstraints()
    theta_gate = target.theta_gate
    polar = abs(abs(target.axis[2]) - 1.0) < 1e-12  # axis = +/- z
    u, v = _circle_frame(target.axis, polar)
    if cons.force_balanced and not polar:
        center = cons.orientation_sign * np.pi / 2
        t1, t2 = center + theta_gate / 2, center - theta_gate / 2
    else:
        # axis = +/- z: the circle is the equator, every pair is balanced;
        # anchor psi1 = 0 (general unbalanced case: n1 at the z-maximal point)
        t1, t2 = 0.0, -theta_gate
    n1 = np.cos(t1) * u + np.sin(t1) * v
    n2 = np.cos(t2) * u + np.sin(t2) * v
    return TwoLoopSolution(_pair_at_phi_b(_polar_of(n1), _polar_of(n2), cons.force_phi_b))


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
