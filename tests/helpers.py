"""Reference helpers the tests share; the library itself has no use for them."""

import numpy as np

from holopath.linalg import ContractViolation, is_block_diagonal, require_unitary


# Pauli operators acting on the logical subspace, embedded in the 3x3 space
# (they annihilate |e>).
SIGMA_X = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex)


def pauli_dot(axis) -> np.ndarray:
    """n . sigma on the logical subspace, embedded as a 3x3 operator."""
    n = np.asarray(axis, dtype=float)
    return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


def bloch_vector(theta: float, psi: float) -> np.ndarray:
    """Unit Bloch vector (sin t cos p, sin t sin p, cos t) of the bright state."""
    return np.array([np.sin(theta) * np.cos(psi), np.sin(theta) * np.sin(psi), np.cos(theta)])


def projective_distance_qubit(a, b) -> float:
    """Global-phase-quotiented distance between the qubit blocks of two gates.

    Returns the max-entry modulus of ``A - exp(1j chi) B`` for the logical
    blocks A, B at the trace-aligned phase ``chi = arg Tr(B^dag A)`` (chi = 0
    when that trace vanishes).  This is an upper bound on the minimum over
    chi, and it is zero (to roundoff) exactly when the blocks agree up to a
    global phase, since then the aligned phase is that global phase.
    """
    ma, mb = require_unitary(a, "a"), require_unitary(b, "b")
    if not (is_block_diagonal(ma) and is_block_diagonal(mb)):
        raise ContractViolation("matrix is not block-diagonal over the qubit/|e> split")
    qa, qb = ma[:2, :2], mb[:2, :2]
    chi = np.angle(np.trace(qb.conj().T @ qa))  # np.angle(0) == 0
    return float(np.max(np.abs(qa - np.exp(1j * chi) * qb)))


def single_shot_rabi_parameters(path, omega: float) -> tuple[float, float, float]:
    """Physical (detuning, Omega_0, Omega_1) of a single-shot path at overall scale omega > 0."""
    return (
        -2.0 * omega * np.sin(path.gamma),
        omega * np.cos(path.alpha) * np.cos(path.gamma),
        omega * np.sin(path.alpha) * np.cos(path.gamma),
    )
