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


def reference_quadratic_coefficient(samples) -> float:
    """Quadratic error coefficient by numpy least squares: the reference for extract_quadratic_coefficient.

    The same validation, in the same order and with the same messages, then
    ``np.unique`` grouping and ``np.linalg.lstsq`` on the design [1, eps^2].
    """
    pairs = [(float(e), float(f)) for e, f in samples]
    if len(pairs) < 3:
        raise ValueError("need at least 3 (epsilon, fidelity) samples")
    eps = np.array([p[0] for p in pairs])
    fid = np.array([p[1] for p in pairs])
    if np.any(eps == 0.0):
        raise ValueError("epsilon samples must be nonzero")
    if not np.all((fid > 0.0) & (fid <= 1.0 + 1e-12)):  # NaN fails too
        raise ValueError("fidelities must lie in (0, 1]")
    if np.unique(eps).size < 2:
        raise ValueError("ill-conditioned sample set: all epsilon values equal")
    mags = np.unique(np.abs(eps))
    u, g = [], []
    for m in mags:
        plus = fid[eps == m]
        minus = fid[eps == -m]
        if plus.size == 0 or minus.size == 0:
            raise ValueError(f"epsilon magnitude {m:g} lacks a +/- sign pair")
        f_even = 0.5 * (plus.mean() + minus.mean())
        u.append(m * m)
        g.append((1.0 - f_even) / (m * m))
    u = np.array(u)
    g = np.array(g)
    if mags.size == 1:
        return float(g[0])
    design = np.column_stack([np.ones_like(u), u])
    (coeff, _), *_ = np.linalg.lstsq(design, g, rcond=None)
    return float(coeff)
