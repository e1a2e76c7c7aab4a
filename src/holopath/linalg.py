"""Complex linear algebra on the three-level basis (|0>, |1>, |e>).

Every gate and generator in this package is a dense 3x3 complex array over
the fixed basis order (|0>, |1>, |e>): the two logical states first, the
ancillary excited state last.  Hermitian generators carry the operator
structure of the Hamiltonian with the scalar pulse envelope taken out, so
propagators are formed as ``exp(-1j * angle * generator)`` where
``angle`` is the accumulated pulse area.  The contracts, :func:`expm` and
:func:`gate_fidelity` also take stacks of shape (..., 3, 3), so a whole
error grid is one call, checked once per stack.

The closed forms call no BLAS: :func:`product` and the trace fidelity sum elementwise in a fixed order,
so no BLAS kernel moves their bits; :func:`expm`, :func:`require_unitary`, ``verify`` and the oracle do.
"""

from __future__ import annotations

import numpy as np

#: tolerance for algebraic identities (unitarity, hermiticity)
ATOL_ALGEBRAIC = 1e-12
#: tolerance for structural checks (block-diagonal form)
ATOL_STRUCTURAL = 1e-10
#: largest excess over 1 that the trace fidelity of unitary operands reads as rounding, and maps to 1
_ROUNDING_EXCESS = 1e-14

KET_0, KET_1, KET_E = np.eye(3, dtype=complex)

IDENTITY = np.eye(3, dtype=complex)
PROJ_E = np.outer(KET_E, KET_E.conj())

PAULI_QUBIT = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class ContractViolation(ValueError):
    """An operand failed a matrix contract (hermiticity, unitarity, block form)."""


def _as_matrix(matrix, name: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.shape[-2:] != (3, 3):
        raise ContractViolation(f"{name} must be a 3x3 complex matrix or a stack of them, got shape {m.shape}")
    if not np.isfinite(m.view(float)).all():
        raise ContractViolation(f"{name} contains non-finite entries")
    return m


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def require_hermitian(generator) -> np.ndarray:
    """The generator as a complex (..., 3, 3) array, checked Hermitian in one pass over the stack."""
    m = _as_matrix(generator, "generator")
    dev = np.abs(m - _dagger(m)).max(initial=0.0)
    if dev > ATOL_ALGEBRAIC:
        raise ContractViolation(f"generator is not Hermitian (max |M - M^dag| = {dev:.3e})")
    return m


def require_unitary(matrix, name: str) -> np.ndarray:
    """The operand as a complex (..., 3, 3) array, checked unitary in one pass over the stack."""
    m = _as_matrix(matrix, name)
    dev = np.abs(_dagger(m) @ m - IDENTITY).max(initial=0.0)
    if dev > ATOL_ALGEBRAIC:
        raise ContractViolation(f"{name} is not unitary (max |U^dag U - I| = {dev:.3e})")
    return m


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for (..., 3, 3) stacks, as elementwise products summed over j = 0, 1, 2 in that order, without BLAS."""
    return (a[..., :, 0, None] * b[..., None, 0, :] + a[..., :, 1, None] * b[..., None, 1, :]
            + a[..., :, 2, None] * b[..., None, 2, :])


def expm(generator, angle) -> np.ndarray:
    """Unitary propagator exp(-1j * angle * generator) of a Hermitian generator.

    The generator is diagonalized by ``numpy.linalg.eigh``, which is exact
    for this size.  Both operands broadcast: a (..., 3, 3) stack of
    generators and an angle of shape (...) give a (..., 3, 3) stack of
    propagators, one eigendecomposition per generator.

    Parameters
    ----------
    generator : array_like
        3x3 Hermitian operator structure (envelope taken out), or a stack.
    angle : float or array_like
        Accumulated pulse area multiplying the generator.

    Returns
    -------
    numpy.ndarray
        3x3 unitary matrix, or a stack of them.
    """
    g = require_hermitian(generator)
    a = np.asarray(angle, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"angle must be finite, got {angle!r}")
    vals, vecs = np.linalg.eigh(g)
    return (vecs * np.exp(-1j * a[..., None] * vals)[..., None, :]) @ _dagger(vecs)


def gate_fidelity(ideal, errored):
    """Trace fidelity |Tr(V^dag V_e)| / Tr(V^dag V) between two unitaries.

    The denominator equals the dimension (3) once both operands pass the
    unitarity contract.  Global phases of either argument drop out, and the
    value lies in [0, 1]: rounding can lift |Tr(V^dag V_e)| / 3 of equal
    gates a few ulp above 1, and a value at most 1e-14 above 1 reads 1.0.
    Stacks broadcast: a float for one pair, an array of shape (...) for
    (..., 3, 3) operands.
    """
    return _trace_fidelity(require_unitary(ideal, "ideal"), require_unitary(errored, "errored"))


def _trace_fidelity(v: np.ndarray, ve: np.ndarray):
    """:func:`gate_fidelity` of two complex (..., 3, 3) arrays trusted to be unitary, unchecked."""
    trace = (v.conj() * ve).sum(axis=(-2, -1))  # Tr(V^dag V_e), summed elementwise
    # hypot, not np.abs: numpy's vectorized complex abs can differ from the scalar one in the last bit
    fidelity = np.hypot(trace.real, trace.imag) / 3.0
    # rounding lifts an exact 1 by a few ulp; a larger excess is a non-unitary operand, kept for callers to refuse
    rounding = (fidelity > 1.0) & (fidelity <= 1.0 + _ROUNDING_EXCESS)  # one rule; one pair's takes no np.where
    return np.where(rounding, 1.0, fidelity) if fidelity.ndim else (1.0 if rounding else float(fidelity))


def is_block_diagonal(matrix) -> bool:
    """True when the matrix does not mix the logical subspace with |e>."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (3, 3):
        return False
    off = max(abs(m[0, 2]), abs(m[1, 2]), abs(m[2, 0]), abs(m[2, 1]))
    return bool(off <= ATOL_STRUCTURAL)
