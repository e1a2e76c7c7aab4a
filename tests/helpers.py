"""Reference helpers the tests share; the library itself has no use for them."""

from fractions import Fraction

import numpy as np

from holopath import schemes
from holopath.schemes import SingleLoopPath
from holopath.linalg import (
    IDENTITY,
    KET_0,
    KET_1,
    PAULI_QUBIT,
    PROJ_E,
    ContractViolation,
    is_block_diagonal,
    product,
    require_unitary,
)


# Pauli operators acting on the logical subspace, embedded in the 3x3 space
# (they annihilate |e>).
SIGMA_X = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex)


def pauli_dot(axis) -> np.ndarray:
    """n . sigma on the logical subspace, embedded as a 3x3 operator."""
    n = np.asarray(axis, dtype=float)
    return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


def qubit_rotation(theta_gate: float, axis) -> np.ndarray:
    """The logical gate exp(1j * theta_gate * n.sigma) as a 2x2 matrix."""
    n = np.asarray(axis, dtype=float)
    ns = n[0] * PAULI_QUBIT[0] + n[1] * PAULI_QUBIT[1] + n[2] * PAULI_QUBIT[2]
    return np.cos(theta_gate) * np.eye(2) + 1j * np.sin(theta_gate) * ns


def projector(ket) -> np.ndarray:
    """Rank-one projector |k><k| of a length-3 amplitude vector."""
    k = np.asarray(ket, dtype=complex)
    return np.outer(k, k.conj())


def coupling_generator(theta, psi, phi) -> np.ndarray:
    """Hamiltonian structure e^{i phi}|b><e| + h.c. with the envelope taken out.

    Array angles broadcast to a (..., 3, 3) stack.
    """
    return schemes._bright_coupling(schemes.bright_state(theta, psi), phi)


def bright_dark(theta, psi) -> tuple[np.ndarray, np.ndarray]:
    """The bright state and the dark state |d> = sin(theta/2)|0> - cos(theta/2) e^{i psi}|1>.

    |d> does not couple to |e> under the drive.  Array angles broadcast as in ``schemes.bright_state``.
    """
    half = theta / 2.0
    dark = np.sin(half)[..., None] * KET_0 - (np.cos(half) * np.exp(1j * psi))[..., None] * KET_1
    return schemes.bright_state(theta, psi), dark


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


def exact_quadratic_fit(samples) -> tuple[list, list, Fraction]:
    """(u, g, c): extract_quadratic_coefficient's sign-averaged points and fit, in exact rational arithmetic.

    Every float of ``samples`` is taken at its exact value, so c is the exact least-squares
    intercept of g = c + s u through the points, with no rounding at all.  Valid samples only.
    """
    signs = {}
    for e, f in samples:
        signs.setdefault(abs(Fraction(e)), ([], []))[e < 0].append(Fraction(f))
    u, g = [], []
    for m, (plus, minus) in sorted(signs.items()):
        u.append(m * m)
        g.append((1 - (sum(plus) / len(plus) + sum(minus) / len(minus)) / 2) / u[-1])
    u_mean, g_mean = sum(u) / len(u), sum(g) / len(g)
    spread = sum((x - u_mean) ** 2 for x in u)
    if not spread:
        return u, g, g[0]
    slope = sum((x - u_mean) * (y - g_mean) for x, y in zip(u, g)) / spread
    return u, g, g_mean - slope * u_mean


# --- separate ideal and errored constructors: the references for the stacked builders of holopath.schemes
# Each builds one gate on its own, the ideal apart from the errored ones; the builders stack them
# in one pass, and their slices must equal these bit for bit.


def pulse_angles(path, ndim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each pulse's (theta, psi, phi) of a two-loop or single-loop path, as arrays of shape (2,) + (1,) * ndim."""
    if isinstance(path, SingleLoopPath):
        rows = [(path.theta, path.psi, phi) for phi in (path.phi, path.phi_prime)]
    else:
        rows = [(loop.theta, loop.psi, loop.phi) for loop in (path.loop1, path.loop2)]
    theta, psi, phi = np.array(rows).T.reshape((3, 2) + (1,) * ndim)
    return theta, psi, phi


def bright_excited_projector(bright) -> np.ndarray:
    """|b><b| + |e><e| of a (..., 3) bright-state stack: the square of each coupling e^{i phi}|b><e| + h.c."""
    return PROJ_E + bright[..., :, None] * bright[..., None, :].conj()


def reference_two_loop_ideal(path) -> np.ndarray:
    theta, psi, phi = pulse_angles(path, 0)
    square = bright_excited_projector(schemes.bright_state(theta, psi))
    loops = schemes._pulse(coupling_generator(theta, psi, phi), square, np.pi)
    return product(loops[1], loops[0])


def reference_pulse_pair_errored(path, error, area) -> np.ndarray:
    theta, psi, phi = pulse_angles(path, error.ndim)
    theta_p, delta = schemes.relative_error_angles(theta, error)
    bright = schemes.bright_state(theta_p, psi)
    square = bright_excited_projector(bright)
    pulses = schemes._pulse(schemes._bright_coupling(bright, phi), square, (1.0 + delta) * area)
    return product(pulses[1], pulses[0])


def reference_two_loop_errored_relative(path, error) -> np.ndarray:
    return reference_pulse_pair_errored(path, error, np.pi)


def reference_single_loop_ideal(path) -> np.ndarray:
    phases = np.array([path.phi, path.phi_prime])
    square = bright_excited_projector(schemes.bright_state(path.theta, path.psi))
    segments = schemes._pulse(coupling_generator(path.theta, path.psi, phases), square, np.pi / 2)
    return product(segments[1], segments[0])


def reference_single_loop_errored(path, error) -> np.ndarray:
    return reference_pulse_pair_errored(path, error, np.pi / 2)


def single_shot_bright(path) -> np.ndarray:
    """Bright state cos(alpha) e^{i beta0}|0> + sin(alpha) e^{i beta1}|1> of a single-shot path."""
    return np.cos(path.alpha) * np.exp(1j * path.beta0) * KET_0 + np.sin(path.alpha) * np.exp(1j * path.beta1) * KET_1


def single_shot_frame(path, error) -> tuple:
    """(theta_p, delta, |b><b|, e^{i beta0}|b><e| + h.c.) of the errored single-shot bright state."""
    theta_p, delta = schemes.relative_error_angles(2.0 * path.alpha, error)
    bright = schemes.bright_state(theta_p, path.beta1 - path.beta0)
    return (theta_p, delta, *schemes._bright_frame(bright, path.beta0))


def reference_single_shot_ideal(path) -> np.ndarray:
    pb = projector(schemes.bright_state(2.0 * path.alpha, path.beta1 - path.beta0))
    zeta = np.pi * (1.0 - np.sin(path.gamma))
    return np.exp(1j * zeta) * (PROJ_E + pb) + (IDENTITY - PROJ_E - pb)


def reference_single_shot_errored(path, error, detuning_sign: float = 1.0) -> np.ndarray:
    """The builder's closed form of the errored single-shot gate, written apart from the ideal one.

    ``detuning_sign=-1.0`` flips the sign of the detuning term sin(gamma) (|e><e| - |b><b|), and nothing else.
    """
    _, delta, pb, cross = single_shot_frame(path, error)
    s = np.sin(path.gamma)
    d = (1.0 + np.ravel(delta))[:, None, None] * np.cos(path.gamma)
    lam = np.hypot(d, s)
    pb, cross = pb.reshape(-1, 3, 3), cross.reshape(-1, 3, 3)
    square = PROJ_E + pb
    generator = d * cross + detuning_sign * s * (PROJ_E - pb)
    rotated = np.cos(np.pi * lam) * square - 1j * (np.sin(np.pi * lam) / lam) * generator
    errored = np.exp(-1j * np.pi * s) * rotated + (IDENTITY - square)
    return errored.reshape(np.shape(delta) + (3, 3))


def factored_single_shot_errored(path, error) -> np.ndarray:
    """The errored single-shot gate as a phase pulse times a rotation, two commuting exponentials.

    The phase pulse is exp(-1j pi sin(gamma) P), P = |b><b| + |e><e|; the rotation is by pi lam about
    sigma = (d X + sin(gamma) (|e><e| - |b><b|)) / lam, with d = (1 + delta) cos(gamma), lam = hypot(d, sin(gamma))
    and X the coupling.  sigma squares to P, so both factors are ``schemes._pulse``'s closed form.
    """
    _, delta, pb, cross = single_shot_frame(path, error)
    drive = (1.0 + delta) * np.cos(path.gamma)
    lam = np.hypot(drive, np.sin(path.gamma))
    sigma = (drive[..., None, None] * cross + np.sin(path.gamma) * (PROJ_E - pb)) / lam[..., None, None]
    square = PROJ_E + pb
    phase = schemes._pulse(square, square, np.pi * np.sin(path.gamma))
    return product(phase, schemes._pulse(sigma, square, lam * np.pi))
