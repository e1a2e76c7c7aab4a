import numpy as np
import pytest
import scipy.linalg

from holopath import linalg
from holopath.linalg import (
    ContractViolation,
    IDENTITY,
    KET_E,
    expm,
    gate_fidelity,
)

from helpers import pauli_dot, projective_distance_qubit, qubit_rotation


def lambda_generator(theta, psi, phi):
    b = np.array([np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * psi), 0.0])
    half = np.exp(1j * phi) * np.outer(b, KET_E.conj())
    return half + half.conj().T, b


def random_hermitian(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return m + m.conj().T


def test_expm_zero_angle_is_identity(rng):
    gen, _ = lambda_generator(rng.uniform(0, np.pi), 0.7, 1.9)
    np.testing.assert_allclose(expm(gen, 0.0), IDENTITY, atol=1e-15)


def test_expm_pi_area_gives_loop_gate():
    # area pi in the {b, e} subspace: |d><d| - |b><b| - |e><e|
    theta, psi = 0.9, 2.3
    gen, b = lambda_generator(theta, psi, 0.4)
    d = np.array([np.sin(theta / 2), -np.cos(theta / 2) * np.exp(1j * psi), 0.0])
    expected = np.outer(d, d.conj()) - np.outer(b, b.conj()) - np.outer(KET_E, KET_E.conj())
    np.testing.assert_allclose(expm(gen, np.pi), expected, atol=1e-12)


def test_expm_half_pi_area():
    # area pi/2 with phi = 0: -1j (|b><e| + |e><b|) + |d><d|
    theta, psi = 1.3, 0.8
    gen, b = lambda_generator(theta, psi, 0.0)
    d = np.array([np.sin(theta / 2), -np.cos(theta / 2) * np.exp(1j * psi), 0.0])
    cross = np.outer(b, KET_E.conj()) + np.outer(KET_E, b.conj())
    expected = -1j * cross + np.outer(d, d.conj())
    np.testing.assert_allclose(expm(gen, np.pi / 2), expected, atol=1e-12)


def test_expm_unitarity_randomized(rng):
    worst = 0.0
    for _ in range(10_000):
        gen = random_hermitian(rng)
        u = expm(gen, rng.uniform(-3, 3))
        worst = max(worst, np.max(np.abs(u.conj().T @ u - IDENTITY)))
    assert worst <= 1e-12


def test_expm_homomorphism(rng):
    for _ in range(200):
        gen = random_hermitian(rng)
        a, b = rng.uniform(-2, 2, size=2)
        lhs = expm(gen, a) @ expm(gen, b)
        np.testing.assert_allclose(lhs, expm(gen, a + b), atol=1e-12)


def test_expm_matches_scipy(rng):
    for _ in range(100):
        gen = random_hermitian(rng)
        angle = rng.uniform(-2, 2)
        np.testing.assert_allclose(expm(gen, angle), scipy.linalg.expm(-1j * angle * gen), atol=1e-12)


def test_expm_rejects_non_hermitian():
    bad = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
    with pytest.raises(ContractViolation):
        expm(bad, 1.0)


def test_expm_rejects_non_finite_angle():
    gen, _ = lambda_generator(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        expm(gen, np.inf)


def test_gate_fidelity_identity_and_phase(rng):
    gen = random_hermitian(rng)
    v = expm(gen, 0.7)
    assert gate_fidelity(v, v) == pytest.approx(1.0, abs=1e-14)
    assert gate_fidelity(v, np.exp(1j * 1.234) * v) == pytest.approx(1.0, abs=1e-14)


def test_gate_fidelity_partial_overlap():
    a = np.diag([1, 1, 1]).astype(complex)
    b = np.diag([1, 1, -1]).astype(complex)
    assert gate_fidelity(a, b) == pytest.approx(1 / 3, abs=1e-15)


def test_gate_fidelity_symmetry(rng):
    u = expm(random_hermitian(rng), 0.3)
    v = expm(random_hermitian(rng), 0.9)
    assert gate_fidelity(u, v) == pytest.approx(gate_fidelity(v, u), abs=1e-15)


def test_gate_fidelity_rejects_non_unitary():
    with pytest.raises(ContractViolation):
        gate_fidelity(np.eye(3) * 2.0, np.eye(3))


@pytest.mark.parametrize("stacked", [False, True])
def test_trace_fidelity_maps_only_a_rounding_excess_to_one(stacked):
    # v = I, ve = (1 + d) I: d = 5e-15 is rounding and reads 1.0, d = 2e-14 is kept above 1, NaN stays NaN;
    # one pair gives a Python float, a stack an ndarray, by the same rule
    d = np.array([5e-15, 2e-14, np.nan])
    ve = (1.0 + d)[:, None, None] * IDENTITY
    if stacked:
        fidelity = linalg._trace_fidelity(np.broadcast_to(IDENTITY, ve.shape), ve)
        assert type(fidelity) is np.ndarray and fidelity.shape == (3,)
    else:
        fidelity = [linalg._trace_fidelity(IDENTITY, one) for one in ve]
        assert all(type(value) is float for value in fidelity)
    assert fidelity[0] == 1.0
    assert 1.0 + 1e-14 < fidelity[1] < 1.0 + 3e-14
    assert np.isnan(fidelity[2])


def test_projective_distance_zero_cases(rng):
    block = qubit_rotation(0.6, [0.3, 0.8, np.sqrt(1 - 0.73)])
    v = np.eye(3, dtype=complex)
    v[:2, :2] = block
    assert projective_distance_qubit(v, v) <= 1e-14
    w = v.copy()
    w[:2, :2] = np.exp(1j * np.pi / 7) * block
    assert projective_distance_qubit(v, w) <= 1e-12


def test_projective_distance_identity_vs_sigma_x():
    a = np.eye(3, dtype=complex)
    b = np.eye(3, dtype=complex)
    b[:2, :2] = 1j * np.array([[0, 1], [1, 0]])
    d = projective_distance_qubit(a, b)
    assert d >= 1 - 1e-12


def test_projective_distance_rejects_non_block_diagonal():
    u = linalg.expm(lambda_generator(0.8, 0.2, 0.1)[0], 0.4)  # mixes |e> with the qubit
    with pytest.raises(ContractViolation):
        projective_distance_qubit(u, np.eye(3, dtype=complex))


def test_pauli_dot_and_rotation():
    n = np.array([0.6, 0.0, 0.8])
    op = pauli_dot(n)
    np.testing.assert_allclose(op[:2, :2] @ op[:2, :2], np.eye(2), atol=1e-15)
    rot = qubit_rotation(np.pi / 2, n)
    np.testing.assert_allclose(rot, 1j * op[:2, :2], atol=1e-15)
