import numpy as np
import pytest

from helpers import exchange_matrix, random_matrix
from spinholonomy import ExchangeCouplings, NonHermitianInput, expm_hermitian
from spinholonomy.linalg import max_abs, unitarity_defect

SZ = np.array([[1, 0], [0, -1]], dtype=complex)


# --- expm_hermitian ---------------------------------------------------

def test_expm_zero_matrix_gives_identity():
    assert max_abs(expm_hermitian(np.zeros((4, 4)), 123.4) - np.eye(4)) <= 1e-15


def test_expm_diagonal_generator():
    got = expm_hermitian(SZ, np.pi / 2)
    want = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
    assert max_abs(got - want) <= 1e-15


def test_expm_matches_stepped_product_oracle(rng):
    # Brute-force time-ordered oracle: 200 equal-area steps multiplied in
    # order, independently of the eigendecomposition route.
    h = exchange_matrix(ExchangeCouplings(1.3, -0.4, 0.2, 0.9))
    h0 = np.zeros((8, 8), dtype=complex)
    h0[:4, 4:] = h.conj().T
    h0[4:, :4] = h
    area = 2.7
    steps = 200
    step = expm_hermitian(h0, area / steps)
    oracle = np.eye(8, dtype=complex)
    for _ in range(steps):
        oracle = step @ oracle
    assert max_abs(expm_hermitian(h0, area) - oracle) <= 1e-8


def test_expm_output_unitary(rng):
    for _ in range(100):
        a = random_matrix(rng, 8)
        h = (a + a.conj().T) / 2
        u = expm_hermitian(h, rng.uniform(-5, 5))
        assert unitarity_defect(u) <= 1e-12


def test_expm_rejects_non_hermitian(rng):
    with pytest.raises(NonHermitianInput):
        expm_hermitian(random_matrix(rng, 4), 1.0)


def test_expm_stack_equals_per_matrix_calls(rng):
    a = np.stack([random_matrix(rng, 8) for _ in range(6)]).reshape(2, 3, 8, 8)
    h = (a + np.swapaxes(a.conj(), -1, -2)) / 2
    got = expm_hermitian(h, 0.37)
    assert got.shape == h.shape
    for index in np.ndindex(2, 3):
        assert np.array_equal(got[index], expm_hermitian(h[index], 0.37))


def test_expm_stack_rejects_one_non_hermitian_member(rng):
    a = np.stack([random_matrix(rng, 4) for _ in range(5)])
    h = (a + np.swapaxes(a.conj(), -1, -2)) / 2
    h[3, 0, 1] += 1e-6
    with pytest.raises(NonHermitianInput):
        expm_hermitian(h, 1.0)


def test_expm_rejects_nan_matrix():
    with pytest.raises(NonHermitianInput, match="non-finite"):
        expm_hermitian(np.full((2, 2), np.nan), 1.0)


def test_expm_stack_rejects_one_nan_member(rng):
    a = np.stack([random_matrix(rng, 8) for _ in range(3)])
    h = (a + np.swapaxes(a.conj(), -1, -2)) / 2
    h[1, 2, 2] = np.nan
    with pytest.raises(NonHermitianInput, match="non-finite"):
        expm_hermitian(h, 1.0)


# --- exchange matrix --------------------------------------------------

def test_svd_exchange_matrix_singular_values(rng):
    # Any couplings give singular values (omega, omega, 0, 0).
    for _ in range(50):
        j1, j2, d1, d2 = rng.uniform(-2, 2, size=4)
        w = exchange_matrix(ExchangeCouplings(j1, j2, d1, d2))
        omega = np.hypot(abs(j1 + 1j * d1) / 2, abs(j2 + 1j * d2) / 2)
        s = np.linalg.svd(w, compute_uv=False)
        assert np.allclose(s, [omega, omega, 0, 0], atol=1e-12)
