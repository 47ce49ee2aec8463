import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    ancilla_ground_projector,
    closed_form_factors,
    exchange_matrix,
    kron_arm_hamiltonians,
    polar_or_zero,
    polar_to_couplings,
    random_couplings,
    spin_operators,
)
from spinholonomy import (
    ExchangeCouplings,
    ZeroCoupling,
    arm_hamiltonians,
    build_hamiltonians,
    couplings_to_polar,
)
from spinholonomy.linalg import hermiticity_defect, max_abs, unitarity_defect
from spinholonomy.spin_chain import STARS, _embed_stars, _star_couplings


def test_raising_operator_action():
    ops = spin_operators()
    up = np.array([1, 0], dtype=complex)
    down = np.array([0, 1], dtype=complex)
    assert max_abs(ops["sp"] @ down - up) == 0  # S+|1> = |0>
    assert max_abs(ops["sp"] @ up) == 0  # S+|0> = 0


def test_site_embedding_order():
    ops = spin_operators()
    # ancilla is the leftmost factor
    assert max_abs(ops["sx_a"] - np.kron(ops["sx"], np.eye(4))) == 0
    assert max_abs(ops["sx_2"] - np.kron(np.eye(4), ops["sx"])) == 0
    assert max_abs(ops["sz_1"] - np.kron(np.kron(np.eye(2), ops["sz"]), np.eye(2))) == 0


def test_polar_symmetric_couplings():
    p = couplings_to_polar(ExchangeCouplings(j1=1.7, j2=1.7))
    assert abs(p.theta - math.pi / 4) <= 1e-15
    assert p.phi1 == 0.0 and p.phi2 == 0.0
    assert abs(p.omega - 1.7 / math.sqrt(2)) <= 1e-15


def test_polar_single_arm():
    p = couplings_to_polar(ExchangeCouplings(j1=2.0, j2=0.0))
    assert p.theta == 0.0


def test_polar_pure_dm_second_arm():
    # alpha1 = 0, alpha2 = i D / 2: theta = pi/2, phi2 = pi/2, omega = D/2.
    d = 0.8
    p = couplings_to_polar(ExchangeCouplings(0.0, 0.0, 0.0, d))
    assert abs(p.theta - math.pi / 2) <= 1e-15
    assert abs(p.phi2 - math.pi / 2) <= 1e-15
    assert abs(p.omega - d / 2) <= 1e-15


def test_polar_rejects_zero_couplings():
    with pytest.raises(ZeroCoupling):
        couplings_to_polar(ExchangeCouplings(0.0, 0.0, 0.0, 0.0))


def test_polar_round_trip(rng):
    for _ in range(200):
        c = random_couplings(rng)
        back = polar_to_couplings(couplings_to_polar(c))
        for field in ("j1", "j2", "d1", "d2"):
            assert abs(getattr(back, field) - getattr(c, field)) <= 1e-12


def test_hamiltonian_hermitian(rng):
    for _ in range(1000):
        ham = build_hamiltonians(random_couplings(rng, min_omega=0.0))
        assert hermiticity_defect(ham.h_eff) <= 1e-14


def test_block_structure_and_projector(rng):
    p0 = ancilla_ground_projector()
    sigma_z = np.kron(np.diag([1.0, -1.0]), np.eye(4)).astype(complex)
    for _ in range(1000):
        ham = build_hamiltonians(random_couplings(rng, min_omega=0.0))
        # no matrix elements inside the ancilla-|0> subspace
        assert max_abs(p0 @ ham.h_eff @ p0) <= 1e-14
        # ancilla parity flips the sign of the whole Hamiltonian
        assert max_abs(sigma_z @ ham.h_eff @ sigma_z + ham.h_eff) <= 1e-14


def test_h_eff_equals_block_form(rng):
    ops = spin_operators()
    for _ in range(200):
        c = random_couplings(rng, min_omega=0.0)
        w = exchange_matrix(c)
        block = np.kron(ops["sp"], w) + np.kron(ops["sp"].conj().T, w.conj().T)
        assert max_abs(build_hamiltonians(c).h_eff - block) <= 1e-14


def test_closed_form_factors_reconstruct_w(rng):
    for _ in range(1000):
        c = random_couplings(rng)
        v0, t, v1 = closed_form_factors(couplings_to_polar(c))
        assert max_abs(v0 @ t @ v1.conj().T - exchange_matrix(c)) <= 1e-12
        assert unitarity_defect(v0) <= 1e-12
        assert unitarity_defect(v1) <= 1e-12


def test_t_diag_matches_numeric_svd(rng):
    for _ in range(200):
        c = random_couplings(rng)
        t_diag = np.diag(closed_form_factors(couplings_to_polar(c))[1]).real
        omega = couplings_to_polar(c).omega
        assert tuple(t_diag) == (0.0, 0.0, omega, omega)
        s = np.linalg.svd(exchange_matrix(c), compute_uv=False)
        assert np.allclose(sorted(s), sorted(t_diag), atol=1e-12)


def test_arm_hamiltonians_sum_to_h_eff(rng):
    for _ in range(100):
        c = random_couplings(rng, min_omega=0.0)
        h1, h2 = arm_hamiltonians(c)
        assert max_abs(h1 + h2 - build_hamiltonians(c).h_eff) <= 1e-14


COUPLING = st.floats(allow_nan=False, allow_infinity=False)


@given(st.builds(ExchangeCouplings, COUPLING, COUPLING, COUPLING, COUPLING))
def test_arm_hamiltonians_equal_kron_built_spin_operators(c):
    # The arm operators are written on the stars; the Kronecker-built
    # j (Sx Sx + Sy Sy) + d (Sx Sy - Sy Sx) of each arm is the oracle.
    for got, want in zip(arm_hamiltonians(c), kron_arm_hamiltonians(c)):
        assert max_abs(got - want) == 0


def test_arm_hamiltonians_vanish_outside_the_stars(rng):
    # Arm k couples only its leaf to the center of each star: every other
    # entry, the diagonal and |000>, |111> included, is exactly zero.
    for _ in range(100):
        c = random_couplings(rng, min_omega=0.0)
        for arm, h in enumerate(arm_hamiltonians(c), start=1):
            inside = np.zeros((8, 8), dtype=bool)
            for star in STARS:
                inside[star[arm], star[0]] = inside[star[0], star[arm]] = True
            assert np.all(h[~inside] == 0)
            assert hermiticity_defect(h) == 0


@pytest.mark.parametrize("fill", [0.0, 1.0])
def test_embed_stars_round_trip(rng, fill):
    # Star blocks land on the STARS entries, the idle |000> and |111> get
    # the fill, and the leaf couplings read back as the blocks' first column.
    blocks = rng.standard_normal((5, 2, 3, 3)) + 1j * rng.standard_normal((5, 2, 3, 3))
    full = _embed_stars(blocks, fill)
    for k in range(5):
        assert np.array_equal(_star_couplings(full[k]), blocks[k, :, 1:, 0])
        for s, star in enumerate(STARS):
            assert np.array_equal(full[k][np.ix_(star, star)], blocks[k, s])
        inside = np.zeros((8, 8), dtype=bool)
        for star in STARS:
            inside[np.ix_(star, star)] = True
        assert np.array_equal(full[k][~inside], fill * np.eye(8)[~inside])


def test_zero_couplings_give_zero_hamiltonian():
    c = ExchangeCouplings(0.0, 0.0, 0.0, 0.0)
    assert max_abs(build_hamiltonians(c).h_eff) == 0
    v0, t, _ = closed_form_factors(polar_or_zero(c))
    assert max_abs(t) == 0
    assert unitarity_defect(v0) <= 1e-15
