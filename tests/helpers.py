"""Shared test utilities: seeded random matrices and couplings, the
plain stepped oracle of the amplitude-noise study, the dense oracle of
the hyperfine dephasing study, and the one-gate-at-a-time oracles of the
stacked invariants."""

import itertools
import math
from functools import lru_cache, reduce

import numpy as np

from spinholonomy import (
    ExchangeCouplings,
    HyperfineBath,
    QuantumChannel,
    WEYL_VERTICES,
    analytic_entangler,
    build_hamiltonians,
    couplings_to_polar,
    entangling_power,
    expm_hermitian,
    process_fidelity,
    propagator_time_ordered,
    square_pulse,
)
from spinholonomy.invariants import _PE_EQUATIONS, MAGIC_BASIS

_I2 = np.eye(2, dtype=np.complex128)
_SPIN = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128) / 2,
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128) / 2,
    np.array([[1, 0], [0, -1]], dtype=np.complex128) / 2,
)


def haar_unitary(rng, n: int) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_stack(rng, p: int) -> np.ndarray:
    """``(p, 4, 4)`` stack of Haar-random two-qubit unitaries."""
    z = (rng.standard_normal((p, 4, 4)) + 1j * rng.standard_normal((p, 4, 4))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def random_matrix(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_couplings(rng, min_omega: float = 0.1) -> ExchangeCouplings:
    """Random couplings with omega bounded away from zero."""
    while True:
        c = ExchangeCouplings(*rng.uniform(-2.0, 2.0, size=4))
        if couplings_to_polar(c).omega >= min_omega:
            return c


def local_product(rng) -> np.ndarray:
    """Random single-qubit-only two-qubit unitary k1 (x) k2."""
    return np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))


def stepped_amplitude_fidelity(
    couplings: ExchangeCouplings, pulse, ratio1: float, ratio2: float, steps: int = 200
) -> float:
    """Fidelity of one amplitude-noise point by a plain midpoint product:
    one exponential per step, no shared steps, arms built from single-arm
    couplings, fidelity ``|tr(V^dag M)|^2 / 16`` of the ancilla-|0> block."""
    h1 = build_hamiltonians(ExchangeCouplings(couplings.j1, 0.0, couplings.d1, 0.0)).h_eff
    h2 = build_hamiltonians(ExchangeCouplings(0.0, couplings.j2, 0.0, couplings.d2)).h_eff
    delta1 = 0.0 if math.isinf(ratio1) else pulse.amplitude / ratio1
    delta2 = 0.0 if math.isinf(ratio2) else pulse.amplitude / ratio2
    dt = pulse.duration / steps
    u = np.eye(8, dtype=np.complex128)
    for i in range(steps):
        e = pulse.envelope((i + 0.5) * dt)
        u = expm_hermitian((e + delta1) * h1 + (e + delta2) * h2, dt) @ u
    polar = couplings_to_polar(couplings)
    target = analytic_entangler(polar.theta, polar.phi1, polar.phi2).matrix
    return float(abs(np.vdot(target, u[:4, :4])) ** 2 / 16.0)


def dense_hyperfine_hamiltonian(bath: HyperfineBath) -> np.ndarray:
    """Contact term ``sum_{l,k} (A/N) S^(l) . I^(l,k)`` from 2x2 Kronecker factors.

    Tensor order: the chain sites (a, 1, 2), then nucleus ``k`` of electron
    ``l`` at position ``3 + l*N + k``.
    """
    return (bath.total_coupling / bath.nuclei_per_electron) * _dense_contact_sum(
        bath.nuclei_per_electron
    )


@lru_cache(maxsize=None)
def _dense_contact_sum(n: int) -> np.ndarray:
    sites = 3 + 3 * n
    total = np.zeros((2**sites, 2**sites), dtype=np.complex128)
    for l in range(3):
        for k in range(n):
            for op in _SPIN:
                factors = [_I2] * sites
                factors[l] = factors[3 + l * n + k] = op
                total += reduce(np.kron, factors)
    total.setflags(write=False)
    return total


def dense_dephasing_fidelity(
    bath: HyperfineBath, couplings: ExchangeCouplings, steps: int = 200
) -> float:
    """Process fidelity of one calibrated square pulse under the bath, by the
    dense route: the full chain-plus-bath generator parts stepped through
    ``propagator_time_ordered``, then every Kraus operator
    ``M_ij = <j|U|i> / sqrt(d_b)`` through ``process_fidelity``."""
    polar = couplings_to_polar(couplings)
    pulse = square_pulse(math.pi / (bath.op_time * polar.omega), bath.op_time)
    d_b = bath.bath_dim
    h_chain = np.kron(build_hamiltonians(couplings).h_eff, np.eye(d_b))
    u = propagator_time_ordered(
        [(h_chain, pulse.envelope), (dense_hyperfine_hamiltonian(bath), lambda t: 1.0)],
        pulse.duration,
        steps,
    )
    u4 = u.reshape(8, d_b, 8, d_b)
    kraus = np.transpose(u4, (1, 3, 0, 2)).reshape(d_b * d_b, 8, 8) / math.sqrt(d_b)
    target = analytic_entangler(polar.theta, polar.phi1, polar.phi2)
    return process_fidelity(target, QuantumChannel(kraus=kraus))


def symmetric_couplings(scale: float, phi1: float, phi2: float) -> ExchangeCouplings:
    """theta = pi/4 couplings: equal |alpha| on both arms, DM angles phi1, phi2."""
    return ExchangeCouplings(
        j1=scale * math.cos(phi1),
        j2=scale * math.cos(phi2),
        d1=scale * math.sin(phi1),
        d2=scale * math.sin(phi2),
    )


# --- one gate at a time: the invariants -------------------------------------

def _magic_gram(u: np.ndarray) -> np.ndarray:
    ub = MAGIC_BASIS.conj().T @ u @ MAGIC_BASIS
    return ub.T @ ub


def makhlin_oracle(u: np.ndarray) -> tuple[complex, float]:
    """(G1, G2) of one 4x4 unitary, in numpy scalar arithmetic."""
    det = np.linalg.det(u)
    m = _magic_gram(u)
    tr = np.trace(m)
    g1 = tr * tr / (16.0 * det)
    g2 = (tr * tr - np.trace(m @ m)) / (4.0 * det)
    return complex(g1), float(g2.real)


def _wrap_half_turn(x: float) -> float:
    y = x % math.pi
    if y >= math.pi - 1e-12:
        y -= math.pi
    return y


def _in_chamber(c, tol: float = 1e-9) -> bool:
    c1, c2, c3 = c
    if not (c1 >= c2 - tol and c2 >= c3 - tol and c3 >= -tol):
        return False
    if c1 + c2 > math.pi + tol:
        return False
    if c3 <= tol and c1 > math.pi / 2 + tol:
        return False
    return True


_SIGN_PATTERNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def weyl_oracle(u: np.ndarray) -> tuple[float, float, float]:
    """Canonical Weyl point of one 4x4 unitary: the 24 orbit candidates
    visited in a loop, the lexicographically largest chamber member kept."""
    u_su = u / np.linalg.det(u) ** 0.25
    lam = np.sort(np.angle(np.linalg.eigvals(_magic_gram(u_su))) / 2.0)
    raw = (lam[0] + lam[1], lam[1] + lam[2], lam[0] + lam[2])
    best = None
    for perm in itertools.permutations(range(3)):
        for signs in _SIGN_PATTERNS:
            cand = tuple(_wrap_half_turn(signs[i] * raw[perm[i]]) for i in range(3))
            if _in_chamber(cand) and (best is None or cand > best):
                best = cand
    return tuple(float(min(max(x, 0.0), math.pi)) for x in best)


def _on_segment(p, a, b, tol: float) -> bool:
    p, a, b = (np.asarray(v, dtype=float) for v in (p, a, b))
    ab = b - a
    t = float(np.dot(p - a, ab) / np.dot(ab, ab))
    t = min(max(t, 0.0), 1.0)
    return float(np.linalg.norm(p - (a + t * ab))) <= tol


def classify_oracle(weyl) -> str:
    """Entangler class of one canonical Weyl point, test by test."""
    c = tuple(float(x) for x in weyl)
    assert _in_chamber(c)
    l_vertex, a2 = WEYL_VERTICES["L"], WEYL_VERTICES["A2"]
    if _on_segment(c, l_vertex, a2, 1e-9) and not (
        float(np.linalg.norm(np.subtract(c, l_vertex))) <= 1e-9
    ):
        return "special_perfect"
    if np.all(_PE_EQUATIONS @ np.append(c, 1.0) <= 1e-9):
        return "perfect"
    if all(abs(x) <= 1e-9 for x in c):
        return "local"
    return "entangling"


def gate_metrics_oracle(u: np.ndarray) -> tuple:
    """(g1, g2, weyl, ep, class) of one gate by the oracles above."""
    g1, g2 = makhlin_oracle(u)
    weyl = weyl_oracle(u)
    return g1, g2, weyl, entangling_power(g1), classify_oracle(weyl)
