"""Shared test utilities: seeded random matrices and couplings, and the
dense oracle of the hyperfine dephasing study."""

import math
from functools import lru_cache, reduce

import numpy as np

from spinholonomy import (
    ExchangeCouplings,
    HyperfineBath,
    QuantumChannel,
    analytic_entangler,
    build_hamiltonians,
    couplings_to_polar,
    process_fidelity,
    propagator_time_ordered,
    square_pulse,
)

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
