"""Shared test utilities and the reference implementations that the
package's routes are checked against, none of which the package runs:
seeded random matrices and couplings, the Kronecker-built spin operators
of the chain, the paper's factored-exchange-matrix oracle of the chain
propagator, the midpoint-rule time-ordered product of per-step
exponentials (the oracle of the star steps), the plain stepped oracle of
the amplitude-noise study, the Kraus-family process fidelity, the dense
and the bit-basis S_z-sector oracles of the hyperfine dephasing study, and
the one-gate-at-a-time oracles of the stacked invariants with the
Weyl-to-invariant map."""

import itertools
import math
from functools import lru_cache, reduce

import numpy as np

from spinholonomy import (
    ExchangeCouplings,
    HyperfineBath,
    PolarCouplings,
    WEYL_VERTICES,
    ZeroCoupling,
    analytic_entangler,
    build_hamiltonians,
    couplings_to_polar,
    entangling_power,
    expm_hermitian,
    square_pulse,
)
from spinholonomy.invariants import _PE_EQUATIONS, MAGIC_BASIS

_I2 = np.eye(2, dtype=np.complex128)
_SPIN = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128) / 2,
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128) / 2,
    np.array([[1, 0], [0, -1]], dtype=np.complex128) / 2,
)
_SITES = ("a", "1", "2")


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


# --- spin operators from Kronecker products: the chain-operator oracle ------

def spin_operators() -> dict[str, np.ndarray]:
    """Spin-1/2 operators, both local 2x2 and embedded in the chain.

    Returns a dict with the 2x2 ``sx``, ``sy``, ``sz``, ``sp`` (the raising
    operator ``|0><1|``) and their 8x8 embeddings ``sx_a``, ``sx_1``,
    ``sx_2`` and so on, under the site order (a, 1, 2): site ``a`` is the
    leftmost tensor factor.
    """
    sx, sy, sz = _SPIN
    ops = {"sx": sx, "sy": sy, "sz": sz, "sp": sx + 1j * sy}
    for pos, site in enumerate(_SITES):
        for name in ("sx", "sy", "sz", "sp"):
            factors = [_I2, _I2, _I2]
            factors[pos] = ops[name]
            ops[f"{name}_{site}"] = reduce(np.kron, factors)
    return ops


def kron_arm_hamiltonians(c: ExchangeCouplings) -> tuple[np.ndarray, np.ndarray]:
    """``j (Sx Sx + Sy Sy) + d (Sx Sy - Sy Sx)`` of arm 1 (sites 1, a) and
    of arm 2 (sites a, 2), from the embedded spin operators."""
    ops = spin_operators()
    arms = []
    for (first, second), j, d in ((("1", "a"), c.j1, c.d1), (("a", "2"), c.j2, c.d2)):
        sx1, sy1, sx2, sy2 = (ops[f"{n}_{s}"] for s in (first, second) for n in ("sx", "sy"))
        arms.append(j * (sx1 @ sx2 + sy1 @ sy2) + d * (sx1 @ sy2 - sy1 @ sx2))
    return arms[0], arms[1]


def ancilla_ground_projector() -> np.ndarray:
    """Projector onto the ancilla-|0> subspace (chain indices 0..3)."""
    p0 = np.zeros((8, 8), dtype=np.complex128)
    p0[:4, :4] = np.eye(4)
    return p0


def polar_to_couplings(p: PolarCouplings) -> ExchangeCouplings:
    """Inverse of ``couplings_to_polar``: ``alpha1 = omega e^(i phi1)
    cos(theta)`` and ``alpha2 = omega e^(i phi2) sin(theta)``."""
    a1 = p.omega * math.cos(p.theta) * np.exp(1j * p.phi1)
    a2 = p.omega * math.sin(p.theta) * np.exp(1j * p.phi2)
    return ExchangeCouplings(
        j1=2 * a1.real, j2=2 * a2.real, d1=2 * a1.imag, d2=2 * a2.imag
    )


# --- the paper's factored form: the chain propagator oracle -----------------
#
# ``H = S+_(a) (x) W + h.c.``: the 4x4 exchange matrix ``W`` acts on the
# register pair and has the closed-form SVD ``W = V0 diag(0, 0, omega,
# omega) V1^dag``, whose column phases the holonomic gate depends on.

def exchange_matrix(c: ExchangeCouplings) -> np.ndarray:
    """The 4x4 exchange matrix W acting on the register pair |s1 s2>."""
    a1, a2 = c.alpha1, c.alpha2
    w = np.zeros((4, 4), dtype=np.complex128)
    w[1, 0] = a2
    w[2, 0] = np.conj(a1)
    w[3, 1] = np.conj(a1)
    w[3, 2] = a2
    return w


def polar_or_zero(c: ExchangeCouplings) -> PolarCouplings:
    """Polar couplings, with the theta = 0 convention when all vanish."""
    try:
        return couplings_to_polar(c)
    except ZeroCoupling:
        return PolarCouplings(omega=0.0, theta=0.0, phi1=0.0, phi2=0.0)


def closed_form_factors(p: PolarCouplings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form SVD factors (v0, t, v1) with W = v0 @ t @ dagger(v1)."""
    cos_t, sin_t = math.cos(p.theta), math.sin(p.theta)
    e1, e2 = np.exp(1j * p.phi1), np.exp(1j * p.phi2)
    v0 = np.array(
        [
            [1, 0, 0, 0],
            [0, e1 * cos_t, 0, e2 * sin_t],
            [0, -np.conj(e2) * sin_t, 0, np.conj(e1) * cos_t],
            [0, 0, 1, 0],
        ],
        dtype=np.complex128,
    )
    v1 = np.array(
        [
            [0, 0, 0, 1],
            [0, e2 * sin_t, e1 * cos_t, 0],
            [0, -np.conj(e1) * cos_t, np.conj(e2) * sin_t, 0],
            [1, 0, 0, 0],
        ],
        dtype=np.complex128,
    )
    t = np.diag([0.0, 0.0, p.omega, p.omega]).astype(np.complex128)
    return v0, t, v1


def svd_propagator(c: ExchangeCouplings, area: float) -> np.ndarray:
    """``exp(-1j * area * H)`` from the SVD factors, as the double sum over
    ancilla blocks ``sum_{k,l} i^|k-l| |l><k| (x) V_l cos(a T + |k-l| pi/2)
    V_k^dag``."""
    v0, t, v1 = closed_form_factors(polar_or_zero(c))
    t = np.diag(t).real
    factors = (v0, v1)
    u = np.zeros((8, 8), dtype=np.complex128)
    for k in range(2):
        for l in range(2):
            unit = np.zeros((2, 2), dtype=np.complex128)
            unit[l, k] = 1.0
            phases = np.cos(area * t + abs(k - l) * math.pi / 2)
            block = factors[l] @ np.diag(phases).astype(np.complex128) @ factors[k].conj().T
            u += (1j) ** abs(k - l) * np.kron(unit, block)
    return u


def propagator_time_ordered(h_parts, duration: float, steps: int = 200) -> np.ndarray:
    """Midpoint-rule time-ordered product of per-step exponentials.

    ``h_parts`` is a sequence of ``(h_p, envelope_p)``: each step
    exponentiates ``sum_p envelope_p(t_mid) h_p`` sampled at the step
    midpoint, and the step unitaries are multiplied in time order.  A run
    of consecutive steps whose samples coincide (square pulses, plateaus)
    is one exponential over the run's width, exact for a constant
    generator.
    """
    dt = duration / steps
    samples = [tuple(float(env((i + 0.5) * dt)) for _, env in h_parts) for i in range(steps)]
    matrices = [np.asarray(h, dtype=np.complex128) for h, _ in h_parts]
    u = np.eye(len(matrices[0]), dtype=np.complex128)
    for values, run in itertools.groupby(samples):
        h = sum(c * m for c, m in zip(values, matrices))
        u = expm_hermitian(h, len(list(run)) * dt) @ u
    return u


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


def kraus_fidelity(target, kraus: np.ndarray) -> float:
    """Process fidelity ``sum_k |tr(V^dag M_k)|^2 / 16`` of a ``(K, 8, 8)``
    Kraus family against the register gate ``target``, ``M_k`` the
    ancilla-|0> blocks."""
    overlaps = np.einsum("sp,ksp->k", target.matrix.conj(), kraus[:, :4, :4])
    return float(np.sum(np.abs(overlaps) ** 2) / 16.0)


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
    :func:`propagator_time_ordered`, then every Kraus operator
    ``M_ij = <j|U|i> / sqrt(d_b)`` through :func:`kraus_fidelity`."""
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
    return kraus_fidelity(target, kraus)


def dense_pulse_generator(bath: HyperfineBath, couplings: ExchangeCouplings) -> np.ndarray:
    """The constant generator ``amp * H0 (x) 1 + A * H_hf`` of the square
    pulse calibrated cyclic over ``bath.op_time``, dense in the bit basis."""
    amplitude = math.pi / (bath.op_time * couplings_to_polar(couplings).omega)
    h_chain = np.kron(build_hamiltonians(couplings).h_eff, np.eye(bath.bath_dim))
    return amplitude * h_chain + dense_hyperfine_hamiltonian(bath)


def dense_hyperfine_kraus(bath: HyperfineBath, couplings: ExchangeCouplings) -> np.ndarray:
    """The ``d_b**2`` bit-basis Kraus operators ``M_ij = <j|U|i> / sqrt(d_b)``
    of one pulse, U from one exponential of the dense generator."""
    d_b = bath.bath_dim
    u = expm_hermitian(dense_pulse_generator(bath, couplings), bath.op_time)
    u4 = u.reshape(8, d_b, 8, d_b)
    return np.transpose(u4, (1, 3, 0, 2)).reshape(d_b * d_b, 8, 8) / math.sqrt(d_b)


def choi_matrix(kraus: np.ndarray) -> np.ndarray:
    """``sum_k vec(K_k) vec(K_k)^dag``: equal for two Kraus families exactly
    when they describe the same channel."""
    vec = kraus.reshape(len(kraus), -1)
    return vec.T @ vec.conj()


# --- bit-basis S_z sectors: the N = 3 dephasing oracle ----------------------
#
# Index ``c * 2**(3N) + b`` is ``|chain c> (x) |bath b>``; site ``p`` of the
# ``3 + 3N`` (a, 1, 2, then the nuclei by electron) is bit ``2 + 3N - p``,
# and bit 1 is spin down.

def _sector_contact(states: np.ndarray, nuclei: int) -> np.ndarray:
    """Sector block of ``sum_{l,k} (1/N) S^(l) . I^(l,k)``: +1/4 on aligned
    and -1/4 on opposite spins, exchange of opposite spins with 1/2."""
    sites = 3 + 3 * nuclei
    block = np.zeros((len(states), len(states)))
    diag = np.zeros(len(states))
    for l in range(3):
        for k in range(nuclei):
            e_bit = sites - 1 - l
            n_bit = sites - 4 - l * nuclei - k
            opposite = ((states >> e_bit) ^ (states >> n_bit)) & 1
            diag += 0.25 - 0.5 * opposite
            flip = np.flatnonzero(opposite)
            swapped = states[flip] ^ ((1 << e_bit) | (1 << n_bit))
            block[np.searchsorted(states, swapped), flip] = 0.5
    np.fill_diagonal(block, diag)
    return block / nuclei


def sector_dephasing_fidelity(bath: HyperfineBath, couplings: ExchangeCouplings) -> float:
    """Process fidelity of one calibrated square pulse under the bath, by one
    exponential per total-S_z sector of the bit basis (at most 924 states at
    N = 3) and the overlap ``O[j, i] = sum_ss' conj(V[s, s']) <s, j|U|s', i>``,
    ``F = ||O||^2 / (16 d_b)``."""
    n, d_b = bath.nuclei_per_electron, bath.bath_dim
    bits = 3 * n
    polar = couplings_to_polar(couplings)
    target = analytic_entangler(polar.theta, polar.phi1, polar.phi2).matrix
    amplitude = math.pi / (bath.op_time * polar.omega)
    h0 = build_hamiltonians(couplings).h_eff
    index = np.arange(8 * d_b)
    down = sum((index >> p) & 1 for p in range(3 + bits))
    overlap = np.zeros(d_b * d_b, dtype=np.complex128)
    for k in range(4 + bits):
        states = np.flatnonzero(down == k)
        chain, b = states >> bits, states & (d_b - 1)
        drive = np.where(b[:, None] == b[None, :], h0[np.ix_(chain, chain)], 0.0)
        generator = amplitude * drive + bath.total_coupling * _sector_contact(states, n)
        u = expm_hermitian(generator, bath.op_time)
        register = np.flatnonzero(chain < 4)
        pair = (b[register][:, None] << bits) | b[register][None, :]
        weight = target.conj()[np.ix_(chain[register], chain[register])]
        np.add.at(overlap, pair, weight * u[np.ix_(register, register)])
    return float(np.vdot(overlap, overlap).real / (16.0 * d_b))


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


def invariants_from_weyl(c1: float, c2: float, c3: float) -> tuple[complex, float]:
    """(G1, G2) evaluated from canonical coordinates.

    ``G1 = (1/4) [e^{+i c3} cos(c1 - c2) + e^{-i c3} cos(c1 + c2)]^2`` and
    ``G2 = cos(2 c1) + cos(2 c2) + cos(2 c3)``.
    """
    g1 = 0.25 * (
        np.exp(1j * c3) * math.cos(c1 - c2) + np.exp(-1j * c3) * math.cos(c1 + c2)
    ) ** 2
    g2 = math.cos(2 * c1) + math.cos(2 * c2) + math.cos(2 * c3)
    return complex(g1), g2


def gate_metrics_oracle(u: np.ndarray) -> tuple:
    """(g1, g2, weyl, ep, class) of one gate by the oracles above."""
    g1, g2 = makhlin_oracle(u)
    weyl = weyl_oracle(u)
    return g1, g2, weyl, entangling_power(g1), classify_oracle(weyl)
