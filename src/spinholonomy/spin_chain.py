"""Three-spin chain: two register qubits coupled through a middle ancilla.

The chain Hamiltonian is an anisotropic XY exchange plus an antisymmetric
Dzyaloshinskii-Moriya (DM) term on each of the two arms.  Conventions used
throughout the package:

* natural units, hbar = 1; couplings are angular frequencies;
* spin operators are S = sigma / 2 with ``|0> = spin-up``;
* basis order ``|s_a s_1 s_2>`` enumerated lexicographically 000..111,
  with the ancilla as the leftmost tensor factor.

With those conventions the chain Hamiltonian is block off-diagonal in the
ancilla: ``H = S+_(a) (x) W + h.c.`` where the 4x4 exchange matrix ``W``
acts on the register pair and carries the complex couplings
``alpha_k = (J_k + i D_k) / 2``.  ``W`` has the closed-form singular value
decomposition ``W = V0 @ diag(0, 0, omega, omega) @ dagger(V1)`` whose
factors are assembled here explicitly; the generic numeric SVD is used only
to validate them, since the holonomic gate depends on the specific column
phases of ``V0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroCoupling
from .linalg import CMatrix, kron

_I2 = np.eye(2, dtype=np.complex128)
_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128) / 2
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128) / 2
_SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128) / 2
_SP = _SX + 1j * _SY  # |0><1|, ancilla raising operator

_SITES = ("a", "1", "2")
_LOCAL = {"sx": _SX, "sy": _SY, "sz": _SZ, "sp": _SP}


@dataclass(frozen=True)
class ExchangeCouplings:
    """The four real exchange strengths (angular frequencies).

    ``j1``/``j2`` are the XY strengths of the two arms, ``d1``/``d2`` the
    z-axis DM strengths.  All four may not vanish simultaneously when the
    couplings are used to build a gate.
    """

    j1: float
    j2: float
    d1: float = 0.0
    d2: float = 0.0

    @property
    def alpha1(self) -> complex:
        return 0.5 * (self.j1 + 1j * self.d1)

    @property
    def alpha2(self) -> complex:
        return 0.5 * (self.j2 + 1j * self.d2)


@dataclass(frozen=True)
class PolarCouplings:
    """Polar form of the complex couplings.

    ``alpha1 = omega * exp(i phi1) * cos(theta)`` and
    ``alpha2 = omega * exp(i phi2) * sin(theta)`` with ``omega >= 0``,
    ``theta`` in [0, pi/2] and phases in (-pi, pi].  ``theta`` is the single
    control parameter the entangling character of the gate depends on.
    """

    omega: float
    theta: float
    phi1: float
    phi2: float

    @property
    def alpha1(self) -> complex:
        return self.omega * math.cos(self.theta) * np.exp(1j * self.phi1)

    @property
    def alpha2(self) -> complex:
        return self.omega * math.sin(self.theta) * np.exp(1j * self.phi2)


@dataclass(frozen=True, eq=False)
class HamiltonianSet:
    """The 8x8 chain generator and the factored exchange matrix.

    ``h_eff`` is the sum of the two arm Hamiltonians and the
    time-independent generator; during a pulse the instantaneous
    Hamiltonian is ``envelope(t) * h_eff``.  ``t_diag`` is
    ``(0, 0, omega, omega)``.
    """

    h_eff: CMatrix
    w: CMatrix
    v0: CMatrix
    t_diag: tuple[float, float, float, float]
    v1: CMatrix


def build_spin_operators() -> dict[str, CMatrix]:
    """Spin-1/2 operators, both local 2x2 and embedded in the chain.

    Returns a dict with the 2x2 ``sx``, ``sy``, ``sz``, ``sp`` and their
    8x8 embeddings ``sx_a``, ``sx_1``, ``sx_2`` and so on, under the site
    order (a, 1, 2): site ``a`` is the leftmost tensor factor.
    """
    ops: dict[str, CMatrix] = dict(_LOCAL)
    for pos, site in enumerate(_SITES):
        for name, local in _LOCAL.items():
            factors = [_I2, _I2, _I2]
            factors[pos] = local
            ops[f"{name}_{site}"] = kron(kron(factors[0], factors[1]), factors[2])
    return ops


def _coupling_operators() -> list[CMatrix]:
    """XY ``Sx Sx + Sy Sy`` and DM ``Sx Sy - Sy Sx`` operators of arm 1
    (sites 1, a), then of arm 2 (sites a, 2)."""
    ops = build_spin_operators()
    terms = []
    for first, second in (("1", "a"), ("a", "2")):
        sx1, sy1, sx2, sy2 = (ops[f"{n}_{s}"] for s in (first, second) for n in ("sx", "sy"))
        terms += [sx1 @ sx2 + sy1 @ sy2, sx1 @ sy2 - sy1 @ sx2]
    return terms


# Read-only by convention: arm_hamiltonians only scales and adds these.
_XY1, _DM1, _XY2, _DM2 = _coupling_operators()

#: (center, arm-1 leaf, arm-2 leaf) of the two S_z sectors the arms act on:
#: each arm couples only its leaf to the center; |000> and |111> are idle.
STARS = ((4, 2, 1), (3, 5, 6))


def couplings_to_polar(c: ExchangeCouplings) -> PolarCouplings:
    """Polar form (omega, theta, phi1, phi2) of the couplings.

    Raises
    ------
    ZeroCoupling
        If all four couplings vanish (omega = 0), where theta and the
        phases are undefined.
    """
    a1, a2 = c.alpha1, c.alpha2
    omega = math.hypot(abs(a1), abs(a2))
    if omega == 0.0:
        raise ZeroCoupling("all exchange couplings vanish; omega = 0")
    theta = math.atan2(abs(a2), abs(a1))
    phi1 = float(np.angle(a1)) if a1 != 0 else 0.0
    phi2 = float(np.angle(a2)) if a2 != 0 else 0.0
    return PolarCouplings(omega=omega, theta=theta, phi1=phi1, phi2=phi2)


def polar_to_couplings(p: PolarCouplings) -> ExchangeCouplings:
    """Inverse of :func:`couplings_to_polar`."""
    a1, a2 = p.alpha1, p.alpha2
    return ExchangeCouplings(
        j1=2 * a1.real, j2=2 * a2.real, d1=2 * a1.imag, d2=2 * a2.imag
    )


def exchange_matrix(c: ExchangeCouplings) -> CMatrix:
    """The 4x4 exchange matrix W acting on the register pair |s1 s2>."""
    a1, a2 = c.alpha1, c.alpha2
    w = np.zeros((4, 4), dtype=np.complex128)
    w[1, 0] = a2
    w[2, 0] = np.conj(a1)
    w[3, 1] = np.conj(a1)
    w[3, 2] = a2
    return w


def closed_form_factors(p: PolarCouplings) -> tuple[CMatrix, CMatrix, CMatrix]:
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


def build_hamiltonians(c: ExchangeCouplings) -> HamiltonianSet:
    """Assemble the chain generator and the factored exchange matrix.

    ``h_eff`` is built term by term from the embedded spin operators (see
    :func:`arm_hamiltonians`); the block identity
    ``h_eff == kron(sp, w) + h.c.`` is a tested invariant rather than the
    construction route.  The degenerate all-zero coupling case yields zero
    matrices with the theta = 0 convention for the factors.
    """
    h1, h2 = arm_hamiltonians(c)
    try:
        polar = couplings_to_polar(c)
    except ZeroCoupling:
        polar = PolarCouplings(omega=0.0, theta=0.0, phi1=0.0, phi2=0.0)
    v0, t, v1 = closed_form_factors(polar)
    return HamiltonianSet(
        h_eff=h1 + h2,
        w=exchange_matrix(c),
        v0=v0,
        t_diag=(0.0, 0.0, polar.omega, polar.omega),
        v1=v1,
    )


def ancilla_ground_projector() -> CMatrix:
    """Projector onto the ancilla-|0> subspace (chain indices 0..3)."""
    p0 = np.zeros((8, 8), dtype=np.complex128)
    p0[:4, :4] = np.eye(4)
    return p0


def arm_hamiltonians(c: ExchangeCouplings) -> tuple[CMatrix, CMatrix]:
    """The two arm Hamiltonians (ancilla-register-1, ancilla-register-2).

    ``j_k * XY_k + d_k * DM_k`` for arm ``k``.  Their sum is ``h_eff``;
    they do not commute, which is what makes independent arm-amplitude
    noise nontrivial.
    """
    return c.j1 * _XY1 + c.d1 * _DM1, c.j2 * _XY2 + c.d2 * _DM2


__all__ = [
    "ExchangeCouplings",
    "PolarCouplings",
    "HamiltonianSet",
    "build_spin_operators",
    "couplings_to_polar",
    "polar_to_couplings",
    "exchange_matrix",
    "closed_form_factors",
    "build_hamiltonians",
    "ancilla_ground_projector",
    "arm_hamiltonians",
    "STARS",
]
