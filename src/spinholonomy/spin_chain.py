"""Three-spin chain: two register qubits coupled through a middle ancilla.

The chain Hamiltonian is an anisotropic XY exchange plus an antisymmetric
Dzyaloshinskii-Moriya (DM) term on each of the two arms.  Conventions used
throughout the package:

* natural units, hbar = 1; couplings are angular frequencies;
* spin operators are S = sigma / 2 with ``|0> = spin-up``;
* basis order ``|s_a s_1 s_2>`` enumerated lexicographically 000..111,
  with the ancilla as the leftmost tensor factor.

With those conventions the chain Hamiltonian is block off-diagonal in the
ancilla and conserves total S_z: it couples only the centers and leaves of
the two 3-state "stars" of :data:`STARS`, with the complex couplings
``alpha_k = (J_k + i D_k) / 2`` on their arms, so each star's leaf
couplings ``b`` have norm ``omega = sqrt(|alpha1|^2 + |alpha2|^2)``.  The
paper's factored form, the exchange matrix ``W`` with its closed-form
singular value decomposition, is kept in the tests as an independent
oracle of the propagator.
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
    """The 8x8 chain generator.

    ``h_eff`` is the sum of the two arm Hamiltonians and the
    time-independent generator; during a pulse the instantaneous
    Hamiltonian is ``envelope(t) * h_eff``.
    """

    h_eff: CMatrix


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


def build_hamiltonians(c: ExchangeCouplings) -> HamiltonianSet:
    """Assemble the chain generator term by term from the embedded spin
    operators (see :func:`arm_hamiltonians`); all-zero couplings give the
    zero matrix."""
    h1, h2 = arm_hamiltonians(c)
    return HamiltonianSet(h_eff=h1 + h2)


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
    "build_hamiltonians",
    "ancilla_ground_projector",
    "arm_hamiltonians",
    "STARS",
]
