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
couplings ``b`` have norm ``omega = sqrt(|alpha1|^2 + |alpha2|^2)``.  This
module owns that layout: the unit arm operators are written directly on
the stars, and :func:`_star_couplings` and :func:`_embed_stars` move
matrices between the 8x8 chain and the star blocks.  The spin-operator
construction ``XY = Sx Sx + Sy Sy``, ``DM = Sx Sy - Sy Sx`` from Kronecker
products, and the paper's factored form, the exchange matrix ``W`` with
its closed-form singular value decomposition, are kept in the tests as
independent oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroCoupling
from .linalg import CMatrix

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


@dataclass(frozen=True, eq=False)
class HamiltonianSet:
    """The 8x8 chain generator.

    ``h_eff`` is the sum of the two arm Hamiltonians and the
    time-independent generator; during a pulse the instantaneous
    Hamiltonian is ``envelope(t) * h_eff``.
    """

    h_eff: CMatrix


#: (center, arm-1 leaf, arm-2 leaf) of the two S_z sectors the arms act on:
#: each arm couples only its leaf to the center; |000> and |111> are idle.
STARS = ((4, 2, 1), (3, 5, 6))

_STARS = np.array(STARS)


def _star_couplings(h: CMatrix) -> np.ndarray:
    """Leaf couplings ``h[leaf, center]`` of each star, shape ``(S, 2)``."""
    return h[_STARS[:, 1:], _STARS[:, :1]]


def _embed_stars(blocks: np.ndarray, fill: float) -> np.ndarray:
    """8x8 chain matrices ``(..., 8, 8)`` from their star blocks ``(..., 2,
    3, 3)``, with ``fill`` on the idle ``|000>`` and ``|111>``: 0 for a
    generator, 1 for a propagator."""
    full = np.zeros(blocks.shape[:-3] + (8, 8), dtype=np.complex128)
    full[..., range(8), range(8)] = fill
    full[..., _STARS[:, :, None], _STARS[:, None, :]] = blocks
    return full


def _arm_operator(leaf: int, b: tuple[complex, complex]) -> CMatrix:
    """Hermitian operator with ``b[s]`` at (``leaf``, center) of star ``s``."""
    blocks = np.zeros((2, 3, 3), dtype=np.complex128)
    blocks[:, leaf, 0] = b
    blocks[:, 0, leaf] = np.conj(b)
    return _embed_stars(blocks, 0.0)


# XY ``Sx Sx + Sy Sy`` and DM ``Sx Sy - Sy Sx`` of arm 1 (sites 1, a), then
# of arm 2 (sites a, 2).  ``complex(0, -0.5)`` keeps the real part +0,
# where the literal ``-0.5j`` would carry -0.  Read-only by convention:
# arm_hamiltonians only scales and adds these.
_XY1, _DM1, _XY2, _DM2 = (
    _arm_operator(1, (0.5, 0.5)),
    _arm_operator(1, (complex(0, -0.5), 0.5j)),
    _arm_operator(2, (0.5, 0.5)),
    _arm_operator(2, (0.5j, complex(0, -0.5))),
)


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


def build_hamiltonians(c: ExchangeCouplings) -> HamiltonianSet:
    """Assemble the chain generator from the two arm Hamiltonians (see
    :func:`arm_hamiltonians`); all-zero couplings give the zero matrix."""
    h1, h2 = arm_hamiltonians(c)
    return HamiltonianSet(h_eff=h1 + h2)


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
    "couplings_to_polar",
    "build_hamiltonians",
    "arm_hamiltonians",
    "STARS",
]
