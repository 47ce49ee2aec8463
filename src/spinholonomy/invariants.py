"""Local-equivalence classification of two-qubit gates.

Two gates are locally equivalent when they differ only by single-qubit
rotations.  The class of a 4x4 unitary is captured by the Makhlin pair
(G1 complex, G2 real), computed in a magic (Bell-like) basis, or
equivalently by canonical coordinates (c1, c2, c3) in the Weyl chamber,
the tetrahedron O-A1-A2-A3 with

    O = (0, 0, 0),  A1 = (pi, 0, 0),  A2 = (pi/2, pi/2, 0),
    A3 = (pi/2, pi/2, pi/2).

The canonical region used here is ``pi >= c1 >= c2 >= c3 >= 0`` with
``c1 + c2 <= pi`` and, on the base plane c3 = 0, ``c1 <= pi/2`` (points
with larger c1 on the base are mirror images of points with smaller c1).

Perfect entanglers -- gates able to produce a maximally entangled state
from some product input -- fill the polyhedron with vertices L, M, N, P,
Q, A2 (midpoints of A1-O, A1-A2, A1-A3, A3-O, A2-O and the A2 vertex).
Special perfect entanglers, which maximally entangle a full product
basis, lie on the open-at-L segment L-A2; the L vertex itself is the
CNOT class, a perfect but not special entangler.  Entangling power is
``ep = (2/9) (1 - |G1|)``, maximal at 2/9 exactly when |G1| = 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonCanonicalInput, NonUnitaryInput
from .linalg import CMatrix, unitarity_defect

#: Magic basis change: columns are Bell states up to phases.  Any valid
#: magic basis yields the same invariants; this fixes one concretely.
MAGIC_BASIS = np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=np.complex128,
) / math.sqrt(2)

WEYL_VERTICES = {
    "O": (0.0, 0.0, 0.0),
    "A1": (math.pi, 0.0, 0.0),
    "A2": (math.pi / 2, math.pi / 2, 0.0),
    "A3": (math.pi / 2, math.pi / 2, math.pi / 2),
    "L": (math.pi / 2, 0.0, 0.0),
    "M": (3 * math.pi / 4, math.pi / 4, 0.0),
    "N": (3 * math.pi / 4, math.pi / 4, math.pi / 4),
    "P": (math.pi / 4, math.pi / 4, math.pi / 4),
    "Q": (math.pi / 4, math.pi / 4, 0.0),
}

LOCAL = "local"
ENTANGLING = "entangling"
PERFECT = "perfect"
SPECIAL_PERFECT = "special_perfect"

INVARIANT_UNITARY_TOL = 1e-10
CHAMBER_TOL = 1e-9

MAX_ENTANGLING_POWER = 2.0 / 9.0

# Facet planes of the perfect-entangler polyhedron L-M-N-P-Q-A2, one row
# (n, b) each with outward unit normal n: inside iff n . c + b <= 0.
_R = 1 / math.sqrt(2)
_PE_EQUATIONS = np.array([
    [-_R, -_R, 0.0, _R * math.pi / 2],  # c1 + c2 >= pi/2  (L, P, Q)
    [-_R, _R, 0.0, 0.0],  # c2 <= c1  (P, Q, A2)
    [0.0, -_R, _R, 0.0],  # c3 <= c2  (L, N, P)
    [0.0, 0.0, -1.0, 0.0],  # c3 >= 0  (L, M, Q, A2)
    [0.0, _R, _R, -_R * math.pi / 2],  # c2 + c3 <= pi/2  (N, P, A2)
    [_R, -_R, 0.0, -_R * math.pi / 2],  # c1 - c2 <= pi/2  (L, M, N)
    [_R, _R, 0.0, -_R * math.pi],  # c1 + c2 <= pi  (M, N, A2)
])


@dataclass(frozen=True)
class GateMetrics:
    """Invariants, canonical coordinates, entangling power and class."""

    g1: complex
    g2: float
    weyl: tuple[float, float, float]
    ep: float
    entangler_class: str


def _require_unitary(u: CMatrix, what: str) -> CMatrix:
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (4, 4):
        raise NonUnitaryInput(f"{what} must be 4x4, got {u.shape}")
    defect = unitarity_defect(u)
    if defect > INVARIANT_UNITARY_TOL:
        raise NonUnitaryInput(f"{what} deviates from unitarity by {defect:.3e}")
    return u


def _magic_gram(u: CMatrix) -> CMatrix:
    ub = MAGIC_BASIS.conj().T @ u @ MAGIC_BASIS
    return ub.T @ ub


def makhlin_invariants(u: CMatrix) -> tuple[complex, float]:
    """Local invariants (G1, G2) of a two-qubit unitary.

    ``m = (Q^dag U Q)^T (Q^dag U Q)`` in the magic basis Q, then
    ``G1 = tr(m)^2 / (16 det U)`` and
    ``G2 = (tr(m)^2 - tr(m^2)) / (4 det U)``.  Both are invariant under
    single-qubit rotations on either side and under global phases.
    """
    u = _require_unitary(u, "gate")
    det = np.linalg.det(u)
    m = _magic_gram(u)
    tr = np.trace(m)
    g1 = tr * tr / (16.0 * det)
    g2 = (tr * tr - np.trace(m @ m)) / (4.0 * det)
    return complex(g1), float(g2.real)


def _wrap_half_turn(x: float) -> float:
    # Reduce mod pi into [0, pi); values within 1e-12 of pi wrap to ~0
    # (tiny negatives are kept so chamber tests with tolerance see them).
    y = x % math.pi
    if y >= math.pi - 1e-12:
        y -= math.pi
    return y


def _in_chamber(c, tol: float = CHAMBER_TOL) -> bool:
    c1, c2, c3 = c
    if not (c1 >= c2 - tol and c2 >= c3 - tol and c3 >= -tol):
        return False
    if c1 + c2 > math.pi + tol:
        return False
    if c3 <= tol and c1 > math.pi / 2 + tol:
        return False
    return True


# Sign patterns of the chamber symmetries: flips always come in pairs.
_SIGN_PATTERNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def weyl_coordinates(u: CMatrix) -> tuple[float, float, float]:
    """Canonical Weyl-chamber coordinates (c1, c2, c3) of a unitary.

    The eigenphases of the magic-basis Gram matrix of the special-unitary
    representative are halved and summed pairwise to produce one
    coordinate triple; the symmetry group of the construction (coordinate
    permutations, paired sign flips, shifts by pi) is then enumerated and
    the representative inside the canonical chamber is returned.  Ties on
    chamber boundaries are broken by lexicographic maximality; degenerate
    eigenphases are ordered ascending, which the orbit search makes
    immaterial.
    """
    u = _require_unitary(u, "gate")
    u_su = u / np.linalg.det(u) ** 0.25
    lam = np.sort(np.angle(np.linalg.eigvals(_magic_gram(u_su))) / 2.0)
    raw = (lam[0] + lam[1], lam[1] + lam[2], lam[0] + lam[2])
    best = None
    for perm in itertools.permutations(range(3)):
        for signs in _SIGN_PATTERNS:
            cand = tuple(
                _wrap_half_turn(signs[i] * raw[perm[i]]) for i in range(3)
            )
            if _in_chamber(cand) and (best is None or cand > best):
                best = cand
    if best is None:  # unreachable: the orbit always meets the chamber
        raise NonCanonicalInput(f"no canonical representative for {raw}")
    return tuple(min(max(x, 0.0), math.pi) for x in best)


def invariants_from_weyl(
    c1: float, c2: float, c3: float
) -> tuple[complex, float]:
    """(G1, G2) evaluated from canonical coordinates.

    ``G1 = (1/4) [e^{+i c3} cos(c1 - c2) + e^{-i c3} cos(c1 + c2)]^2`` and
    ``G2 = cos(2 c1) + cos(2 c2) + cos(2 c3)``.
    """
    g1 = 0.25 * (
        np.exp(1j * c3) * math.cos(c1 - c2) + np.exp(-1j * c3) * math.cos(c1 + c2)
    ) ** 2
    g2 = math.cos(2 * c1) + math.cos(2 * c2) + math.cos(2 * c3)
    return complex(g1), g2


def entangling_power(g1: complex) -> float:
    """``ep = (2/9) (1 - |G1|)``, clamped to [0, 2/9]."""
    ep = MAX_ENTANGLING_POWER * (1.0 - abs(g1))
    return min(max(ep, 0.0), MAX_ENTANGLING_POWER)


def _on_segment(p, a, b, tol: float) -> bool:
    p, a, b = (np.asarray(v, dtype=float) for v in (p, a, b))
    ab = b - a
    t = float(np.dot(p - a, ab) / np.dot(ab, ab))
    t = min(max(t, 0.0), 1.0)
    return float(np.linalg.norm(p - (a + t * ab))) <= tol


def in_perfect_polyhedron(weyl, tol: float = CHAMBER_TOL) -> bool:
    """Half-space membership test for the L-M-N-P-Q-A2 polyhedron; with unit
    normals, ``tol`` is a Euclidean distance outside a facet plane."""
    point = np.append(np.asarray(weyl, dtype=float), 1.0)
    return bool(np.all(_PE_EQUATIONS @ point <= tol))


def classify_entangler(weyl) -> str:
    """Entangler class of a canonical Weyl point.

    ``special_perfect`` on the segment L-A2 excluding the L endpoint (the
    CNOT class maximally entangles some product state but not a full
    product basis); ``perfect`` inside the L-M-N-P-Q-A2 polyhedron,
    boundary inclusive; ``local`` at the origin class; ``entangling``
    otherwise.  All boundary tests use a 1e-9 tolerance.

    Raises
    ------
    NonCanonicalInput
        If the point lies outside the canonical chamber.
    """
    c = tuple(float(x) for x in weyl)
    if not _in_chamber(c):
        raise NonCanonicalInput(f"{c} is not canonical")
    l_vertex, a2 = WEYL_VERTICES["L"], WEYL_VERTICES["A2"]
    if _on_segment(c, l_vertex, a2, CHAMBER_TOL) and not (
        float(np.linalg.norm(np.subtract(c, l_vertex))) <= CHAMBER_TOL
    ):
        return SPECIAL_PERFECT
    if in_perfect_polyhedron(c):
        return PERFECT
    if all(abs(x) <= CHAMBER_TOL for x in c):
        return LOCAL
    return ENTANGLING


def gate_metrics(u: CMatrix) -> GateMetrics:
    """All metrics of a gate in one pass."""
    g1, g2 = makhlin_invariants(u)
    weyl = weyl_coordinates(u)
    return GateMetrics(
        g1=g1,
        g2=g2,
        weyl=weyl,
        ep=entangling_power(g1),
        entangler_class=classify_entangler(weyl),
    )


__all__ = [
    "MAGIC_BASIS",
    "WEYL_VERTICES",
    "LOCAL",
    "ENTANGLING",
    "PERFECT",
    "SPECIAL_PERFECT",
    "MAX_ENTANGLING_POWER",
    "GateMetrics",
    "makhlin_invariants",
    "weyl_coordinates",
    "invariants_from_weyl",
    "entangling_power",
    "in_perfect_polyhedron",
    "classify_entangler",
    "gate_metrics",
]
