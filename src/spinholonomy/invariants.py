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

The invariants, the coordinates and :func:`gate_metrics` take one 4x4
gate or a ``(P, 4, 4)`` stack; a single gate is the ``P = 1`` case of the
same stacked evaluation, so a whole sweep costs a few LAPACK calls.
Stacked metrics and sweep rows come from one columnar pass,
``_metric_columns``: :func:`gate_metrics` wraps its columns into
:class:`GateMetrics`, and the ``sweep-theta`` command zips its CSV rows
from them directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonCanonicalInput, NonUnitaryInput
from .linalg import CMatrix, max_abs, require_unitary

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


def _require_unitary(u: CMatrix, what: str) -> np.ndarray:
    """``u`` as a contiguous ``(P, 4, 4)`` complex stack, checked unitary
    within 1e-10 as a whole (the max over its members).  Entries that are
    not finite or exceed modulus 2 (a unitary's are at most 1) are refused
    before ``u^dag u`` is formed, which they could overflow."""
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim not in (2, 3) or u.shape[-2:] != (4, 4):
        raise NonUnitaryInput(f"{what} must be 4x4 or a stack of 4x4, got {u.shape}")
    stack = np.ascontiguousarray(u.reshape(-1, 4, 4))
    largest = max_abs(stack)
    if not largest <= 2.0:
        raise NonUnitaryInput(
            f"{what} has non-finite entries" if not math.isfinite(largest)
            else f"{what} has an entry of modulus {largest:.3e}; a unitary's are at most 1"
        )
    require_unitary(stack, what, INVARIANT_UNITARY_TOL)
    return stack


def _magic_gram(u: np.ndarray) -> np.ndarray:
    ub = MAGIC_BASIS.conj().T @ u @ MAGIC_BASIS
    return np.swapaxes(ub, -1, -2) @ ub


def _makhlin(u: np.ndarray, det: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G1 and G2 of each member of a stack with determinants ``det``."""
    m = _magic_gram(u)
    tr = np.trace(m, axis1=-2, axis2=-1)
    tr_sq = np.trace(m @ m, axis1=-2, axis2=-1)
    # Member by member: numpy's array complex division differs from its
    # scalar division in the last bit, and the scalar form is the one a
    # single gate has always been evaluated with.
    g1 = [t * t / (16.0 * d) for t, d in zip(tr, det)]
    g2 = [((t * t - q) / (4.0 * d)).real for t, q, d in zip(tr, tr_sq, det)]
    return np.array(g1, dtype=np.complex128), np.array(g2, dtype=float)


def makhlin_invariants(u: CMatrix):
    """Local invariants (G1, G2) of a two-qubit unitary.

    ``m = (Q^dag U Q)^T (Q^dag U Q)`` in the magic basis Q, then
    ``G1 = tr(m)^2 / (16 det U)`` and
    ``G2 = (tr(m)^2 - tr(m^2)) / (4 det U)``.  Both are invariant under
    single-qubit rotations on either side and under global phases.

    ``u`` is one 4x4 gate, giving ``(complex, float)``, or a ``(P, 4, 4)``
    stack, giving a complex and a real array of length P.
    """
    stack = _require_unitary(u, "gate")
    g1, g2 = _makhlin(stack, np.linalg.det(stack))
    return (complex(g1[0]), float(g2[0])) if np.ndim(u) == 2 else (g1, g2)


def _in_chamber(c, tol: float = CHAMBER_TOL) -> np.ndarray:
    """Whether each point (last axis c1, c2, c3) is in the canonical region."""
    c = np.asarray(c, dtype=float)
    c1, c2, c3 = c[..., 0], c[..., 1], c[..., 2]
    return (
        (c1 >= c2 - tol) & (c2 >= c3 - tol) & (c3 >= -tol)
        & (c1 + c2 <= math.pi + tol)
        & ((c3 > tol) | (c1 <= math.pi / 2 + tol))
    )


# The 24 chamber symmetries applied to a raw triple: candidate k takes
# coordinate _ORBIT_INDEX[k, i] times _ORBIT_SIGN[k, i] (sign flips come
# in pairs), before the reduction mod pi.
_SIGN_PATTERNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
_ORBIT_INDEX = np.array(
    [perm for perm in itertools.permutations(range(3)) for _ in _SIGN_PATTERNS]
)
_ORBIT_SIGN = np.array(
    [signs for _ in itertools.permutations(range(3)) for signs in _SIGN_PATTERNS],
    dtype=float,
)


def _weyl(u: np.ndarray, det: np.ndarray) -> np.ndarray:
    """``(P, 3)`` canonical coordinates of a stack with determinants ``det``."""
    u_su = u / (det ** 0.25)[:, None, None]
    lam = np.sort(np.angle(np.linalg.eigvals(_magic_gram(u_su))) / 2.0, axis=-1)
    raw = lam[:, [0, 1, 0]] + lam[:, [1, 2, 2]]
    # Reduce mod pi into [0, pi); values within 1e-12 of pi wrap to ~0
    # (tiny negatives are kept so chamber tests with tolerance see them).
    cand = np.remainder(_ORBIT_SIGN * raw[:, _ORBIT_INDEX], math.pi)
    cand = np.where(cand >= math.pi - 1e-12, cand - math.pi, cand)
    keep = _in_chamber(cand)
    if not keep.any(axis=-1).all():  # unreachable: every orbit meets the chamber
        raise NonCanonicalInput(f"no canonical representative for {raw}")
    # Lexicographic maximum of the chamber candidates, column by column;
    # the first of equal candidates wins.
    for k in range(3):
        column = np.where(keep, cand[..., k], -np.inf)
        keep &= column == column.max(axis=-1, keepdims=True)
    best = cand[np.arange(len(cand)), keep.argmax(axis=-1)]
    return np.minimum(np.maximum(best, 0.0), math.pi)


def weyl_coordinates(u: CMatrix):
    """Canonical Weyl-chamber coordinates (c1, c2, c3) of a unitary.

    The eigenphases of the magic-basis Gram matrix of the special-unitary
    representative are halved and summed pairwise to produce one
    coordinate triple; the symmetry group of the construction (coordinate
    permutations, paired sign flips, shifts by pi) is then enumerated and
    the representative inside the canonical chamber is returned.  Ties on
    chamber boundaries are broken by lexicographic maximality; degenerate
    eigenphases are ordered ascending, which the orbit search makes
    immaterial.

    ``u`` is one 4x4 gate, giving a tuple, or a ``(P, 4, 4)`` stack,
    giving a ``(P, 3)`` array; the whole stack is searched as one
    ``(P, 24, 3)`` array of orbit candidates.
    """
    stack = _require_unitary(u, "gate")
    weyl = _weyl(stack, np.linalg.det(stack))
    return tuple(weyl[0].tolist()) if np.ndim(u) == 2 else weyl


def entangling_power(g1: complex) -> float:
    """``ep = (2/9) (1 - |G1|)``, clamped to [0, 2/9]."""
    ep = MAX_ENTANGLING_POWER * (1.0 - abs(g1))
    return min(max(ep, 0.0), MAX_ENTANGLING_POWER)


def _distance(p: np.ndarray, a, b=None) -> np.ndarray:
    """Distance of each point (last axis) from the point a, or from the
    segment a-b."""
    offset = p - a
    if b is not None:
        ab = np.subtract(b, a)
        offset -= np.clip(offset @ ab / (ab @ ab), 0.0, 1.0)[..., None] * ab
    return np.sqrt(np.sum(offset * offset, axis=-1))


def in_perfect_polyhedron(weyl, tol: float = CHAMBER_TOL):
    """Half-space membership test for the L-M-N-P-Q-A2 polyhedron; with unit
    normals, ``tol`` is a Euclidean distance outside a facet plane.  One
    point gives a bool, a ``(P, 3)`` array a boolean array."""
    points = np.asarray(weyl, dtype=float)
    inside = np.all(points @ _PE_EQUATIONS[:, :3].T + _PE_EQUATIONS[:, 3] <= tol, axis=-1)
    return bool(inside) if points.ndim == 1 else inside


def classify_entangler(weyl):
    """Entangler class of a canonical Weyl point.

    ``special_perfect`` on the segment L-A2 excluding the L endpoint (the
    CNOT class maximally entangles some product state but not a full
    product basis); ``perfect`` inside the L-M-N-P-Q-A2 polyhedron,
    boundary inclusive; ``local`` at the origin class; ``entangling``
    otherwise.  All boundary tests use a 1e-9 tolerance.  One point gives
    a string, a ``(P, 3)`` array a list of P strings.

    Raises
    ------
    NonCanonicalInput
        If a point lies outside the canonical chamber.
    """
    points = np.asarray(weyl, dtype=float)
    if points.ndim not in (1, 2) or points.shape[-1] != 3:
        raise ValueError(f"expected Weyl points (c1, c2, c3), got shape {points.shape}")
    flat = points.reshape(-1, 3)
    canonical = _in_chamber(flat)
    if not canonical.all():
        raise NonCanonicalInput(f"{tuple(flat[~canonical][0].tolist())} is not canonical")
    l_vertex, a2 = WEYL_VERTICES["L"], WEYL_VERTICES["A2"]
    special = (_distance(flat, l_vertex, a2) <= CHAMBER_TOL) & ~(
        _distance(flat, l_vertex) <= CHAMBER_TOL
    )
    perfect = in_perfect_polyhedron(flat)
    local = np.all(np.abs(flat) <= CHAMBER_TOL, axis=-1)
    classes = [
        SPECIAL_PERFECT if s else PERFECT if p else LOCAL if o else ENTANGLING
        for s, p, o in zip(special.tolist(), perfect.tolist(), local.tolist())
    ]
    return classes[0] if points.ndim == 1 else classes


#: Members per stacked pass of :func:`_metric_columns`; it bounds the
#: temporaries of a long sweep (a 1001-point sweep in one pass peaked
#: 1.5 MiB higher in resident memory than in passes of 128).
_CHUNK = 128


def _metric_columns(u: CMatrix):
    """The metrics of a gate or a ``(P, 4, 4)`` stack as columns: G1
    (complex) and G2 lists, the ``(P, 3)`` Weyl list, and the ep and class
    lists.

    The stack is checked unitary once, then each pass of 128 members makes
    one stacked determinant, Gram product, eigenvalue call, orbit search and
    classification.  This is the one evaluation behind
    :func:`gate_metrics`; a sweep zips its rows from the columns without
    building a :class:`GateMetrics` per member.
    """
    stack = _require_unitary(u, "gate")
    g1, g2, weyl, ep, classes = [], [], [], [], []
    for start in range(0, len(stack), _CHUNK):
        chunk = stack[start:start + _CHUNK]
        det = np.linalg.det(chunk)
        a, b = _makhlin(chunk, det)
        a, w = a.tolist(), _weyl(chunk, det).tolist()
        g1 += a
        g2 += b.tolist()
        weyl += w
        ep += [entangling_power(z) for z in a]
        classes += classify_entangler(w)
    return g1, g2, weyl, ep, classes


def gate_metrics(u: CMatrix):
    """All metrics of a gate, or a list of them for a ``(P, 4, 4)`` stack.

    The stack is checked unitary once, then evaluated in passes of 128
    members by :func:`_metric_columns`.  Member ``i`` of the list equals
    ``gate_metrics(u[i])``.
    """
    metrics = [
        GateMetrics(g1=a, g2=b, weyl=tuple(w), ep=e, entangler_class=cls)
        for a, b, w, e, cls in zip(*_metric_columns(u))
    ]
    return metrics[0] if np.ndim(u) == 2 else metrics


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
    "entangling_power",
    "in_perfect_polyhedron",
    "classify_entangler",
    "gate_metrics",
]
