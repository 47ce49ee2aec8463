"""Register two-qubit gate: extraction from the chain propagator and the
exact entangler the cyclic evolution realizes.

With the ancilla prepared in |0>, a cyclic pulse transports the four
dimensional subspace |0> (x) H_register around a closed loop and the
register pair acquires the holonomic gate

    U = [[1,      0,            0,       0],
         [0,  cos(2 theta), -e^{+i(phi1+phi2)} sin(2 theta), 0],
         [0, -e^{-i(phi1+phi2)} sin(2 theta), -cos(2 theta), 0],
         [0,      0,            0,      -1]]

in the |s1 s2> basis {00, 01, 10, 11}.  The gate is involutory
(U @ U = 1) and depends on the pulse only through the coupling angles,
not the envelope shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import CMatrix, require_unitary

EXTRACT_UNITARY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class RegisterGate:
    """A 4x4 operator on the register pair plus its leakage.

    ``leakage = 1 - smin^2`` with ``smin`` the smallest singular value of
    the matrix: the worst-case probability, over register inputs, of
    leaving the ancilla-|0> subspace.  A clean holonomic gate has leakage
    at roundoff level.
    """

    matrix: CMatrix
    leakage: float


def extract_register_gate(u_full: CMatrix) -> RegisterGate:
    """Ancilla-|0> block of an 8x8 propagator, with its leakage.

    Raises
    ------
    NonUnitaryInput
        If ``u_full`` deviates from unitarity by more than 1e-10 or has a
        non-finite entry.
    """
    u_full = np.asarray(u_full, dtype=np.complex128)
    require_unitary(u_full, "propagator", EXTRACT_UNITARY_TOL)
    block = u_full[:4, :4].copy()
    smin = np.linalg.svd(block, compute_uv=False).min()
    return RegisterGate(matrix=block, leakage=max(0.0, 1.0 - smin * smin))


def _entangler_matrices(thetas, phi1: float = 0.0, phi2: float = 0.0) -> np.ndarray:
    """The ``(len(thetas), 4, 4)`` stack of exact register gates for the
    angles ``thetas`` and one phase pair, built in one pass.

    Each cosine and sine comes from ``math``, one angle at a time: numpy's
    vectorized cos may round differently in the last bit.  Member ``i`` is
    bit for bit ``analytic_entangler(thetas[i], phi1, phi2).matrix``, signed
    zeros included.
    """
    c = np.array([math.cos(2 * theta) for theta in thetas])
    s = np.array([math.sin(2 * theta) for theta in thetas])
    e = np.exp(1j * (phi1 + phi2))
    stack = np.zeros((len(c), 4, 4), dtype=np.complex128)
    stack[:, 0, 0] = 1
    stack[:, 1, 1] = c
    stack[:, 1, 2] = -e * s
    stack[:, 2, 1] = -np.conj(e) * s
    stack[:, 2, 2] = -c
    stack[:, 3, 3] = -1
    return stack


def analytic_entangler(theta: float, phi1: float = 0.0, phi2: float = 0.0) -> RegisterGate:
    """The exact register gate for coupling angles (theta, phi1, phi2)."""
    return RegisterGate(matrix=_entangler_matrices((theta,), phi1, phi2)[0], leakage=0.0)


__all__ = ["RegisterGate", "extract_register_gate", "analytic_entangler"]
