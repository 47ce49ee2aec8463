"""Dense complex linear algebra at the small fixed dimensions used here.

Everything operates on ``numpy.ndarray`` with ``complex128`` entries
(row-major); :func:`expm_hermitian` also takes a real symmetric generator,
which stays real through its eigendecomposition.  Matrices in this
package are 4x4, 8x8, or halves of the S_z blocks of the system-plus-bath,
zero-padded to a few sizes (at most 27 for the default hyperfine bath);
double precision leaves orders of magnitude of headroom at these sizes,
so tolerances are fixed once: 1e-12 for Hermiticity and algebraic
identities, 1e-10 for unitarity, 1e-8 for stepped-versus-exact propagators.
At run time :func:`expm_hermitian` serves only the dephasing size classes
(``noise``); every chain propagator is a closed-form star step, and no
path builds a Kronecker product: the chain operators are written
directly on their S_z stars (``spin_chain``).  The tests' oracles (the
time-ordered product, the dense 512-dimensional bath) exponentiate
through it too.
"""

from __future__ import annotations

import numpy as np

from .errors import NonHermitianInput, NonUnitaryInput

CMatrix = np.ndarray

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10


def dagger(m: CMatrix) -> CMatrix:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(np.asarray(m).conj(), -1, -2)


def max_abs(m) -> float:
    """Max-entry norm, the metric behind all elementwise tolerances
    (0 for an empty array)."""
    return float(np.max(np.abs(m), initial=0.0))


def hermiticity_defect(m: CMatrix) -> float:
    return max_abs(m - dagger(m))


def unitarity_defect(u: CMatrix) -> float:
    """``max|u^dag u - 1|`` of a matrix, or the max over a stack."""
    u = np.asarray(u)
    return max_abs(dagger(u) @ u - np.eye(u.shape[-1]))


def require_unitary(u: CMatrix, what: str) -> None:
    """Raise :class:`NonUnitaryInput` unless ``u``, one matrix or a stack,
    is unitary within ``UNITARY_TOL``; a non-finite entry always fails."""
    defect = unitarity_defect(u)
    if not defect <= UNITARY_TOL:
        raise NonUnitaryInput(
            f"{what} has non-finite entries" if not np.isfinite(u).all()
            else f"{what} deviates from unitarity by {defect:.3e}"
        )


def expm_hermitian(h: CMatrix, scale: float) -> CMatrix:
    """Unitary exp(-1j * scale * h) of a Hermitian generator.

    ``h`` is one matrix ``(d, d)`` or a stack ``(..., d, d)``; a stack is
    exponentiated member by member in one call, with the same result as
    separate calls.  Evaluated through the eigendecomposition of ``h``,
    which keeps the result unitary to roundoff for any ``scale``.  A real
    ``h`` stays real: its eigendecomposition is the real ``eigh``, about
    1.5x faster than the complex one at the dephasing block sizes.  The
    eigenvectors are scaled to unit norm, which LAPACK misses by a few
    ulp; on the ledger's N = 1 dephasing slice that cuts the worst
    fidelity error from 1.1e-15 to 4.1e-16.

    Raises
    ------
    NonHermitianInput
        If ``max|h - h^dag|``, over the whole stack, exceeds 1e-12, or if
        ``h`` has a non-finite entry.
    """
    h = np.asarray(h, dtype=np.complex128 if np.iscomplexobj(h) else np.float64)
    if h.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got ndim={h.ndim}")
    defect = hermiticity_defect(h)
    if not defect <= HERMITIAN_TOL:
        raise NonHermitianInput(
            "generator has non-finite entries" if not np.isfinite(h).all()
            else f"generator deviates from Hermiticity by {defect:.3e} (tol {HERMITIAN_TOL:g})"
        )
    w, v = np.linalg.eigh(h)
    v = v / np.linalg.norm(v, axis=-2, keepdims=True)
    return (v * np.exp(-1j * scale * w)[..., None, :]) @ dagger(v)

