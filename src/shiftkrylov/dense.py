"""Small dense kernels on Krylov coefficient data: the per-shift
Hessenberg least squares, small solves and a Hessenberg eigensolver for
Ritz extraction.  Every kernel is one LAPACK call plus the checks and
bookkeeping its callers rely on.
"""

from __future__ import annotations

import warnings

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (DimensionError, EigenConvergenceError, NearSingularError,
                     SingularMatrixError)
from .sparse import COMPLEX


def hessenberg_least_squares(h, g):
    """Solve ``min_y || g - h y ||_2`` for ``h`` with at least as many
    rows as columns, such as the tall (or, after a happy breakdown,
    square) band-Hessenberg and bordered matrices of (augmented) block
    Arnoldi.

    One LAPACK QR of the bordered matrix ``[h g]`` gives the triangular
    factor R: ``y`` solves the leading triangle against the last column,
    and the residual norm is ``|R[cols, cols]|``, read off directly
    rather than recomputed (0 for a square ``h``).  Returns
    ``(y, residual_norm)``.  An exactly zero diagonal entry of the
    triangle raises :class:`SingularMatrixError` naming the last such
    column.
    """
    a = np.asarray(h, dtype=COMPLEX)
    b = np.asarray(g, dtype=COMPLEX).ravel()
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise DimensionError("expected at least as many rows as columns")
    if len(b) != a.shape[0]:
        raise DimensionError("right-hand side length does not match")
    rows, cols = a.shape
    r = scipy.linalg.qr(np.column_stack([a, b]), mode="r",
                        overwrite_a=True, check_finite=False)[0]
    zero = np.nonzero(np.diag(r)[:cols] == 0.0)[0]
    if zero.size:
        c = int(zero[-1])
        raise SingularMatrixError(
            f"triangular factor is singular at column {c}", column=c)
    y = scipy.linalg.solve_triangular(r[:cols, :cols], r[:cols, cols],
                                      check_finite=False)
    resid = float(abs(r[cols, cols])) if rows > cols else 0.0
    return y, resid


def solve_small_dense(m, rhs):
    """Solve ``m x = rhs`` by partial-pivoted elimination.

    Returns ``(x, residual_frobenius)``.  A pivot that is singular to
    working precision raises :class:`NearSingularError`, which signals
    nonexistence of a Galerkin iterate for that cycle.
    """
    a = np.asarray(m, dtype=COMPLEX)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("solve_small_dense expects a square matrix")
    b = np.asarray(rhs, dtype=COMPLEX)
    vec = b.ndim == 1
    if vec:
        b = b[:, None]
    if b.shape[0] != a.shape[0]:
        raise DimensionError("right-hand side rows do not match matrix")
    with warnings.catch_warnings():
        # singularity is detected and raised below; silence the LAPACK echo
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    d = np.abs(np.diag(lu))
    if d.size and (d.min() == 0.0 or d.min() <= 1e-14 * d.max()):
        raise NearSingularError(
            f"pivot ratio {0.0 if d.max() == 0 else d.min() / d.max():.3e} "
            "is singular to working precision")
    x = scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
    resid = float(np.linalg.norm(a @ x - b))
    return (x[:, 0] if vec else x), resid


@dataclass(frozen=True)
class EigenPairs:
    """Eigenpairs of a small matrix with their ordering tag and the
    per-pair residual norms ``||M v - lambda v||`` kept for checking."""

    values: np.ndarray
    vectors: np.ndarray
    ordering: str
    residuals: np.ndarray


def hessenberg_eigen(h, want, count):
    """Return ``count`` eigenpairs of a square (band) Hessenberg matrix.

    ``want`` selects the ordering: ``"largest"`` or ``"smallest"`` by
    modulus.  Ties break on (real, imag) ascending so results are
    deterministic.  The QR iteration is delegated to LAPACK, which runs
    shifted QR sweeps on the Hessenberg form and recovers vectors by back
    substitution / inverse iteration.
    """
    a = np.asarray(h, dtype=COMPLEX)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("hessenberg_eigen expects a square matrix")
    if want not in ("largest", "smallest"):
        raise DimensionError(f"unknown ordering '{want}'")
    count = int(count)
    if count < 1 or count > a.shape[0]:
        raise DimensionError("count must be in [1, n]")
    try:
        vals, vecs = scipy.linalg.eig(a, check_finite=False)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigenConvergenceError(f"QR iteration failed: {exc}", partial=None)
    key = np.lexsort((vals.imag, vals.real, np.abs(vals)))
    if want == "largest":
        key = key[::-1]
    key = key[:count]
    vals = vals[key]
    vecs = vecs[:, key]
    residuals = np.linalg.norm(a @ vecs - vecs * vals[None, :], axis=0)
    ordering = "by-modulus-descending" if want == "largest" else "by-modulus-ascending"
    return EigenPairs(vals, vecs, ordering, residuals)

