"""Small dense kernels: band-aware Hessenberg least squares, small
solves and a Hessenberg eigensolver for Ritz extraction.

These operate on small matrices (Krylov coefficient data), so clarity wins
over blocking tricks.  Householder reflections are written out explicitly
because the least-squares path must expose its triangular factor and
residual norm and skip the zeros below the band; the small solves and the
eigensolver defer to LAPACK.
"""

from __future__ import annotations

import warnings

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (DimensionError, EigenConvergenceError, NearSingularError,
                     SingularMatrixError)
from .sparse import COMPLEX


def _reflector(x):
    """Householder vector v (unit norm) annihilating x[1:], or None."""
    alpha = np.linalg.norm(x)
    if alpha == 0.0:
        return None
    v = x.copy()
    phase = x[0] / abs(x[0]) if x[0] != 0 else 1.0
    v[0] += phase * alpha
    vnorm = np.linalg.norm(v)
    if vnorm == 0.0:
        return None
    return v / vnorm


def hessenberg_least_squares(h, g):
    """Solve ``min_y || g - h y ||_2`` by Householder reflections.

    Intended for the tall band-Hessenberg and bordered matrices produced
    by (augmented) block Arnoldi, but correct for any matrix with more
    rows than columns.  Returns ``(y, residual_norm)`` where the residual
    norm is read off the transformed right-hand side, without forming the
    full-space correction.
    """
    a = np.array(h, dtype=COMPLEX, copy=True)
    b = np.array(g, dtype=COMPLEX, copy=True).ravel()
    if a.ndim != 2 or a.shape[0] <= a.shape[1]:
        raise DimensionError("expected a tall matrix (rows > cols)")
    if len(b) != a.shape[0]:
        raise DimensionError("right-hand side length does not match")
    rows, cols = a.shape
    # Each reflector only needs the rows that are nonzero at or below the
    # diagonal of its column (zeros outside stay zero, so this is exact).
    # For the band Hessenberg and bordered matrices of the block Arnoldi
    # subproblems the sweep cost then scales with the bandwidth, not the
    # full row count.  The current column is rescanned each step, which
    # picks up any fill-in produced by earlier reflectors.
    for c in range(cols):
        nz = np.nonzero(a[c:, c])[0]
        hi = c + int(nz[-1]) if nz.size else c
        v = _reflector(a[c:hi + 1, c])
        if v is not None:
            block = a[c:hi + 1, c:]
            block -= 2.0 * np.outer(v, v.conj() @ block)
            b[c:hi + 1] -= 2.0 * v * (v.conj() @ b[c:hi + 1])
    y = np.zeros(cols, dtype=COMPLEX)
    for c in range(cols - 1, -1, -1):
        if a[c, c] == 0.0:
            raise SingularMatrixError(
                f"triangular factor is singular at column {c}", column=c)
        y[c] = (b[c] - a[c, c + 1:cols] @ y[c + 1:]) / a[c, c]
    return y, float(np.linalg.norm(b[cols:]))


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

