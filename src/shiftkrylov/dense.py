"""Small dense kernels on Krylov coefficient data: the per-shift
Hessenberg least squares, small solves and a Hessenberg eigensolver for
Ritz extraction, each one LAPACK call plus the checks and bookkeeping
its callers rely on; and :class:`ShiftedGivensQR`, the Givens QR of a
block-size-one Hessenberg matrix under every shift of a family at once,
updated one Arnoldi step at a time for the collinear baselines.
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


class ShiftedGivensQR:
    """Givens QR of ``Hbar_j + d_i [I; 0]`` for every shift offset ``d_i``
    at once, updated one Arnoldi step at a time.

    ``Hbar_j`` is the (j+1) x j Hessenberg matrix of a block-size-one
    Arnoldi process and ``rhs[i] e_1`` the right-hand side of shift i.
    Every array has a leading shift axis: the rotations ``c`` (real) and
    ``s``, which act on a row pair ``(x, y)`` as
    ``(c x + s y, -conj(s) x + c y)``; the triangular factor ``r``; the
    rotated right-hand side ``g = Q_i* rhs_i e_1``, whose last entry is
    the least-squares residual; and ``q = Q_i e_{j+1}``, the unit
    direction of that residual.  ``pivot`` and ``g_pivot`` keep the last
    diagonal entry of the triangle and of ``g`` before the latest
    rotation: the factor of the square Galerkin system
    ``(H_j + d_i I) y = rhs_i e_1``.  One step costs O(j) vector
    operations over the shift axis, with no refactorization.
    """

    def __init__(self, offsets, rhs, max_steps):
        self.offsets = np.asarray(offsets, dtype=COMPLEX)
        p = len(self.offsets)
        self.steps = 0
        self.c = np.zeros((p, max_steps))
        self.s = np.zeros((p, max_steps), dtype=COMPLEX)
        self.r = np.zeros((p, max_steps, max_steps), dtype=COMPLEX)
        self.g = np.zeros((p, max_steps + 1), dtype=COMPLEX)
        self.g[:, 0] = rhs
        self.q = np.zeros((p, max_steps + 1), dtype=COMPLEX)
        self.q[:, 0] = 1.0
        self.pivot = np.zeros(p, dtype=COMPLEX)
        self.g_pivot = np.zeros(p, dtype=COMPLEX)
        self._diag_max = np.zeros(p)
        self._pivot_scale = np.zeros(p)

    def _rotate(self, w, k):
        """Apply every shift's rotation ``k`` to rows ``k, k+1`` of ``w``."""
        c, s = self.c[:, k], self.s[:, k]
        x, y = w[:, k].copy(), w[:, k + 1]
        w[:, k] = c * x + s * y
        w[:, k + 1] = c * y - s.conj() * x

    def append(self, h_col, sub):
        """Add Hessenberg column j+1: ``h_col`` holds its j+1 entries on
        and above the diagonal (shared by every shift) and ``sub`` the
        subdiagonal entry, 0 after a happy breakdown."""
        j = self.steps
        col = np.tile(np.asarray(h_col, dtype=COMPLEX), (len(self.offsets), 1))
        col[:, j] += self.offsets
        for k in range(j):
            self._rotate(col, k)
        a = col[:, j].copy()
        abs_a = np.abs(a)
        nrm = np.hypot(abs_a, abs(sub))
        phase = np.ones_like(a)
        np.divide(a, abs_a, out=phase, where=abs_a > 0)
        c = np.ones_like(abs_a)
        s = np.zeros_like(a)
        np.divide(abs_a, nrm, out=c, where=nrm > 0)
        np.divide(phase * np.conj(sub), nrm, out=s, where=nrm > 0)
        self.c[:, j], self.s[:, j] = c, s
        self.pivot, self.g_pivot = a, self.g[:, j].copy()
        col[:, j] = phase * nrm
        self.r[:, :j + 1, j] = col
        self._pivot_scale = np.maximum(self._diag_max, abs_a)
        self._diag_max = np.maximum(self._diag_max, nrm)
        self.g[:, j + 1] = -s.conj() * self.g_pivot
        self.g[:, j] = c * self.g_pivot
        self.q[:, :j + 1] *= -s[:, None]
        self.q[:, j + 1] = c
        self.steps = j + 1

    def galerkin_singular(self, rtol):
        """Per shift, whether the square Galerkin factor is singular to
        working precision: ``|pivot| <= rtol * max |diagonal|``."""
        return np.abs(self.pivot) <= rtol * self._pivot_scale

    def apply_adjoint(self, v):
        """``Q_i* v`` for every shift, for one vector ``v`` of j+1 entries."""
        w = np.tile(np.asarray(v, dtype=COMPLEX), (len(self.offsets), 1))
        for k in range(self.steps):
            self._rotate(w, k)
        return w

    def solve(self, i, rhs):
        """Solve ``R_i y = rhs`` with shift i's j x j triangular factor."""
        j = self.steps
        return scipy.linalg.solve_triangular(self.r[i, :j, :j], rhs,
                                             check_finite=False)

    def galerkin_solve(self, i):
        """Solve the square Galerkin system ``(H_j + d_i I) y = rhs_i e_1``
        from the triangle and right-hand side before the latest rotation."""
        j = self.steps
        tri = self.r[i, :j, :j].copy()
        tri[j - 1, j - 1] = self.pivot[i]
        rhs = self.g[i, :j].copy()
        rhs[j - 1] = self.g_pivot[i]
        return scipy.linalg.solve_triangular(tri, rhs, check_finite=False)


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

