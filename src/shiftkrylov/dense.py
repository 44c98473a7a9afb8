"""Small dense kernels on Krylov coefficient data: the per-shift
Hessenberg least squares, small solves and a Hessenberg eigensolver for
Ritz extraction, each one LAPACK call plus the checks and bookkeeping
its callers rely on; and two QR factors of the shifted coefficient
matrices of a whole family, each updated one Arnoldi step at a time
instead of refactored: :class:`ShiftedBandQR`, the band QR of the
(projected, augmented) block Hessenberg matrices from which the block
engine reads every step's residual estimates, and
:class:`ShiftedGivensQR`, the Givens QR of a block-size-one Hessenberg
matrix for the collinear baselines.

Every kernel works in the dtype of its input, real or complex, and takes
its LAPACK routines for that dtype.
"""

from __future__ import annotations

import warnings

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (DimensionError, EigenConvergenceError, NearSingularError,
                     SingularMatrixError)


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
    a = np.asarray(h)
    b = np.asarray(g).ravel()
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
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("solve_small_dense expects a square matrix")
    b = np.asarray(rhs)
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


def _adjoint_q_factors(blocks):
    """``Q*`` of the complete QR ``Q R`` of each tall block of a stack,
    and each block's largest ``|R_kk|``.  One LAPACK ``geqrf`` and
    ``orgqr`` (``ungqr`` for complex blocks) per block: at these sizes that
    is cheaper than one batched ``np.linalg.qr`` call."""
    p, rows, cols = blocks.shape
    geqrf, orgqr = scipy.linalg.get_lapack_funcs(("geqrf", "orgqr"),
                                                 (blocks,))
    qh = np.empty((p, rows, rows), dtype=blocks.dtype)
    diag_max = np.empty(p)
    for i in range(p):
        r, tau = geqrf(blocks[i])[:2]
        diag_max[i] = np.abs(np.diagonal(r)).max()
        full = np.zeros((rows, rows), dtype=blocks.dtype)
        full[:, :cols] = r
        qh[i] = orgqr(full, tau, overwrite_a=True)[0].conj().T
    return qh, diag_max


class ShiftedBandQR:
    """QR of ``[Hbar_j + sigma_i [I; 0]; B_j]`` for every shift
    ``sigma_i`` of a family at once, updated one block column per block
    Arnoldi step.  It keeps no triangle.

    ``Hbar_j`` is the (j+1)L x jL band Hessenberg matrix of a block
    Arnoldi process with block size L, ``B_j`` its k x jL coupling rows
    (k = 0 without a recycle space) and ``[rhs_i; 0]`` the right-hand
    side of shift i.  Step t factors the live (2L+k) x L block: the L
    pivot and k coupling rows carried from the steps before, and the L
    new subdiagonal rows.  Its unitary factor ``Q_t`` leaves the first L
    rows finished, so the state keeps only the carried rows, with a
    leading shift axis: ``m``, the carried rows of ``Q_t* ... Q_0*``
    over the rows of ``[B_j; Hbar_j]`` (coupling rows first), and ``g``,
    the carried entries of the rotated right-hand side, whose norm is
    the least-squares residual.  A new column is rotated by all earlier
    factors with one product by ``m``, and ``Q_t`` updates ``m`` with
    another, so a step costs O(1) array operations and one LAPACK QR per
    shift.  The latest step's pivot block and right-hand side before its
    factorization, with its subdiagonal block, are kept for the Galerkin
    estimate.  The state takes the dtype of the shifts and right-hand
    sides together.
    """

    def __init__(self, shifts, rhs, block_size, coupling_rows, max_steps):
        self.shifts = np.asarray(shifts)
        dtype = np.result_type(self.shifts, np.asarray(rhs), np.float64)
        p = len(self.shifts)
        self.block_size = ell = int(block_size)
        self.coupling_rows = k = int(coupling_rows)
        self.steps = 0
        self.carry = ell + k
        # before the first step the carried rows are H rows 0..L-1, then
        # the coupling rows
        self.m = np.zeros((p, ell + k, k + (max_steps + 1) * ell),
                          dtype=dtype)
        self.m[:, np.arange(ell), k + np.arange(ell)] = 1.0
        self.m[:, ell + np.arange(k), np.arange(k)] = 1.0
        self.g = np.zeros((p, ell + k), dtype=dtype)
        self.g[:, :ell] = rhs
        self._pivot = self._g_pivot = self._sub = None
        self._diag_max = np.zeros(p)
        self._pivot_scale = self._diag_max

    def append(self, h_col, sub, b_col):
        """Add block column t+1: ``h_col`` holds its (t+1)L rows on and
        above the diagonal block (shared by every shift), ``sub`` its
        upper triangular subdiagonal block (fewer rows, or none, when the
        relation closed on an invariant span) and ``b_col`` its k
        coupling rows."""
        ell, k, t = self.block_size, self.coupling_rows, self.steps
        sub = np.asarray(sub)
        c = sub.shape[0]
        cols = k + (t + 1) * ell
        m = self.m[:, :, :cols]
        live = np.empty((len(self.shifts), ell + k + c, ell), dtype=m.dtype)
        live[:, :ell + k] = m @ np.concatenate((b_col, h_col))
        d = k + t * ell                 # column of the diagonal block
        live[:, :ell + k] += self.shifts[:, None, None] * m[..., d:d + ell]
        live[:, ell + k:] = sub
        self._pivot, self._g_pivot, self._sub = live[:, :ell].copy(), \
            self.g[:, :ell].copy(), sub
        qh, diag_max = _adjoint_q_factors(live)
        keep = qh[:, ell:]              # the rows the next step carries
        self.carry = k + c
        self.m[:, :k + c, :cols] = keep[..., :ell + k] @ m
        self.m[:, :k + c, cols:cols + c] = keep[..., ell + k:]
        self.g[:, :k + c] = (keep[..., :ell + k] @ self.g[..., None])[..., 0]
        self._pivot_scale = self._diag_max
        self._diag_max = np.maximum(self._diag_max, diag_max)
        self.steps = t + 1

    def residual(self):
        """Per shift, the least-squares residual norm
        ``min_y ||[rhs_i; 0] - [Hbar_j + sigma_i [I; 0]; B_j] y||``: the
        norm of the carried entries of ``g``."""
        return np.linalg.norm(self.g[:, :self.carry], axis=1)

    def galerkin_residual(self, rtol):
        """Per shift, the residual norm ``||S_j P_j^-1 g_pivot||`` of the
        square Galerkin system ``(H_j + sigma_i I) y = [rhs_i; 0]``
        (k = 0), and whether it is singular to working precision: the
        smallest singular value of ``P_j`` is at most ``rtol`` times the
        largest of ``P_j``'s norm and the triangle's earlier diagonal.  A
        singular shift's norm is NaN."""
        sv = np.linalg.svd(self._pivot, compute_uv=False)
        singular = sv[:, -1] <= rtol * np.maximum(self._pivot_scale, sv[:, 0])
        ok = ~singular
        y = np.linalg.solve(self._pivot[ok], self._g_pivot[ok, :, None])
        rho = np.full(len(self.shifts), np.nan)
        rho[ok] = np.linalg.norm(self._sub @ y, axis=(1, 2))
        return rho, singular

    def augmented_residual(self, p, q2, n_factor):
        """Per shift, the least-squares residual norm of the augmented
        matrix ``[[Hbar_j + sigma I, sigma P], [B_j, I + sigma Q2],
        [0, sigma N]]`` (see :func:`.recycling.assemble_augmented`).

        The k recycle columns are rotated by every stored factor; the
        norm is the last diagonal entry of the QR of the
        (L + 2k) x (k + 1) tail they leave beside the carried entries of
        ``g``.
        """
        k, carry = self.coupling_rows, self.carry
        m = self.m[:, :carry, :k + p.shape[0]]
        sig = self.shifts[:, None, None]
        tail = np.zeros((len(self.shifts), carry + k, k + 1), dtype=m.dtype)
        tail[:, :carry, :k] = m[..., :k] + sig * (m @ np.concatenate((q2, p)))
        tail[:, :carry, k] = self.g[:, :carry]
        tail[:, carry:, :k] = sig * n_factor
        geqrf, = scipy.linalg.get_lapack_funcs(("geqrf",), (tail,))
        return np.array([abs(geqrf(t)[0][k, k]) for t in tail])


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
    operations over the shift axis, with no refactorization.  The state
    takes the dtype of the offsets and right-hand sides together; for
    real data ``s`` is real and each rotation is a real Givens rotation.
    """

    def __init__(self, offsets, rhs, max_steps):
        self.offsets = np.asarray(offsets)
        dtype = np.result_type(self.offsets, np.asarray(rhs), np.float64)
        p = len(self.offsets)
        self.steps = 0
        self.c = np.zeros((p, max_steps))
        self.s = np.zeros((p, max_steps), dtype=dtype)
        self.r = np.zeros((p, max_steps, max_steps), dtype=dtype)
        self.g = np.zeros((p, max_steps + 1), dtype=dtype)
        self.g[:, 0] = rhs
        self.q = np.zeros((p, max_steps + 1), dtype=dtype)
        self.q[:, 0] = 1.0
        self.pivot = np.zeros(p, dtype=dtype)
        self.g_pivot = np.zeros(p, dtype=dtype)
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
        col = np.tile(np.asarray(h_col, dtype=self.g.dtype),
                      (len(self.offsets), 1))
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
        w = np.tile(np.asarray(v, dtype=self.g.dtype), (len(self.offsets), 1))
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


def _conjugate_closed_cut(vals, key, count):
    """The first entries of the ordering ``key`` of the eigenvalues
    ``vals`` of a real matrix (or pencil), cut at ``count`` unless that
    splits a conjugate pair: the cut then moves down to drop the pair
    whole, or up to keep it whole when dropping would leave nothing.  A
    selection is closed when it holds as many eigenvalues above the real
    axis as below.  A pair's members share modulus and real part, so the
    ordering puts them side by side and a cut moves by one for a simple
    pair."""
    def closed(cut):
        part = vals[key[:cut]].imag
        return np.count_nonzero(part > 0) == np.count_nonzero(part < 0)

    cut = count
    while cut > 0 and not closed(cut):
        cut -= 1
    if cut == 0:
        cut = count
        while cut < len(key) and not closed(cut):
            cut += 1
    return key[:cut]


def _real_pair_basis(vals, vecs):
    """Real basis of the span of the eigenvectors ``vecs`` of a real
    matrix, whose eigenvalues ``vals`` are closed under conjugation.

    A real eigenvalue keeps the real part of its vector.  A pair
    ``(lambda, conj lambda)`` with vectors ``(v, conj v)`` becomes the two
    columns ``[Re v, Im v]`` (v from the member above the real axis) at
    that member's place in the order, with values ``(lambda, conj
    lambda)``.  Returns ``(values, vectors, source)``, ``source[c]`` the
    column of ``vecs`` behind column c.
    """
    source = np.nonzero(~(vals.imag < 0))[0]
    source = np.repeat(source, np.where(vals[source].imag > 0, 2, 1))
    second = np.zeros(len(source), dtype=bool)
    second[1:] = source[1:] == source[:-1]
    values = np.where(second, vals[source].conj(), vals[source])
    vectors = np.where(second, vecs[:, source].imag, vecs[:, source].real)
    return values, vectors, source


def hessenberg_eigen(h, want, count):
    """Return ``count`` eigenpairs of a square (band) Hessenberg matrix.

    ``want`` selects the ordering: ``"largest"`` or ``"smallest"`` by
    modulus.  Ties break on (real, imag) ascending so results are
    deterministic.  The QR iteration is delegated to LAPACK, which runs
    shifted QR sweeps on the Hessenberg form and recovers vectors by back
    substitution / inverse iteration.

    For a real matrix the eigenproblem is solved in real arithmetic, a
    conjugate pair split by ``count`` is dropped whole (so ``count - 1``
    eigenpairs may come back; ``count + 1`` when the pair comes first, see
    :func:`_conjugate_closed_cut`) and ``vectors`` is the real basis of
    :func:`_real_pair_basis`; each column's residual is that of its
    complex eigenvector.
    """
    a = np.asarray(h)
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
    real = not np.iscomplexobj(a)
    key = _conjugate_closed_cut(vals, key, count) if real else key[:count]
    vals = vals[key]
    vecs = vecs[:, key]
    residuals = np.linalg.norm(a @ vecs - vecs * vals[None, :], axis=0)
    if real:
        vals, vecs, source = _real_pair_basis(vals, vecs)
        residuals = residuals[source]
    ordering = "by-modulus-descending" if want == "largest" else "by-modulus-ascending"
    return EigenPairs(vals, vecs, ordering, residuals)
