"""Small dense kernels on Krylov coefficient data: :class:`ShiftedBandQR`,
the QR factor of the shifted (projected, augmented) block Hessenberg
matrices of a whole family, updated one Arnoldi step at a time (by one
batched Householder QR per step, or at block size one without coupling
rows by one Givens rotation per shift), from which every solver reads its
per-step residual estimates and solves its cycle-end subproblems; and a
Hessenberg eigensolver for Ritz extraction.

Every kernel works in the dtype of its input, real or complex, and takes
its LAPACK routines for that dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .arnoldi import _negligible, _routine
from .errors import DimensionError, EigenConvergenceError


def _solve(a, b):
    """``a_i x_i = b_i`` for a stack of square systems and vectors."""
    return np.linalg.solve(a, b[..., None])[..., 0]


def _apply(a, b):
    """``a_i b_i`` for a stack of matrices and vectors."""
    return (a @ b[..., None])[..., 0]


def _upper_solve(r, b, which):
    """``b_i = R_i^-1 b_i`` in place for each ``i`` in ``which``, ``R_i``
    the upper triangle of ``r[i]`` (only it is read): one LAPACK
    ``trtrs`` per system."""
    trtrs = _routine("trtrs", np.result_type(r, b))
    for i in which:
        b[i] = trtrs(r[i], b[i, :, None])[0][:, 0]


class ShiftedBandQR:
    """QR of ``G_i = [B_j; Hbar_j + sigma_i [I; 0]]`` for every shift
    ``sigma_i`` of a family at once, one block column per block Arnoldi
    step, and the solve of every shift's subproblem from it.

    ``Hbar_j`` is the (j+1)L x jL band Hessenberg matrix of block size L,
    ``B_j`` its k x jL coupling rows; ``rhs_i`` is shift i's right-hand
    side on the first L rows of ``Hbar_j``, then optionally on the
    coupling rows.  Step t factors the live block (the L + k rows carried
    from the steps before and the new subdiagonal rows) by a ``Q_t`` that
    finishes its first L rows: the complete QR of every shift's block in
    one batched LAPACK call or, at L = 1 with k = 0 (single-vector GMRES
    and FOM and the collinear methods), one closed-form Givens rotation
    per shift on a 2 x 1 column.  Per shift the state keeps ``q``, the rows
    of ``Q_t* ... Q_0*`` over the rows of ``G_i`` (coupling rows first),
    the tL finished rows then the carried ones; ``g``, the right-hand
    side rotated alike, whose carried entries' norm is the least-squares
    residual; and ``r``, the triangle of ``G_i`` in the finished rows.
    One product by ``q`` gives a new column's triangle entries and live
    block, one more applies ``Q_t``: O(1) array operations per step for
    the family.  Each estimate is NaN for a shift whose subproblem is
    singular (:func:`.arnoldi._negligible` beside ``norm + |sigma_i|``,
    ``norm`` the Frobenius norm of the operator behind ``Hbar_j``), and
    :meth:`solve` returns the coefficients of the subproblem of the
    estimate read last.  The dtype is that of the shifts and right-hand
    sides.
    """

    def __init__(self, shifts, rhs, block_size, coupling_rows, max_steps,
                 norm):
        self._buf = np.empty(0)
        self.restart(shifts, rhs, block_size, coupling_rows, max_steps, norm)

    def restart(self, shifts, rhs, block_size, coupling_rows, max_steps,
                norm):
        """Start over as a new state would, in this one's memory where it
        is large enough: a restarted solver then allocates no fresh pages
        per cycle.  Returns the state."""
        self.shifts = np.asarray(shifts)
        # bounds ||H_j + sigma_i I|| at every step, the first included
        self._scale = norm + np.abs(self.shifts)
        rhs = np.asarray(rhs)
        dtype = np.result_type(self.shifts, rhs, np.float64)
        p = len(self.shifts)
        self.block_size = ell = int(block_size)
        self.coupling_rows = k = int(coupling_rows)
        self.steps = 0
        self.carry = ell + k
        rows, tri = k + (max_steps + 1) * ell, max_steps * ell
        n_q, n_r = p * (tri + ell + k) * rows, p * tri * tri
        end = n_q + n_r + p * (tri + ell + k)
        if len(self._buf) < end or self._buf.dtype != dtype:
            self._buf = np.empty(end, dtype=dtype)
        self._buf[:end] = 0.0
        self.q = self._buf[:n_q].reshape(p, tri + ell + k, rows)
        self.r = self._buf[n_q:n_q + n_r].reshape(p, tri, tri)
        self.g = self._buf[n_q + n_r:end].reshape(p, tri + ell + k)
        # before the first step the carried rows are H rows 0..L-1, then
        # the coupling rows
        for i in range(ell):
            self.q[:, i, k + i] = 1.0
        for i in range(k):
            self.q[:, ell + i, i] = 1.0
        self.g[:, :rhs.shape[1]] = rhs
        # the smallest |r_ii| so far, and before the latest step
        self._diag_min = np.full(p, np.inf)
        self._pivot = self._g_pivot = self._sub = self._read = None
        return self

    def append(self, h_col, sub, b_col):
        """Add block column t+1: ``h_col`` holds its (t+1)L rows on and
        above the diagonal block (shared by every shift), ``sub`` its
        upper triangular subdiagonal block (fewer rows, or none, when the
        relation closed on an invariant span) and ``b_col`` its k
        coupling rows."""
        ell, k, t = self.block_size, self.coupling_rows, self.steps
        sub = np.asarray(sub)
        self._g_pivot = self.g[:, t * ell:(t + 1) * ell].copy()
        self._sub, self._before = sub, self._diag_min
        if ell == 1 and k == 0:
            low = self._givens_step(np.asarray(h_col)[:, 0], sub)
        else:
            low = self._householder_step(np.concatenate((b_col, h_col)), sub)
        self._diag_min = np.minimum(self._diag_min, low)
        self.carry = k + len(sub)
        self.steps = t + 1

    def _householder_step(self, h, sub):
        """Step t for the block column ``h`` (coupling rows first) over
        ``sub``: rotate it by every earlier factor, which gives the
        triangle's part in the finished rows and the live block in the
        carried ones, and finish the live block by the complete QR of
        each shift's block, one batched LAPACK call, whose ``Q_t*`` goes
        onto the carried rows of ``q`` and ``g``.  Returns the smallest
        |diagonal entry| of each shift's new triangle block."""
        ell, k, t = self.block_size, self.coupling_rows, self.steps
        c, top, cols = len(sub), t * ell, k + (t + 1) * ell
        d = k + t * ell                 # column of the diagonal block
        q = self.q[:, :top + ell + k, :cols]
        col = q @ h
        col += self.shifts[:, None, None] * q[..., d:d + ell]
        live = np.empty((len(self.shifts), ell + k + c, ell), dtype=col.dtype)
        live[:, :ell + k] = col[:, top:]
        live[:, ell + k:] = sub
        self._pivot = live[:, :ell]
        qt, tri = np.linalg.qr(live, mode="complete")
        qh = qt.conj().transpose(0, 2, 1)
        col[:, top:top + ell] = tri[:, :ell]
        self.r[:, :top + ell, top:top + ell] = col[:, :top + ell]
        # Q_t* on the carried rows; the new subdiagonal rows enter as
        # identity rows with a zero right-hand side
        rows = slice(top, top + ell + k + c)
        self.q[:, rows, :cols] = qh[..., :ell + k] @ q[:, top:]
        self.q[:, rows, cols:cols + c] = qh[..., ell + k:]
        self.g[:, rows] = _apply(qh[..., :ell + k],
                                 self.g[:, top:top + ell + k])
        return np.abs(np.diagonal(tri, 0, 1, 2)).min(axis=1)

    def _givens_step(self, h, sub):
        """Step t at block size one with k = 0 for the column ``h`` over
        the subdiagonal entry ``b`` in ``sub`` (none when the relation
        closed): rotate it by every earlier factor, which gives the
        triangle's part in rows 0..t-1 and the live entry ``a`` in row t,
        and finish it by one Givens rotation per shift,
        ``Q_t* = [[c, s], [-s*, c*]]`` with ``c = a* / nu``, ``s = b* / nu``
        and ``nu = |(a, b)|``, which sends ``(a, b)`` to ``(nu, 0)`` for
        complex ``a`` and ``b`` alike, applied to the carried row of ``q``
        and ``g``.  A zero column (``nu = 0``) gets the identity, ``c = 1``
        and ``s = 0``, and its zero diagonal entry marks the shift
        singular.  Returns ``nu``, each shift's new diagonal entry."""
        t = self.steps
        q = self.q[:, :t + 1, :t + 1]
        col = q @ h
        col += self.shifts[:, None] * q[:, :, t]
        self._pivot = col[:, t:, None]
        a = col[:, t]
        b = sub[0, 0] if len(sub) else 0.0
        nu = np.hypot(np.abs(a), abs(b))
        zero = nu == 0.0
        scale = nu + zero
        cos, sin = (a.conj() + zero) / scale, np.conj(b) / scale
        r = self.r[:, :t + 1, t]
        r[...] = col
        r[:, t] = nu
        # the new subdiagonal row t + 1 enters as an identity row with a
        # zero right-hand side; both rows are zero right of column t + 1
        row, g = self.q[:, t, :t + 2], self.g
        if len(sub):
            below = -sin.conj()
            np.multiply(row, below[:, None], out=self.q[:, t + 1, :t + 2])
            self.q[:, t + 1, t + 1] = cos.conj()
            np.multiply(below, g[:, t], out=g[:, t + 1])
        row *= cos[:, None]
        row[:, t + 1] = sin
        g[:, t] *= cos
        return nu

    def residual(self):
        """Per shift, ``min_y ||rhs_i - G_i y||``, the norm of the carried
        entries of ``g``; NaN where a diagonal entry of the triangle is
        :func:`.arnoldi._negligible` beside the shift's scale (a singular
        problem, whose ``g`` misses part of its residual)."""
        top = self.steps * self.block_size
        if self.carry == 1:
            rho = np.abs(self.g[:, top])
        else:
            rho = np.linalg.norm(self.g[:, top:top + self.carry], axis=1)
        rho[_negligible(self._diag_min, self._scale)] = np.nan
        self._read = ("least-squares", np.isnan(rho))
        return rho

    def galerkin_residual(self):
        """Per shift, the residual norm ``||S_j P_j^-1 g_pivot||`` of the
        Galerkin system ``(H_j + sigma_i I) y = rhs_i`` (k = 0), and
        whether it is singular (NaN norm): the smaller of the pivot
        block's smallest singular value and the triangle's earlier
        diagonal is :func:`.arnoldi._negligible` beside the shift's scale."""
        rho = np.full(len(self.shifts), np.nan)
        if self.block_size == 1:
            # the pivot is one entry per shift, its own singular value
            piv = np.abs(self._pivot[:, 0, 0])
            singular = _negligible(np.minimum(piv, self._before), self._scale)
            sub = abs(self._sub[0, 0]) if len(self._sub) else 0.0
            np.divide(sub * np.abs(self._g_pivot[:, 0]), piv, out=rho,
                      where=~singular)
        else:
            sv = np.linalg.svd(self._pivot, compute_uv=False)[:, -1]
            singular = _negligible(np.minimum(sv, self._before), self._scale)
            ok = ~singular
            y = _solve(self._pivot[ok], self._g_pivot[ok])
            rho[ok] = np.linalg.norm(_apply(self._sub, y), axis=1)
        self._read = ("Galerkin", singular)
        return rho, singular

    def augmented_residual(self, p, q2, n_factor, alone):
        """Per shift, the least-squares residual norm of the augmented
        matrix ``[[B_j, I + sigma Q2], [Hbar_j + sigma [I; 0], sigma P],
        [0, sigma N]]`` (the rows of ``G_i``, then one per row of N): the
        last diagonal entry of the QR of the tail that the rotated recycle
        columns leave beside the carried entries of ``g`` (zero rows pad
        it to k + 1 rows), one batched QR for the family.  A shift marked
        in ``alone``, or whose tail has a diagonal entry negligible beside
        ``1 + |sigma_i| ||[Q2; P; N] e_j||`` (recycle column j adds nothing
        beyond the band), has no recycle columns.  NaN where the band
        triangle is singular (:meth:`residual`)."""
        k, carry = self.coupling_rows, self.carry
        top = self.steps * self.block_size
        qc = self.q[:, top:top + carry, :top + carry]
        sig = self.shifts[:, None, None]
        uhat_rows = slice(carry, carry + len(n_factor))
        tail = np.zeros((len(self.shifts), max(uhat_rows.stop, k + 1), k + 1),
                        dtype=np.result_type(qc, p))
        turned = np.concatenate((q2, p))
        tail[:, :carry, :k] = qc[..., :k] + sig * (qc @ turned)
        tail[:, :carry, k] = self.g[:, top:top + carry]
        tail[:, uhat_rows, :k] = sig * n_factor
        # R of each tail in the upper triangle of the transposed raw factor
        raw = np.linalg.qr(tail, mode="raw")[0]
        diag = np.abs(np.diagonal(raw, axis1=1, axis2=2))
        u_norms = np.linalg.norm(np.concatenate((turned, n_factor)), axis=0)
        alone = alone | np.any(_negligible(
            diag[:, :k], 1.0 + np.abs(self.shifts)[:, None] * u_norms), axis=1)
        rho = diag[:, k].copy()
        rho[alone] = np.linalg.norm(tail[alone, :carry, k], axis=1)
        singular = _negligible(self._diag_min, self._scale)
        rho[singular] = np.nan
        self._read = ("augmented", singular, turned, raw, alone)
        return rho

    def solve(self, rhs=None):
        """Per shift, the coefficients ``y_i`` of the subproblem whose
        estimate was read last, zero where it was NaN, by one back
        substitution on the kept triangles, one LAPACK ``trtrs`` per
        shift: ``y = R^-1 g_top``; for Galerkin the latest pivot block
        stands in for the last diagonal block and is solved first; an
        augmented solve first takes the recycle coefficients ``z`` (0 for a
        shift alone) from the tail triangle, then ``y = R^-1 (g_top - T_top
        z)``, ``z`` after ``y``.  ``rhs`` replaces a least-squares solve's
        right-hand sides."""
        kind, skip, *recycle = self._read
        ell, k = self.block_size, self.coupling_rows
        top = self.steps * ell
        q = self.q[:, :top, :top + self.carry]
        y = self.g[:, :top].copy() if rhs is None else _apply(q, rhs)
        z = np.zeros((len(y), 0))
        solved = np.nonzero(~skip)[0]
        tri = top                       # order of R's triangle left to solve
        if kind == "augmented":
            turned, raw, alone = recycle
            # the tail's R is the upper triangle of each raw factor's
            # transpose
            fit = np.nonzero(~(skip | alone))[0]
            z = np.zeros((len(y), k), dtype=raw.dtype)
            z[fit] = raw[fit, k, :k]
            _upper_solve(raw[:, :k, :k].transpose(0, 2, 1), z, fit)
            # the recycle columns rotated by every factor, times z
            y -= _apply(q[..., :k] + self.shifts[:, None, None] * (
                q @ turned), z)
        elif kind == "Galerkin":
            # the latest pivot block stands in for R's last diagonal block
            tri -= ell
            if ell == 1:
                y[solved, tri] = self._g_pivot[solved, 0] \
                    / self._pivot[solved, 0, 0]
            else:
                y[solved, tri:] = _solve(self._pivot[solved],
                                         self._g_pivot[solved])
            y[:, :tri] -= _apply(self.r[:, :tri, tri:top], y[:, tri:])
        # back substitution over chunks of whole blocks, about 32 columns
        # each, from the last: one trtrs per shift on the chunk's triangle,
        # then one batched product for the rows above it.  The chunks keep
        # one order of the sums on purpose: with nearly dependent
        # right-hand sides rounding here can decide a convergence step (one
        # trtrs per shift on the whole triangle moves perfbench's
        # smooth-param at seed 2 by one block step of its sbgmres group)
        width = ell * -(-32 // ell)
        for stop in range(tri, 0, -width):
            cols = slice(max(stop - width, 0), stop)
            _upper_solve(self.r[:, cols, cols], y[:, cols], solved)
            y[:, :cols.start] -= _apply(self.r[:, :cols.start, cols],
                                        y[:, cols])
        return np.where(~skip[:, None], np.concatenate((y, z), axis=1), 0.0)


@dataclass(frozen=True)
class EigenPairs:
    """Eigenpairs of a small matrix with the per-pair residual norms
    ``||M v - lambda v||`` kept for checking."""

    values: np.ndarray
    vectors: np.ndarray
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
        raise EigenConvergenceError(f"QR iteration failed: {exc}")
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
    return EigenPairs(vals, vecs, residuals)
