"""Subspace recycling: the recycle-space pair (U, C), orthogonal and
oblique residual projections, the shifted augmented coefficient matrix,
and Ritz-based space updates.

The recycle space stores a basis U together with its image C = A U, where
C has orthonormal columns.  For a shifted system the pair gives rise to an
oblique projector onto span(C + sigma U) along the orthogonal complement
of C: applying it to the residual keeps the residual computably consistent
with an updated approximation, at the cost of one k x k solve per shift.

A space is real when its U and C are (checked by value), and a real
family's Ritz updates keep it real: a conjugate pair of Ritz vectors
enters as the real basis ``[Re v, Im v]`` of its span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .arnoldi import BlockArnoldiState
from .dense import _conjugate_closed_cut, _real_pair_basis, hessenberg_eigen
from .errors import DimensionError, EigenConvergenceError, NearSingularError
from .sparse import (ShiftedFamily, SparseMatrix, block_matvec,
                     read_dense_matrix_market, working_array,
                     write_dense_matrix_market)

OBLIQUE_COND_LIMIT = 1e12


def _qr(m):
    """Thin QR ``m = q r`` with a real non-negative diagonal in ``r``.

    The sign convention makes ``q`` unique for full-rank ``m``, so the
    image basis of a recycle space does not depend on LAPACK's choice of
    reflector signs: each column of ``q`` is scaled by the phase of its
    diagonal entry, ``sign(d)`` for real data.  Requires at least as many
    rows as columns.
    """
    if m.shape[0] < m.shape[1]:
        raise DimensionError("QR of a recycle image needs n_rows >= n_cols")
    q, r = scipy.linalg.qr(m, mode="economic", check_finite=False)
    d = np.diag(r)
    if np.iscomplexobj(d):
        phase = np.exp(1j * np.angle(d))    # 1 where d == 0
    else:
        phase = np.where(d < 0, -1.0, 1.0)
    r = r * phase.conj()[:, None]
    r[np.diag_indices_from(r)] = np.abs(d)
    return q * phase, r


@dataclass(frozen=True)
class RecycleSpace:
    """Basis pair ``(u, c)`` with ``c = A u`` and ``c* c = I``.

    ``provenance`` records where the basis came from: ``initial``,
    ``ritz-largest``, ``harmonic-ritz-smallest`` or ``solutions``.  Both
    blocks are stored as float64 when all their entries are real, else as
    complex128; NaN or Inf raises :class:`DimensionError` naming ``u`` or
    ``c``.
    """

    u: np.ndarray
    c: np.ndarray
    provenance: str = "initial"

    def __post_init__(self):
        u = working_array("u", self.u)
        c = working_array("c", self.c)
        if u.ndim == 1:
            u = u[:, None]
        if c.ndim == 1:
            c = c[:, None]
        if u.shape != c.shape:
            raise DimensionError("u and c must have equal shape")
        dtype = np.result_type(u, c)
        object.__setattr__(self, "u", u.astype(dtype, copy=False))
        object.__setattr__(self, "c", c.astype(dtype, copy=False))

    @property
    def k(self):
        return self.u.shape[1]

    @classmethod
    def empty(cls, n, provenance="initial"):
        z = np.zeros((n, 0))
        return cls(z, z, provenance)

    @classmethod
    def from_basis(cls, a: SparseMatrix, basis, provenance="initial",
                   drop_tol=None):
        """Build a valid space from raw basis vectors.

        Computes ``A @ basis``, orthonormalizes the image by QR and folds
        the triangular factor back into ``u`` so that ``c = A u`` holds
        exactly in exact arithmetic.  With ``drop_tol`` set, columns whose
        image is numerically dependent are dropped instead of raising.
        """
        basis = working_array("basis", basis)
        if basis.ndim == 1:
            basis = basis[:, None]
        if basis.shape[1] == 0:
            return cls.empty(a.n_rows, provenance)
        image = block_matvec(a, basis)
        q, r = _qr(image)
        d = np.abs(np.diag(r))
        dmax = d.max() if d.size else 0.0
        if drop_tol is not None and dmax > 0.0:
            keep = d > drop_tol * dmax
            if not np.all(keep):
                basis = basis[:, keep]
                if basis.shape[1] == 0:
                    return cls.empty(a.n_rows, provenance)
                image = block_matvec(a, basis)
                q, r = _qr(image)
                d = np.abs(np.diag(r))
                dmax = d.max()
        if dmax == 0.0 or d.min() <= 1e-14 * dmax:
            raise NearSingularError(
                "A @ basis is numerically rank deficient; reduce k or pass "
                "drop_tol to prune dependent directions")
        u = scipy.linalg.solve_triangular(r, np.eye(r.shape[0], dtype=r.dtype))
        return cls(basis @ u, q, provenance)


def shift_rebase(space: RecycleSpace, delta) -> RecycleSpace:
    """Re-establish the space invariants after a pure diagonal shift.

    If ``c = A u`` holds, the image under ``A + delta I`` is
    ``c + delta u``; orthonormalizing it and folding the triangular
    factor into ``u`` rebuilds a valid space for the shifted operator
    without any new operator applications.
    """
    if space.k == 0 or delta == 0.0:
        return space
    image = space.c + delta * space.u
    q, r = _qr(image)
    d = np.abs(np.diag(r))
    if d.max() == 0.0 or d.min() <= 1e-14 * d.max():
        raise NearSingularError(
            f"shifted image C + {delta} U is numerically rank deficient; "
            "refresh the recycle space")
    u = space.u @ scipy.linalg.solve_triangular(
        r, np.eye(r.shape[0], dtype=r.dtype))
    return RecycleSpace(u, q, space.provenance)


def orthogonal_residual_projection(space: RecycleSpace, r):
    """Apply ``I - C C*`` to the columns of ``r``."""
    r = np.asarray(r)
    if space.k == 0:
        return r.copy()
    if r.shape[0] != space.c.shape[0]:
        raise DimensionError("row count does not match the recycle space")
    return r - space.c @ (space.c.conj().T @ r)


def oblique_project_shift(space: RecycleSpace, sigma, r, x, a: SparseMatrix):
    """Obliquely project one shifted residual and update its approximation.

    Returns ``(r_hat, x_hat)`` with ``r_hat`` orthogonal to span(C) and
    ``b - (A + sigma I) x_hat = r_hat`` preserved, using only U, C and a
    k x k solve of ``C* (C + sigma U)``.  A projector system with
    condition estimate beyond 1e12 raises :class:`NearSingularError`; the
    recycle space should be refreshed for that shift.  The results take
    the dtype of the inputs and the space together.
    """
    r = np.asarray(r).ravel()
    x = np.asarray(x).ravel()
    if space.k == 0:
        return r.copy(), x.copy()
    c, u = space.c, space.u
    m = c.conj().T @ (c + sigma * u)
    if np.linalg.cond(m) > OBLIQUE_COND_LIMIT:
        raise NearSingularError(
            f"oblique projector for shift {sigma} is near singular; "
            "refresh the recycle space")
    w = np.linalg.solve(m, c.conj().T @ r)
    r_hat = r - (c @ w + sigma * (u @ w))
    x_hat = x + u @ w
    return r_hat, x_hat


@dataclass(frozen=True)
class AugmentationBlocks:
    """QR-correction blocks shared by all shifts at one inner step.

    Factors ``[W_{j+1}  C  U] = [W_{j+1}  C  Uhat] T`` where T stacks
    ``p = W_{j+1}* U``, ``q2 = C* U`` and the triangular ``n_factor`` of
    the remainder, so ``[W_{j+1}  C  Uhat]`` has orthonormal columns.
    ``padded`` lists recycle directions that were numerically contained
    in span([W C]) and whose ``Uhat`` column is a filler direction with a
    zero ``n_factor`` column (the factorization stays exact).
    """

    p: np.ndarray
    q2: np.ndarray
    u_hat: np.ndarray
    n_factor: np.ndarray
    padded: tuple = ()


_CONTAINED_TOL = 1e-13


def augmentation_blocks(space: RecycleSpace, w_basis,
                        pad_seed=None) -> AugmentationBlocks:
    """Orthogonalize U against [W C] (two passes) and QR the remainder.

    A recycle direction whose remainder falls below ``1e-13`` of its own
    norm is numerically contained in span([W C]).  With ``pad_seed`` set,
    such a column of ``Uhat`` is replaced by a reproducible random filler
    orthogonal to everything and its triangular column is zeroed, which
    keeps the factorization exact; without a seed this raises
    :class:`NearSingularError` advising a smaller k.  When ``[W C]`` and
    the earlier ``Uhat`` columns already span the whole space, no filler
    exists and the column stays zero.  The blocks take the dtype of
    ``w_basis`` and the space together.
    """
    w_basis = np.asarray(w_basis)
    u, c = space.u, space.c
    k = space.k
    dtype = np.result_type(w_basis, u)
    p = np.zeros((w_basis.shape[1], k), dtype=dtype)
    q2 = np.zeros((k, k), dtype=dtype)
    d = u.astype(dtype)
    for _pass in range(2):
        cw = w_basis.conj().T @ d
        p += cw
        d = d - w_basis @ cw
        cc = c.conj().T @ d
        q2 += cc
        d = d - c @ cc
    u_norms = np.linalg.norm(u, axis=0)
    u_hat = np.zeros((u.shape[0], k), dtype=dtype)
    n_factor = np.zeros((k, k), dtype=dtype)
    padded = []
    for col in range(k):
        w = d[:, col].copy()
        for _pass in range(2):
            for i in range(col):
                coef = np.vdot(u_hat[:, i], w)
                n_factor[i, col] += coef
                w -= coef * u_hat[:, i]
        nrm = np.linalg.norm(w)
        if nrm <= _CONTAINED_TOL * max(u_norms[col], 1e-300):
            if pad_seed is None:
                raise NearSingularError(
                    f"recycle direction {col} is numerically contained in "
                    "span([W C]); reduce k")
            rng = np.random.default_rng(
                np.random.SeedSequence((pad_seed, col)))
            w = rng.standard_normal(u.shape[0]).astype(dtype)
            w_norm = np.linalg.norm(w)
            for _pass in range(2):
                w -= w_basis @ (w_basis.conj().T @ w)
                w -= c @ (c.conj().T @ w)
                w -= u_hat[:, :col] @ (u_hat[:, :col].conj().T @ w)
            nrm = np.linalg.norm(w)
            w = w / nrm if nrm > _CONTAINED_TOL * w_norm else np.zeros_like(w)
            n_factor[col, col] = 0.0
            padded.append(col)
        else:
            n_factor[col, col] = nrm
            w /= nrm
        u_hat[:, col] = w
    return AugmentationBlocks(p, q2, u_hat, n_factor, tuple(padded))


def shifted_hessenberg(hess, block_size, sigma):
    """``Hbar + sigma [I; 0]`` for a (steps+1)L x steps*L band Hessenberg."""
    h = np.array(hess, dtype=np.result_type(hess, sigma), copy=True)
    cols = h.shape[1]
    h[:cols, :] += sigma * np.eye(cols)
    return h


def assemble_augmented(hess, coupling, blocks: AugmentationBlocks,
                       block_size, sigma):
    """The shifted augmented coefficient matrix

    ``[[Hbar + sigma I, sigma W* U], [B, I + sigma C* U], [0, sigma N]]``

    mapping coefficients of ``[W_j  U]`` to coefficients of
    ``[W_{j+1}  C  Uhat]``.
    """
    h_sigma = shifted_hessenberg(hess, block_size, sigma)
    k = blocks.q2.shape[0]
    rows_h, cols_h = h_sigma.shape
    g = np.zeros((rows_h + 2 * k, cols_h + k),
                 dtype=np.result_type(h_sigma, coupling, blocks.p))
    g[:rows_h, :cols_h] = h_sigma
    g[:rows_h, cols_h:] = sigma * blocks.p
    g[rows_h:rows_h + k, :cols_h] = coupling
    g[rows_h:rows_h + k, cols_h:] = np.eye(k) + sigma * blocks.q2
    g[rows_h + k:, cols_h:] = sigma * blocks.n_factor
    return g


def _harmonic_matrix(h_sq, h_last):
    """Square Hessenberg block plus the standard low-rank correction whose
    eigenpairs are the harmonic Ritz pairs."""
    ell = h_last.shape[0]
    m = np.array(h_sq, dtype=np.result_type(h_sq, h_last), copy=True)
    rhs = np.zeros((m.shape[0], ell), dtype=m.dtype)
    rhs[-ell:, :] = h_last.conj().T @ h_last
    corr = np.linalg.solve(h_sq.conj().T, rhs)
    m[:, -ell:] += corr
    return m


def update_recycle_space(arn: BlockArnoldiState, mode: str, k: int,
                         space: RecycleSpace | None = None,
                         source: str = "hessenberg") -> RecycleSpace:
    """Extract a fresh k-dimensional recycle space from a cycle's data.

    ``mode`` is ``"ritz-largest"`` or ``"harmonic-ritz-smallest"``.  The
    default ``source`` extracts from the (projected) square Hessenberg
    block and lifts through W; ``source="augmented"`` solves the
    generalized problem over the pair [W U].  The returned space satisfies
    C = A U and C* C = I without any new operator applications: the image
    is reconstructed through the Arnoldi relation.

    Real data gives a real space.  Its Ritz pairs come from a real
    eigensolve; a conjugate pair that the cut at k would split is dropped
    whole, so such a space has k - 1 columns (k + 1 when k = 1), and each
    pair enters as the real basis ``[Re v, Im v]`` of its span (the
    convention of Morgan's GMRES-DR and of GCRO-DR).
    """
    if mode not in ("ritz-largest", "harmonic-ritz-smallest"):
        raise DimensionError(f"unknown recycle mode '{mode}'")
    if source not in ("hessenberg", "augmented"):
        raise DimensionError(f"unknown extraction source '{source}'")
    if k == 0:
        return RecycleSpace.empty(arn.basis.shape[0], provenance=mode)
    ell = arn.block_size
    j = arn.steps
    if j < 1:
        raise DimensionError("arnoldi state has no steps to extract from")
    h_sq = arn.hess[:j * ell, :]
    h_last = arn.hess[j * ell:(j + 1) * ell, (j - 1) * ell:]
    w = arn.w
    k_aug = space.k if (space is not None and arn.projector_c is not None) else 0
    n_cand = j * ell + (k_aug if source == "augmented" else 0)
    if k > n_cand:
        raise DimensionError(
            f"requested k={k} exceeds the {n_cand} available directions")

    if source == "hessenberg" or k_aug == 0:
        if mode == "ritz-largest":
            pairs = hessenberg_eigen(h_sq, "largest", k)
        else:
            try:
                m = _harmonic_matrix(h_sq, h_last)
            except np.linalg.LinAlgError as exc:
                raise EigenConvergenceError(
                    f"harmonic correction failed: {exc}")
            pairs = hessenberg_eigen(m, "smallest", k)
        coeff = pairs.vectors
        y = w @ coeff
        image = arn.basis @ (arn.hess @ coeff)
        if k_aug:
            image = image + space.c @ (arn.coupling @ coeff)
    else:
        u, c = space.u, space.c
        p = arn.basis.conj().T @ u
        q2 = c.conj().T @ u
        b = arn.coupling
        wj_u = p[:j * ell, :]
        if mode == "ritz-largest":
            a_side = np.block([[h_sq, np.zeros((j * ell, k_aug))],
                               [q2.conj().T @ b + p.conj().T @ arn.hess,
                                q2.conj().T]])
            b_side = np.block([[np.eye(j * ell), wj_u],
                               [wj_u.conj().T, u.conj().T @ u]])
            vals, vecs = scipy.linalg.eig(a_side, b_side, check_finite=False)
            key = np.lexsort((vals.imag, vals.real, np.abs(vals)))[::-1]
        else:
            gram = np.block(
                [[b.conj().T @ b + arn.hess.conj().T @ arn.hess, b.conj().T],
                 [b, np.eye(k_aug)]])
            mixed = np.block([[h_sq.conj().T,
                               b.conj().T @ q2 + arn.hess.conj().T @ p],
                              [np.zeros((k_aug, j * ell)), q2]])
            vals, vecs = scipy.linalg.eig(gram, mixed, check_finite=False)
            key = np.lexsort((vals.imag, vals.real, np.abs(vals)))
        if np.iscomplexobj(p):
            coeff = vecs[:, key[:k]]
        else:
            sel = _conjugate_closed_cut(vals, key, k)
            coeff = _real_pair_basis(vals[sel], vecs[:, sel])[1]
        wy = coeff[:j * ell, :]
        uz = coeff[j * ell:, :]
        y = w @ wy + u @ uz
        image = arn.basis @ (arn.hess @ wy) + c @ (b @ wy + uz)

    c_new, r_new = _qr(image)
    d = np.abs(np.diag(r_new))
    if d.size == 0 or d.max() == 0.0 or d.min() <= 1e-12 * d.max():
        raise NearSingularError(
            "lifted candidate images are rank deficient; keep previous space")
    u_new = y @ scipy.linalg.solve_triangular(
        r_new, np.eye(r_new.shape[0], dtype=r_new.dtype))
    return RecycleSpace(u_new, c_new, provenance=mode)


def save_recycle_space(path, space: RecycleSpace):
    """Serialize U to a dense Matrix Market array file (C is recomputed on
    load to re-establish the invariants)."""
    write_dense_matrix_market(path, space.u)


def load_recycle_space(path, a: SparseMatrix, provenance="initial",
                       drop_tol=None) -> RecycleSpace:
    basis = read_dense_matrix_market(path)
    return RecycleSpace.from_basis(a, basis, provenance, drop_tol=drop_tol)


def rsbgmres(family, cfg, space: RecycleSpace | None = None, *, k=None,
             mode="ritz-largest", source="hessenberg", update=True,
             strategy=None):
    """Recycled shifted block GMRES over one augmented block Krylov space.

    Each cycle obliquely projects every active shifted residual into the
    orthogonal complement of C (consistently updating the approximations),
    builds the projected block Arnoldi process from the projected
    residuals and minimizes each shifted residual over span(U) plus the
    block Krylov space.  At cycle end the recycle space is refreshed with
    Ritz data per ``mode`` unless ``update`` is False.

    With ``space=None`` (or k = 0) the first cycle runs unaugmented and is
    identical to plain shifted block GMRES.  Returns
    ``(x, report, updated_space)``.
    """
    from .block_solvers import _run_cycles
    target_k = k if k is not None else (space.k if space is not None else 0)
    return _run_cycles(family, cfg, kind="gmres", strategy=strategy,
                       space=space, recycle_k=target_k, recycle_mode=mode,
                       recycle_source=source, recycle_update=update,
                       method="rsbgmres")


def rgmres_baseline(a: SparseMatrix, b, x0, cfg,
                    space: RecycleSpace | None = None, *, k=None,
                    mode="harmonic-ritz-smallest", update=True):
    """Single-system recycled GMRES (the sequential comparator).

    Runs the recycled engine on the one-shift family with shift zero, so
    the oblique projector degenerates to the orthogonal one and the
    augmented subproblem reduces to the classic projected form.  Returns
    ``(x, report, updated_space)``.
    """
    family = ShiftedFamily(a, [0.0], b, x0)
    x, rep, out_space = rsbgmres(family, cfg, space, k=k, mode=mode,
                                 update=update)
    rep.method = "rgmres"
    return x[:, 0], rep, out_space
