"""Subspace recycling: the recycle-space pair (U, C), orthogonal and
oblique residual projections, the QR-correction blocks of the augmented
basis, and Ritz-based space updates.

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
from functools import cached_property

import numpy as np
import scipy.linalg

from .arnoldi import BlockArnoldiState, _project_out
from .dense import _conjugate_closed_cut, _real_pair_basis, hessenberg_eigen
from .errors import DimensionError, EigenConvergenceError, NearSingularError
from .sparse import (ShiftedFamily, SparseMatrix, block_matvec,
                     read_dense_matrix_market, working_array,
                     write_dense_matrix_market)

OBLIQUE_COND_LIMIT = 1e12
RECYCLE_MODES = ("ritz-largest", "harmonic-ritz-smallest")
EXTRACTION_SOURCES = ("hessenberg", "augmented")


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

    @cached_property
    def u_norms(self):
        """The column norms of ``u``, computed once per space."""
        return np.linalg.norm(self.u, axis=0)

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
        exactly in exact arithmetic.  With ``drop_tol`` < 1 set, columns
        whose image is numerically dependent are dropped instead of raising.
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
                # a block product's columns are exact single products
                basis, image = basis[:, keep], image[:, keep]
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
    ``p = W_{j+1}* U``, ``q2 = C* U`` and the upper triangular
    ``n_factor`` of the remainder, so ``[W_{j+1}  C  Uhat]`` has
    orthonormal columns.  ``remainder`` is ``D = U - W_{j+1} p - C q2``,
    the part of U that the next step's basis block is taken out of (see
    :func:`augmentation_blocks`), and ``Uhat n_factor`` is its QR.
    ``padded`` lists recycle directions that were numerically contained
    in span([W C]) and whose ``Uhat`` column is a filler direction with a
    zero diagonal entry in ``n_factor`` (the factorization stays exact).
    """

    p: np.ndarray
    q2: np.ndarray
    u_hat: np.ndarray
    n_factor: np.ndarray
    padded: tuple = ()
    remainder: np.ndarray | None = None


_CONTAINED_TOL = 1e-13


def augmentation_blocks(space: RecycleSpace, w_basis, pad_seed,
                        prev=None) -> AugmentationBlocks:
    """Orthogonalize U against [W C] and QR the remainder.

    ``prev`` holds the blocks of an earlier step of the same Arnoldi
    chain: only the columns of ``w_basis`` after its ``p`` rows are taken
    out of its carried remainder, one block at a time, so a cycle costs
    O(m) block updates.  Without ``prev`` the remainder starts from U,
    which gives up C and then all of ``w_basis`` as one block.  Every
    block goes in two passes of the Arnoldi process's chunked block
    Gram-Schmidt (BMGS2), and one LAPACK QR of the n x k remainder gives
    ``Uhat`` and ``n_factor`` (one more QR per padded direction, below).

    A recycle direction whose diagonal entry falls to ``1e-13`` of its
    own norm is numerically contained in span([W C]).  Such a column of
    ``Uhat`` is a random filler, reproducible from ``pad_seed``,
    orthogonal to ``[W C]`` and the ``Uhat`` columns before it, and its
    ``n_factor`` column holds only its coefficients on those earlier
    columns, which keeps the factorization exact.  When ``[W C]``
    and the earlier ``Uhat`` columns already span the whole space, no
    filler exists and the column stays zero.  The blocks take the dtype
    of ``w_basis`` and the space together.
    """
    w_basis = np.asarray(w_basis)
    u, c = space.u, space.c
    dtype = np.result_type(w_basis, u)
    if prev is None:
        d = np.array(u, dtype=dtype, order="F")
        q2, = _project_out(d, c)
        p = np.zeros((0, space.k), dtype=dtype)
    else:
        d = prev.remainder.copy(order="F")
        q2, p = prev.q2, prev.p
    p = np.vstack([p, *_project_out(d, w_basis[:, p.shape[0]:])])
    tol = _CONTAINED_TOL * np.maximum(space.u_norms, 1e-300)
    geqrf, orgqr = scipy.linalg.get_lapack_funcs(("geqrf", "orgqr"), (d,))
    m, padded = d, []
    while True:
        qr, tau = geqrf(m)[:2]
        n_factor = np.triu(qr[:space.k])
        diag = np.abs(np.diagonal(n_factor))
        after = padded[-1] + 1 if padded else 0
        contained = np.nonzero(diag[after:] <= tol[after:])[0]
        if not contained.size:
            break
        col = after + int(contained[0])
        # the Householder columns from here on are not orthogonal to
        # [W C]: put a filler in this column and QR once more
        rng = np.random.default_rng(np.random.SeedSequence((pad_seed, col)))
        f = rng.standard_normal((u.shape[0], 1)).astype(dtype)
        # the column's diagonal entry is now the filler's, on its scale
        tol[col] = _CONTAINED_TOL * np.linalg.norm(f)
        _project_out(f, w_basis, c)
        m = m.copy() if m is d else m
        m[:, col:col + 1] = f
        padded.append(col)
    u_hat = orgqr(qr, tau, overwrite_a=True)[0]
    if padded:
        # an exhausted filler leaves its column zero; a padded direction
        # keeps its coefficients on the Uhat columns before it
        u_hat[:, padded] *= diag[padded] > tol[padded]
        above = np.arange(space.k)[:, None] < np.array(padded)
        n_factor[:, padded] = above * (u_hat.conj().T @ d[:, padded])
    return AugmentationBlocks(p, q2, u_hat, n_factor, tuple(padded), d)


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
    _check_extraction(mode, source)
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


def _check_extraction(mode, source):
    if mode not in RECYCLE_MODES:
        raise DimensionError(f"unknown recycle mode '{mode}'")
    if source not in EXTRACTION_SOURCES:
        raise DimensionError(f"unknown extraction source '{source}'")


def save_recycle_space(path, space: RecycleSpace):
    """Serialize U to a dense Matrix Market array file (C is recomputed on
    load to re-establish the invariants)."""
    write_dense_matrix_market(path, space.u)


def load_recycle_space(path, a: SparseMatrix, drop_tol=None) -> RecycleSpace:
    basis = read_dense_matrix_market(path)
    return RecycleSpace.from_basis(a, basis, drop_tol=drop_tol)


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
    identical to plain shifted block GMRES.  An unknown ``mode`` or
    ``source`` raises at entry.  Returns ``(x, report, updated_space)``.
    """
    from .block_solvers import _run_cycles
    _check_extraction(mode, source)
    target_k = k if k is not None else (space.k if space is not None else 0)
    return _run_cycles(family, cfg, kind="gmres", strategy=strategy,
                       space=space, recycle_k=target_k if update else 0,
                       recycle_mode=mode, recycle_source=source,
                       method="rsbgmres")


def rgmres_baseline(a: SparseMatrix, b, x0, cfg,
                    space: RecycleSpace | None = None, *, k=None,
                    mode="harmonic-ritz-smallest"):
    """Single-system recycled GMRES (the sequential comparator).

    Runs the recycled engine on the one-shift family with shift zero, so
    the oblique projector degenerates to the orthogonal one and the
    augmented subproblem reduces to the classic projected form.  Returns
    ``(x, report, updated_space)``.
    """
    family = ShiftedFamily(a, [0.0], b, x0)
    x, rep, out_space = rsbgmres(family, cfg, space, k=k, mode=mode)
    rep.method = "rgmres"
    return x[:, 0], rep, out_space
