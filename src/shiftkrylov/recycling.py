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

from .arnoldi import BlockArnoldiState, _negligible, _project_out
from .dense import hessenberg_eigen
from .errors import DimensionError, NearSingularError
from .sparse import (ShiftedFamily, SparseMatrix, block_matvec,
                     read_dense_matrix_market, working_array)

RECYCLE_MODES = ("ritz-largest", "harmonic-ritz-smallest")
# relative QR diagonal entry of ``A @ basis`` below which
# :meth:`RecycleSpace.from_basis` drops a column
DROP_TOL = 1e-12


def _fold(u, image, scale, provenance, message):
    """The space ``(u R^-1, Q)`` of the thin QR ``image = Q R``, ``image``
    the image of ``u``: ``C = A U`` holds whenever ``image = A u`` does.

    ``R`` gets a real non-negative diagonal (each column of ``Q`` scaled
    by the phase of its diagonal entry), so ``Q`` does not depend on
    LAPACK's reflector signs.  A diagonal entry negligible beside its
    column's ``scale`` (:func:`.arnoldi._negligible`), a bound on that
    column's image (an operator norm estimate times the column norm of
    ``u``), raises :class:`NearSingularError` with ``message``.  A basis
    wider than it is tall raises :class:`DimensionError`.
    """
    if image.shape[0] < image.shape[1]:
        raise DimensionError("QR of a recycle image needs n_rows >= n_cols")
    q, r = scipy.linalg.qr(image, mode="economic", check_finite=False)
    d = np.diag(r)
    phase = np.exp(1j * np.angle(d)) if np.iscomplexobj(d) \
        else np.where(d < 0, -1.0, 1.0)     # 1 where d == 0
    r = r * phase.conj()[:, None]
    r[np.diag_indices_from(r)] = np.abs(d)
    if np.any(_negligible(np.abs(d), scale)):
        raise NearSingularError(message)
    u = u @ scipy.linalg.solve_triangular(r, np.eye(len(r), dtype=r.dtype))
    return RecycleSpace(u, q * phase, provenance)


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
    def from_basis(cls, a: SparseMatrix, basis, provenance="initial"):
        """Build a valid space from raw basis vectors by :func:`_fold` of
        ``A @ basis``, whose scale is ``||A||_F`` times each column norm.
        Columns whose QR diagonal entry of ``A @ basis`` falls to
        :data:`DROP_TOL` times the largest are dropped first, so a
        dependent basis gives a narrower space; one that still holds a
        negligible direction raises :class:`NearSingularError`."""
        basis = working_array("basis", basis)
        if basis.ndim == 1:
            basis = basis[:, None]
        if basis.shape[1] == 0:
            return cls.empty(a.n_rows, provenance)
        image = block_matvec(a, basis)
        if image.shape[0] >= image.shape[1]:
            d = np.abs(np.diag(scipy.linalg.qr(image, mode="r")[0]))
            keep = d >= DROP_TOL * d.max()
            # a block product's columns are exact single products
            basis, image = basis[:, keep], image[:, keep]
        return _fold(basis, image, a.frobenius_norm * np.linalg.norm(
            basis, axis=0), provenance, "A @ basis is numerically rank "
            "deficient")


def shift_rebase(space: RecycleSpace, delta) -> RecycleSpace:
    """Re-establish the space invariants after a pure diagonal shift.

    If ``c = A u`` holds, the image under ``A + delta I`` is
    ``c + delta u``; orthonormalizing it and folding the triangular
    factor into ``u`` rebuilds a valid space for the shifted operator
    without any new operator applications.
    """
    if space.k == 0 or delta == 0.0:
        return space
    return _fold(space.u, space.c + delta * space.u,
                 1.0 + abs(delta) * space.u_norms, space.provenance,
                 f"shifted image C + {delta} U is numerically rank "
                 "deficient; refresh the recycle space")


def oblique_project_shift(space: RecycleSpace, sigma, r, x):
    """Obliquely project one shifted residual and update its approximation.

    Returns ``(r_hat, x_hat)`` with ``r_hat`` orthogonal to span(C) and
    ``b - (A + sigma I) x_hat = r_hat`` preserved, using only U, C and a
    k x k solve of ``m = C* (C + sigma U)``.  An ``m`` whose smallest
    singular value is :func:`.arnoldi._negligible` beside its bound
    ``1 + |sigma| ||U||_F`` raises :class:`NearSingularError`.  The
    results take the dtype of the inputs and the space together.
    """
    r, x = np.asarray(r).ravel(), np.asarray(x).ravel()
    if space.k == 0:
        return r.copy(), x.copy()
    c, u = space.c, space.u
    m = c.conj().T @ (c + sigma * u)
    if _negligible(np.linalg.svd(m, compute_uv=False)[-1],
                   1.0 + abs(sigma) * np.linalg.norm(space.u_norms)):
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
    ``p = W_{j+1}* U``, ``q2 = C* U`` and the k' x k ``n_factor``, and
    ``[W_{j+1}  C  Uhat]`` has orthonormal columns.  ``remainder`` is
    ``D = U - W_{j+1} p - C q2`` (see :func:`augmentation_blocks`) and
    ``Uhat n_factor`` its QR; ``Uhat`` itself is never formed, since the
    solvers need only T.  ``padded`` lists, in increasing order, the
    recycle directions numerically contained in span([W C Uhat]); they
    have no ``Uhat`` column, so k' = k - len(padded).
    """

    p: np.ndarray
    q2: np.ndarray
    n_factor: np.ndarray
    padded: tuple = ()
    remainder: np.ndarray | None = None


def augmentation_blocks(space: RecycleSpace, w_basis,
                        prev=None) -> AugmentationBlocks:
    """Orthogonalize U against [W C] and QR the remainder.

    ``prev`` holds the blocks of an earlier step of the same Arnoldi
    chain: only the columns of ``w_basis`` after its ``p`` rows are taken
    out of its carried remainder, one block at a time, so a cycle costs
    O(m) block updates.  Without ``prev`` the remainder starts from U,
    which gives up C and then all of ``w_basis`` as one block.  Every
    block goes in two passes of the Arnoldi process's chunked block
    Gram-Schmidt (BMGS2), and one LAPACK ``geqrf`` of the remainder's
    columns gives ``n_factor``.

    A recycle direction whose diagonal entry is negligible beside its own
    norm (:func:`.arnoldi._negligible`) is numerically contained in
    span([W C]) and the ``Uhat`` columns before it, so it adds nothing to
    the space the shifted residuals are minimized over: it gets no
    ``Uhat`` column, and the QR runs again with it ordered after the
    others, so its ``n_factor`` column, ``Uhat* D``, is read off the same
    triangle.  Once contained a direction stays so (its remainder only
    loses components as the basis grows), so the QR starts from those
    ``prev`` lists.  The blocks take the dtype of ``w_basis`` and the
    space together.
    """
    w_basis = np.asarray(w_basis)
    u, c = space.u, space.c
    dtype = np.result_type(w_basis, u)
    keep = np.ones(space.k, dtype=bool)
    if prev is None:
        d = np.array(u, dtype=dtype, order="F")
        q2, = _project_out(d, c)
        p = np.zeros((0, space.k), dtype=dtype)
    else:
        d = prev.remainder.copy(order="F")
        q2, p = prev.q2, prev.p
        keep[list(prev.padded)] = False
    p = np.vstack([p, *_project_out(d, w_basis[:, p.shape[0]:])])
    geqrf = scipy.linalg.get_lapack_funcs("geqrf", (d,))
    while True:
        cols = np.nonzero(keep)[0]
        order = np.concatenate((cols, np.nonzero(~keep)[0]))
        # the rows of R over the kept columns; Householder QR makes those
        # over the contained columns after them Uhat* D
        r = np.triu(geqrf(d if keep.all() else d[:, order])[0][:len(cols)])
        contained = _negligible(np.abs(np.diagonal(r)), space.u_norms[cols])
        if not contained.any():
            break
        # the Householder columns after it are taken against its rounding
        # noise: drop it and judge them again
        keep[cols[np.argmax(contained)]] = False
    n_factor = np.empty((len(cols), space.k), dtype=dtype)
    n_factor[:, order] = r
    return AugmentationBlocks(p, q2, n_factor,
                              tuple(np.nonzero(~keep)[0].tolist()), d)


def update_recycle_space(arn: BlockArnoldiState, mode: str, k: int,
                         space: RecycleSpace | None = None) -> RecycleSpace:
    """Extract a fresh k-dimensional recycle space from a cycle's data.

    ``"ritz-largest"`` lifts through W the Ritz vectors of the largest
    Ritz values of the square Hessenberg block.  ``"harmonic-ritz-smallest"``
    takes the harmonic Ritz vectors of the smallest harmonic Ritz values
    over [W U], U the ``space`` that ``arn`` was projected against, by
    GCRO-DR's pencil (Parks et al., SISC 2006): with ``A [W U] = [W_{j+1}
    C] G``, ``G* G g = theta G* [W_{j+1} C]* [W U] g``, so the previous
    space carries over where it still serves.  With ``G = Q R`` that is
    the standard eigenproblem of ``Q* [W_{j+1} C]* [W U] R^-1`` for
    ``1/theta`` and ``R g``: one QR iteration, not a QZ iteration.  The
    image comes through the Arnoldi relation, with no new products; a
    candidate whose image is :func:`.arnoldi._negligible` beside
    ``||[Hbar; B]||`` times its norm raises :class:`NearSingularError`.

    Real data gives a real space: a conjugate pair that the cut at k
    would split is dropped whole (k - 1 columns, k + 1 when k = 1), and
    each pair enters as the real basis ``[Re v, Im v]`` of its span (the
    convention of Morgan's GMRES-DR and of GCRO-DR).
    """
    _check_mode(mode)
    n, rows = arn.basis.shape
    if k == 0:
        return RecycleSpace.empty(n, provenance=mode)
    j = arn.steps
    if j < 1:
        raise DimensionError("arnoldi state has no steps to extract from")
    hess, b = arn.hess, arn.coupling
    jl = hess.shape[1]
    c = arn.projector_c if arn.projector_c is not None else np.zeros((n, 0))
    if mode == "ritz-largest":
        wy = hessenberg_eigen(hess[:jl], k).vectors
        y = arn.w @ wy
        image = arn.basis @ (hess @ wy) + c @ (b @ wy)
    else:
        u = space.u if space is not None and len(b) else np.zeros((n, 0))
        ku = u.shape[1]
        # G, and v = [W_{j+1} C]* [W U]
        g = np.block([[hess, np.zeros((rows, ku))], [b, np.eye(len(b), ku)]])
        v = np.block([[np.eye(rows, jl), arn.basis.conj().T @ u],
                      [np.zeros((len(b), jl)), c.conj().T @ u]])
        q, r = np.linalg.qr(g)
        m = scipy.linalg.solve_triangular(r, (q.conj().T @ v).T, trans="T")
        coeff = scipy.linalg.solve_triangular(
            r, hessenberg_eigen(m.T, k).vectors)
        y = arn.w @ coeff[:jl] + u @ coeff[jl:]
        image = arn.basis @ (g[:rows] @ coeff) + c @ (g[rows:] @ coeff)
    scale = np.hypot(np.linalg.norm(hess), np.linalg.norm(b))
    return _fold(y, image, scale * np.linalg.norm(y, axis=0), mode,
                 "lifted candidate images are rank deficient")


def _check_mode(mode):
    if mode not in RECYCLE_MODES:
        raise DimensionError(f"unknown recycle mode '{mode}'")


def load_recycle_space(path, a: SparseMatrix) -> RecycleSpace:
    """The space :meth:`RecycleSpace.from_basis` builds from the basis U
    in a dense Matrix Market array file; C = A U is recomputed, which
    re-establishes the invariants."""
    return RecycleSpace.from_basis(a, read_dense_matrix_market(path))


def rsbgmres(family, cfg, space: RecycleSpace | None = None, *, k=None,
             mode="ritz-largest", update=True, strategy="gmres-cycle"):
    """Recycled shifted block GMRES over one augmented block Krylov space.

    Each cycle obliquely projects every active shifted residual into the
    orthogonal complement of C (consistently updating the approximations),
    builds the projected block Arnoldi process from the projected
    residuals and minimizes each shifted residual over span(U) plus the
    block Krylov space.  At cycle end the recycle space is refreshed with
    Ritz data per ``mode`` unless ``update`` is False.

    With ``space=None`` (or k = 0) the first cycle runs unaugmented and is
    identical to plain shifted block GMRES, collinear residuals then made
    independent by the tag ``strategy`` as in
    :func:`.block_solvers.sbgmres`: the space is refreshed after a cycle
    that left them independent, and not after one that left them
    collinear.  An unknown ``mode`` or ``strategy`` raises at entry.
    Returns ``(x, report, updated_space)``.
    """
    from .block_solvers import _run_cycles
    _check_mode(mode)
    target_k = k if k is not None else (space.k if space is not None else 0)
    return _run_cycles(family, cfg, kind="gmres", strategy=strategy,
                       space=space, recycle_k=target_k if update else 0,
                       recycle_mode=mode, method="rsbgmres")


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
