"""The block Arnoldi process, the package's one Krylov basis builder.

Block size one is the single-vector process.  Each new block is
orthogonalized by two passes of block classical Gram-Schmidt against the
whole basis (stable for full-rank blocks: Carson, Lund, Rozloznik &
Thomas, LAA 2022), then by a two-pass column-wise QR inside the block.
The basis takes the dtype of the start block (and of the recycle image
basis, when given): real input gives a real process.
The process supports an optional projection against a recycle space (the
image basis ``C``), in which case every operator application is
``(I - C C*) A`` and the removed components are accumulated as coupling
rows ``B_j = C* A W_j``.

Dependent block candidates are replaced by fresh pseudo-random vectors so
the block size never shrinks; every replacement is logged with the seed
key that reproduces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import BreakdownError, DimensionError
from .sparse import SparseMatrix, block_matvec

BREAKDOWN_RTOL = 1e-14   # happy-breakdown threshold, relative to ||A||_F
DEPENDENCY_TOL = 1e-10   # relative diagonal threshold for dependent columns
_REPLACE_RETRIES = 3


@dataclass(frozen=True)
class Replacement:
    """One dependent-direction replacement: at block ``step`` (0 is the
    initial QR), basis ``column`` was redrawn from the generator seeded
    with ``seed_key``."""

    step: int
    column: int
    seed_key: tuple


class _InvariantSubspace(Exception):
    """Internal signal: every candidate direction is dependent and no
    replacement direction exists; the span is operator-invariant.

    ``v_partial``/``r_partial`` carry any columns the failing step did
    build before the ambient space ran out (empty for a clean closing).
    """

    def __init__(self, v_partial, r_partial):
        super().__init__("invariant subspace")
        self.v_partial = v_partial
        self.r_partial = r_partial


@dataclass(frozen=True)
class BlockArnoldiState:
    """State after ``steps`` block Arnoldi steps with block size L.

    ``basis`` is n x (steps+1)L, ``hess`` is the band upper-Hessenberg
    (steps+1)L x steps*L coefficient matrix and ``s0`` the L x L upper
    triangular factor of the initial block.  When built against a
    projector, ``coupling`` holds ``C* A W_j`` (k x steps*L) and the
    relation is ``(I - C C*) A W_j = W_{j+1} Hbar_j``; otherwise
    ``coupling`` is 0 x steps*L and ``A W_j = W_{j+1} Hbar_j``.

    When the span becomes operator-invariant and the ambient space is
    exhausted, the state closes with ``invariant=True``: ``basis`` then
    has steps*L columns, ``hess`` is square and the relation holds with
    no trailing block.  At block size one this is a happy breakdown that
    exhausted the space; an earlier one leaves a zero subdiagonal entry.
    """

    basis: np.ndarray
    hess: np.ndarray
    s0: np.ndarray
    block_size: int
    steps: int
    replacements: tuple = ()
    coupling: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    projector_c: np.ndarray | None = None
    seed: int = 0
    dep_tol: float = DEPENDENCY_TOL
    invariant: bool = False

    @property
    def w(self):
        """Basis of the block Krylov space itself (first steps*L columns)."""
        return self.basis[:, :self.steps * self.block_size]


def _random_direction(n, seed_key):
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    return rng.standard_normal(n)


def _orthogonalize(z, against_blocks):
    """Two-pass MGS of the single vector ``z`` against each block."""
    for _pass in range(2):
        for blk in against_blocks:
            if blk is None or blk.shape[1] == 0:
                continue
            z = z - blk @ (blk.conj().T @ z)
    return z


def _replacement_vector(n, prev, step, column, seed, log):
    """Draw a reproducible random unit vector orthogonal to ``prev``; it
    is real unless a block of ``prev`` is complex."""
    for attempt in range(_REPLACE_RETRIES):
        seed_key = (seed, step, column, attempt)
        z = _random_direction(n, seed_key)
        z = _orthogonalize(z, prev)
        nrm = np.linalg.norm(z)
        if nrm > 1e-8 * np.sqrt(n):
            log.append(Replacement(step, column, seed_key))
            return z / nrm
    raise BreakdownError(
        f"replacement failed {_REPLACE_RETRIES} times at step {step}, "
        f"column {column}; space appears exhausted")


def _block_qr_replace(z, prev_blocks, step, tol, seed, log, scale):
    """Column-wise QR of the block ``z`` (already orthogonal to
    ``prev_blocks``), replacing dependent columns by random directions.

    ``scale`` is the Frobenius norm of the raw candidate block before any
    orthogonalization; when every new direction is below the breakdown
    threshold relative to it, the whole block is dependent (an invariant
    subspace was hit).  Otherwise a column is dependent when its diagonal
    entry falls below ``tol`` times the largest one.  Returns (v, r) with
    v orthonormal and r upper triangular with zero diagonal at replaced
    columns, so the Arnoldi relation stays exact to the threshold.
    """
    n, ell = z.shape
    r_probe = scipy.linalg.qr(z, mode="r", check_finite=False)[0]
    ref = np.abs(np.diag(r_probe)).max() if ell else 0.0
    all_dependent = ref <= BREAKDOWN_RTOL * scale
    v = np.zeros((n, ell), dtype=z.dtype)
    r = np.zeros((ell, ell), dtype=z.dtype)
    for c in range(ell):
        w = z[:, c].copy()
        for _pass in range(2):
            for i in range(c):
                coef = np.vdot(v[:, i], w)
                r[i, c] += coef
                w -= coef * v[:, i]
        nrm = np.linalg.norm(w)
        if all_dependent or nrm <= tol * ref:
            try:
                w = _replacement_vector(n, list(prev_blocks) + [v[:, :c]],
                                        step, c, seed, log)
            except BreakdownError:
                # a replacement draw only fails when the basis together
                # with the columns built so far already spans the whole
                # space, so the span is invariant; finish the coefficient
                # rows of the not-yet-processed candidates (column c was
                # already orthogonalized above) and hand the partial block
                # back for a closed relation
                for cc in range(c + 1, ell):
                    wc = z[:, cc].copy()
                    for _pass in range(2):
                        for i in range(c):
                            coef = np.vdot(v[:, i], wc)
                            r[i, cc] += coef
                            wc -= coef * v[:, i]
                raise _InvariantSubspace(v[:, :c], r[:c, :])
            r[c, c] = 0.0
        else:
            r[c, c] = nrm
            w = w / nrm
        v[:, c] = w
    return v, r


def block_arnoldi_start(r0, projector=None, *, seed=0,
                        dep_tol=DEPENDENCY_TOL) -> BlockArnoldiState:
    """Reduced QR of the initial block, with dependent-column replacement.

    ``projector`` is a recycle space (anything with an orthonormal image
    basis attribute ``c``); when given, the initial block is first
    orthogonalized against ``C`` so the augmented basis stays orthonormal.
    The state takes the dtype of ``r0`` and ``C`` (at least float64).
    """
    r0 = np.asarray(r0)
    if r0.ndim == 1:
        r0 = r0[:, None]
    n, ell = r0.shape
    if ell < 1:
        raise DimensionError("initial block must have at least one column")
    c_basis = None
    if projector is not None and getattr(projector, "k", 0) > 0:
        c_basis = np.asarray(projector.c)
    k = c_basis.shape[1] if c_basis is not None else 0
    dtype = np.result_type(r0, np.float64,
                           *([c_basis] if c_basis is not None else []))
    r0 = r0.astype(dtype, copy=False)
    if ell + k > n:
        raise DimensionError(
            f"initial block is {n} x {ell}"
            + (f" beside {k} recycle directions" if k else "")
            + f": {ell + k} orthonormal columns do not fit in {n} rows")
    if k:
        r0 = np.column_stack(
            [_orthogonalize(r0[:, i].copy(), [c_basis]) for i in range(ell)])
    log: list[Replacement] = []
    prev = [c_basis] if c_basis is not None else []
    v1, s0 = _block_qr_replace(r0, prev, 0, dep_tol, seed, log,
                               scale=float(np.linalg.norm(r0)))
    return BlockArnoldiState(
        basis=v1, hess=np.zeros((ell, 0), dtype=dtype), s0=s0,
        block_size=ell, steps=0, replacements=tuple(log),
        coupling=np.zeros((k, 0), dtype=dtype),
        projector_c=c_basis, seed=seed, dep_tol=dep_tol)


def block_arnoldi_extend(a: SparseMatrix, state: BlockArnoldiState,
                         steps: int = 1) -> BlockArnoldiState:
    """Run ``steps`` more block Arnoldi steps, returning a new state.

    The new columns take the dtype of the basis and of ``a`` together:
    a complex matrix makes a real state complex."""
    if steps < 1:
        raise DimensionError("steps must be >= 1")
    if state.invariant:
        return state
    ell = state.block_size
    basis = state.basis
    hess = state.hess
    coupling = state.coupling
    c_basis = state.projector_c
    k = c_basis.shape[1] if c_basis is not None else 0
    log = list(state.replacements)
    j = state.steps
    invariant = False
    for _ in range(steps):
        v_last = basis[:, j * ell:(j + 1) * ell]
        z = block_matvec(a, v_last)
        raw_scale = max(float(np.linalg.norm(z)), a.frobenius_norm)
        h_col = np.zeros(((j + 1) * ell, ell), dtype=z.dtype)
        b_col = np.zeros((k, ell), dtype=z.dtype)
        # two passes of block classical Gram-Schmidt; V* Z is formed as
        # (Z* V)* so only the small block is conjugated, not the basis
        for _pass in range(2):
            if k:
                cc = (z.conj().T @ c_basis).conj().T
                b_col += cc
                z -= c_basis @ cc
            h = (z.conj().T @ basis).conj().T
            h_col += h
            z -= basis @ h
        prev = ([c_basis] if k else []) + [basis]
        try:
            v_new, r_new = _block_qr_replace(z, prev, j + 1, state.dep_tol,
                                             state.seed, log, scale=raw_scale)
        except _InvariantSubspace as sig:
            # close the relation on the invariant span with whatever
            # partial basis block the step built before the ambient space
            # ran out (possibly none, in which case the coefficient matrix
            # becomes square)
            v_new, r_new = sig.v_partial, sig.r_partial
            invariant = True
        hess_n = np.zeros(((j + 1) * ell + v_new.shape[1], (j + 1) * ell),
                          dtype=z.dtype)
        hess_n[:(j + 1) * ell, :j * ell] = hess
        hess_n[:(j + 1) * ell, j * ell:] = h_col
        hess_n[(j + 1) * ell:, j * ell:] = r_new
        hess = hess_n
        coupling = np.hstack([coupling, b_col])
        basis = np.hstack([basis, v_new])
        j += 1
        if invariant:
            break
    return BlockArnoldiState(
        basis=basis, hess=hess, s0=state.s0, block_size=ell, steps=j,
        replacements=tuple(log), coupling=coupling, projector_c=c_basis,
        seed=state.seed, dep_tol=state.dep_tol, invariant=invariant)


def block_arnoldi(a: SparseMatrix, r0, m: int, projector=None, *, seed=0,
                  dep_tol=DEPENDENCY_TOL) -> BlockArnoldiState:
    """Build ``m`` steps of the (optionally projected) block Arnoldi
    process for the block Krylov space generated by ``r0``."""
    r0 = np.asarray(r0)
    if r0.ndim == 1:
        r0 = r0[:, None]
    if r0.shape[0] != a.n_rows:
        raise DimensionError("r0 must be an n x L block")
    state = block_arnoldi_start(r0, projector, seed=seed, dep_tol=dep_tol)
    return block_arnoldi_extend(a, state, m)


def subspace_equality_angle(x, y) -> float:
    """Largest principal angle between the spans of two orthonormal blocks.

    Computed from the singular values of the orthogonal complement
    projection, which stays accurate for small angles.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    if x.shape[1] != y.shape[1]:
        raise DimensionError("blocks must have the same number of columns")
    resid = y - x @ (x.conj().T @ y)
    s = np.linalg.svd(resid, compute_uv=False)
    smax = min(1.0, float(s.max()) if s.size else 0.0)
    return float(np.arcsin(smax))
