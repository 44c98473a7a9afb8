"""The block Arnoldi process, the package's one Krylov basis builder.

Block size one is the single-vector process.  Each new block is
orthogonalized by two passes of block modified Gram-Schmidt over L2-sized
column chunks of the basis (BMGS2, at least as stable as BCGS2: Carson,
Lund, Rozloznik & Thomas, LAA 2022), each product one in-place BLAS
``gemm``, then by one Householder QR inside the block.
The basis takes the dtype of the start block (and of the recycle image
basis, when given): real input gives a real process.
The process supports an optional projection against a recycle space (the
image basis ``C``), in which case every operator application is
``(I - C C*) A`` and the removed components are accumulated as coupling
rows ``B_j = C* A W_j``.

A step whose whole candidate block vanishes closes the relation; other
dependent candidates are replaced by fresh pseudo-random vectors so the
block size never shrinks, each logged with the seed key that reproduces it.

The basis, Hessenberg matrix and coupling rows of one chain of states
live in one preallocated column-major workspace that each step writes in
place: the operator product goes into the workspace's product block and
the Gram-Schmidt coefficients straight into their Hessenberg and
coupling columns.  The workspace makes one read-only view of each array
when it is allocated; the state a step returns holds prefix slices of
those views, so a step copies no coefficients and sets no flags.  A
caller that knows the chain's length passes it to
:func:`block_arnoldi_start`, and the chain allocates its workspace once;
otherwise capacity grows geometrically.  Extending a state that is not
the newest of its workspace first copies its prefix, so a returned state
never changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from .errors import BreakdownError, DimensionError
from .sparse import SparseMatrix, block_matvec

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
    """Internal signal: the span is operator-invariant, because a step's
    whole candidate block vanished or no replacement direction exists.

    ``built`` counts the columns the failing step did build before the
    ambient space ran out (0 for a clean closing); their coefficient rows
    are already written.
    """

    def __init__(self, built):
        super().__init__("invariant subspace")
        self.built = built


@dataclass(frozen=True)
class BlockArnoldiState:
    """State after ``steps`` block Arnoldi steps with block size L.

    ``basis`` is n x (steps+1)L, ``hess`` is the band upper-Hessenberg
    (steps+1)L x steps*L coefficient matrix and ``s0`` the L x L upper
    triangular factor of the initial block.  When built against a
    projector, ``coupling`` holds ``C* A W_j`` (k x steps*L) and the
    relation is ``(I - C C*) A W_j = W_{j+1} Hbar_j``; otherwise
    ``coupling`` is 0 x steps*L and ``A W_j = W_{j+1} Hbar_j``.

    When the span becomes operator-invariant (a step's candidate block
    vanishes, or the ambient space runs out partway through it), the
    state closes with ``invariant=True``: the relation holds with no
    further block, and ``hess`` is square after a vanished block.  At
    block size one this is the happy breakdown.

    ``basis``, ``hess`` and ``coupling`` are read-only.  A start state
    holds arrays of its own.  A state returned by an extension holds
    prefix slices of the read-only views its workspace, a column-major
    buffer shared along one chain of extensions, makes once when it is
    allocated; the slices are taken as the state is returned.  Only the
    newest state of a workspace extends in place; extending an older one
    copies its prefix into a new workspace first, so no state ever sees
    its arrays change.
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
    invariant: bool = False
    _ws: _Workspace | None = field(default=None, repr=False, compare=False)

    @property
    def w(self):
        """Basis of the block Krylov space itself (first steps*L columns)."""
        return self.basis[:, :self.steps * self.block_size]


class _Workspace:
    """Column-major buffers of one chain of block Arnoldi states, sized
    for ``cap`` steps: the n x (cap+1)L basis, the (cap+1)L x cap*L
    Hessenberg matrix and the k x cap*L coupling rows, one read-only view
    of each that every state of the chain slices, and the C-ordered
    n x L block that receives each step's operator product.  ``steps`` is
    the step count of the newest state written into it."""

    __slots__ = ("basis", "hess", "coupling", "product", "_read_only",
                 "cap", "steps")

    def __init__(self, state, cap, dtype):
        """A workspace holding a copy of ``state``'s arrays."""
        ell, j = state.block_size, state.steps
        n, k = state.basis.shape[0], state.coupling.shape[0]
        # the basis and coupling rows are left uninitialized, since a
        # step writes every column a view will cover; each step writes its
        # Hessenberg column on and above the subdiagonal block, whose
        # zeros below come from here
        self.basis = np.empty((n, (cap + 1) * ell), dtype=dtype, order="F")
        self.hess = np.zeros(((cap + 1) * ell, cap * ell), dtype=dtype,
                             order="F")
        self.coupling = np.empty((k, cap * ell), dtype=dtype, order="F")
        self.product = np.empty((n, ell), dtype=dtype)
        self.basis[:, :(j + 1) * ell] = state.basis
        self.hess[:(j + 1) * ell, :j * ell] = state.hess
        self.coupling[:, :j * ell] = state.coupling
        self._read_only = tuple(arr.view() for arr in (
            self.basis, self.hess, self.coupling))
        for arr in self._read_only:
            arr.flags.writeable = False
        self.cap = cap
        self.steps = j

    def views(self, steps, ell, trailing):
        """Read-only (basis, hess, coupling) of the state after ``steps``
        steps whose last basis block has ``trailing`` columns."""
        rows, cols = steps * ell + trailing, steps * ell
        basis, hess, coupling = self._read_only
        return basis[:, :rows], hess[:rows, :cols], coupling[:, :cols]


@cache
def _routine(name, dtype):
    """The BLAS (or, for ``geqrf``, ``orgqr`` and ``trtrs``, LAPACK)
    routine ``name`` for column-major operands of ``dtype``, looked up
    once."""
    probe = (np.empty((1, 1), dtype=dtype, order="F"),)
    if name in ("geqrf", "orgqr", "trtrs"):
        return get_lapack_funcs(name, probe)
    return get_blas_funcs(name, probe)


def _negligible(value, scale):
    """Whether ``value <= 1e-14 * scale``, elementwise: the one rule that
    calls a small system singular or a block broken down.  ``scale``
    bounds the norm of the data behind ``value``; each caller states it."""
    return value <= 1e-14 * scale


def _norm(z):
    """The Frobenius norm of the column-major block ``z``, the square root
    of one BLAS ``dot`` (``dotc`` when complex), without
    ``np.linalg.norm``'s Python-level overhead.  Like that norm it does
    not rescale; OpenBLAS's rescaling ``nrm2`` took twice as long on a
    3136 x 4 block."""
    v = z.reshape(-1, order="F")
    dot = _routine("dotc" if v.dtype.kind == "c" else "dot", v.dtype)
    return math.sqrt(dot(v, v).real)


# Largest column chunk of a block, so the chunk read by a pass's projection
# gemm is still in L2 for its update gemm.  ms per 30-step cycle of
# projections (n = 3136, L = 4, one BLAS thread, 2 MiB L2 per core):
# whole 13.7; 256 KiB 8.3; 512 KiB 7.1; 1 MiB 7.1; 1.5 MiB 7.3; 2 MiB 12.5.
_CHUNK_BYTES = 1 << 20


def _project_out(z, *blocks, out=None):
    """Two passes of block modified Gram-Schmidt (BMGS2) of the
    column-major block ``z`` against each orthonormal block in turn, in
    place.  Each pass sweeps every column chunk (at most ``_CHUNK_BYTES``)
    of every block, running ``h = V* z; z -= V h`` as two BLAS ``gemm``
    calls, so neither product allocates an n-row temporary.

    ``z`` must be Fortran-contiguous and of a dtype that holds every
    block's; either may be empty.  Writes each block's coefficients
    ``V* z``, the first pass's plus the second's, into ``out`` (one array
    per block, allocated when None) and returns it.
    """
    gemm = _routine("gemm", z.dtype)
    if out is None:
        out = [np.empty((blk.shape[1], z.shape[1]), dtype=z.dtype)
               for blk in blocks]
    chunks = []
    for blk, coef in zip(blocks, out):
        if blk.nbytes <= _CHUNK_BYTES:
            chunks.append((blk, coef))
            continue
        width = max(1, _CHUNK_BYTES // (blk.shape[0] * blk.itemsize))
        chunks += [(blk[:, lo:lo + width], coef[lo:lo + width])
                   for lo in range(0, blk.shape[1], width)]
    # pass-major: running both passes on a chunk before the next would
    # leave the later chunks' rounding in the earlier chunks' span.  The
    # gemm arguments are positional, (alpha, a, b, beta, c, trans_a,
    # trans_b, overwrite_c): f2py's keyword parsing costs about 0.5 us a
    # call, as much as the product at n = 400
    for first in (True, False):
        for blk, coef in chunks:
            if blk.size and z.size:     # an empty side has no coefficients
                h = gemm(1.0, blk, z, 0.0, None, 2)         # V* z
                gemm(-1.0, blk, h, 1.0, z, 0, 0, 1)         # z -= V h
                if first:
                    coef[...] = h
                else:
                    coef += h
    return out


def _replacement_vector(n, prev, step, column, seed, log):
    """Draw a reproducible random unit vector orthogonal to ``prev``; it
    is real unless a block of ``prev`` is complex."""
    for attempt in range(_REPLACE_RETRIES):
        seed_key = (seed, step, column, attempt)
        rng = np.random.default_rng(np.random.SeedSequence(seed_key))
        z = rng.standard_normal((n, 1)).astype(np.result_type(*prev))
        _project_out(z, *prev)
        nrm = np.linalg.norm(z)
        if nrm > 1e-8 * np.sqrt(n):
            log.append(Replacement(step, column, seed_key))
            return z / nrm
    raise BreakdownError(
        f"replacement failed {_REPLACE_RETRIES} times at step {step}, "
        f"column {column}; space appears exhausted")


def _block_qr_replace(z, v, r, prev_blocks, step, seed, log, scale):
    """QR of the block ``z`` (already orthogonal to ``prev_blocks``) into
    the n x L buffer ``v`` and the L x L block ``r``, zero on entry,
    replacing dependent columns by random directions.

    ``scale`` bounds the Frobenius norm of the raw candidate block before
    any orthogonalization (the start block's own norm, ``||A||_F`` for an
    Arnoldi step).  When ``ref``, the block's largest column norm
    (``||R e_c||`` in a LAPACK Householder QR ``z = Q R``; a leading noise
    column parallel to a live one leaves every ``|r_cc|`` at noise level),
    is :func:`_negligible` beside it, an Arnoldi step hit an invariant
    subspace and raises :class:`_InvariantSubspace`, and a start block
    (``step`` 0) counts as zero.  Otherwise a column is dependent when its
    diagonal entry falls below ``DEPENDENCY_TOL * ref`` (at L = 1 ``ref``
    is the norm of ``z``, and only the breakdown test can fire).  A block
    with no dependent column keeps that factorization: ``Q`` comes from
    ``orgqr``/``ungqr``, and its columns and the rows of ``r`` are scaled
    by the diagonal's phase.  A block with one is orthogonalized column by
    column in two passes, a dependent column replaced as it is met.  Fills
    ``v`` with orthonormal columns and ``r`` with an upper triangle whose
    real non-negative diagonal is zero at replaced columns, so the Arnoldi
    relation stays exact to the threshold.  A raised
    :class:`_InvariantSubspace` leaves the rows of the columns it built
    in ``r``.
    """
    n, ell = z.shape
    if ell == 1:
        ref = low = _norm(z)
    else:
        # factor in v itself, which the column-wise path below overwrites
        geqrf, orgqr = _routine("geqrf", z.dtype), _routine("orgqr", z.dtype)
        v[...] = z
        qr, tau = geqrf(v, overwrite_a=True)[:2]
        diag = qr.diagonal().copy()
        mags = np.abs(diag)
        ref, low = np.linalg.norm(np.triu(qr[:ell]), axis=0).max(), mags.min()
    if _negligible(ref, scale):
        if step:
            raise _InvariantSubspace(0)
        z = np.zeros_like(z)    # rounding noise: every column is replaced
    elif low > DEPENDENCY_TOL * ref:
        if ell == 1:
            np.divide(z, ref, out=v)
            r[0, 0] = ref
        else:
            phase = diag / mags
            r[...] = np.triu(qr[:ell]) * phase.conj()[:, None]
            np.fill_diagonal(r, mags)
            v[...] = orgqr(qr, tau, overwrite_a=True)[0]
            v *= phase
        return
    for c in range(ell):
        w = z[:, c:c + 1].copy(order="F")
        _project_out(w, v[:, :c], out=[r[:c, c:c + 1]])
        nrm = np.linalg.norm(w)
        if nrm <= DEPENDENCY_TOL * ref:
            try:
                w = _replacement_vector(n, [*prev_blocks, v[:, :c]],
                                        step, c, seed, log)
            except BreakdownError:
                # a replacement draw only fails when the basis together
                # with the columns built so far already spans the whole
                # space, so the span is invariant; finish the coefficient
                # rows of the not-yet-processed candidates and signal a
                # relation closed on the partial block
                rest = z[:, c + 1:].copy(order="F")
                _project_out(rest, v[:, :c], out=[r[:c, c + 1:]])
                raise _InvariantSubspace(c)
        else:
            r[c, c] = nrm
            w = w / nrm
        v[:, c:c + 1] = w


def block_arnoldi_start(r0, projector=None, *, seed=0,
                        capacity=None) -> BlockArnoldiState:
    """Reduced QR of the initial block, with dependent-column replacement.

    ``projector`` is a recycle space (anything with an orthonormal image
    basis attribute ``c``); when given, the initial block is first
    orthogonalized against ``C`` so the augmented basis stays orthonormal.
    The state takes the dtype of ``r0`` and ``C`` (at least float64).
    With ``capacity`` the chain's workspace is allocated here for that
    many steps.
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
    if ell + k > n:
        raise DimensionError(
            f"initial block is {n} x {ell}"
            + (f" beside {k} recycle directions" if k else "")
            + f": {ell + k} orthonormal columns do not fit in {n} rows")
    z = np.array(r0, dtype=dtype, order="F")
    # measured before the projection, so a block inside span(C) reads as
    # dependent rather than as normalized rounding noise
    scale = float(np.linalg.norm(z))
    if k:
        c_basis = np.asarray(c_basis, dtype=dtype, order="F")
        _project_out(z, c_basis)
    log: list[Replacement] = []
    v1 = np.zeros((n, ell), dtype=dtype, order="F")
    s0 = np.zeros((ell, ell), dtype=dtype)
    _block_qr_replace(z, v1, s0, [c_basis] if k else [], 0, seed, log, scale)
    v1.flags.writeable = False
    state = BlockArnoldiState(
        basis=v1, hess=np.zeros((ell, 0), dtype=dtype), s0=s0,
        block_size=ell, steps=0, replacements=tuple(log),
        coupling=np.zeros((k, 0), dtype=dtype),
        projector_c=c_basis, seed=seed)
    if capacity:
        state = replace(state, _ws=_Workspace(state, capacity, dtype))
    return state


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
    # the recycle image basis, when the process is projected
    proj = () if state.projector_c is None else (state.projector_c,)
    j = state.steps
    dtype = np.result_type(state.basis, a.values)
    ws = state._ws
    # write in place only as the newest state of a workspace with room
    # for the new steps; otherwise copy into one that grows geometrically
    if (ws is None or ws.steps != j or ws.cap < j + steps
            or ws.basis.dtype != dtype):
        ws = _Workspace(state, max(j + steps, 2 * j, 4), dtype)
    log = list(state.replacements)
    trailing = ell
    for _ in range(steps):
        basis = ws.basis[:, :(j + 1) * ell]
        cols = slice(j * ell, (j + 1) * ell)
        # the product in the workspace's C-ordered block, which at L = 1
        # is column-major too and is orthogonalized where it lies
        z = np.asfortranarray(block_matvec(a, basis[:, cols],
                                           out=ws.product))
        coefs = (ws.coupling[:, cols], ws.hess[:(j + 1) * ell, cols])
        _project_out(z, *proj, basis, out=coefs[1 - len(proj):])
        try:
            # the raw block's norm needs no pass over it: the basis block
            # V is orthonormal, so ||A V||_F <= ||A||_F ||V||_2 = ||A||_F
            _block_qr_replace(z, ws.basis[:, (j + 1) * ell:(j + 2) * ell],
                              ws.hess[(j + 1) * ell:(j + 2) * ell, cols],
                              [*proj, basis], j + 1, state.seed, log,
                              scale=a.frobenius_norm)
        except _InvariantSubspace as sig:
            # close the relation on the invariant span with whatever
            # partial basis block the step built (none when the block
            # vanished whole, and the coefficient matrix becomes square)
            trailing = sig.built
        j += 1
        if trailing < ell:
            break
    ws.steps = j
    basis, hess, coupling = ws.views(j, ell, trailing)
    return BlockArnoldiState(
        basis=basis, hess=hess, s0=state.s0, block_size=ell, steps=j,
        replacements=tuple(log), coupling=coupling,
        projector_c=state.projector_c, seed=state.seed,
        invariant=trailing < ell, _ws=ws)


def block_arnoldi(a: SparseMatrix, r0, m: int, projector=None, *,
                  seed=0) -> BlockArnoldiState:
    """Build ``m`` steps of the (optionally projected) block Arnoldi
    process for the block Krylov space generated by ``r0``."""
    r0 = np.asarray(r0)
    if r0.ndim == 1:
        r0 = r0[:, None]
    if r0.shape[0] != a.n_rows:
        raise DimensionError("r0 must be an n x L block")
    state = block_arnoldi_start(r0, projector, seed=seed)
    return block_arnoldi_extend(a, state, m)

