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

Each QR of a candidate block, the start block's or a step's, keeps the
block's numerical rank: a column-pivoted QR drops its dependent columns,
so the next basis block is no wider than the block it came from, and a
candidate of rank zero closes the relation.  Each dropped column is
logged as a (step, column) pair.

The basis, Hessenberg matrix and coupling rows of one chain of states
live in one preallocated column-major workspace that each step writes in
place: the operator product goes into the workspace's product block and
the Gram-Schmidt coefficients straight into their Hessenberg and
coupling columns, as the start block's QR goes into its first basis
block.  The workspace makes one read-only view of each array when it is
allocated; every state of the chain holds prefix slices of those views,
so a step copies no coefficients and sets no flags.  A caller that
knows the chain's length passes it to :func:`block_arnoldi_start`, and
the chain allocates its workspace once; otherwise capacity grows
geometrically.  Extending a state that is not the newest of its
workspace first copies its prefix, so a returned state never changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np
import scipy.linalg
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from .errors import DimensionError
from .sparse import SparseMatrix, block_matvec

DEPENDENCY_TOL = 1e-10   # relative diagonal threshold for dependent columns


@dataclass(frozen=True)
class BlockArnoldiState:
    """State after ``steps`` block Arnoldi steps from a start block of
    ``block_size`` (L) columns.

    Basis block j has its own width L_j, the rank its QR kept, with
    L >= L_0 >= L_1 >= ...: ``basis`` is n x (L_0 + ... + L_steps),
    ``hess`` the band upper-Hessenberg (L_0 + ... + L_steps) x
    (L_0 + ... + L_{steps-1}) coefficient matrix, whose subdiagonal block
    j is L_{j+1} x L_j, and ``s0`` the L_0 x L factor of the start block,
    ``R = W_0 s0``.  When built against a projector, ``coupling`` holds
    ``C* A W_j`` (k rows) and the relation is ``(I - C C*) A W_j =
    W_{j+1} Hbar_j``; otherwise ``coupling`` has no rows and ``A W_j =
    W_{j+1} Hbar_j``.  ``replacements`` holds the (step, column) pairs of
    the candidate columns a QR dropped (step 0 is the start block's).

    A candidate block of rank zero closes the relation: the state is then
    ``invariant``, its span is operator-invariant and ``hess`` is square.
    At block size one this is the happy breakdown.

    ``basis``, ``hess`` and ``coupling`` are read-only: prefix slices of
    the read-only views its workspace, a column-major buffer shared along
    one chain of extensions from a start state, makes once when it is
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
    _ws: _Workspace | None = field(default=None, repr=False, compare=False)

    @property
    def w(self):
        """Basis of the block Krylov space itself (all but the last
        block)."""
        return self.basis[:, :self.hess.shape[1]]

    @property
    def invariant(self):
        """Whether the relation closed: the last basis block is empty."""
        return self.basis.shape[1] == self.hess.shape[1]


class _Workspace:
    """Column-major buffers of one chain of block Arnoldi states from a
    start block of ``ell`` columns, sized for ``cap`` steps: the
    n x (cap+1)L basis, the (cap+1)L x cap*L Hessenberg matrix and the
    k x cap*L coupling rows (each block narrows or keeps its width), one
    read-only view of each that every state of the chain slices, and the
    C-ordered n x L block that receives each step's operator product.
    ``steps`` is the step count of the newest state written into it."""

    __slots__ = ("basis", "hess", "coupling", "product", "_read_only",
                 "cap", "steps")

    def __init__(self, n, ell, k, cap, dtype):
        """An empty workspace for an n-row chain from ``ell`` start
        columns beside ``k`` recycle directions."""
        # the basis and coupling rows are left uninitialized, since a
        # step writes every column a view will cover; each step writes its
        # Hessenberg column on and above the rows of its new basis block,
        # whose zeros below come from here
        self.basis = np.empty((n, (cap + 1) * ell), dtype=dtype, order="F")
        self.hess = np.zeros(((cap + 1) * ell, cap * ell), dtype=dtype,
                             order="F")
        self.coupling = np.empty((k, cap * ell), dtype=dtype, order="F")
        self.product = np.empty((n, ell), dtype=dtype)
        self._read_only = tuple(arr.view() for arr in (
            self.basis, self.hess, self.coupling))
        for arr in self._read_only:
            arr.flags.writeable = False
        self.cap = cap
        self.steps = 0

    def views(self, rows, cols):
        """Read-only (basis, hess, coupling) of a state with ``rows``
        basis columns, ``cols`` of them in its Krylov space."""
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
    calls a small system singular.  ``scale`` bounds the norm of the data
    behind ``value``; each caller states it."""
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


def _block_qr(z, v, r, scale, log, step):
    """QR of the block ``z`` (already orthogonal to the basis) into the
    n x L buffer ``v`` and the L x L block ``r``, zero on entry, keeping
    the block's numerical rank, which it returns: ``z`` is ``v[:, :rank]
    r[:rank]`` to the threshold, with orthonormal columns.

    ``scale`` is the Frobenius norm of the raw candidate block before any
    orthogonalization (the start block before its projection, the
    operator product of an Arnoldi step).  When ``ref``, the block's
    largest column norm (``||R e_c||`` in a LAPACK Householder QR ``z = Q
    R``; a leading noise column parallel to a live one leaves every
    ``|r_cc|`` at noise level), is at most ``DEPENDENCY_TOL * scale``,
    the block counts as zero: rank 0, which closes the relation.  The
    zero test and deflation share that threshold, so the rounding that
    deflation dropped from one block cannot come back as a live
    direction of a later one.  Otherwise a column is dependent when its
    diagonal entry falls below ``DEPENDENCY_TOL * ref`` (at L = 1 ``ref``
    is the norm of ``z``, and only the zero test can fire).  A block with
    no dependent column keeps that factorization: ``Q`` comes from
    ``orgqr``/``ungqr``, and its columns and the rows of ``r`` are scaled
    by the diagonal's phase.  A block with one, or with more columns than
    rows, is factored again by a column-pivoted QR (LAPACK ``geqp3``),
    ``z P = Q R``, which keeps the leading columns of ``Q`` whose
    diagonal entries exceed that threshold; ``r`` gets their rows of ``R
    P^T``, and each candidate column that ``P`` moves past them is logged
    in ``log`` as ``(step, column)``.  Every kept diagonal entry of ``R``
    is real and positive.
    """
    n, ell = z.shape
    if ell == 1:
        ref = low = _norm(z)
    else:
        # factor in v itself, which the pivoted path below overwrites
        geqrf, orgqr = _routine("geqrf", z.dtype), _routine("orgqr", z.dtype)
        v[...] = z
        qr, tau = geqrf(v, overwrite_a=True)[:2]
        diag = qr.diagonal().copy()
        mags = np.abs(diag)
        ref = np.linalg.norm(np.triu(qr[:ell]), axis=0).max()
        low = mags.min() if n >= ell else 0.0
    if ref <= DEPENDENCY_TOL * scale:
        return 0
    if low > DEPENDENCY_TOL * ref:
        if ell == 1:
            np.divide(z, ref, out=v)
            r[0, 0] = ref
        else:
            phase = diag / mags
            r[...] = np.triu(qr[:ell]) * phase.conj()[:, None]
            np.fill_diagonal(r, mags)
            v[...] = orgqr(qr, tau, overwrite_a=True)[0]
            v *= phase
        return ell
    q, tri, perm = scipy.linalg.qr(z, mode="economic", pivoting=True,
                                   check_finite=False)
    diag = tri.diagonal()
    rank = int(np.count_nonzero(np.abs(diag) > DEPENDENCY_TOL * ref))
    phase = diag[:rank] / np.abs(diag[:rank])
    v[:, :rank] = q[:, :rank] * phase
    r[:rank, perm] = tri[:rank] * phase.conj()[:, None]
    log.extend((step, int(c)) for c in np.sort(perm[rank:]))
    return rank


def block_arnoldi_start(r0, projector=None, *,
                        capacity=4) -> BlockArnoldiState:
    """Reduced QR of the initial block, keeping its numerical rank.

    ``projector`` is a recycle space (anything with an orthonormal image
    basis attribute ``c``); when given, the initial block is first
    orthogonalized against ``C`` so the augmented basis stays orthonormal.
    The state takes the dtype of ``r0`` and ``C`` (at least float64).
    A block with more columns than the ``n - k`` rows left beside the k
    recycle directions keeps at most ``n - k`` of them.  The chain's
    workspace is allocated here for ``capacity`` steps, and the start
    block is factored straight into it.
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
    z = np.array(r0, dtype=dtype, order="F")
    # measured before the projection, so a block inside span(C) reads as
    # zero rather than as normalized rounding noise
    scale = float(np.linalg.norm(z))
    if k:
        c_basis = np.asarray(c_basis, dtype=dtype, order="F")
        _project_out(z, c_basis)
    log = []
    ws = _Workspace(n, ell, k, capacity, dtype)
    s0 = np.zeros((ell, ell), dtype=dtype)
    rank = _block_qr(z, ws.basis[:, :ell], s0, scale, log, 0)
    basis, hess, coupling = ws.views(rank, 0)
    return BlockArnoldiState(
        basis=basis, hess=hess, s0=s0[:rank], block_size=ell, steps=0,
        replacements=tuple(log), coupling=coupling, projector_c=c_basis,
        _ws=ws)


def block_arnoldi_extend(a: SparseMatrix, state: BlockArnoldiState,
                         steps: int = 1) -> BlockArnoldiState:
    """Run ``steps`` more block Arnoldi steps, returning a new state.

    Each step multiplies the last basis block at its own width.  The new
    columns take the dtype of the basis and of ``a`` together: a complex
    matrix makes a real state complex."""
    if steps < 1:
        raise DimensionError("steps must be >= 1")
    if state.invariant:
        return state
    ell = state.block_size
    # the recycle image basis, when the process is projected
    proj = () if state.projector_c is None else (state.projector_c,)
    j = state.steps
    # the last basis block holds columns lo .. hi - 1
    hi, lo = state.hess.shape
    n = state.basis.shape[0]
    dtype = np.result_type(state.basis, a.values)
    ws = state._ws
    # write in place only as the newest state of a workspace with room
    # for the new steps; otherwise copy into one that grows geometrically
    if (ws is None or ws.steps != j or ws.cap < j + steps
            or ws.basis.dtype != dtype):
        ws = _Workspace(n, ell, state.coupling.shape[0],
                        max(j + steps, 2 * j, 4), dtype)
        ws.basis[:, :hi] = state.basis
        ws.hess[:hi, :lo] = state.hess
        ws.coupling[:, :lo] = state.coupling
    log = list(state.replacements)
    for _ in range(steps):
        basis, width = ws.basis[:, :hi], hi - lo
        # the product in the workspace's C-ordered block, or in its first
        # n x width entries once the block narrowed; at width one it is
        # column-major too and is orthogonalized where it lies
        out = ws.product if width == ell else \
            ws.product.reshape(-1)[:n * width].reshape(n, width)
        z = np.asfortranarray(block_matvec(a, basis[:, lo:], out=out))
        cols = slice(lo, hi)
        coefs = (ws.coupling[:, cols], ws.hess[:hi, cols])
        scale = _norm(z)
        _project_out(z, *proj, basis, out=coefs[1 - len(proj):])
        rank = _block_qr(z, ws.basis[:, hi:hi + width],
                         ws.hess[hi:hi + width, cols], scale, log, j + 1)
        j += 1
        lo, hi = hi, hi + rank
        if not rank:
            break
    ws.steps = j
    basis, hess, coupling = ws.views(hi, lo)
    return BlockArnoldiState(
        basis=basis, hess=hess, s0=state.s0, block_size=ell, steps=j,
        replacements=tuple(log), coupling=coupling,
        projector_c=state.projector_c, _ws=ws)
