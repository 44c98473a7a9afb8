"""Sparse CSR storage, matrix products, Matrix Market I/O and a test-problem
generator.

Scalars are double precision: real (float64) when every imaginary part
is zero, checked by value, else complex (complex128).  A family runs in
real arithmetic exactly when its matrix, shifts, right-hand sides and
initial guess are all real.  Matrices are immutable after construction and
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
# scipy's private CSR kernels; the oldest scipy that pyproject.toml
# accepts (1.10) runs the tests in CI's floor job
from scipy.sparse import _sparsetools

from .errors import DimensionError, MatrixMarketError


def working_array(name, arr):
    """``arr`` as float64 when all its imaginary parts are zero, else as
    complex128.  A NaN or Inf entry raises :class:`DimensionError`
    naming ``name``."""
    arr = np.asarray(arr)
    if not np.isfinite(arr).all():
        raise DimensionError(f"{name} has a NaN or Inf entry")
    if np.iscomplexobj(arr) and arr.imag.any():
        return arr.astype(np.complex128, copy=False)
    return arr.real.astype(np.float64, copy=False)


@dataclass(frozen=True)
class SparseMatrix:
    """Sparse matrix in compressed sparse row form over real or complex
    scalars (see :func:`working_array`).

    Column indices are strictly increasing within each row and duplicate
    entries have been summed; use :meth:`from_coo` to canonicalize
    arbitrary triplet input.
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        offs = np.asarray(self.row_offsets, dtype=np.int64)
        cols = np.asarray(self.col_indices, dtype=np.int64)
        vals = working_array("values", self.values)
        if self.n_rows <= 0 or self.n_cols <= 0:
            raise DimensionError("matrix dimensions must be positive")
        if offs.shape != (self.n_rows + 1,):
            raise DimensionError("row_offsets must have length n_rows + 1")
        if offs[0] != 0 or offs[-1] != len(vals) or np.any(np.diff(offs) < 0):
            raise DimensionError("row_offsets must be non-decreasing from 0 to nnz")
        if len(cols) != len(vals):
            raise DimensionError("col_indices and values must have equal length")
        if len(cols) and (cols.min() < 0 or cols.max() >= self.n_cols):
            raise DimensionError("column index out of range")
        # a column index may only drop where a new row starts
        bad = np.diff(cols) <= 0
        starts = offs[1:-1]
        bad[starts[(starts > 0) & (starts < len(cols))] - 1] = False
        if bad.any():
            r = int(np.searchsorted(offs, np.argmax(bad) + 1, side="right")) - 1
            raise DimensionError(f"row {r}: column indices not strictly increasing")
        object.__setattr__(self, "row_offsets", offs)
        object.__setattr__(self, "col_indices", cols)
        object.__setattr__(self, "values", vals)
        csr = scipy.sparse.csr_matrix(
            (vals, cols, offs), shape=(self.n_rows, self.n_cols))
        object.__setattr__(self, "_csr", csr)
        object.__setattr__(self, "_fro", float(np.linalg.norm(vals)))

    @property
    def nnz(self):
        return len(self.values)

    @property
    def frobenius_norm(self):
        return self._fro

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, vals):
        """Build from triplets; duplicates are summed, indices sorted."""
        coo = scipy.sparse.coo_matrix(
            (np.asarray(vals),
             (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
            shape=(n_rows, n_cols))
        csr = coo.tocsr()
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(n_rows, n_cols, csr.indptr.astype(np.int64),
                   csr.indices.astype(np.int64), csr.data)

    @classmethod
    def from_dense(cls, arr):
        arr = np.asarray(arr)
        rows, cols = np.nonzero(arr)
        return cls.from_coo(arr.shape[0], arr.shape[1], rows, cols, arr[rows, cols])

    @classmethod
    def identity(cls, n):
        return cls.diagonal(np.ones(n))

    @classmethod
    def diagonal(cls, diag):
        diag = np.asarray(diag)
        n = len(diag)
        return cls.from_coo(n, n, np.arange(n), np.arange(n), diag)

    def to_dense(self):
        return self._csr.toarray()


def matvec(a: SparseMatrix, x):
    """Sparse product ``y = A x`` with row-wise left-to-right accumulation."""
    x = np.asarray(x)
    if x.ndim != 1 or len(x) != a.n_cols:
        raise DimensionError(f"matvec: operand has length {x.shape}, "
                             f"matrix has {a.n_cols} columns")
    return a._csr @ x


def block_matvec(a: SparseMatrix, x, out=None):
    """Sparse product of a block of vectors, as one CSR product.

    Column i of the result is bit-identical to ``matvec(a, x[:, i])``.
    Counts as one block product and ``x.shape[1]`` single products in
    solver instrumentation.  The product goes into ``out``, a C-ordered
    block of the result's shape and dtype (a new one when None), which
    is returned.  The kernel is the one scipy's ``A @ x`` calls for that
    width (``csr_matvec`` for one column), called without ``A @ x``'s
    dispatch, which costs about as much as the product at n = 400.
    ``csr_matvecs`` at width one makes the same additions in the same
    order, but a width-one Krylov step of ``tools/step_cost.py`` took
    2-4% more CPU with it (three runs of 30 pairs on a 2-vCPU VM,
    scipy 1.17, in which it was faster in 5 to 8 pairs).
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != a.n_cols:
        raise DimensionError(f"block_matvec: block has shape {x.shape}, "
                             f"matrix has {a.n_cols} columns")
    shape = (a.n_rows, x.shape[1])
    if out is None:
        out = np.empty(shape, dtype=np.result_type(a.values, x))
    elif out.shape != shape or not out.flags.c_contiguous:
        raise DimensionError(f"block_matvec: out must be a C-ordered "
                             f"{shape[0]} x {shape[1]} block")
    out.fill(0.0)
    csr = a._csr
    if shape[1] == 1:
        _sparsetools.csr_matvec(a.n_rows, a.n_cols, csr.indptr,
                                csr.indices, csr.data, x[:, 0], out[:, 0])
    else:
        _sparsetools.csr_matvecs(a.n_rows, a.n_cols, shape[1], csr.indptr,
                                 csr.indices, csr.data, x.ravel(),
                                 out.ravel())
    return out


def add_shift(a: SparseMatrix, sigma) -> SparseMatrix:
    """Return the explicitly shifted matrix ``A + sigma * I``."""
    if a.n_rows != a.n_cols:
        raise DimensionError("add_shift requires a square matrix")
    n = a.n_rows
    rows = np.concatenate([np.repeat(np.arange(n), np.diff(a.row_offsets)),
                           np.arange(n)])
    cols = np.concatenate([a.col_indices, np.arange(n)])
    vals = np.concatenate([a.values, np.full(n, sigma)])
    return SparseMatrix.from_coo(n, n, rows, cols, vals)


@dataclass(frozen=True)
class ShiftedFamily:
    """A family of systems ``(A + sigma_i I) x_i = b_i`` sharing one matrix.

    ``shifts`` plays the role of the diagonal coupling of the equivalent
    Sylvester formulation ``A X + X diag(shifts) = B``.  Duplicate shifts
    are rejected: silently merging them would desynchronize the pairing of
    shifts with right-hand-side columns.

    The family's working dtype is float64 when the matrix, shifts,
    right-hand sides and initial guess are all real (checked by value),
    else complex128; shifts, right-hand sides and initial guess are stored
    in it, and every solver iterates in it.  NaN or Inf input raises
    :class:`DimensionError` naming the argument.
    """

    matrix: SparseMatrix
    shifts: np.ndarray
    rhs: np.ndarray
    initial_guess: np.ndarray

    def __post_init__(self):
        a = self.matrix
        if a.n_rows != a.n_cols:
            raise DimensionError("family matrix must be square")
        shifts = np.atleast_1d(working_array("shifts", self.shifts))
        rhs = working_array("rhs", self.rhs)
        if rhs.ndim == 1:
            rhs = rhs[:, None]
        ell = len(shifts)
        if ell < 1:
            raise DimensionError("at least one shift is required")
        if len(set(shifts.tolist())) != ell:
            raise DimensionError("duplicate shifts are rejected")
        if rhs.shape != (a.n_rows, ell):
            raise DimensionError(f"rhs must be {a.n_rows} x {ell}, got {rhs.shape}")
        x0 = self.initial_guess
        if x0 is None:
            x0 = np.zeros((a.n_rows, ell))
        else:
            x0 = working_array("initial_guess", x0)
            if x0.ndim == 1:
                x0 = x0[:, None]
            if x0.shape != rhs.shape:
                raise DimensionError("initial guess shape must match rhs")
        dtype = np.result_type(a.values, shifts, rhs, x0)
        object.__setattr__(self, "shifts", shifts.astype(dtype, copy=False))
        object.__setattr__(self, "rhs", rhs.astype(dtype, copy=False))
        object.__setattr__(self, "initial_guess", x0.astype(dtype, copy=False))

    @property
    def n_shifts(self):
        return len(self.shifts)

    @property
    def n(self):
        return self.matrix.n_rows

    def residual_block(self, x, out=None, work=None):
        """``B - (A X + X D)`` for the current approximation block ``x``:
        the block product, ``X D`` added into it, and the difference from
        ``B``, all in ``out``, which is returned.  ``out`` and ``work``
        (where ``X D`` is formed) are C-contiguous n x p blocks of the
        dtype of ``x`` and ``B`` together, allocated per call when None.
        A restarted solver passes the same two at every cycle end, which
        then touches no fresh pages: in perfbench's shared-rhs samples
        (n = 2304, p = 32) a cycle end with fresh arrays took 1.8 ms and
        about 490 minor page faults, and with kept ones 0.68 ms and 22."""
        x = np.asarray(x)
        if out is None:
            out = np.empty(self.rhs.shape, dtype=np.result_type(x, self.rhs))
        if work is None:
            work = np.empty_like(out)
        block_matvec(self.matrix, x, out=out)
        out += np.multiply(x, self.shifts, out=work)
        return np.subtract(self.rhs, out, out=out)


def generate_convection_diffusion(grid_m: int, convection: float) -> SparseMatrix:
    """Five-point finite differences for ``-laplace(u) + convection * u_x``
    on the unit square with homogeneous Dirichlet boundary.

    Returns the (grid_m**2) x (grid_m**2) operator on the interior grid,
    scaled by 1/h**2 with h = 1/(grid_m+1).  Nonsymmetric for nonzero
    convection (centered first-order differences), positive real for any
    convection strength since the convective part is skew-symmetric.
    """
    m = int(grid_m)
    if m < 2:
        raise DimensionError("grid_m must be at least 2")
    h_inv = float(m + 1)
    diag = 4.0 * h_inv * h_inv
    off = -h_inv * h_inv
    east = off + convection * h_inv / 2.0
    west = off - convection * h_inv / 2.0
    k = np.arange(m * m).reshape(m, m)     # unknown i m + j at grid (i, j)
    # (row, column, value) of the diagonal, then of the couplings to the
    # west and east (grid column j -+ 1) and the south and north (row i -+ 1)
    parts = [(k, k, diag), (k[:, 1:], k[:, :-1], west),
             (k[:, :-1], k[:, 1:], east), (k[1:], k[:-1], off),
             (k[:-1], k[1:], off)]
    rows = np.concatenate([r.ravel() for r, _, _ in parts])
    cols = np.concatenate([c.ravel() for _, c, _ in parts])
    vals = np.concatenate([np.full(r.size, v) for r, _, v in parts])
    return SparseMatrix.from_coo(m * m, m * m, rows, cols, vals)


# ---------------------------------------------------------------------------
# Matrix Market exchange format
# ---------------------------------------------------------------------------

def _mm_header(line, path):
    parts = line.strip().split()
    if len(parts) != 5 or parts[0] != "%%MatrixMarket":
        raise MatrixMarketError(f"{path}: not a Matrix Market header", line=1)
    obj, fmt, field, symmetry = (p.lower() for p in parts[1:])
    if obj != "matrix":
        raise MatrixMarketError(f"unsupported object '{obj}'", line=1)
    if field == "pattern":
        raise MatrixMarketError("pattern field is not supported", line=1)
    if field not in ("real", "integer", "complex"):
        raise MatrixMarketError(f"unsupported field '{field}'", line=1)
    return fmt, field, symmetry


def _mm_data_lines(handle):
    """Yield (line_number, stripped_text) skipping comments and blanks.

    The header line has already been consumed, so numbering starts at 2.
    """
    for lineno, raw in enumerate(handle, start=2):
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        yield lineno, text


def _parse_value(tokens, field, lineno):
    try:
        if field == "complex":
            if len(tokens) != 2:
                raise ValueError
            return complex(float(tokens[0]), float(tokens[1]))
        if len(tokens) != 1:
            raise ValueError
        return float(tokens[0])
    except ValueError:
        raise MatrixMarketError(
            f"expected a {field} value, got {' '.join(tokens)!r}", line=lineno)


def read_matrix_market(path) -> SparseMatrix:
    """Read a coordinate Matrix Market file.

    Symmetric storage is expanded to general, 1-based indices become
    0-based and duplicate entries are summed.  Malformed input raises
    :class:`MatrixMarketError` with the offending line number.
    """
    with open(path, "r", encoding="ascii") as handle:
        fmt, field, symmetry = _mm_header(handle.readline(), path)
        if fmt != "coordinate":
            raise MatrixMarketError(
                f"expected coordinate format, got '{fmt}'", line=1)
        if symmetry not in ("general", "symmetric"):
            raise MatrixMarketError(
                f"unsupported symmetry '{symmetry}'", line=1)
        lines = _mm_data_lines(handle)
        try:
            lineno, text = next(lines)
        except StopIteration:
            raise MatrixMarketError("missing size line", line=1)
        parts = text.split()
        if len(parts) != 3:
            raise MatrixMarketError("size line must be 'rows cols nnz'", line=lineno)
        try:
            n_rows, n_cols, nnz = (int(p) for p in parts)
        except ValueError:
            raise MatrixMarketError("size line must contain integers", line=lineno)
        if n_rows <= 0 or n_cols <= 0 or nnz < 0:
            raise MatrixMarketError("size line entries out of range", line=lineno)
        rows, cols, vals = [], [], []
        count = 0
        for lineno, text in lines:
            parts = text.split()
            if len(parts) < 3:
                raise MatrixMarketError("entry must be 'i j value'", line=lineno)
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise MatrixMarketError("indices must be integers", line=lineno)
            if not (1 <= i <= n_rows) or not (1 <= j <= n_cols):
                raise MatrixMarketError(
                    f"index ({i}, {j}) outside {n_rows} x {n_cols}", line=lineno)
            v = _parse_value(parts[2:], field, lineno)
            rows.append(i - 1)
            cols.append(j - 1)
            vals.append(v)
            if symmetry == "symmetric" and i != j:
                rows.append(j - 1)
                cols.append(i - 1)
                vals.append(v)
            count += 1
        if count != nnz:
            raise MatrixMarketError(
                f"expected {nnz} entries, found {count}", line=lineno if count else 1)
    return SparseMatrix.from_coo(n_rows, n_cols, rows, cols, vals)


def _format_value(v, field):
    if field == "complex":
        return f"{v.real:.17g} {v.imag:.17g}"
    return f"{v.real:.17g}"


def write_matrix_market(path, a: SparseMatrix):
    """Write a matrix in coordinate general format (real if purely real)."""
    field = "real" if np.all(a.values.imag == 0.0) else "complex"
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"%%MatrixMarket matrix coordinate {field} general\n")
        handle.write(f"{a.n_rows} {a.n_cols} {a.nnz}\n")
        for r in range(a.n_rows):
            for p in range(a.row_offsets[r], a.row_offsets[r + 1]):
                handle.write(f"{r + 1} {a.col_indices[p] + 1} "
                             f"{_format_value(a.values[p], field)}\n")


def read_dense_matrix_market(path) -> np.ndarray:
    """Read a dense Matrix Market array file as an n x k block, complex
    for the complex field and real otherwise."""
    with open(path, "r", encoding="ascii") as handle:
        fmt, field, symmetry = _mm_header(handle.readline(), path)
        if fmt != "array":
            raise MatrixMarketError(f"expected array format, got '{fmt}'", line=1)
        if symmetry != "general":
            raise MatrixMarketError(
                f"unsupported symmetry '{symmetry}' for arrays", line=1)
        lines = _mm_data_lines(handle)
        try:
            lineno, text = next(lines)
        except StopIteration:
            raise MatrixMarketError("missing size line", line=1)
        parts = text.split()
        if len(parts) != 2:
            raise MatrixMarketError("size line must be 'rows cols'", line=lineno)
        n_rows, n_cols = int(parts[0]), int(parts[1])
        data = np.empty(n_rows * n_cols,
                        dtype=complex if field == "complex" else float)
        k = 0
        for lineno, text in lines:
            if k >= len(data):
                raise MatrixMarketError("more entries than rows * cols", line=lineno)
            data[k] = _parse_value(text.split(), field, lineno)
            k += 1
        if k != len(data):
            raise MatrixMarketError(
                f"expected {len(data)} entries, found {k}", line=lineno if k else 1)
    return data.reshape((n_cols, n_rows)).T  # file order is column major


def write_dense_matrix_market(path, x):
    """Write a dense block in array general format (column major)."""
    x = np.asarray(x)
    if x.ndim == 1:
        x = x[:, None]
    field = "real" if np.all(x.imag == 0.0) else "complex"
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"%%MatrixMarket matrix array {field} general\n")
        handle.write(f"{x.shape[0]} {x.shape[1]}\n")
        for j in range(x.shape[1]):
            for i in range(x.shape[0]):
                handle.write(_format_value(x[i, j], field) + "\n")
