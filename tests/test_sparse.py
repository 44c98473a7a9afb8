import numpy as np
import pytest
import scipy.sparse

from shiftkrylov import (DimensionError, MatrixMarketError, ShiftedFamily,
                         SparseMatrix, add_shift, block_matvec,
                         generate_convection_diffusion, matvec,
                         read_dense_matrix_market, read_matrix_market,
                         write_dense_matrix_market, write_matrix_market)

from conftest import random_sparse


def test_matvec_identity():
    a = SparseMatrix.identity(3)
    assert np.array_equal(matvec(a, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_matvec_diagonal():
    a = SparseMatrix.diagonal([2.0, 3.0])
    assert np.array_equal(matvec(a, [1.0, 1.0]), [2.0, 3.0])


def test_matvec_against_dense_reconstruction():
    a = random_sparse(5, density=0.5, seed=42)
    dense = a.to_dense()
    e1 = np.zeros(5)
    e1[0] = 1.0
    assert np.allclose(matvec(a, e1), dense[:, 0], rtol=0, atol=1e-14)
    x = np.random.default_rng(3).standard_normal(5)
    assert np.allclose(matvec(a, x), dense @ x, rtol=1e-13, atol=1e-13)


def test_matvec_dimension_error():
    a = SparseMatrix.identity(3)
    with pytest.raises(DimensionError):
        matvec(a, [1.0, 2.0])


def test_block_matvec_identity():
    a = SparseMatrix.identity(3)
    x = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(block_matvec(a, x), x)


def test_block_matvec_diagonal():
    a = SparseMatrix.diagonal([1.0, 2.0])
    x = np.eye(2)
    assert np.array_equal(block_matvec(a, x), np.diag([1.0, 2.0]))


def test_block_matvec_matches_columnwise_exactly():
    a = random_sparse(8, density=0.4, seed=7)
    x = np.random.default_rng(8).standard_normal((8, 3))
    out = block_matvec(a, x)
    for i in range(3):
        # same accumulation order: bit identical, zero ulp difference
        assert np.array_equal(out[:, i], matvec(a, x[:, i]))
    # scipy's own product, for one column and for several, in a given
    # C-ordered block, which must be one
    csr = scipy.sparse.csr_matrix((a.values, a.col_indices, a.row_offsets),
                                  shape=(8, 8))
    for cols in (x[:, :1], x):
        buf = np.full(cols.shape, np.nan)
        assert block_matvec(a, cols, out=buf) is buf
        assert np.array_equal(buf, csr @ cols)
    with pytest.raises(DimensionError):
        block_matvec(a, x, out=np.zeros((8, 3), order="F"))


def test_add_shift_matches_dense():
    a = random_sparse(6, seed=5)
    shifted = add_shift(a, 0.7 + 0.2j)
    expect = a.to_dense() + (0.7 + 0.2j) * np.eye(6)
    assert np.allclose(shifted.to_dense(), expect, atol=1e-15)


def test_csr_invariants_validated():
    with pytest.raises(DimensionError):
        SparseMatrix(2, 2, [0, 1, 1], [0, 1], [1.0, 2.0])  # offsets vs nnz
    with pytest.raises(DimensionError):
        SparseMatrix(2, 2, [0, 2, 2], [1, 0], [1.0, 2.0])  # not increasing
    with pytest.raises(DimensionError):
        SparseMatrix(2, 2, [0, 1, 2], [0, 5], [1.0, 2.0])  # out of range
    with pytest.raises(DimensionError, match="row 2"):
        SparseMatrix(3, 3, [0, 1, 2, 4], [0, 1, 2, 2], np.ones(4))  # duplicate
    # the column index may drop across a row boundary, also after an
    # empty row
    a = SparseMatrix(3, 3, [0, 1, 1, 2], [2, 0], [1.0, 2.0])
    assert np.array_equal(a.to_dense(), [[0, 0, 1], [0, 0, 0], [2, 0, 0]])


# ---------------------------------------------------------------------------
# Matrix Market
# ---------------------------------------------------------------------------

def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return path


def test_read_coordinate_diagonal(tmp_path):
    path = _write(tmp_path, "d.mtx", "\n".join([
        "%%MatrixMarket matrix coordinate real general",
        "2 2 2", "1 1 1.0", "2 2 2.0", ""]))
    a = read_matrix_market(path)
    assert np.allclose(a.to_dense(), np.diag([1.0, 2.0]))


def test_read_symmetric_expansion(tmp_path):
    path = _write(tmp_path, "s.mtx", "\n".join([
        "%%MatrixMarket matrix coordinate real symmetric",
        "2 2 1", "2 1 5.0", ""]))
    a = read_matrix_market(path)
    dense = a.to_dense()
    assert dense[1, 0] == 5.0 and dense[0, 1] == 5.0


def test_read_duplicates_summed_and_roundtrip(tmp_path):
    path = _write(tmp_path, "dup.mtx", "\n".join([
        "%%MatrixMarket matrix coordinate real general",
        "2 2 3", "1 1 1.0", "1 1 2.0", "2 2 4.0", ""]))
    a = read_matrix_market(path)
    assert a.to_dense()[0, 0] == 3.0
    out = tmp_path / "dup_out.mtx"
    write_matrix_market(out, a)
    b = read_matrix_market(out)
    assert np.array_equal(a.to_dense(), b.to_dense())


def test_read_write_identity_on_canonical(tmp_path):
    a = random_sparse(9, density=0.3, seed=11)
    path = tmp_path / "rt.mtx"
    write_matrix_market(path, a)
    b = read_matrix_market(path)
    assert np.array_equal(a.row_offsets, b.row_offsets)
    assert np.array_equal(a.col_indices, b.col_indices)
    assert np.array_equal(a.values, b.values)


def test_read_complex_field(tmp_path):
    path = _write(tmp_path, "c.mtx", "\n".join([
        "%%MatrixMarket matrix coordinate complex general",
        "1 1 1", "1 1 2.0 -3.0", ""]))
    a = read_matrix_market(path)
    assert a.to_dense()[0, 0] == 2.0 - 3.0j


def test_malformed_header(tmp_path):
    path = _write(tmp_path, "bad.mtx", "not a header\n1 1 1\n1 1 1.0\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(path)


def test_pattern_field_rejected(tmp_path):
    path = _write(tmp_path, "p.mtx",
                  "%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n")
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(path)
    assert "pattern" in str(err.value)


def test_out_of_range_index_names_line(tmp_path):
    path = _write(tmp_path, "oob.mtx", "\n".join([
        "%%MatrixMarket matrix coordinate real general",
        "2 2 1", "3 1 1.0", ""]))
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(path)
    assert "line 3" in str(err.value)


def test_dense_array_roundtrip(tmp_path):
    x = np.random.default_rng(0).standard_normal((5, 3)) \
        + 1j * np.random.default_rng(1).standard_normal((5, 3))
    path = tmp_path / "b.mtx"
    write_dense_matrix_market(path, x)
    y = read_dense_matrix_market(path)
    assert np.allclose(x, y, rtol=0, atol=1e-15)


def test_dense_array_real_roundtrip(tmp_path):
    x = np.arange(6.0).reshape(3, 2)
    path = tmp_path / "br.mtx"
    write_dense_matrix_market(path, x)
    assert np.array_equal(read_dense_matrix_market(path).real, x)


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

def test_generator_small_stencil_oracle():
    # hand-assembled 4x4 stencil for grid_m = 2 (h = 1/3): diagonal 4*9,
    # neighbor couplings -9 in both directions
    a = generate_convection_diffusion(2, 0.0).to_dense().real
    expect = np.array([[36.0, -9.0, -9.0, 0.0],
                       [-9.0, 36.0, 0.0, -9.0],
                       [-9.0, 0.0, 36.0, -9.0],
                       [0.0, -9.0, -9.0, 36.0]])
    assert np.array_equal(a, expect)


@pytest.mark.parametrize("m, conv", [(2, 7.0), (5, 20.0), (9, -13.0)])
def test_generator_matches_kronecker_sum_bit_for_bit(m, conv):
    # the operator as the Kronecker sum I (x) Tx + Ty (x) I of the 1-D
    # stencils, Tx with the centered convection term: the same entries,
    # bit for bit, in the same CSR arrays
    h2 = (m + 1.0) ** 2
    ones = np.ones(m - 1)
    ty = np.diag(np.full(m, 2.0 * h2)) - h2 * (np.diag(ones, 1)
                                               + np.diag(ones, -1))
    tx = ty + conv * (m + 1.0) / 2.0 * (np.diag(ones, 1) - np.diag(ones, -1))
    expect = np.kron(np.eye(m), tx) + np.kron(ty, np.eye(m))
    a = generate_convection_diffusion(m, conv)
    assert np.array_equal(a.to_dense(), expect)
    csr = scipy.sparse.csr_matrix(expect)
    assert np.array_equal(a.row_offsets, csr.indptr)
    assert np.array_equal(a.col_indices, csr.indices)
    assert np.array_equal(a.values, csr.data)


def test_generator_symmetric_without_convection():
    a = generate_convection_diffusion(5, 0.0).to_dense()
    assert np.array_equal(a, a.T)


def test_generator_nonsymmetric_with_convection():
    a = generate_convection_diffusion(5, 10.0).to_dense()
    assert not np.array_equal(a, a.T)


@pytest.mark.parametrize("m", [2, 4, 8])
def test_generator_spd_eigenvalues(m):
    a = generate_convection_diffusion(m, 0.0).to_dense()
    vals = np.linalg.eigvalsh(a)
    assert np.all(vals.real > 0)
    assert np.all(np.abs(vals.imag) == 0)


@pytest.mark.parametrize("conv", [5.0, 50.0])
def test_generator_positive_real_with_convection(conv):
    # field of values in the right half plane: Hermitian part positive
    a = generate_convection_diffusion(8, conv).to_dense()
    herm = (a + a.conj().T) / 2
    assert np.linalg.eigvalsh(herm).min() > 0


def test_generator_rejects_tiny_grid():
    with pytest.raises(DimensionError):
        generate_convection_diffusion(1, 0.0)


# ---------------------------------------------------------------------------
# ShiftedFamily
# ---------------------------------------------------------------------------

def test_family_rejects_duplicate_shifts():
    a = SparseMatrix.identity(3)
    b = np.ones((3, 2))
    with pytest.raises(DimensionError):
        ShiftedFamily(a, [0.5, 0.5], b, None)


def test_family_dimension_checks():
    a = SparseMatrix.identity(3)
    with pytest.raises(DimensionError):
        ShiftedFamily(a, [0.1], np.ones((4, 1)), None)
    with pytest.raises(DimensionError):
        ShiftedFamily(a, [], np.ones((3, 0)), None)


@pytest.mark.parametrize("argument", ["values", "shifts", "rhs",
                                      "initial_guess"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_is_rejected_by_name(argument, bad):
    # the matrix A of a family is checked when its SparseMatrix is built
    values = np.array([1.0, 2.0, 3.0])
    args = {"shifts": np.array([0.1, 0.2]), "rhs": np.ones((3, 2)),
            "initial_guess": np.zeros((3, 2))}
    (values if argument == "values" else args[argument]).flat[1] = bad
    with pytest.raises(DimensionError, match=argument):
        a = SparseMatrix.diagonal(values)
        ShiftedFamily(a, args["shifts"], args["rhs"], args["initial_guess"])


def test_family_residual_block():
    a = SparseMatrix.diagonal([1.0, 2.0, 3.0])
    shifts = np.array([0.5, 1.5])
    b = np.ones((3, 2))
    x = np.random.default_rng(2).standard_normal((3, 2))
    fam = ShiftedFamily(a, shifts, b, x)
    expect = b - a.to_dense() @ x - x * shifts[None, :]
    assert np.allclose(fam.residual_block(x), expect, atol=1e-14)


@pytest.mark.parametrize("case", ["real", "complex shifts", "complex matrix",
                                  "complex iterate"])
def test_residual_block_against_dense_reference(case):
    # b_i - (A + sigma_i I) x_i column by column with dense matrices; the
    # residual is complex when the family or the iterate is: a real
    # iterate of complex shifts, a complex iterate of a real family (as a
    # complex recycle space makes it)
    rng = np.random.default_rng(8)
    n, p = 30, 5
    a = random_sparse(n, density=0.3, seed=8)
    if case == "complex matrix":
        a = SparseMatrix.from_dense(a.to_dense() * (1.0 - 0.5j))
    shifts = rng.standard_normal(p)
    if case == "complex shifts":
        shifts = shifts + 1j * rng.standard_normal(p)
    b = rng.standard_normal((n, p))
    fam = ShiftedFamily(a, shifts, b, None)
    x = rng.standard_normal((n, p))
    if case in ("complex matrix", "complex iterate"):
        x = x + 1j * rng.standard_normal((n, p))
    r = fam.residual_block(x)
    assert r.dtype == np.result_type(x, fam.rhs)
    # kept blocks, as a solve passes them at every cycle end, give the
    # same bits
    out, work = np.full_like(r, np.nan), np.full_like(r, np.nan)
    assert fam.residual_block(x, out=out, work=work) is out
    assert np.array_equal(out, r)
    dense = a.to_dense()
    for i in range(p):
        expect = b[:, i] - (dense + shifts[i] * np.eye(n)) @ x[:, i]
        assert np.linalg.norm(r[:, i] - expect) \
            <= 1e-13 * np.linalg.norm(dense) * np.linalg.norm(x[:, i])
