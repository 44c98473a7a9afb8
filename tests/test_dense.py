import numpy as np
import pytest

from shiftkrylov import (DimensionError, NearSingularError,
                         SingularMatrixError, block_arnoldi,
                         generate_convection_diffusion, hessenberg_eigen,
                         hessenberg_least_squares, solve_small_dense)
from shiftkrylov.dense import ShiftedBandQR, _adjoint_q_factors
from shiftkrylov.recycling import (AugmentationBlocks, assemble_augmented,
                                   shifted_hessenberg)
# the thin QR with a real non-negative diagonal that builds recycle spaces
from shiftkrylov.recycling import _qr


def test_qr_identity():
    q, r = _qr(np.eye(3))
    assert np.allclose(q, np.eye(3), atol=1e-15)
    assert np.allclose(r, np.eye(3), atol=1e-15)


def test_qr_single_column_normalization():
    q, r = _qr(np.array([[0.0], [3.0], [4.0]]))
    assert np.allclose(r, [[5.0]], atol=1e-14)
    assert np.allclose(q, [[0.0], [0.6], [0.8]], atol=1e-14)


def test_qr_reconstruction_random():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    q, r = _qr(m)
    scale = np.linalg.norm(m)
    assert np.linalg.norm(q @ r - m) <= 1e-12 * scale
    assert np.linalg.norm(q.conj().T @ q - np.eye(3)) <= 1e-12
    # sign convention: real non-negative diagonal
    d = np.diag(r)
    assert np.all(d.imag == 0) and np.all(d.real >= 0)
    assert np.allclose(np.tril(r, -1), 0)


def test_qr_requires_tall():
    with pytest.raises(DimensionError):
        _qr(np.ones((2, 3)))


def test_hessenberg_ls_exact():
    y, resid = hessenberg_least_squares(np.array([[1.0], [0.0]]),
                                        np.array([2.0, 0.0]))
    assert np.allclose(y, [2.0]) and resid == pytest.approx(0.0, abs=1e-15)


def test_hessenberg_ls_pure_residual():
    y, resid = hessenberg_least_squares(np.array([[1.0], [0.0]]),
                                        np.array([0.0, 3.0]))
    assert np.allclose(y, [0.0]) and resid == pytest.approx(3.0)


def _band_hessenberg(rows, cols, band, seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    for c in range(cols):
        h[c + band + 1:, c] = 0.0
    return h


def _complex_vector(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _block_large_n_case():
    """The shifted subproblem of one sbgmres cycle at L=4, m=30: a complex
    124 x 120 band-Hessenberg with band 4 and ``g = [S0 e_1; 0]``."""
    a = generate_convection_diffusion(12, 40.0)
    rng = np.random.default_rng(14)
    r0 = rng.standard_normal((144, 4)) + 1j * rng.standard_normal((144, 4))
    arn = block_arnoldi(a, r0, 30)
    g = np.zeros(124, dtype=complex)
    g[:4] = arn.s0[:, 0]
    return shifted_hessenberg(arn.hess, 4, 0.5), g


def _small_residual_case():
    """A right-hand side whose least-squares residual is 1e-12 of its norm."""
    h = _band_hessenberg(12, 8, 2, seed=11)
    q = np.linalg.qr(h, mode="complete")[0]
    e = q[:, 8:] @ _complex_vector(4, seed=12)   # orthogonal to range(h)
    g = h @ _complex_vector(8, seed=13)
    return h, g + 1e-12 * np.linalg.norm(g) * e / np.linalg.norm(e)


_LS_CASES = {
    "band2-12x8": lambda: (_band_hessenberg(12, 8, 2, seed=9),
                           np.random.default_rng(10).standard_normal(12)),
    "band4-124x120": _block_large_n_case,
    "square-8x8": lambda: (_band_hessenberg(8, 8, 1, seed=16),
                           _complex_vector(8, seed=17)),
    "residual-1e-12": _small_residual_case,
}


@pytest.mark.parametrize("case", list(_LS_CASES))
def test_hessenberg_ls_against_lstsq(case):
    h, g = _LS_CASES[case]()
    y, resid = hessenberg_least_squares(h, g)
    # independent oracle: LAPACK's SVD-based least squares
    y_ls = np.linalg.lstsq(h, g, rcond=None)[0]
    assert np.linalg.norm(y - y_ls) <= 1e-12 * np.linalg.norm(y_ls)
    # residual norm contract: the norm read off the factor matches the
    # explicitly recomputed residual, also when it is tiny next to ||g||
    explicit = np.linalg.norm(g - h @ y)
    assert abs(resid - explicit) <= 1e-12 * np.linalg.norm(g)
    if h.shape[0] == h.shape[1]:
        # a square relation (closed by a happy breakdown) is solved exactly
        assert resid == 0.0
        y_sq = np.linalg.solve(h, g)
        assert np.linalg.norm(y - y_sq) <= 1e-12 * np.linalg.norm(y_sq)


def test_hessenberg_ls_singular_column_named():
    h = np.zeros((3, 2))
    h[0, 0] = 1.0
    with pytest.raises(SingularMatrixError) as err:
        hessenberg_least_squares(h, np.ones(3))
    assert err.value.column == 1


@pytest.mark.parametrize("h, g", [
    (np.ones((2, 3)), np.ones(2)),    # fewer rows than columns
    (np.ones((3, 2)), np.ones(4)),    # right-hand side length mismatch
], ids=["rows-lt-cols", "length-mismatch"])
def test_hessenberg_ls_dimension_errors(h, g):
    with pytest.raises(DimensionError):
        hessenberg_least_squares(h, g)


def test_shifted_band_qr_at_block_size_one_against_dense_oracles():
    # a complex Hessenberg relation whose last step breaks down (zero
    # subdiagonal); three shift offsets, one per right-hand-side scale
    rng = np.random.default_rng(7)
    m = 7
    hbar = np.triu(rng.standard_normal((m + 1, m))
                   + 1j * rng.standard_normal((m + 1, m)), -1)
    sub = np.abs(np.diagonal(hbar, -1)).copy()
    sub[-1] = 0.0
    hbar[np.arange(1, m + 1), np.arange(m)] = sub
    offsets = np.array([0.0, 0.5, 2.0 + 1.0j])
    rhs = np.array([1.0, -2.0, 0.5j])
    qr = ShiftedBandQR(offsets, rhs[:, None], 1, 0, m)
    for j in range(1, m + 1):
        # the breakdown closes the relation square: no subdiagonal row
        rows = j + 1 if j < m else j
        qr.append(hbar[:j, j - 1:j], hbar[j:rows, j - 1:j], np.zeros((0, 1)))
        resid, directions = qr.residual(), qr.residual_directions()
        galerkin, singular = qr.galerkin_residual(1e-14)
        assert not singular.any()
        for i, d in enumerate(offsets):
            h = hbar[:rows, :j] + d * np.eye(rows, j)
            g = np.zeros(rows, dtype=complex)
            g[0] = rhs[i]
            y = np.linalg.lstsq(h, g, rcond=None)[0]
            z = g - h @ y
            assert np.isclose(resid[i], np.linalg.norm(z),
                              rtol=0, atol=1e-13 * abs(rhs[i]))
            # q_i is the unit residual direction, g its coefficient
            assert np.allclose(directions[i] @ qr.g[i, :qr.carry], z,
                               atol=1e-13)
            if rows > j:
                assert np.isclose(np.linalg.norm(directions[i]), 1.0,
                                  rtol=1e-13)
            y_sq = np.linalg.solve(h[:j], g[:j])
            z_sq = np.linalg.norm(h[j:] @ y_sq)
            assert np.isclose(galerkin[i], z_sq, rtol=1e-12,
                              atol=1e-13 * abs(rhs[i]))
    # the breakdown closed the relation: no residual direction is left
    # and the residual is exactly zero
    assert qr.residual_directions().shape == (3, m, 0)
    assert np.all(qr.residual() == 0.0)


def test_shifted_band_qr_at_block_size_one_flags_singular_galerkin_system():
    # H = [[0], [1]]: the 1 x 1 Galerkin system is singular at offset 0
    # but not at offset 1; the least-squares factor stays regular
    qr = ShiftedBandQR([0.0, 1.0], [[1.0], [1.0]], 1, 0, 2)
    qr.append([[0.0]], [[1.0]], np.zeros((0, 1)))
    rho, singular = qr.galerkin_residual(1e-14)
    assert singular.tolist() == [True, False]
    assert np.isnan(rho[0]) and rho[1] == pytest.approx(1.0)
    assert np.all(np.isfinite(qr.residual()))
    for i, d in enumerate([0.0, 1.0]):
        h = np.array([[d], [1.0]])
        z = np.array([1.0, 0.0]) - h @ np.linalg.lstsq(
            h, [1.0, 0.0], rcond=None)[0]
        assert qr.residual()[i] == pytest.approx(np.linalg.norm(z))
        assert np.allclose(qr.residual_directions()[i] @ qr.g[i], z,
                           atol=1e-15)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_batched_adjoint_q_factors_match_the_single_block_path(dtype):
    # a stack goes through one batched np.linalg.qr, a single block through
    # geqrf/orgqr; both are Householder QR, so they agree to rounding
    blocks = _complex_vector(4 * 5 * 2, seed=4).reshape(4, 5, 2)
    blocks = (blocks if dtype is np.complex128 else blocks.real).astype(dtype)
    qh, diag = _adjoint_q_factors(blocks)
    for i, block in enumerate(blocks):
        qh_i, diag_i = _adjoint_q_factors(block[None])
        assert np.allclose(qh[i], qh_i[0], rtol=0, atol=1e-13)
        assert np.allclose(diag[i], diag_i[0], rtol=1e-13)
        r = qh[i] @ block
        assert np.allclose(r[2:], 0.0, atol=1e-13)
        assert np.allclose(np.abs(np.diagonal(r)), diag[i], rtol=1e-13)


def test_shifted_hessenberg_stack_matches_scalar_calls():
    hess = _complex_vector(5 * 4, seed=9).reshape(5, 4)
    shifts = np.array([0.0, 1.5, -2.0 + 0.5j])
    stack = shifted_hessenberg(hess, 1, shifts)
    assert stack.shape == (3, 5, 4)
    for sigma, h in zip(shifts, stack):
        assert np.array_equal(h, shifted_hessenberg(hess, 1, sigma))


def _band_relation(ell, k, steps, closing_rows, seed):
    """A random complex band Hessenberg relation of block size ``ell``
    with k coupling rows: block column 1's subdiagonal block has a zero
    diagonal entry (a replaced column), and the last block column closes
    on ``closing_rows`` < ``ell`` subdiagonal rows, as when the relation
    closes on an invariant span."""
    rng = np.random.default_rng(seed)
    rows = steps * ell + closing_rows
    hbar = np.zeros((rows, steps * ell), dtype=complex)
    for t in range(steps):
        sub_rows = ell if t < steps - 1 else closing_rows
        col = slice(t * ell, (t + 1) * ell)
        hbar[:(t + 1) * ell, col] = _complex_vector(
            (t + 1) * ell * ell, seed + t).reshape((t + 1) * ell, ell)
        sub = np.triu(rng.standard_normal((ell, ell)))[:sub_rows]
        if t == 1:
            sub[0, 0] = 0.0
        hbar[(t + 1) * ell:(t + 1) * ell + sub_rows, col] = sub
    coupling = rng.standard_normal((k, steps * ell)) \
        + 1j * rng.standard_normal((k, steps * ell))
    return hbar, coupling


@pytest.mark.parametrize("k", [0, 4])
@pytest.mark.parametrize("ell", [1, 3])
def test_shifted_band_qr_against_dense_oracles(ell, k):
    steps = 6
    closing = ell - 1          # a partial closing block; square at L = 1
    hbar, coupling = _band_relation(ell, k, steps, closing, seed=3 * ell + k)
    shifts = np.array([0.0, 0.7, 2.0 - 1.5j])
    rhs = np.random.default_rng(5).standard_normal((3, ell)) + 0.5j
    rng = np.random.default_rng(8)
    qr = ShiftedBandQR(shifts, rhs, ell, k, steps)
    for j in range(1, steps + 1):
        rows = (j + 1) * ell if j < steps else j * ell + closing
        cols = slice((j - 1) * ell, j * ell)
        qr.append(hbar[:j * ell, cols], hbar[j * ell:rows, cols],
                  coupling[:, cols])
        hj, bj = hbar[:rows, :j * ell], coupling[:, :j * ell]
        # recycle blocks for the augmented estimate, fresh at every step
        blocks = AugmentationBlocks(
            p=_complex_vector(rows * k, seed=j).reshape(rows, k),
            q2=_complex_vector(k * k, seed=20 + j).reshape(k, k),
            u_hat=np.zeros((1, k)),
            n_factor=np.triu(rng.standard_normal((k, k))))
        resid = qr.residual()
        galerkin, singular = qr.galerkin_residual(1e-14) if k == 0 \
            else (None, None)
        augmented = qr.augmented_residual(blocks.p, blocks.q2,
                                          blocks.n_factor) if k else None
        for i, sigma in enumerate(shifts):
            h = np.vstack([shifted_hessenberg(hj, ell, sigma), bj])
            g = np.zeros(h.shape[0], dtype=complex)
            g[:ell] = rhs[i]
            tol = 1e-12 * np.linalg.norm(g)
            assert abs(resid[i] - hessenberg_least_squares(h, g)[1]) <= tol
            if k == 0:
                y, _ = solve_small_dense(h[:j * ell], g[:j * ell])
                assert not singular[i]
                assert abs(galerkin[i] - np.linalg.norm(h[j * ell:] @ y)) \
                    <= tol
            else:
                aug = assemble_augmented(hj, bj, blocks, ell, sigma)
                g_aug = np.zeros(aug.shape[0], dtype=complex)
                g_aug[:ell] = rhs[i]
                assert abs(augmented[i]
                           - hessenberg_least_squares(aug, g_aug)[1]) <= tol
    if k == 0 and closing == 0:
        # a relation closed square is solved exactly
        assert np.all(resid <= 1e-12 * np.linalg.norm(rhs, axis=1))


def test_shifted_band_qr_flags_singular_galerkin_system():
    # H = [[0], [1]]: the 1 x 1 Galerkin system is singular at shift 0
    # but not at shift 1; the least-squares estimate stays exact
    qr = ShiftedBandQR([0.0, 1.0], [[1.0], [1.0]], 1, 0, 1)
    qr.append([[0.0]], [[1.0]], np.zeros((0, 1)))
    rho, singular = qr.galerkin_residual(1e-14)
    assert singular.tolist() == [True, False]
    assert np.isnan(rho[0]) and rho[1] == pytest.approx(1.0)
    assert np.allclose(qr.residual(), [1.0, 1.0 / np.sqrt(2.0)])


def test_shifted_band_qr_marks_singular_least_squares_unknown():
    # H = [[1]] closes square: at shift -1 the 1 x 1 system is exactly
    # singular, and its carried right-hand side (no rows) would read 0
    qr = ShiftedBandQR([-1.0, 0.5], [[1.0], [1.0]], 1, 0, 1)
    qr.append([[1.0]], np.zeros((0, 1)), np.zeros((0, 1)))
    rho = qr.residual()
    assert np.isnan(rho[0]) and rho[1] == 0.0


def test_solve_identity():
    x, resid = solve_small_dense(np.eye(2), np.array([3.0, 4.0]))
    assert np.array_equal(x, [3.0, 4.0]) and resid == 0.0


def test_solve_diagonal():
    x, _ = solve_small_dense(np.diag([2.0, 4.0]), np.eye(2))
    assert np.allclose(x, np.diag([0.5, 0.25]), atol=1e-15)


def test_solve_random_residual():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((10, 10)) + 10 * np.eye(10)
    rhs = rng.standard_normal((10, 2))
    x, resid = solve_small_dense(m, rhs)
    assert resid <= 1e-10 * np.linalg.norm(rhs)
    assert np.linalg.norm(m @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_solve_near_singular_raises():
    m = np.array([[1.0, 0.0], [0.0, 1e-16]])
    with pytest.raises(NearSingularError):
        solve_small_dense(m, np.ones(2))


def test_eigen_diagonal_largest():
    pairs = hessenberg_eigen(np.diag([1.0, 2.0, 3.0]), "largest", 1)
    assert pairs.values[0] == pytest.approx(3.0)
    vec = np.abs(pairs.vectors[:, 0])
    assert np.allclose(vec, [0.0, 0.0, 1.0], atol=1e-12)


def test_eigen_rotation_pair():
    pairs = hessenberg_eigen(np.array([[0.0, -1.0], [1.0, 0.0]]),
                             "smallest", 2)
    assert sorted(pairs.values, key=lambda z: z.imag) == \
        pytest.approx([-1j, 1j])


def test_eigen_matches_charpoly_roots():
    h = _band_hessenberg(12, 12, 0, seed=21).real
    pairs = hessenberg_eigen(h, "smallest", 12)
    # independent oracle: roots of the characteristic polynomial
    roots = np.roots(np.poly(h))
    got = np.sort_complex(pairs.values)
    want = np.sort_complex(roots)
    assert np.allclose(got, want, rtol=1e-8, atol=1e-8)


def test_eigen_trace_invariant():
    h = _band_hessenberg(9, 9, 1, seed=33)
    pairs = hessenberg_eigen(h, "largest", 9)
    assert np.sum(pairs.values) == pytest.approx(np.trace(h), rel=1e-8)


def test_eigen_residual_field():
    h = _band_hessenberg(7, 7, 0, seed=4)
    pairs = hessenberg_eigen(h, "largest", 3)
    assert np.all(pairs.residuals <= 1e-8 * np.linalg.norm(h))
    assert pairs.ordering == "by-modulus-descending"

