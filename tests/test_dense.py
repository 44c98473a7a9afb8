import warnings

import numpy as np
import pytest

from shiftkrylov import (DimensionError, RecycleSpace, SparseMatrix,
                         block_arnoldi_extend, block_arnoldi_start,
                         generate_convection_diffusion, hessenberg_eigen)
from shiftkrylov.dense import ShiftedBandQR
from shiftkrylov.recycling import AugmentationBlocks

from conftest import (augmented_matrix, band_qr, block_arnoldi,
                      narrowing_chain)
# the thin QR with a real non-negative diagonal that builds recycle spaces
from shiftkrylov.errors import NearSingularError
from shiftkrylov.recycling import _fold


def test_qr_identity():
    space = _fold(np.eye(3), np.eye(3), 0.0, "initial", "")
    assert np.allclose(space.c, np.eye(3), atol=1e-15)
    assert np.allclose(space.u, np.eye(3), atol=1e-15)


def test_qr_single_column_normalization():
    u = np.array([[1.0], [0.0], [0.0]])
    space = _fold(u, np.array([[0.0], [3.0], [4.0]]), 0.0, "initial", "")
    # R = [[5]] is folded into u
    assert np.allclose(space.c, [[0.0], [0.6], [0.8]], atol=1e-14)
    assert np.allclose(space.u, u / 5.0, atol=1e-14)


def test_qr_reconstruction_random():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    u = rng.standard_normal((6, 3))
    space = _fold(u, m, 0.0, "initial", "")
    q = space.c
    r = q.conj().T @ m
    scale = np.linalg.norm(m)
    assert np.linalg.norm(q @ r - m) <= 1e-12 * scale
    assert np.linalg.norm(q.conj().T @ q - np.eye(3)) <= 1e-12
    # sign convention: real non-negative diagonal, and R^-1 folded into u
    d = np.diag(r)
    assert np.all(np.abs(d.imag) <= 1e-12 * scale) and np.all(d.real >= 0)
    assert np.allclose(np.tril(r, -1), 0, atol=1e-12 * scale)
    assert np.linalg.norm(space.u @ r - u) <= 1e-12 * np.linalg.norm(u)


def test_qr_requires_tall():
    with pytest.raises(DimensionError):
        _fold(np.ones((2, 3)), np.ones((2, 3)), 0.0, "initial", "")


def test_fold_raises_at_its_floor_per_column():
    # each column's floor is 1e-14 times its scale: 1, 1e-4 then 1e-2, 0.5
    image = np.diag([2.0, 1e-3, 1.0])
    assert _fold(np.eye(3), image, np.array([1e14, 1e10, 5e13]), "initial",
                 "").k == 3
    with pytest.raises(NearSingularError, match="column 2"):
        _fold(np.eye(3), image, np.array([1e14, 1e12, 5e13]), "initial",
              "column 2")


def test_hessenberg_ls_exact():
    # Hbar = [[1], [0]]: the right-hand side lies in the range
    qr = ShiftedBandQR([0.0], [[2.0]], 1, 0, 1, norm=1.0)
    qr.append([[1.0]], [[0.0]], np.zeros((0, 1)))
    assert qr.residual()[0] == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(qr.solve(), [[2.0]])


def test_hessenberg_ls_pure_residual():
    # Hbar = [[0], [1]]: the right-hand side is orthogonal to the range
    qr = ShiftedBandQR([0.0], [[3.0]], 1, 0, 1, norm=1.0)
    qr.append([[0.0]], [[1.0]], np.zeros((0, 1)))
    assert qr.residual()[0] == pytest.approx(3.0)
    assert np.allclose(qr.solve(), 0.0)


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
    124 x 120 band Hessenberg relation at shift 0.5 with right-hand side
    ``S0 e_1``."""
    a = generate_convection_diffusion(12, 40.0)
    rng = np.random.default_rng(14)
    r0 = rng.standard_normal((144, 4)) + 1j * rng.standard_normal((144, 4))
    arn = block_arnoldi(a, r0, 30)
    return arn.hess, arn.coupling, 4, 0.5, arn.s0[:, 0]


def _small_residual_case():
    """A block-size-one relation whose least-squares residual is about
    1e-12 of its right-hand side: ``Hbar y0`` is a multiple of ``e_1``
    but for a last subdiagonal entry of 1e-12."""
    h = _band_hessenberg(9, 8, 1, seed=11)
    y0 = _complex_vector(8, seed=13)
    for i in range(1, 9):
        h[i, i - 1] = -(h[i, i:] @ y0[i:]) / y0[i - 1]
    h[8, 7] = 1e-12
    return h, np.zeros((0, 8)), 1, 0.0, np.array([h[0] @ y0])


_LS_CASES = {
    # L = 2 with two coupling rows, each with a right-hand side entry
    "band2-12x8": lambda: (*_band_relation(2, 2, 4, 2, seed=9), 2, 0.3,
                           np.random.default_rng(10).standard_normal(4)
                           + 0.5j),
    "band4-124x120": _block_large_n_case,
    # a block-size-one relation closed square by a happy breakdown
    "square-8x8": lambda: (_band_hessenberg(8, 8, 1, seed=16),
                           np.zeros((0, 8)), 1, 0.0,
                           _complex_vector(1, seed=17)),
    "residual-1e-12": _small_residual_case,
}


@pytest.mark.parametrize("case", list(_LS_CASES))
def test_hessenberg_ls_against_lstsq(case):
    hbar, coupling, ell, sigma, rhs = _LS_CASES[case]()
    k = len(coupling)
    qr = band_qr(hbar, coupling, ell, [sigma], rhs[None])
    resid = qr.residual()[0]
    y = qr.solve()[0]
    # independent oracle: LAPACK's SVD-based least squares over the rows
    # [B; Hbar + sigma [I; 0]], the coupling right-hand side first
    h = np.vstack([coupling, hbar + sigma * np.eye(*hbar.shape)])
    g = np.zeros(len(h), dtype=complex)
    g[k:k + ell], g[:k] = rhs[:ell], rhs[ell:]
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
    # Hbar = [[1, 0], [0, 0], [0, 0]]: column 1 is zero, so the kept
    # triangle's diagonal entry 1 is exactly zero; the estimate is NaN and
    # the solve leaves the shift alone
    qr = ShiftedBandQR([0.0], [[1.0]], 1, 0, 2, norm=1.0)
    qr.append([[1.0]], [[0.0]], np.zeros((0, 1)))
    qr.append([[0.0], [0.0]], [[0.0]], np.zeros((0, 1)))
    assert np.nonzero(np.diagonal(qr.r[0]) == 0.0)[0].tolist() == [1]
    assert np.isnan(qr.residual()[0])
    assert not np.any(qr.solve())


def _residual_directions(qr):
    """The conjugated carried rows of the state's ``q``: combined by the
    carried entries of ``g`` they give the least-squares residual."""
    top = qr.steps * qr.block_size
    rows = top + qr.carry
    return qr.q[:, top:rows, :rows].conj().transpose(0, 2, 1)


_UNIT_CASES = {
    # three shift offsets, one per right-hand-side scale
    "three-offsets": (np.array([0.0, 0.5, 2.0 + 1.0j]),
                      np.array([1.0, -2.0, 0.5j]), None),
    # the shared-rhs benchmark's family: 32 real shifts over five decades,
    # and one complex subdiagonal entry, which a Givens rotation for real
    # subdiagonals would get wrong
    "shared-rhs": (np.geomspace(1e-3, 1e2, 32),
                   np.linspace(1.0, 2.0, 32) * (1.0 - 0.5j), 3),
}


@pytest.mark.parametrize("case", list(_UNIT_CASES))
def test_shifted_band_qr_at_block_size_one_against_dense_oracles(case):
    # a complex Hessenberg relation whose last step breaks down (zero
    # subdiagonal)
    offsets, rhs, complex_sub = _UNIT_CASES[case]
    rng = np.random.default_rng(7)
    m = 7
    hbar = np.triu(rng.standard_normal((m + 1, m))
                   + 1j * rng.standard_normal((m + 1, m)), -1)
    sub = np.abs(np.diagonal(hbar, -1)).astype(complex)
    sub[-1] = 0.0
    if complex_sub is not None:
        sub[complex_sub] *= np.exp(0.7j)
    hbar[np.arange(1, m + 1), np.arange(m)] = sub
    qr = ShiftedBandQR(offsets, rhs[:, None], 1, 0, m,
                       norm=np.linalg.norm(hbar))
    for j in range(1, m + 1):
        # the breakdown closes the relation square: no subdiagonal row
        rows = j + 1 if j < m else j
        qr.append(hbar[:j, j - 1:j], hbar[j:rows, j - 1:j], np.zeros((0, 1)))
        resid, directions = qr.residual(), _residual_directions(qr)
        carried = qr.g[:, j:j + qr.carry]
        galerkin, singular = qr.galerkin_residual()
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
            assert np.allclose(directions[i] @ carried[i], z, atol=1e-13)
            if rows > j:
                assert np.isclose(np.linalg.norm(directions[i]), 1.0,
                                  rtol=1e-13)
            y_sq = np.linalg.solve(h[:j], g[:j])
            z_sq = np.linalg.norm(h[j:] @ y_sq)
            assert np.isclose(galerkin[i], z_sq, rtol=1e-12,
                              atol=1e-13 * abs(rhs[i]))
    # the breakdown closed the relation: no residual direction is left
    # and the residual is exactly zero
    assert _residual_directions(qr).shape == (len(offsets), m, 0)
    assert np.all(qr.residual() == 0.0)
    # and the solve is each shift's square solve
    y = qr.solve()
    for i, d in enumerate(offsets):
        y_sq = np.linalg.solve(hbar[:m] + d * np.eye(m), np.eye(m)[0] * rhs[i])
        assert np.linalg.norm(y[i] - y_sq) <= 1e-12 * np.linalg.norm(y_sq)


def test_shifted_band_qr_at_block_size_one_flags_singular_galerkin_system():
    # H = [[0], [1]]: the 1 x 1 Galerkin system is singular at offset 0
    # but not at offset 1; the least-squares factor stays regular
    qr = ShiftedBandQR([0.0, 1.0], [[1.0], [1.0]], 1, 0, 2, norm=1.0)
    qr.append([[0.0]], [[1.0]], np.zeros((0, 1)))
    rho, singular = qr.galerkin_residual()
    assert singular.tolist() == [True, False]
    assert np.isnan(rho[0]) and rho[1] == pytest.approx(1.0)
    assert np.all(np.isfinite(qr.residual()))
    for i, d in enumerate([0.0, 1.0]):
        h = np.array([[d], [1.0]])
        z = np.array([1.0, 0.0]) - h @ np.linalg.lstsq(
            h, [1.0, 0.0], rcond=None)[0]
        assert qr.residual()[i] == pytest.approx(np.linalg.norm(z))
        assert np.allclose(_residual_directions(qr)[i] @ qr.g[i, 1:2], z,
                           atol=1e-15)


def _band_relation(ell, k, steps, closing_rows, seed):
    """A random complex band Hessenberg relation of block size ``ell``
    with k coupling rows: block column 1's subdiagonal block has a zero
    diagonal entry, and the last block column closes on ``closing_rows``
    <= ``ell`` subdiagonal rows."""
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


def _lstsq_residual(h, g):
    """``min_y ||g - h y||`` by LAPACK's SVD-based least squares."""
    return np.linalg.norm(g - h @ np.linalg.lstsq(h, g, rcond=None)[0])


@pytest.mark.parametrize("k", [0, 4])
@pytest.mark.parametrize("ell", [1, 3])
def test_shifted_band_qr_against_dense_oracles(ell, k):
    steps = 6
    closing = ell - 1          # a partial closing block; square at L = 1
    hbar, coupling = _band_relation(ell, k, steps, closing, seed=3 * ell + k)
    shifts = np.array([0.0, 0.7, 2.0 - 1.5j])
    rhs = np.random.default_rng(5).standard_normal((3, ell)) + 0.5j
    rng = np.random.default_rng(8)
    qr = ShiftedBandQR(shifts, rhs, ell, k, steps,
                       norm=np.linalg.norm(hbar))
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
            n_factor=np.triu(rng.standard_normal((k, k))))
        resid = qr.residual()
        galerkin, singular = qr.galerkin_residual() if k == 0 \
            else (None, None)
        augmented = qr.augmented_residual(
            blocks.p, blocks.q2, blocks.n_factor,
            np.zeros(3, dtype=bool)) if k else None
        for i, sigma in enumerate(shifts):
            h = np.vstack([hj + sigma * np.eye(*hj.shape), bj])
            g = np.zeros(h.shape[0], dtype=complex)
            g[:ell] = rhs[i]
            tol = 1e-12 * np.linalg.norm(g)
            assert abs(resid[i] - _lstsq_residual(h, g)) <= tol
            if k == 0:
                y = np.linalg.solve(h[:j * ell], g[:j * ell])
                assert not singular[i]
                assert abs(galerkin[i] - np.linalg.norm(h[j * ell:] @ y)) \
                    <= tol
            else:
                aug = augmented_matrix(hj, bj, blocks.p, blocks.q2,
                                       blocks.n_factor, sigma)
                g_aug = np.zeros(aug.shape[0], dtype=complex)
                g_aug[:ell] = rhs[i]
                assert abs(augmented[i] - _lstsq_residual(aug, g_aug)) <= tol
    if k == 0 and closing == 0:
        # a relation closed square is solved exactly
        assert np.all(resid <= 1e-12 * np.linalg.norm(rhs, axis=1))


def test_shifted_band_qr_flags_singular_galerkin_system():
    # H = [[0], [1]]: the 1 x 1 Galerkin system is singular at shift 0
    # but not at shift 1; the least-squares estimate stays exact
    qr = ShiftedBandQR([0.0, 1.0], [[1.0], [1.0]], 1, 0, 1, norm=1.0)
    qr.append([[0.0]], [[1.0]], np.zeros((0, 1)))
    rho, singular = qr.galerkin_residual()
    assert singular.tolist() == [True, False]
    assert np.isnan(rho[0]) and rho[1] == pytest.approx(1.0)
    assert np.allclose(qr.residual(), [1.0, 1.0 / np.sqrt(2.0)])


def test_width_one_galerkin_pivot_is_measured_against_the_operator():
    # H = [[1e-30]] closes square at the first step, where the triangle
    # has no earlier diagonal: the pivot is singular beside ||A||_F = 1,
    # for every shift small beside it
    qr = ShiftedBandQR([0.0, 1e-20], [[1.0], [1.0]], 1, 0, 1, norm=1.0)
    qr.append([[1e-30]], np.zeros((0, 1)), np.zeros((0, 1)))
    rho, singular = qr.galerkin_residual()
    assert singular.tolist() == [True, True] and np.isnan(rho).all()
    assert not np.any(qr.solve())


def test_shifted_band_qr_marks_singular_least_squares_unknown():
    # H = [[1]] closes square: at shift -1 the 1 x 1 system is exactly
    # singular, and its carried right-hand side (no rows) would read 0
    qr = ShiftedBandQR([-1.0, 0.5], [[1.0], [1.0]], 1, 0, 1, norm=1.0)
    qr.append([[1.0]], np.zeros((0, 1)), np.zeros((0, 1)))
    rho = qr.residual()
    assert np.isnan(rho[0]) and rho[1] == 0.0


def test_least_squares_pivot_at_rounding_level_is_singular():
    # Hbar = [[1e-17], [0]] beside ||A||_F = 1: the pivot is noise, so the
    # estimate is unknown and the shift gets no update, not y = 1e17
    qr = ShiftedBandQR([0.0], [[1.0]], 1, 0, 1, norm=1.0)
    qr.append([[1e-17]], [[0.0]], np.zeros((0, 1)))
    assert np.isnan(qr.residual()[0])
    assert not qr.solve().any()


def test_zero_live_column_gives_nan_estimates_and_a_zero_solve():
    # Hbar = [[1, 0], [0, 0], [0, 0]]: at offset 0 the second column
    # vanishes, so step 2's rotation meets a zero live entry over a zero
    # subdiagonal entry; at offset 1 it meets 1 over 0.  Both factor
    # without a warning, in real arithmetic
    qr = ShiftedBandQR([0.0, 1.0], [[1.0], [3.0]], 1, 0, 2, norm=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        qr.append([[1.0]], [[0.0]], np.zeros((0, 1)))
        qr.append([[0.0], [0.0]], [[0.0]], np.zeros((0, 1)))
        rho = qr.residual()
        y_ls = qr.solve()
        galerkin, singular = qr.galerkin_residual()
        y_g = qr.solve()
    assert qr.q.dtype == qr.g.dtype == qr.r.dtype == np.float64
    assert rho.dtype == galerkin.dtype == y_ls.dtype == y_g.dtype \
        == np.float64
    assert np.isnan(rho[0]) and np.isnan(galerkin[0])
    assert singular.tolist() == [True, False]
    for y in (y_ls, y_g):
        assert not np.any(y[0])
    # offset 1: Hbar + [I; 0] = [[2, 0], [0, 1], [0, 0]], right-hand side
    # 3 e_1, solved exactly by y = (1.5, 0) in both senses
    assert rho[1] == 0.0 and galerkin[1] == 0.0
    assert np.allclose(y_ls[1], [1.5, 0.0]) and np.allclose(y_g[1], [1.5, 0.0])


def _galerkin_solve(h_col, shifts, rhs):
    """The Galerkin solve of one block step that closes square: the
    square ``h_col + sigma_i I`` against ``rhs_i`` for every shift."""
    ell = len(h_col)
    qr = ShiftedBandQR(shifts, rhs, ell, 0, 1,
                       norm=np.linalg.norm(h_col))
    qr.append(h_col, np.zeros((0, ell)), np.zeros((0, ell)))
    rho, singular = qr.galerkin_residual()
    return qr.solve(), rho, singular


def test_solve_identity():
    x, rho, _ = _galerkin_solve(np.eye(2), [0.0], [[3.0, 4.0]])
    assert np.array_equal(x, [[3.0, 4.0]]) and rho[0] == 0.0


def test_solve_diagonal():
    x, _, _ = _galerkin_solve(np.diag([2.0, 4.0]), [0.0, 0.0], np.eye(2))
    assert np.allclose(x, np.diag([0.5, 0.25]), atol=1e-15)


def test_solve_random_residual():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((10, 10)) + 10 * np.eye(10)
    rhs = rng.standard_normal((10, 2))
    x, rho, _ = _galerkin_solve(m, [0.0, 0.0], rhs.T)
    assert np.all(rho == 0.0)
    assert np.linalg.norm(m @ x.T - rhs) <= 1e-10 * np.linalg.norm(rhs)


def _state_rows(hbar, coupling, shifts, rhs, ell):
    """Dense ``G_i = [B; Hbar + sigma_i [I; 0]]`` and the right-hand sides
    ``[rhs_coupling; rhs_H; 0]`` of a state, rows in the state's order."""
    k = len(coupling)
    mats = [np.vstack([coupling, hbar + s * np.eye(*hbar.shape)])
            for s in shifts]
    g = np.zeros((len(shifts), k + len(hbar)), dtype=np.result_type(rhs))
    g[:, k:k + ell], g[:, :k] = rhs[:, :ell], rhs[:, ell:]
    return mats, g


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("ell", [1, 4])
def test_band_qr_solve_against_dense_oracles(ell, k, dtype):
    # every shift's cycle-end solve from the kept triangle, against
    # numpy.linalg.lstsq (least squares, augmented) and numpy.linalg.solve
    # (Galerkin) on matrices built from their definitions
    steps = 5
    hbar, coupling = _band_relation(ell, k, steps, ell, seed=7 * ell + k)
    rng = np.random.default_rng(11)
    shifts = np.array([0.0, 0.7, -1.3])
    rhs = rng.standard_normal((3, ell + k))
    if dtype is np.complex128:
        shifts = shifts + np.array([0.0, 0.5j, -0.25j])
        rhs = rhs + 1j * rng.standard_normal((3, ell + k))
    else:
        hbar, coupling = hbar.real.copy(), coupling.real.copy()
    rhs[[0, 2], ell:] = 0.0      # only shift 1 has coupling entries
    qr = band_qr(hbar, coupling, ell, shifts, rhs)
    mats, g = _state_rows(hbar, coupling, shifts, rhs, ell)
    qr.residual()
    y = qr.solve()
    assert y.dtype == np.result_type(dtype, np.float64)
    for i, (h, gi) in enumerate(zip(mats, g)):
        y_ls = np.linalg.lstsq(h, gi, rcond=None)[0]
        assert np.linalg.norm(y[i] - y_ls) <= 1e-10 * np.linalg.norm(y_ls)
    jl = steps * ell
    if k == 0:
        qr.galerkin_residual()
        y = qr.solve()
        for i, (h, gi) in enumerate(zip(mats, g)):
            y_g = np.linalg.solve(h[:jl], gi[:jl])
            assert np.linalg.norm(y[i] - y_g) <= 1e-10 * np.linalg.norm(y_g)
        return
    # augmented, shift 1 over the Krylov space alone with its coupling
    # right-hand side
    p = rng.standard_normal((len(hbar), k)).astype(dtype)
    q2 = rng.standard_normal((k, k)).astype(dtype)
    n_factor = np.triu(rng.standard_normal((k, k)))
    alone = np.array([False, True, False])
    est = qr.augmented_residual(p, q2, n_factor, alone)
    y = qr.solve()
    rows = len(hbar)
    for i, sigma in enumerate(shifts):
        if alone[i]:
            h, gi = np.hstack([mats[i], np.zeros((k + rows, k))]), g[i]
            h = np.vstack([h, np.zeros((k, jl + k))])
            gi = np.concatenate([gi, np.zeros(k)])
        else:
            aug = augmented_matrix(hbar, coupling, p, q2, n_factor, sigma)
            # the state orders the rows [C, W_{j+1}, Uhat]
            order = np.r_[rows:rows + k, :rows, rows + k:rows + 2 * k]
            h, gi = aug[order], np.concatenate([g[i], np.zeros(k)])
        y_ls = np.linalg.lstsq(h[:, :jl] if alone[i] else h, gi,
                               rcond=None)[0]
        if alone[i]:
            y_ls = np.concatenate([y_ls, np.zeros(k)])
        assert np.linalg.norm(y[i] - y_ls) <= 1e-10 * np.linalg.norm(y_ls)
        assert abs(est[i] - np.linalg.norm(gi - h @ y_ls)) \
            <= 1e-10 * np.linalg.norm(gi)


def test_recycle_column_inside_the_band_is_solved_over_the_band_alone():
    # k = 1: at shift 0.5 the recycle column of the augmented matrix is
    # the combination G e_1 - G e_2 of band columns (N = 0), so it adds
    # nothing and that shift is solved over the band alone, z = 0, at the
    # augmented matrix's own minimum; at shift -0.3 it is a true column
    hbar = np.array([[1.0, 2.0], [0.5, 1.0], [0.0, 0.25]])
    coupling = np.array([[0.3, -0.2]])
    shifts = np.array([0.5, -0.3])
    rhs = np.array([[1.0, 0.0], [2.0, 0.0]])
    band = np.vstack([hbar + 0.5 * np.eye(3, 2), coupling]) @ [1.0, -1.0]
    p, q2 = band[:3, None] / 0.5, (band[3:, None] - 1.0) / 0.5
    n_factor = np.zeros((0, 1))
    qr = band_qr(hbar, coupling, 1, shifts, rhs)
    mats, g = _state_rows(hbar, coupling, shifts, rhs, 1)
    est = qr.augmented_residual(p, q2, n_factor, np.zeros(2, dtype=bool))
    y = qr.solve()
    order = np.r_[3, :3]            # the state orders the rows [C, W_3]
    for i, sigma in enumerate(shifts):
        aug = augmented_matrix(hbar, coupling, p, q2, n_factor,
                               sigma)[order]
        y_ls = np.linalg.lstsq(aug, g[i], rcond=None)[0]
        assert abs(est[i] - np.linalg.norm(g[i] - aug @ y_ls)) <= 1e-12
        assert np.linalg.norm(aug @ y[i] - aug @ y_ls) <= 1e-12
    assert y[0, 2] == 0.0 and y[1, 2] != 0.0
    y_band = np.linalg.lstsq(mats[0], g[0], rcond=None)[0]
    assert np.allclose(y[0, :2], y_band, rtol=1e-12, atol=0)
    assert est[0] == pytest.approx(_lstsq_residual(mats[0], g[0]), rel=1e-12)


@pytest.mark.parametrize("ell", [1, 4])
def test_band_qr_solve_on_relation_closed_square(ell):
    # a happy breakdown closes the relation square: the least-squares and
    # Galerkin solves are both the exact square solve, with no residual
    steps = 4
    hbar, coupling = _band_relation(ell, 0, steps, 0, seed=5 + ell)
    shifts = np.array([0.2, 1.0 - 0.5j])
    rhs = np.random.default_rng(3).standard_normal((2, ell)) + 0.5j
    qr = band_qr(hbar, coupling, ell, shifts, rhs)
    mats, g = _state_rows(hbar, coupling, shifts, rhs, ell)
    assert np.all(qr.residual() == 0.0)
    y_ls = qr.solve()
    assert np.array_equal(qr.galerkin_residual()[0], [0.0, 0.0])
    y_g = qr.solve()
    for i, (h, gi) in enumerate(zip(mats, g)):
        y_sq = np.linalg.solve(h, gi)
        for y in (y_ls[i], y_g[i]):
            assert np.linalg.norm(y - y_sq) <= 1e-10 * np.linalg.norm(y_sq)


@pytest.mark.parametrize("complex_start", [False, True])
@pytest.mark.parametrize("projected", [False, True])
def test_band_qr_on_a_narrowing_band_against_dense_oracles(projected,
                                                           complex_start):
    # the band of a chain whose blocks narrow 3, 3, 2, 1 and close, fed
    # one block column per step as the solvers feed it: after every step
    # each estimate and solve equals the dense least squares (augmented
    # at k = 2) or the dense Galerkin solve of [B; Hbar + sigma [I; 0]]
    ad, r0, c = narrowing_chain(projected, complex_start)
    a = SparseMatrix.from_dense(ad)
    arn = block_arnoldi_start(r0, None if c is None else RecycleSpace(c, c))
    k, ell = arn.coupling.shape[0], len(arn.s0)
    shifts = np.array([0.0, 0.7, -1.3 + 0.5j])
    rhs = np.zeros((3, ell + k), dtype=arn.s0.dtype)
    rhs[:, :ell] = arn.s0.T
    qr = ShiftedBandQR(shifts, rhs, ell, k, 6, a.frobenius_norm)
    rng = np.random.default_rng(9)
    while not arn.invariant:
        width = arn.basis.shape[1] - arn.hess.shape[1]
        arn = block_arnoldi_extend(a, arn, 1)
        cols = arn.hess.shape[1]
        new = slice(cols - width, cols)
        qr.append(arn.hess[:cols, new], arn.hess[cols:, new],
                  arn.coupling[:, new])
        hbar, coupling = arn.hess, arn.coupling
        mats, g = _state_rows(hbar, coupling, shifts, rhs, ell)
        rows = len(hbar)
        tol = 1e-12 * np.linalg.norm(rhs)
        if k == 0:
            resid = qr.residual()
            y = qr.solve()
            for i, (h, gi) in enumerate(zip(mats, g)):
                y_ls = np.linalg.lstsq(h, gi, rcond=None)[0]
                assert abs(resid[i] - _lstsq_residual(h, gi)) <= tol
                assert np.linalg.norm(y[i] - y_ls) \
                    <= 1e-10 * np.linalg.norm(y_ls)
            galerkin, singular = qr.galerkin_residual()
            y = qr.solve()
            assert not singular.any()
            for i, (h, gi) in enumerate(zip(mats, g)):
                y_g = np.linalg.solve(h[:cols], gi[:cols])
                assert abs(galerkin[i] - np.linalg.norm(h[cols:] @ y_g)) \
                    <= tol
                assert np.linalg.norm(y[i] - y_g) \
                    <= 1e-10 * np.linalg.norm(y_g)
            continue
        p = rng.standard_normal((rows, k)).astype(hbar.dtype)
        q2 = rng.standard_normal((k, k))
        n_factor = np.triu(rng.standard_normal((k, k)))
        est = qr.augmented_residual(p, q2, n_factor, np.zeros(3, dtype=bool))
        y = qr.solve()
        for i, sigma in enumerate(shifts):
            aug = augmented_matrix(hbar, coupling, p, q2, n_factor, sigma)
            g_aug = np.zeros(len(aug), dtype=complex)
            g_aug[:ell] = rhs[i, :ell]
            y_ls = np.linalg.lstsq(aug, g_aug, rcond=None)[0]
            assert abs(est[i] - np.linalg.norm(g_aug - aug @ y_ls)) <= tol
            assert np.linalg.norm(y[i] - y_ls) <= 1e-10 * np.linalg.norm(y_ls)
    assert qr.steps == arn.steps == 4
    assert arn.hess.shape == (9, 9)


@pytest.mark.parametrize("skipped", [False, True])
@pytest.mark.parametrize("p,ell,k,steps", [(32, 1, 0, 30), (1, 1, 0, 20),
                                           (4, 4, 0, 30), (4, 4, 10, 30),
                                           (10, 10, 0, 20)])
def test_band_qr_solve_at_solver_shapes(p, ell, k, steps, skipped):
    # the solvers' shapes (shared-rhs, the gmres seed solves, block-large-n
    # with and without recycling, smooth-param's sbgmres group), each back
    # substitution over several column chunks: every shift's least-squares,
    # Galerkin and augmented solve against LAPACK's dense lstsq and solve.
    # A skipped shift's first column of G vanishes exactly, so its
    # estimate is NaN and its coefficients are zero
    hbar, coupling = _band_relation(ell, k, steps, ell, seed=p + ell + k)
    rng = np.random.default_rng(p + k)
    shifts = rng.uniform(-0.5, 2.0, p) + 0.3j * rng.standard_normal(p)
    rhs = rng.standard_normal((p, ell + k)) + 0j
    skip = p // 2 if skipped else -1
    if skipped:
        hbar[:, 0] = 0.0
        hbar[0, 0] = -shifts[skip]
        coupling[:, 0] = 0.0
    qr = band_qr(hbar, coupling, ell, shifts, rhs)
    mats, g = _state_rows(hbar, coupling, shifts, rhs, ell)
    jl, rows = steps * ell, len(hbar)
    if k:
        blk = rng.standard_normal((rows, k)) + 1j * rng.standard_normal(
            (rows, k))
        q2 = rng.standard_normal((k, k))
        n_factor = np.triu(rng.standard_normal((k, k)))
        order = np.r_[rows:rows + k, :rows, rows + k:rows + 2 * k]
        mats = [augmented_matrix(hbar, coupling, blk, q2, n_factor,
                                 sigma)[order] for sigma in shifts]
        g = np.hstack([g, np.zeros((p, k))])
        reads = [("augmented", lambda: qr.augmented_residual(
            blk, q2, n_factor, np.zeros(p, dtype=bool)))]
    else:
        reads = [("least-squares", qr.residual),
                 ("Galerkin", lambda: qr.galerkin_residual()[0])]
    for kind, read in reads:
        est = read()
        y = qr.solve()
        for i, (h, gi) in enumerate(zip(mats, g)):
            if i == skip:
                assert np.isnan(est[i])
                assert not y[i].any()
                continue
            if kind == "Galerkin":
                y_ref = np.linalg.solve(h[:jl], gi[:jl])
            else:
                y_ref = np.linalg.lstsq(h, gi, rcond=None)[0]
            # both solutions are backward stable: their distance scales
            # with the condition number
            tol = 1e-14 * np.linalg.cond(h[:jl] if kind == "Galerkin" else h)
            assert np.linalg.norm(y[i] - y_ref) \
                <= tol * np.linalg.norm(y_ref)


def test_band_qr_solve_skips_exactly_singular_shift():
    # Hbar = [[1, 2], [0, 3], [0, 1]] with a zero subdiagonal entry: at
    # shift -1 the first column of Hbar + sigma [I; 0] vanishes, so the
    # triangle's first diagonal entry is exactly zero; the Galerkin pivot
    # of the second step (3 - 1 = 2) is regular all the same, and only the
    # zero entry flags that shift's square system as singular too
    hbar = np.array([[1.0, 2.0], [0.0, 3.0], [0.0, 1.0]])
    shifts = np.array([-1.0, 0.5])
    rhs = np.array([[1.0], [2.0]])
    qr = band_qr(hbar, np.zeros((0, 2)), 1, shifts, rhs)
    mats, g = _state_rows(hbar, np.zeros((0, 2)), shifts, rhs, 1)
    rho = qr.residual()
    assert np.isnan(rho[0]) and np.isfinite(rho[1])
    y = qr.solve()
    assert not np.any(y[0])
    y_ls = np.linalg.lstsq(mats[1], g[1], rcond=None)[0]
    assert np.linalg.norm(y[1] - y_ls) <= 1e-12 * np.linalg.norm(y_ls)
    rho, singular = qr.galerkin_residual()
    assert singular.tolist() == [True, False] and np.isnan(rho[0])
    y = qr.solve()
    assert not np.any(y[0])
    y_g = np.linalg.solve(mats[1][:2], g[1][:2])
    assert np.linalg.norm(y[1] - y_g) <= 1e-12 * np.linalg.norm(y_g)


def test_eigen_diagonal_largest():
    pairs = hessenberg_eigen(np.diag([1.0, 2.0, 3.0]), 1)
    assert pairs.values[0] == pytest.approx(3.0)
    vec = np.abs(pairs.vectors[:, 0])
    assert np.allclose(vec, [0.0, 0.0, 1.0], atol=1e-12)


def test_eigen_rotation_pair():
    pairs = hessenberg_eigen(np.array([[0.0, -1.0], [1.0, 0.0]]), 2)
    assert sorted(pairs.values, key=lambda z: z.imag) == \
        pytest.approx([-1j, 1j])


def test_eigen_matches_charpoly_roots():
    h = _band_hessenberg(12, 12, 0, seed=21).real
    pairs = hessenberg_eigen(h, 12)
    # independent oracle: roots of the characteristic polynomial
    roots = np.roots(np.poly(h))
    got = np.sort_complex(pairs.values)
    want = np.sort_complex(roots)
    assert np.allclose(got, want, rtol=1e-8, atol=1e-8)


def test_eigen_trace_invariant():
    h = _band_hessenberg(9, 9, 1, seed=33)
    pairs = hessenberg_eigen(h, 9)
    assert np.sum(pairs.values) == pytest.approx(np.trace(h), rel=1e-8)


def test_eigen_residual_field():
    h = _band_hessenberg(7, 7, 0, seed=4)
    pairs = hessenberg_eigen(h, 3)
    assert np.all(pairs.residuals <= 1e-8 * np.linalg.norm(h))
    assert np.all(np.diff(np.abs(pairs.values)) <= 0.0)

