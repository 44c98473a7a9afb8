import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shiftkrylov import (CollinearityError, DimensionError, ShiftedFamily,
                         SolverConfig, SparseMatrix, add_shift,
                         block_arnoldi_extend, block_arnoldi_start,
                         fom_restarted, generate_convection_diffusion,
                         gmres_restarted, hessenberg_eigen, rsbgmres, sbfom,
                         sbgmres, sfom, sgmres, update_recycle_space)
import shiftkrylov.arnoldi as arnoldi
import shiftkrylov.baselines as baselines
import shiftkrylov.block_solvers as block_solvers
from shiftkrylov.dense import ShiftedBandQR
from shiftkrylov.harness import MethodResult, RunUnit
from shiftkrylov.recycling import RecycleSpace

from conftest import band_qr, block_arnoldi, noise_led_family, random_sparse


def _sin_angle(u, v):
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return np.linalg.norm(u - np.vdot(v, u) * v)


# ---------------------------------------------------------------------------
# collinearity detection and strategies
# ---------------------------------------------------------------------------

def _collinear(r, tol=block_solvers.COLLINEAR_TOL):
    """The engine's collinearity test of the columns of ``r``, all
    nonzero."""
    norms = np.linalg.norm(r, axis=0)
    return block_solvers._collinear_columns(r, norms, norms > 0.0, tol)


def test_detect_collinear_scalar_multiples():
    v = np.random.default_rng(0).standard_normal(7)
    r = np.column_stack([v, 2 * v, -3 * v])
    assert _collinear(r)


def test_detect_collinear_orthogonal_false():
    assert not _collinear(np.eye(2))


def test_detect_collinear_near_collinear():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(50)
    w = rng.standard_normal(50)
    w *= np.linalg.norm(v) / np.linalg.norm(w)
    r = np.column_stack([v, v + 1e-15 * w])
    assert _collinear(r, tol=1e-12)


def test_detect_collinear_matches_pairwise_loop():
    # the vectorized sines resolve the same largest pairwise sine as the
    # pairwise loop, well below the default tolerance
    rng = np.random.default_rng(2)
    v = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    for eps in (1e-14, 1e-13, 1e-11):
        r = (v[:, None] * rng.uniform(1.0, 2.0, 12)
             + eps * rng.standard_normal((40, 12)))
        worst = max(_sin_angle(r[:, i], r[:, j])
                    for i in range(12) for j in range(i + 1, 12))
        assert _collinear(r, tol=2.0 * worst)
        assert not _collinear(r, tol=0.5 * worst)
        assert _collinear(r) == (eps < 1e-12)


@st.composite
def _near_collinear_blocks(draw):
    """``(r, tol)``: columns ``alpha_j (cos t_j e + sin t_j w_j)`` for one
    unit ``e``, real or complex, each ``w_j`` a unit vector orthogonal to
    ``e``.  The sines ``sin t_j`` are noise at a scale from 1e-15 to 1e-10,
    or near ``tol / 2`` and ``tol``; the ``w_j`` are independent, or one
    direction with random signs, so that two columns in the band between
    the two bounds can fail only against each other."""
    n = draw(st.integers(3, 40))
    p = draw(st.integers(2, 8))
    complex_ = draw(st.booleans())
    tol = draw(st.sampled_from([1e-12, 1e-10]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def vector(size):
        v = rng.standard_normal(size)
        return v + 1j * rng.standard_normal(size) if complex_ else v

    e = vector(n)
    e /= np.linalg.norm(e)
    w = vector((n, p))
    if draw(st.booleans()):
        w = w[:, :1] * rng.choice([-1.0, 1.0], p)
    w -= np.outer(e, e.conj() @ w)
    w /= np.linalg.norm(w, axis=0)
    if draw(st.booleans()):
        sines = 10.0 ** draw(st.floats(-15.0, -10.0)) * rng.uniform(0, 1, p)
    else:
        factors = draw(st.lists(
            st.sampled_from([0.0, 0.3, 0.45, 0.55, 0.7, 0.9, 1.1, 1.5]),
            min_size=p, max_size=p))
        sines = tol * np.array(factors) * rng.uniform(0.98, 1.02, p)
    cols = np.sqrt(1.0 - sines**2) * e[:, None] + sines * w
    scale = rng.uniform(0.1, 10.0, p)
    if complex_:
        scale = scale * np.exp(2j * np.pi * rng.uniform(0, 1, p))
    return cols * scale, tol


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_near_collinear_blocks())
def test_detect_collinear_agrees_with_pairwise_reference(case):
    # the one-reference test gives the answer of every pairwise sine,
    # when no pair lies within rounding of the tolerance
    r, tol = case
    p = r.shape[1]
    worst = max(_sin_angle(r[:, i], r[:, j])
                for i in range(p) for j in range(i + 1, p))
    assume(abs(worst - tol) > 1e-2 * tol)
    assert _collinear(r, tol) == (worst <= tol)


@pytest.mark.parametrize("sign,collinear", [(-1.0, False), (1.0, True)])
def test_detect_collinear_band_runs_the_pairwise_sweep(sign, collinear):
    # both sines against the first column lie between tol/2 and tol, so
    # only the pair of the other two decides: 1.25 tol apart on opposite
    # sides of it, 0.05 tol apart on the same side
    tol = 1e-12
    e, w = np.eye(30)[0], np.eye(30)[1]
    r = np.column_stack([e, e + 0.6 * tol * w, e + sign * 0.65 * tol * w])
    assert _collinear(r, tol) == collinear


_STRATEGY_CFG = SolverConfig(cycle_length=6, tolerance=1e-8, max_cycles=20)


def _start_blocks(monkeypatch):
    """A list that receives a copy of every start block the engine hands
    to the block Arnoldi process."""
    blocks = []

    def start(r0, *args, _original=block_solvers.block_arnoldi_start,
              **kwargs):
        blocks.append(np.array(r0))
        return _original(r0, *args, **kwargs)

    monkeypatch.setattr(block_solvers, "block_arnoldi_start", start)
    return blocks


def _draws(seed, attempt, shape):
    """The standard normal draws of a strategy's attempt ``attempt``."""
    return np.random.default_rng(
        np.random.SeedSequence((seed, attempt))).standard_normal(shape)


def test_strategy_single_system_noop():
    a = SparseMatrix.diagonal(np.arange(1.0, 6.0))
    fam = ShiftedFamily(a, [0.5], np.ones((5, 1)), None)
    x, rep = sbgmres(fam, _STRATEGY_CFG, "random-x0")
    x_plain, rep_plain = sbgmres(fam, _STRATEGY_CFG)
    # no strategy runs on one system: 0 extra matvecs, same solve
    assert rep.rows == rep_plain.rows and np.array_equal(x, x_plain)
    assert not rep.notes


def test_strategy_gmres_cycle():
    a = SparseMatrix.diagonal(np.arange(1.0, 9.0))
    b = np.tile(np.ones((8, 1)), (1, 2))
    fam = ShiftedFamily(a, [0.0, 0.5], b, None)
    cfg = SolverConfig(cycle_length=4, tolerance=1e-8, max_cycles=1, seed=3)
    x, rep = sbgmres(fam, cfg, "gmres-cycle")
    assert rep.notes == ["decollinearized with gmres-cycle"]
    # cycle 1 is the strategy's: its rank-one block of two columns keeps
    # one at step 0, so each of its 4 steps is a width-one block product,
    # and its end pays one true-residual product per shift
    assert rep.cycles == 1 and rep.block_widths == [2]
    assert rep.replacements == [(1, 0, 1)]
    assert [row[2:5] for row in rep.rows if row[1] == 1] == \
        [(j, j, j) for j in (1, 2, 3, 4) for _ in range(2)]
    assert rep.extra_matvecs == 2
    r = fam.residual_block(x)
    assert not _collinear(r)
    assert _sin_angle(r[:, 0], r[:, 1]) > 1e-6
    assert rep.final_residuals == pytest.approx(
        list(np.linalg.norm(r, axis=0)), rel=1e-12)


def test_strategy_random_x0_deterministic():
    a = SparseMatrix.diagonal(np.arange(1.0, 9.0))
    b = np.tile(np.ones((8, 1)), (1, 2))
    fam = ShiftedFamily(a, [0.0, 0.5], b, None)
    cfg = SolverConfig(cycle_length=6, tolerance=1e-8, max_cycles=20,
                       seed=11)
    x1, rep1 = sbgmres(fam, cfg, "random-x0")
    x2, rep2 = sbgmres(fam, cfg, "random-x0")
    assert rep1.rows == rep2.rows and np.array_equal(x1, x2)
    assert "decollinearized with random-x0" in rep1.notes
    # the solve starts from the guess of attempt 0, one block product of
    # two columns, recorded as a second cycle-0 point
    x0 = _draws(11, 0, (8, 2))
    r0 = fam.residual_block(x0)
    assert not _collinear(r0)
    start = [row for row in rep1.rows if row[1] == 0][-2:]
    assert [row[2:5] for row in start] == [(0, 2, 1)] * 2
    assert [row[5] for row in start] == pytest.approx(
        list(np.linalg.norm(r0, axis=0)), rel=1e-12)


def test_strategy_fom_random_block(monkeypatch):
    a = generate_convection_diffusion(6, 10.0)
    b = np.tile(np.random.default_rng(5).standard_normal((36, 1)), (1, 3))
    fam = ShiftedFamily(a, [1e-3, 1e-2, 1e-1], b, None)
    cfg = SolverConfig(cycle_length=5, tolerance=1e-8, max_cycles=1, seed=2)
    blocks = _start_blocks(monkeypatch)
    x, rep = sbfom(fam, cfg, "fom-random-block")
    assert rep.notes == ["decollinearized with fom-random-block"]
    # cycle 1 starts from the residual block beside two random columns of
    # attempt 0, as long as the largest residual column beside unit ones;
    # two residual columns deflate at step 0, and each of its 5 steps
    # multiplies 3 columns
    (block,) = blocks
    assert np.array_equal(block[:, :3], b)
    assert np.array_equal(block[:, 3:], np.linalg.norm(b, axis=0).max()
                          * _draws(2, 0, (36, 2)))
    assert rep.block_widths == [5]
    assert len(rep.replacements) == 2
    assert all(c[:2] == (1, 0) and c[2] < 3 for c in rep.replacements)
    assert all(row[3:5] == (15, 5) for row in rep.rows if row[2] == 5)
    assert not _collinear(fam.residual_block(x))


def test_strategy_skipped_for_non_collinear_input():
    a = SparseMatrix.identity(4)
    fam = ShiftedFamily(a, [0.0, 1.0], np.eye(4)[:, :2], None)
    cfg = SolverConfig(cycle_length=3, tolerance=1e-8, max_cycles=5)
    x, rep = sbgmres(fam, cfg, "random-x0")
    x_plain, rep_plain = sbgmres(fam, cfg)
    # independent residuals need no strategy: no note, no extra matvecs
    assert not any("decollinearized" in note for note in rep.notes)
    assert rep.rows == rep_plain.rows and np.array_equal(x, x_plain)


def test_strategy_falls_back_and_gives_up_after_three_attempts(monkeypatch):
    # the collinearity test forced to read collinear at its first
    # ``calls`` calls: the entry check, then one per attempt
    a = generate_convection_diffusion(6, 10.0)
    b = np.tile(np.random.default_rng(5).standard_normal((36, 1)), (1, 2))
    fam = ShiftedFamily(a, [1e-3, 1e-1], b, None)
    cfg = SolverConfig(cycle_length=4, tolerance=1e-8, max_cycles=20, seed=7)
    test = block_solvers._nonzero_collinear
    blocks = _start_blocks(monkeypatch)
    for calls in (2, 3):
        seen = []

        def collinear(r, norms):
            seen.append(None)
            return len(seen) <= calls or test(r, norms)

        monkeypatch.setattr(block_solvers, "_nonzero_collinear", collinear)
        blocks.clear()
        _, rep = sbgmres(fam, cfg)
        assert rep.notes[:calls] == [
            "gmres-cycle strategy left residuals collinear (stagnation); "
            "falling back to fom-random-block"] + [
            "fom-random-block strategy left residuals collinear; drawing "
            "again"] * (calls - 2) + ["decollinearized with fom-random-block"]
        # each attempt after the first adds one random column, drawn at
        # its attempt index
        assert rep.block_widths[:calls + 1] == [2] + [3] * (calls - 1) + [2]
        for attempt in range(1, calls):
            block = blocks[attempt]
            scale = np.linalg.norm(block[:, :2], axis=0).max()
            assert np.allclose(block[:, 2:], scale * _draws(7, attempt,
                                                             (36, 1)),
                               rtol=1e-13, atol=0.0)
    monkeypatch.setattr(block_solvers, "_nonzero_collinear",
                        lambda r, norms: True)
    for tag in block_solvers.STRATEGY_TAGS:
        with pytest.raises(CollinearityError, match="after 3 attempts"):
            sbgmres(fam, cfg, tag)


# A has three distinct eigenvalues, each twice: the Krylov space of a
# generic vector closes after 3 steps, and the block space of two generic
# columns after 3 steps too (2 + 2 + 2 columns fill n = 6), well before
# the cycle length of 10
_CLOSING = SparseMatrix.diagonal([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])


@pytest.mark.parametrize("tag, width", [
    pytest.param("gmres-cycle", 1, id="gmres-cycle"),
    pytest.param("fom-random-block", 2, id="fom-random-block")])
def test_strategy_cycle_stops_where_the_relation_closes(tag, width):
    fam = ShiftedFamily(_CLOSING, [0.5, 1.0], np.ones((6, 2)), None)
    x, rep = sbgmres(fam, SolverConfig(cycle_length=10, tolerance=1e-10,
                                       seed=2), tag)
    # the strategy's cycle closes at step 3, each step one block product
    # of its kept width, and solves every shift: the solve ends there
    assert rep.cycles == 1 and rep.steps.iteration[-1] == 3
    assert rep.matvecs == 3 * width and rep.block_matvecs == 3
    assert rep.converged == [True, True]
    assert np.linalg.norm(fam.residual_block(x)) <= 1e-10


@pytest.mark.parametrize("solver", [sgmres, sfom], ids=["sgmres", "sfom"])
def test_collinear_cycle_stops_where_the_relation_closes(solver):
    fam = ShiftedFamily(_CLOSING, [0.5, 1.0], np.ones((6, 2)), None)
    _, rep = solver(fam, SolverConfig(cycle_length=10, tolerance=1e-10))
    assert rep.converged == [True, True] and rep.cycles == 1
    # 3 width-one steps, none of them a block product
    assert rep.matvecs == 3 and rep.block_matvecs == 0
    assert rep.steps.iteration[-1] == 3


# ---------------------------------------------------------------------------
# shifted block solvers
# ---------------------------------------------------------------------------

def test_sbgmres_degenerate_equals_gmres():
    a = random_sparse(25, density=0.25, seed=2, diag_boost=5.0)
    b = np.random.default_rng(3).standard_normal(25)
    cfg = SolverConfig(cycle_length=8, tolerance=1e-9, max_cycles=40, seed=7)
    fam = ShiftedFamily(a, [0.0], b, None)
    x1, rep1 = sbgmres(fam, cfg)
    x2, rep2 = gmres_restarted(a, b, None, cfg)
    assert rep1.rows == rep2.rows
    assert np.array_equal(x1[:, 0], x2)


def test_sbfom_degenerate_equals_fom():
    a = random_sparse(25, density=0.25, seed=2, diag_boost=5.0)
    b = np.random.default_rng(3).standard_normal(25)
    cfg = SolverConfig(cycle_length=8, tolerance=1e-9, max_cycles=40, seed=7)
    fam = ShiftedFamily(a, [0.0], b, None)
    x1, rep1 = sbfom(fam, cfg)
    x2, rep2 = fom_restarted(a, b, None, cfg)
    assert rep1.rows == rep2.rows
    assert np.array_equal(x1[:, 0], x2)


def test_sbgmres_grade_one_cycle_exact():
    a = SparseMatrix.diagonal(np.arange(1.0, 7.0))
    rng = np.random.default_rng(9)
    b = rng.standard_normal((6, 2))
    fam = ShiftedFamily(a, [0.0, 1.0], b, None)
    cfg = SolverConfig(cycle_length=6, tolerance=1e-10, max_cycles=3)
    x, rep = sbgmres(fam, cfg)
    assert rep.cycles == 1 and rep.converged == [True, True]
    ad = a.to_dense()
    for i, s in enumerate([0.0, 1.0]):
        oracle = np.linalg.solve(ad + s * np.eye(6), b[:, i])
        assert np.allclose(x[:, i], oracle, atol=1e-8)


def test_sbfom_grade_one_cycle_exact():
    a = SparseMatrix.diagonal(np.arange(1.0, 7.0))
    rng = np.random.default_rng(10)
    b = rng.standard_normal((6, 2))
    fam = ShiftedFamily(a, [0.0, 1.0], b, None)
    cfg = SolverConfig(cycle_length=6, tolerance=1e-10, max_cycles=3)
    x, rep = sbfom(fam, cfg)
    assert rep.converged == [True, True]
    ad = a.to_dense()
    for i, s in enumerate([0.0, 1.0]):
        oracle = np.linalg.solve(ad + s * np.eye(6), b[:, i])
        assert np.allclose(x[:, i], oracle, atol=1e-8)


@pytest.mark.parametrize("m,ell", [(3, 2), (4, 3)])
def test_kronecker_decoupling_oracle(m, ell):
    """The per-shift subproblem solutions assembled into a block solve the
    coupled Kronecker-sum system built by brute force."""
    rng = np.random.default_rng(m * 10 + ell)
    a = random_sparse(20, density=0.4, seed=m + ell, diag_boost=4.0)
    shifts = rng.standard_normal(ell) + 1.5
    r0 = rng.standard_normal((20, ell))
    arn = block_arnoldi(a, r0, m)
    jl = m * ell
    rows = (m + 1) * ell
    pad = np.zeros((rows, jl))
    pad[:jl, :] = np.eye(jl)
    g_block = np.zeros((rows, ell), dtype=complex)
    g_block[:ell, :] = arn.s0

    # brute-force coupled least squares: (I (x) Hbar + D (x) E) vec(Y)
    big = np.kron(np.eye(ell), arn.hess) + np.kron(np.diag(shifts), pad)
    vec_g = g_block.T.reshape(-1)  # column stacking of g columns
    y_coupled = np.linalg.lstsq(big, vec_g, rcond=None)[0].reshape(ell, jl).T

    qr = band_qr(arn.hess, arn.coupling, ell, shifts, arn.s0.T)
    qr.residual()
    y = qr.solve()
    for i in range(ell):
        assert np.linalg.norm(y[i] - y_coupled[:, i]) <= 1e-10 * \
            max(1.0, np.linalg.norm(y_coupled[:, i]))

    # square (Galerkin) version decouples exactly as well
    big_sq = np.kron(np.eye(ell), arn.hess[:jl, :]) \
        + np.kron(np.diag(shifts), np.eye(jl))
    y_sq = np.linalg.solve(big_sq, g_block[:jl, :].T.reshape(-1))
    y_sq = y_sq.reshape(ell, jl).T
    qr.galerkin_residual()
    y = qr.solve()
    for i in range(ell):
        assert np.linalg.norm(y[i] - y_sq[:, i]) <= 1e-10 * \
            max(1.0, np.linalg.norm(y_sq[:, i]))


def test_sbgmres_matches_block_gmres_oracle():
    """Column i of the first sbgmres cycle equals block GMRES applied to
    the single-shift problem (A + sigma_i I) Xt = R0, column i."""
    a = random_sparse(24, density=0.3, seed=21, diag_boost=5.0)
    rng = np.random.default_rng(22)
    ell = 2
    m = 4
    shifts = np.array([0.2, 1.1])
    b = rng.standard_normal((24, ell))
    fam = ShiftedFamily(a, shifts, b, None)
    cfg = SolverConfig(cycle_length=m, tolerance=1e-30, max_cycles=1, seed=5)
    x, _ = sbgmres(fam, cfg)
    for i, sigma in enumerate(shifts):
        # independent block GMRES on the shifted operator: build the basis
        # from the shifted matrix itself and minimize over the explicit
        # image of the basis
        shifted = add_shift(a, sigma)
        arn = block_arnoldi(shifted, b, m)
        w = arn.w
        image = shifted.to_dense() @ w
        y, *_ = np.linalg.lstsq(image, b[:, i], rcond=None)
        oracle = w @ y
        assert np.linalg.norm(x[:, i] - oracle) \
            <= 1e-8 * max(1.0, np.linalg.norm(oracle))


def test_dominance_over_single_vector_gmres():
    a = generate_convection_diffusion(8, 30.0)
    rng = np.random.default_rng(31)
    shifts = np.array([1e-3, 1e-1])
    b = rng.standard_normal((64, 2))
    b /= np.linalg.norm(b, axis=0)[None, :]
    fam = ShiftedFamily(a, shifts, b, None)
    cfg = SolverConfig(cycle_length=70, tolerance=1e-9, max_cycles=1, seed=0)
    _, rep_b = sbgmres(fam, cfg)
    st_b = rep_b.steps
    for i, sigma in enumerate(shifts):
        _, rep_s = gmres_restarted(add_shift(a, sigma), b[:, i], None, cfg)
        st_s = rep_s.steps
        hb = st_b.resid[st_b.recorded[:, i], i]
        hs = st_s.resid[st_s.recorded[:, 0], 0]
        upto = min(len(hb), len(hs))
        assert np.all(hb[:upto] <= hs[:upto] * (1 + 1e-8) + 1e-12)


def test_residual_update_consistency():
    a = generate_convection_diffusion(7, 15.0)
    rng = np.random.default_rng(41)
    b = rng.standard_normal((49, 3))
    fam = ShiftedFamily(a, [1e-3, 1e-2, 2e-1], b, None)
    for cycles in (1, 2, 4):
        cfg = SolverConfig(cycle_length=6, tolerance=1e-12,
                           max_cycles=cycles, seed=1)
        x, rep = sbgmres(fam, cfg)
        true = fam.residual_block(x)
        for i in range(3):
            err = abs(np.linalg.norm(true[:, i]) - rep.final_residuals[i])
            assert err <= 1e-8 * np.linalg.norm(b[:, i])
        assert not any("drifted" in n for n in rep.notes)


def test_reports_reproducible_with_seed():
    a = generate_convection_diffusion(6, 10.0)
    b = np.tile(np.random.default_rng(6).standard_normal((36, 1)), (1, 2))
    fam = ShiftedFamily(a, [1e-3, 1e-1], b, None)
    cfg = SolverConfig(cycle_length=8, tolerance=1e-8, max_cycles=30, seed=17)
    x1, rep1 = sbgmres(fam, cfg, "fom-random-block")
    x2, rep2 = sbgmres(fam, cfg, "fom-random-block")
    assert np.array_equal(x1, x2)
    assert rep1.rows == rep2.rows
    assert rep1.notes == rep2.notes
    assert rep1.matvecs == rep2.matvecs


def test_converged_shift_frozen_but_block_kept():
    # widely separated shifts: the easy one converges first, its updates
    # stop, the block size stays the same
    a = generate_convection_diffusion(8, 20.0)
    rng = np.random.default_rng(51)
    b = rng.standard_normal((64, 2))
    fam = ShiftedFamily(a, [1e-4, 5000.0], b, None)
    cfg = SolverConfig(cycle_length=10, tolerance=1e-9, max_cycles=40, seed=3)
    x, rep = sbgmres(fam, cfg)
    assert rep.converged == [True, True]
    assert rep.cycles >= 2
    # updates freeze at the cycle boundary after convergence: in the last
    # cycle the easy shift's recorded residual no longer moves
    last_cycle = [r[5] for r in rep.rows if r[0] == 1 and r[1] == rep.cycles]
    assert len(set(last_cycle)) == 1
    true = fam.residual_block(x)
    assert np.linalg.norm(true[:, 1]) <= 1e-8 * np.linalg.norm(b[:, 1])


def test_solvers_exact_when_space_exhausted_mid_block():
    # cycle length far past what the ambient dimension supports: the
    # solvers must close on the invariant span and solve exactly
    a = random_sparse(10, density=0.5, seed=55, diag_boost=4.0)
    rng = np.random.default_rng(56)
    b = rng.standard_normal((10, 3))
    fam = ShiftedFamily(a, [0.1, 0.6, 1.3], b, None)
    cfg = SolverConfig(cycle_length=9, tolerance=1e-10, max_cycles=10, seed=2)
    for solver in (sbgmres, sbfom):
        x, rep = solver(fam, cfg)
        assert rep.converged == [True, True, True]
        true = fam.residual_block(x)
        assert np.linalg.norm(true) <= 1e-9 * np.linalg.norm(b)


@pytest.mark.parametrize("cycle_length", [1, 3])
def test_noise_led_candidate_block_leaves_no_residual_above_its_rhs(
        cycle_length):
    # from x0 = 0 a minimum-residual solve returns no iterate worse than
    # zero; a relation closed square on the candidate's live column gave
    # true residuals of 1.7e15 and 161 against 0.48 and 2.45
    a, r0 = noise_led_family()
    fam = ShiftedFamily(SparseMatrix.from_dense(a), [0.0, 0.5], r0, None)
    cfg = SolverConfig(cycle_length=cycle_length, max_cycles=10)
    x, rep = sbgmres(fam, cfg)
    true = np.linalg.norm(fam.residual_block(x), axis=0)
    assert np.all(true <= np.linalg.norm(r0, axis=0))
    assert rep.final_residuals == pytest.approx(list(true), rel=1e-12)


def test_exhausted_ambient_space_closes_square():
    # in R^3 the start block keeps both columns, step 1's candidate has
    # rank one, and step 2 multiplies that one column and closes the
    # relation over all of R^3: one cycle leaves shift 0.5 no worse than
    # GMRES(3) on that shift alone (the space closed on the partial block
    # left it at 1.6165 after 100 cycles and 200 products)
    a, r0 = noise_led_family()
    mat = SparseMatrix.from_dense(a)
    fam = ShiftedFamily(mat, [0.0, 0.5], r0, None)
    cfg = SolverConfig(cycle_length=3, max_cycles=1)
    x, rep = sbgmres(fam, cfg)
    true = np.linalg.norm(fam.residual_block(x), axis=0)
    alone = add_shift(mat, 0.5)
    x1, _ = gmres_restarted(alone, r0[:, 1], None, cfg)
    gmres = np.linalg.norm(r0[:, 1] - alone.to_dense() @ x1)
    assert true[1] <= gmres * (1.0 + 1e-8) + 1e-14 * np.linalg.norm(r0[:, 1])
    assert rep.matvecs == 3 and rep.converged[1]


def test_family_wider_than_its_space_deflates_instead_of_raising():
    # three shifts of a 2 x 2 matrix: the start block keeps two columns,
    # and one block step of width two solves every shift.  Beside a
    # k = 2 recycle space in R^4, cycle 2's start block of three columns
    # keeps the n - k = 2 left.  (Each raised DimensionError for the
    # whole family.)
    rng = np.random.default_rng(4)
    a = SparseMatrix.from_dense(np.array([[2.0, 1.0], [0.0, 3.0]]))
    fam = ShiftedFamily(a, [0.0, 0.5, 1.0], rng.standard_normal((2, 3)),
                        None)
    cfg = SolverConfig(cycle_length=4, tolerance=1e-10, max_cycles=10)
    for solve in (sbgmres, sbfom):
        x, rep = solve(fam, cfg)
        assert all(rep.converged) and rep.matvecs == 2
        assert rep.replacements == [(1, 0, 0)]
        true = np.linalg.norm(fam.residual_block(x), axis=0)
        assert np.all(true <= 1e-10 * np.linalg.norm(fam.rhs, axis=0))
    ad = np.diag([1.0, 2.0, 3.0, 4.0]) + np.triu(
        rng.standard_normal((4, 4)), 1)
    fam = ShiftedFamily(SparseMatrix.from_dense(ad), [0.0, 0.5, 1.0],
                        rng.standard_normal((4, 3)), None)
    cfg = SolverConfig(cycle_length=1, tolerance=1e-10, max_cycles=10)
    x, rep, space = rsbgmres(fam, cfg, None, k=2)
    assert all(rep.converged) and rep.cycles == 2 and space.k == 2
    assert len([r for r in rep.replacements if r[:2] == (2, 0)]) == 1
    true = np.linalg.norm(fam.residual_block(x), axis=0)
    assert np.all(true <= 1e-10 * np.linalg.norm(fam.rhs, axis=0))


def _raised_cycle(monkeypatch):
    """``(family, x, report)`` of one sbgmres cycle whose estimates reach
    zero (the block space of two columns fills n = 6 at step 3) while
    its coefficients are tripled, so each true residual rises to twice
    its start."""
    def solve(self, *args, _original=ShiftedBandQR.solve):
        return 3.0 * _original(self, *args)

    monkeypatch.setattr(ShiftedBandQR, "solve", solve)
    a = SparseMatrix.diagonal(np.arange(1.0, 7.0))
    fam = ShiftedFamily(a, [0.5, 1.0],
                        np.random.default_rng(0).standard_normal((6, 2)),
                        None)
    x, rep = sbgmres(fam, SolverConfig(cycle_length=3, max_cycles=1))
    return fam, x, rep


def test_minimum_residual_cycle_that_raised_a_true_residual_is_undone(
        monkeypatch):
    # both shifts keep the iterates the cycle started from
    fam, x, rep = _raised_cycle(monkeypatch)
    assert ("cycle 1: true residual rose for shift indices [0, 1]; kept "
            "previous approximation") in rep.notes
    assert np.array_equal(x, np.zeros((6, 2)))
    true = np.linalg.norm(fam.residual_block(x), axis=0)
    assert np.array_equal(true, rep.steps.resid[0])
    assert rep.converged == [False, False]
    assert rep.final_residuals == pytest.approx(list(true), rel=1e-12)


def test_undone_cycle_leaves_no_row_claiming_a_convergence_it_lost(
        monkeypatch):
    # the cycle's last step records both shifts converged before its end
    # undoes their updates, so a last point with their true residuals and
    # final flags follows, and the summary's worst residual reads from it
    fam, _, rep = _raised_cycle(monkeypatch)
    assert rep.steps.converged[-2].all()
    last = {row[0]: row for row in rep.rows}
    for i in range(2):
        assert last[i][5:] == (rep.final_residuals[i], rep.converged[i])
    unit = RunUnit([0, 1], rep)
    assert MethodResult("sbgmres", [unit]).worst_residual \
        == max(rep.final_residuals)


# ---------------------------------------------------------------------------
# per-step estimates from the updated band QR
# ---------------------------------------------------------------------------

def _one_cycle(name, fam, space, m):
    cfg = SolverConfig(cycle_length=m, tolerance=1e-15, max_cycles=1, seed=4)
    if name == "rsbgmres":
        x, rep, _ = rsbgmres(fam, cfg, space, k=space.k, update=False)
        return x, rep
    return {"sbgmres": sbgmres, "sbfom": sbfom}[name](fam, cfg)


@pytest.mark.parametrize("name", ["sbgmres", "sbfom", "rsbgmres"])
def test_step_estimate_matches_true_residual_of_shorter_cycle(name):
    # the estimate recorded at step j of a cycle of length 8 is the true
    # residual of the iterate that a single cycle of length j returns
    a = generate_convection_diffusion(7, 15.0)
    rng = np.random.default_rng(31)
    b = rng.standard_normal((49, 3))
    fam = ShiftedFamily(a, [1e-3, 0.4, 2.0 + 1.0j], b, None)
    space = RecycleSpace.from_basis(a, rng.standard_normal((49, 4)))
    _, long_rep = _one_cycle(name, fam, space, 8)
    rhs_norms = np.linalg.norm(b, axis=0)
    for j in range(1, 9):
        _, rep = _one_cycle(name, fam, space, j)
        for i in range(3):
            at_j = [row[5] for row in long_rep.rows
                    if row[:3] == (i, 1, j)]
            assert len(at_j) == 1
            assert abs(at_j[0] - rep.final_residuals[i]) \
                <= 1e-10 * rhs_norms[i]


@pytest.mark.parametrize("name", ["sbgmres", "sbfom", "rsbgmres"])
def test_engine_factors_each_shift_once_per_cycle(name, monkeypatch):
    # every step's estimate comes from the updated band QR, and every
    # active shift's iterate from one solve on it at cycle end
    calls = [0]

    def counted(*args, _original=ShiftedBandQR.solve):
        calls[-1] += 1
        return _original(*args)

    monkeypatch.setattr(ShiftedBandQR, "solve", counted)
    active_per_cycle = []

    def end_cycle(*args, _original=block_solvers._end_cycle, **kwargs):
        # the active shifts are those not converged as the cycle ends
        active_per_cycle.append(int(np.count_nonzero(~args[4])))
        calls.append(0)
        return _original(*args, **kwargs)

    monkeypatch.setattr(block_solvers, "_end_cycle", end_cycle)
    a = generate_convection_diffusion(7, 15.0)
    rng = np.random.default_rng(32)
    fam = ShiftedFamily(a, [1e-3, 0.4, 5.0], rng.standard_normal((49, 3)),
                        None)
    cfg = SolverConfig(cycle_length=6, tolerance=1e-8, max_cycles=40)
    if name == "rsbgmres":
        _, rep, _ = rsbgmres(fam, cfg, None, k=4)
    else:
        _, rep = {"sbgmres": sbgmres, "sbfom": sbfom}[name](fam, cfg)
    assert rep.cycles > 1 and len(active_per_cycle) == rep.cycles
    assert calls == [1] * rep.cycles + [0]


# ---------------------------------------------------------------------------
# final flags: converged means the true residual met its target
# ---------------------------------------------------------------------------

def _solve_with(name, a, b, shifts, cfg):
    """Run one solver; returns the solution columns, the report and the
    shifts and right-hand sides it solved for."""
    if name in ("gmres_restarted", "fom_restarted"):
        solve = gmres_restarted if name == "gmres_restarted" else fom_restarted
        x, rep = solve(a, b[:, 0], None, cfg)
        return x[:, None], rep, np.zeros(1), b[:, :1]
    if name in ("sgmres", "sfom"):
        b = np.tile(b[:, :1], (1, len(shifts)))   # collinear residuals
    fam = ShiftedFamily(a, shifts, b, None)
    if name == "rsbgmres":
        x, rep, _ = rsbgmres(fam, cfg, None, k=4)
    else:
        solve = {"sbgmres": sbgmres, "sbfom": sbfom, "sgmres": sgmres,
                 "sfom": sfom}[name]
        x, rep = solve(fam, cfg)
    return x, rep, fam.shifts, fam.rhs


@pytest.mark.parametrize("case", ["one-cycle", "many-cycles", "zero-rhs"])
@pytest.mark.parametrize("name", ["sbgmres", "sbfom", "rsbgmres", "sgmres",
                                  "sfom", "gmres_restarted", "fom_restarted"])
def test_converged_flags_match_true_residual(name, case):
    a = generate_convection_diffusion(7, 15.0)
    b = np.random.default_rng(43).standard_normal((49, 3))
    if case == "zero-rhs":
        b[:] = 0.0      # converged before the first cycle
    cfg = SolverConfig(cycle_length=6, tolerance=1e-8, seed=1,
                       max_cycles=1 if case == "one-cycle" else 40)
    x, rep, shifts, rhs = _solve_with(name, a, b, [1e-3, 1e-1, 5.0], cfg)
    ad = a.to_dense()
    for i, sigma in enumerate(shifts):
        # dense oracle for the true residual
        true = np.linalg.norm(rhs[:, i] - (ad + sigma * np.eye(49)) @ x[:, i])
        target = cfg.tolerance * np.linalg.norm(rhs[:, i])
        assert rep.converged[i] == (true <= target)
        assert rep.final_residuals[i] == pytest.approx(
            true, rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("name,subproblem", [("sbgmres", "least-squares"),
                                              ("sbfom", "Galerkin"),
                                              ("rsbgmres", "least-squares")])
def test_singular_shift_keeps_its_iterate_and_spares_the_family(name,
                                                                subproblem):
    # A - I is singular and the block Krylov space of [e1 e2] closes after
    # one step, so shift -1 meets an exactly singular square relation at
    # every cycle end; shift 0.5 is solved exactly all the same
    a = SparseMatrix.diagonal(np.array([1.0, 2.0, 3.0]))
    fam = ShiftedFamily(a, [-1.0, 0.5], np.eye(3)[:, :2], None)
    cfg = SolverConfig(cycle_length=4, tolerance=1e-8, max_cycles=5)
    if name == "rsbgmres":
        x, rep, _ = rsbgmres(fam, cfg, None, k=1)
    else:
        x, rep = getattr(block_solvers, name)(fam, cfg)
    assert rep.converged == [False, True]
    assert rep.notes[0] == (f"cycle 1: no {subproblem} iterate for shift "
                            "index 0; kept previous approximation")
    # e1 is orthogonal to the range of A - I: the best residual is 1
    assert rep.final_residuals[0] == pytest.approx(1.0)
    assert rep.final_residuals[1] <= 1e-8
    assert not any(row[6] for row in rep.rows if row[0] == 0)


@pytest.mark.parametrize("name", ["sbgmres", "sbfom", "rsbgmres", "sfom"])
def test_cycle_end_skips_exactly_the_shifts_with_nan_estimates(name,
                                                               monkeypatch):
    # A - I is singular: shift -1 meets an exactly singular subproblem; at
    # every cycle end the solve leaves exactly the shifts whose last step
    # estimate was NaN, and each of them gets a skip note
    last, solves = {}, []
    for method in ("residual", "galerkin_residual", "augmented_residual"):
        def read(self, *args, _original=getattr(ShiftedBandQR, method)):
            out = _original(self, *args)
            last[id(self)] = np.isnan(out[0] if isinstance(out, tuple)
                                      else out)
            return out

        monkeypatch.setattr(ShiftedBandQR, method, read)

    def solve(self, *args, _original=ShiftedBandQR.solve):
        y = _original(self, *args)
        solves.append((last[id(self)], ~y.any(axis=1)))
        return y

    monkeypatch.setattr(ShiftedBandQR, "solve", solve)
    a = SparseMatrix.diagonal(np.array([1.0, 2.0, 3.0]))
    b = np.ones((3, 2)) if name == "sfom" else np.eye(3)[:, :2]
    fam = ShiftedFamily(a, [-1.0, 0.5], b, None)
    cfg = SolverConfig(cycle_length=4, tolerance=1e-8, max_cycles=5)
    if name == "rsbgmres":
        _, rep, _ = rsbgmres(fam, cfg, None, k=1)
    else:
        _, rep = {"sbgmres": sbgmres, "sbfom": sbfom, "sfom": sfom}[name](
            fam, cfg)
    nan_count = sum(int(nan.sum()) for nan, _ in solves)
    assert nan_count > 0
    assert all(np.array_equal(nan, zero) for nan, zero in solves)
    skip_notes = [n for n in rep.notes
                  if "iterate for shift" in n or "update skipped" in n]
    assert len(skip_notes) == nan_count


_SKIP_NOTE = re.compile(r"cycle (\d+): (?:no \S+ (?:iterate|update)|"
                        r"singular Galerkin system) for shift index (\d+)")


def _frozen_family(name, case):
    """A family and config whose solve by ``name`` leaves shifts out of
    cycle-end updates: ``singular`` skips a shift with an exactly singular
    subproblem, ``staggered`` has shifts that converge cycles apart."""
    if case == "staggered":
        a = generate_convection_diffusion(6, 5.0)
        rng = np.random.default_rng(4)
        b = rng.standard_normal((36, 4))
        if name in ("sgmres", "sfom"):
            b = np.outer(b[:, 0], [1.0, 2.0, -1.0, 0.5])
        return (ShiftedFamily(a, [1e-3, 0.5, 5.0, 50.0], b, None),
                SolverConfig(cycle_length=3, tolerance=1e-10, max_cycles=40))
    if name in ("sgmres", "sfom"):
        # shift -2 has no collinear iterate at cycle 1, and shift 0 a
        # singular Galerkin system at cycle 2 (see test_baselines.py)
        a = SparseMatrix.from_dense(np.array([[1.0, 1.0], [1.0, 0.0]]))
        fam = ShiftedFamily(a, [0.0, -2.0], np.array([[1.0, 1.0], [0.0, 0.0]]),
                            None)
        return fam, SolverConfig(cycle_length=1, tolerance=1e-6,
                                 max_cycles=45)
    # A - I is singular: shift -1 meets an exactly singular subproblem at
    # every cycle end
    a = SparseMatrix.diagonal(np.array([1.0, 2.0, 3.0]))
    return (ShiftedFamily(a, [-1.0, 0.5], np.eye(3)[:, :2], None),
            SolverConfig(cycle_length=4, tolerance=1e-8, max_cycles=5))


@pytest.mark.parametrize("case", ["singular", "staggered"])
@pytest.mark.parametrize("name", ["sbgmres", "sbfom", "sgmres", "sfom"])
def test_cycle_end_leaves_unsolved_columns_bit_identical(name, case,
                                                         monkeypatch):
    # the cycle-end update runs over every column; a shift that converged
    # earlier or whose subproblem was skipped this cycle gets zero
    # coefficients, and its iterate and residual columns keep every bit
    fam, cfg = _frozen_family(name, case)
    # cycle 1 starts from the zero iterate and the right-hand sides (no
    # family here is decollinearized)
    ends = [(0, None, None, (np.zeros_like(fam.rhs), fam.rhs.copy()))]

    def end_cycle(family, report, x, r, converged, *args,
                  _original=block_solvers._end_cycle):
        entry, active = (x.copy(), r.copy()), ~converged
        out = _original(family, report, x, r, converged, *args)
        if family is fam:       # not a shift solved alone afterwards
            ends.append((report.cycles, active, entry, (x.copy(), r.copy())))
        return out

    monkeypatch.setattr(block_solvers, "_end_cycle", end_cycle)
    monkeypatch.setattr(baselines, "_end_cycle", end_cycle)
    solver = {"sbgmres": sbgmres, "sbfom": sbfom, "sgmres": sgmres,
              "sfom": sfom}[name]
    _, rep = solver(fam, cfg)
    skipped = {(int(c), int(i)) for c, i in
               (m.groups() for m in map(_SKIP_NOTE.match, rep.notes) if m)}
    if case == "singular":
        assert skipped
    checked = 0
    for (_, _, _, before), (cycle, active, after, _) in zip(ends, ends[1:]):
        frozen = ~active
        for c, i in skipped:
            # a collinear method's skipped shift leaves the family
            frozen[i] |= c == cycle or (name in ("sgmres", "sfom")
                                        and c < cycle)
        if name == "sgmres":
            # the base residual starts every cycle, so it is always updated
            base = int(np.argmin(np.abs(fam.shifts)))
            frozen[base] = (cycle, base) in skipped
        for i in np.nonzero(frozen)[0]:
            for old, new in zip(before, after):
                assert old[:, i].tobytes() == new[:, i].tobytes()
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", ["sbgmres", "sbfom", "rsbgmres"])
def test_block_holds_the_columns_of_the_unconverged_shifts(name,
                                                          monkeypatch):
    # the shifts converge cycles apart: each cycle's block starts from the
    # columns of the shifts not converged when the cycle starts, and each
    # of its block products counts one product per column
    fam, cfg = _frozen_family(name, "staggered")
    widths = []

    def start(r0, *args, _original=block_solvers.block_arnoldi_start,
              **kwargs):
        widths.append(np.asarray(r0).shape[1])
        return _original(r0, *args, **kwargs)

    monkeypatch.setattr(block_solvers, "block_arnoldi_start", start)
    if name == "rsbgmres":
        _, rep, _ = rsbgmres(fam, cfg, None, k=2)
    else:
        _, rep = getattr(block_solvers, name)(fam, cfg)
    assert rep.converged == [True] * 4
    assert len(widths) == rep.cycles and widths == rep.block_widths
    assert widths[0] == 4 and widths[-1] < 4
    st = rep.steps
    products = np.diff(st.block_matvecs)
    for cycle, width in enumerate(widths, 1):
        # the last point of the cycle before
        before = np.nonzero(st.cycle < cycle)[0][-1]
        assert width == np.count_nonzero(~st.converged[before])
    at = np.nonzero(st.cycle == 0)[0][-1]
    per_cycle = np.bincount(st.cycle[at + 1:], weights=products[at:],
                            minlength=rep.cycles + 1)[1:]
    assert rep.matvecs == st.matvecs[at] + int(np.dot(widths, per_cycle))


def test_shift_converged_by_its_projection_keeps_its_column_that_cycle():
    # U holds shift 0's solution, so cycle 1's oblique projection solves
    # shift 0; its column stays in cycle 1's block, which the cycle's start
    # fixes, and leaves cycle 2's.  That column is zero to rounding, so
    # the start block's QR drops it and cycle 1's products multiply one
    # column
    a = generate_convection_diffusion(5, 3.0)
    b = np.random.default_rng(2).standard_normal((25, 2))
    fam = ShiftedFamily(a, [0.5, 2.0], b, None)
    exact = np.linalg.solve(a.to_dense() + 0.5 * np.eye(25), b[:, 0])
    space = RecycleSpace.from_basis(a, exact[:, None])
    cfg = SolverConfig(cycle_length=3, tolerance=1e-10, max_cycles=40)
    _, rep, _ = rsbgmres(fam, cfg, space, update=False)
    st = rep.steps
    projected = np.nonzero(st.cycle == 1)[0][0]
    assert st.block_matvecs[projected] == 0
    assert st.converged[projected].tolist() == [True, False]
    assert rep.block_widths[:2] == [2, 1] and rep.converged == [True, True]
    assert rep.replacements == [(1, 0, 0)]
    widths = np.array([0, 1, *rep.block_widths[1:]])
    assert rep.matvecs == int(widths[st.cycle[1:]] @ np.diff(st.block_matvecs))


def test_galerkin_residual_that_grows_does_not_end_the_solve():
    # FOM(1) on A = [[1, 10], [0, 1]], b = e2: cycle 1 moves the residual
    # from 1 to 10, a Galerkin step and no stagnation; cycle 2 starts from
    # -10 e1, an eigenvector, and solves exactly
    a = SparseMatrix.from_dense(np.array([[1.0, 10.0], [0.0, 1.0]]))
    fam = ShiftedFamily(a, [0.0], np.array([[0.0], [1.0]]), None)
    x, rep = sbfom(fam, SolverConfig(cycle_length=1, max_cycles=10))
    assert rep.steps.resid[:, 0].tolist() == [1.0, 10.0, 0.0]
    assert rep.cycles == 2 and rep.converged == [True]
    assert np.allclose(x[:, 0], [-10.0, 1.0])


def test_stall_exit_waits_while_the_recycle_space_moves():
    # the kept-shift family below at cycle length 2, with the recycle
    # space refreshed at each cycle end: the next cycle searches a space
    # this one did not, so a stalled shift does not end the solve, which
    # runs to its cap
    a = SparseMatrix.diagonal(np.arange(1.0, 5.0))
    fam = ShiftedFamily(a, [0.5, -1.0], np.ones((4, 2)), None)
    space = RecycleSpace.from_basis(a, np.eye(4)[:, :1])
    cfg = SolverConfig(cycle_length=2, tolerance=1e-8, max_cycles=8)
    _, rep, _ = rsbgmres(fam, cfg, space)
    assert any("stagnation" in note for note in rep.notes)
    assert not any("leave" in note for note in rep.notes)
    assert rep.cycles == 8 and rep.converged == [True, False]
    # at cycle length 4, cycle 1's one kept column closes its Krylov
    # space; by cycle 3 the stalled residual lies in the refreshed
    # span(C), so the start block has rank zero, no step can move the
    # space, and the shift leaves
    cfg = SolverConfig(cycle_length=4, tolerance=1e-8, max_cycles=8)
    _, rep, _ = rsbgmres(fam, cfg, space)
    assert rep.cycles == 3 and rep.converged == [True, False]
    assert rep.notes[-1] == ("cycle 3: no active shift progressed; shift "
                             "indices [1] leave and the solve ends")


def _hopeless_family(case):
    """A solve returning ``(x, report)`` of a family with one shift
    that can never converge, the family and that shift's index; the cycle
    cap is far above what the solve needs."""
    cfg = SolverConfig(cycle_length=4, tolerance=1e-8, max_cycles=20)
    if case == "kept-shift":
        # C = U = e1 and (A - I) U = 0: shift -1 is solved over the
        # Krylov space alone, and its best residual is |b_1| = 1
        a = SparseMatrix.diagonal(np.arange(1.0, 5.0))
        fam = ShiftedFamily(a, [0.5, -1.0], np.ones((4, 2)), None)
        space = RecycleSpace.from_basis(a, np.eye(4)[:, :1])
        return (lambda: rsbgmres(fam, cfg, space, update=False)[:2]), fam, 1
    fam, _ = _frozen_family(case, "singular")
    if case == "rsbgmres":
        return (lambda: rsbgmres(fam, cfg, None, k=1)[:2]), fam, 0
    return (lambda: getattr(block_solvers, case)(fam, cfg)), fam, 0


@pytest.mark.parametrize("case", ["kept-shift", "sbgmres", "sbfom",
                                  "rsbgmres"])
def test_hopeless_shift_leaves_and_the_solve_ends(case):
    # once the one shift that progresses has converged, the hopeless shift
    # stalls alone in the next block at the latest, leaves, and the solve
    # ends at most one cycle after that shift converged; its flag and
    # residual still come from the true residual
    solve, fam, hopeless = _hopeless_family(case)
    x, rep = solve()
    other = 1 - hopeless
    done = next(row[1] for row in rep.rows if row[0] == other and row[6])
    assert rep.cycles <= done + 1
    assert rep.notes[-1] == (
        f"cycle {rep.cycles}: no active shift progressed; shift indices "
        f"[{hopeless}] leave and the solve ends")
    assert rep.converged[other] and not rep.converged[hopeless]
    assert rep.final_residuals[hopeless] == pytest.approx(1.0, rel=1e-12)
    true = np.linalg.norm(fam.residual_block(x), axis=0)
    assert rep.final_residuals == pytest.approx(list(true), rel=1e-12)
    if case == "kept-shift":
        # 40 products when the shift stayed in the block to the cycle cap
        assert rep.matvecs < 40


@pytest.mark.parametrize("name", ["sbgmres", "sbfom", "rsbgmres", "sgmres",
                                  "sfom"])
def test_drifted_shift_restarts_from_the_true_residual(name, monkeypatch):
    # cycle 1's coefficients are scaled by 1 + 1e-10, which moves every
    # iterate off the residual a recurrence would carry by less than any
    # drift tolerance: cycle 2 must start from the true residual all the
    # same, and the solve still ends truly converged
    ends, starts, projected = [], [], {}

    def solve(self, *args, _original=ShiftedBandQR.solve):
        y = _original(self, *args)
        return y if ends else y * (1.0 + 1e-10)

    def end_cycle(family, report, x, *args,
                  _original=block_solvers._end_cycle):
        out = _original(family, report, x, *args)
        ends.append(x.copy())
        return out

    def start(r0, *args, _original=block_solvers.block_arnoldi_start,
              **kwargs):
        if len(ends) == 1:
            starts.append(np.array(r0))
        return _original(r0, *args, **kwargs)

    def project(space, sigma, r, x,
                _original=block_solvers.oblique_project_shift):
        if len(ends) == 1:
            # the first projection of each shift in cycle 2 gets its start
            projected.setdefault(sigma, np.array(r))
        return _original(space, sigma, r, x)

    monkeypatch.setattr(ShiftedBandQR, "solve", solve)
    for module in (block_solvers, baselines):
        monkeypatch.setattr(module, "_end_cycle", end_cycle)
        monkeypatch.setattr(module, "block_arnoldi_start", start)
    monkeypatch.setattr(block_solvers, "oblique_project_shift", project)
    a = generate_convection_diffusion(7, 15.0)
    rng = np.random.default_rng(44)
    collinear = name in ("sgmres", "sfom")
    b = np.outer(rng.standard_normal(49), [1.0, 2.0, -0.5]) if collinear \
        else rng.standard_normal((49, 3))
    fam = ShiftedFamily(a, [1e-3, 0.4, 2.0], b, None)
    cfg = SolverConfig(cycle_length=6, tolerance=1e-8, max_cycles=100)
    solver = {"sbgmres": sbgmres, "sbfom": sbfom, "sgmres": sgmres,
              "sfom": sfom}.get(name)
    if solver is None:
        x, rep, _ = rsbgmres(fam, cfg, None, k=2)
    else:
        x, rep = solver(fam, cfg)
    true = fam.residual_block(ends[0])
    if collinear:
        # the start vector is the unit base residual (the smallest shift)
        # for sgmres, the unit largest residual for sfom
        ref = 0 if name == "sgmres" else int(np.argmax(
            np.linalg.norm(true, axis=0)))
        gaps = [np.linalg.norm(starts[0] - true[:, ref]
                               / np.linalg.norm(true[:, ref]))]
    else:
        begun = starts[0] if name != "rsbgmres" else np.column_stack(
            [projected[s] for s in fam.shifts])
        assert begun.shape == true.shape
        gaps = np.linalg.norm(begun - true, axis=0) \
            / np.linalg.norm(true, axis=0)
    assert max(gaps) <= 1e-12
    ad = a.to_dense()
    for i, sigma in enumerate(fam.shifts):
        res = np.linalg.norm(b[:, i] - (ad + sigma * np.eye(49)) @ x[:, i])
        assert rep.converged[i] == (res <= 1e-8 * np.linalg.norm(b[:, i]))
    assert all(rep.converged)


def _step_cases():
    a = generate_convection_diffusion(8, 20.0)
    rng = np.random.default_rng(12)
    cfg = SolverConfig(cycle_length=8, tolerance=1e-8, max_cycles=40)
    fam = ShiftedFamily(a, [1e-3, 1e-2, 0.1, 1.0],
                        rng.standard_normal((64, 4)), None)
    yield "sbgmres", sbgmres(fam, cfg)[1]
    b = np.tile(rng.standard_normal((64, 1)), (1, 8))
    fam = ShiftedFamily(a, np.linspace(1e-3, 2.0, 8), b, None)
    yield "sgmres", sgmres(fam, cfg)[1]
    fam = ShiftedFamily(a, [1e-3, 0.1, 1.0], rng.standard_normal((64, 3)),
                        None)
    space = RecycleSpace.from_basis(a, rng.standard_normal((64, 3)))
    yield "rsbgmres", rsbgmres(fam, cfg, space)[1]


def test_one_record_per_step_for_the_whole_family():
    # one point at the start, one per Krylov step and, with a recycle
    # space, one per cycle for the oblique projection; the per-shift view
    # keeps the row count of a report with one row per shift per point
    # (192, 360 and 138 rows, as such a report held for these solves)
    rows = {"sbgmres": 192, "sgmres": 360, "rsbgmres": 138}
    for name, rep in _step_cases():
        st = rep.steps
        iterations = rep.matvecs if name == "sgmres" else rep.block_matvecs
        points = 1 + iterations + (rep.cycles if name == "rsbgmres" else 0)
        assert st.iteration[-1] == iterations
        assert len(st.cycle) == points and st.resid.shape == \
            (points, rep.n_shifts) and st.recorded.all()
        assert len(rep.rows) == rows[name] == points * rep.n_shifts


def test_each_cycle_allocates_one_workspace(monkeypatch):
    built = []

    class Counted(arnoldi._Workspace):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.cap)

    monkeypatch.setattr(arnoldi, "_Workspace", Counted)
    a = generate_convection_diffusion(8, 20.0)
    b = np.random.default_rng(13).standard_normal((64, 3))
    fam = ShiftedFamily(a, [1e-3, 0.1, 1.0], b, None)
    _, rep = sbgmres(fam, SolverConfig(cycle_length=10, tolerance=1e-15,
                                       max_cycles=3))
    assert rep.cycles == 3 and rep.block_matvecs == 30
    assert built == [10, 10, 10]


@pytest.mark.parametrize("name", ["sbgmres", "sbfom", "rsbgmres"])
def test_chunked_gram_schmidt_solves_as_whole_blocks(name, monkeypatch):
    # the same solve with the Gram-Schmidt kernel's blocks whole and cut
    # into 3-column chunks, which straddle the 4-column basis blocks and
    # split the 5-column recycle image C; no test problem crosses the
    # default budget
    a = generate_convection_diffusion(10, 20.0)
    rng = np.random.default_rng(41)
    fam = ShiftedFamily(a, [1e-3, 0.3, 2.0, 10.0],
                        rng.standard_normal((100, 4)), None)
    cfg = SolverConfig(cycle_length=12, tolerance=1e-9, max_cycles=30)
    space = RecycleSpace.from_basis(a, rng.standard_normal((100, 5)))
    errors = []

    def extend(*args, _original=block_solvers.block_arnoldi_extend):
        state = _original(*args)
        c = state.projector_c
        both = np.hstack([state.basis[:, :0] if c is None else c,
                          state.basis])
        errors.append(np.linalg.norm(
            np.eye(both.shape[1]) - both.conj().T @ both))
        return state

    monkeypatch.setattr(block_solvers, "block_arnoldi_extend", extend)

    def solve():
        if name == "rsbgmres":
            return rsbgmres(fam, cfg, space, k=5)[:2]
        return {"sbgmres": sbgmres, "sbfom": sbfom}[name](fam, cfg)

    x_whole, rep_whole = solve()
    monkeypatch.setattr(arnoldi, "_CHUNK_BYTES", 3 * 100 * 8)
    errors.clear()
    x, rep = solve()
    assert rep.matvecs == rep_whole.matvecs and rep.cycles > 1
    assert rep.converged == rep_whole.converged
    assert np.all(np.linalg.norm(x - x_whole, axis=0)
                  <= 1e-10 * np.linalg.norm(x_whole, axis=0))
    # every step's [C W], the basis that closes each cycle among them
    assert len(errors) == rep.block_matvecs and max(errors) <= 1e-13


# ---------------------------------------------------------------------------
# public input checks
# ---------------------------------------------------------------------------

_EYE4 = SparseMatrix.identity(4)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: sbgmres(ShiftedFamily(_EYE4, [0.0, 1.0],
                                               np.ones((4, 2)), None),
                                 SolverConfig(), "bogus"),
                 "strategy 'bogus'", id="strategy-tag"),
    pytest.param(lambda: hessenberg_eigen(np.ones((2, 3)), 1),
                 "square matrix", id="eigen-not-square"),
    pytest.param(lambda: hessenberg_eigen(np.eye(2), 0),
                 "count", id="eigen-count"),
    pytest.param(lambda: block_arnoldi_start(np.zeros((4, 0))),
                 "initial block", id="arnoldi-empty-block"),
    pytest.param(lambda: block_arnoldi_extend(
        _EYE4, block_arnoldi_start(np.ones(4)), steps=0), "steps",
                 id="arnoldi-zero-steps"),
    pytest.param(lambda: block_arnoldi_extend(
        SparseMatrix.identity(8), block_arnoldi_start(np.ones(4))),
                 "matrix has 8 columns", id="arnoldi-extend-matrix"),
    pytest.param(lambda: block_arnoldi_extend(
        _EYE4, block_arnoldi_start(np.ones((3, 1)))),
                 r"block has shape \(3, 1\)", id="arnoldi-rows"),
    pytest.param(lambda: RecycleSpace(np.eye(4)[:, :2], np.eye(4)[:, :1]),
                 "u and c", id="space-shapes"),
    pytest.param(lambda: update_recycle_space(
        block_arnoldi_start(np.ones(4)), "ritz-largest", 1),
                 "arnoldi state", id="update-zero-steps")])
def test_public_input_checks_raise_dimension_error_naming_the_input(call,
                                                                    name):
    with pytest.raises(DimensionError, match=name):
        call()
