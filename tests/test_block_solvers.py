import numpy as np
import pytest

from shiftkrylov import (CollinearityError, DecollinearizeStrategy,
                         ShiftedFamily, SolverConfig, SparseMatrix,
                         add_shift, block_arnoldi, decollinearize,
                         detect_collinear, fom_restarted,
                         generate_convection_diffusion, gmres_restarted,
                         hessenberg_least_squares, rsbgmres, sbfom,
                         sbgmres, sfom, sgmres, solve_small_dense)
from shiftkrylov.block_solvers import _end_cycle, _start
from shiftkrylov.recycling import shifted_hessenberg

from conftest import random_sparse


def _sin_angle(u, v):
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return np.linalg.norm(u - np.vdot(v, u) * v)


# ---------------------------------------------------------------------------
# collinearity detection and strategies
# ---------------------------------------------------------------------------

def test_detect_collinear_scalar_multiples():
    v = np.random.default_rng(0).standard_normal(7)
    r = np.column_stack([v, 2 * v, -3 * v])
    assert detect_collinear(r)


def test_detect_collinear_orthogonal_false():
    assert not detect_collinear(np.eye(2))


def test_detect_collinear_near_collinear():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(50)
    w = rng.standard_normal(50)
    w *= np.linalg.norm(v) / np.linalg.norm(w)
    r = np.column_stack([v, v + 1e-15 * w])
    assert detect_collinear(r, tol=1e-12)


def test_detect_collinear_zero_column_errors():
    r = np.zeros((4, 2))
    r[:, 0] = 1.0
    with pytest.raises(CollinearityError):
        detect_collinear(r)


def test_decollinearize_single_system_noop():
    a = SparseMatrix.diagonal(np.arange(1.0, 6.0))
    fam = ShiftedFamily(a, [0.5], np.ones((5, 1)), None)
    x0, r0, frag = decollinearize(fam, DecollinearizeStrategy("random-x0"))
    assert np.array_equal(x0, fam.initial_guess)
    assert np.array_equal(r0, fam.rhs)
    assert frag.matvecs == 0


def test_decollinearize_gmres_cycle():
    a = SparseMatrix.diagonal(np.arange(1.0, 9.0))
    b = np.tile(np.ones((8, 1)), (1, 2))
    fam = ShiftedFamily(a, [0.0, 0.5], b, None)
    strat = DecollinearizeStrategy("gmres-cycle", m_init=4, seed=3)
    x0, r0, frag = decollinearize(fam, strat)
    assert not detect_collinear(r0)
    assert _sin_angle(r0[:, 0], r0[:, 1]) > 1e-6
    assert frag.matvecs == 4
    # consistency of the updated pair
    expect = fam.rhs - a.to_dense() @ x0 - x0 * fam.shifts[None, :]
    assert np.allclose(r0, expect, atol=1e-12)


def test_decollinearize_random_x0_deterministic():
    a = SparseMatrix.diagonal(np.arange(1.0, 9.0))
    b = np.tile(np.ones((8, 1)), (1, 2))
    fam = ShiftedFamily(a, [0.0, 0.5], b, None)
    strat = DecollinearizeStrategy("random-x0", m_init=1, seed=11)
    x1, r1, _ = decollinearize(fam, strat)
    x2, r2, _ = decollinearize(fam, strat)
    assert np.array_equal(x1, x2) and np.array_equal(r1, r2)
    assert not detect_collinear(r1)


def test_decollinearize_fom_random_block():
    a = generate_convection_diffusion(6, 10.0)
    b = np.tile(np.random.default_rng(5).standard_normal((36, 1)), (1, 3))
    fam = ShiftedFamily(a, [1e-3, 1e-2, 1e-1], b, None)
    strat = DecollinearizeStrategy("fom-random-block", m_init=5, seed=2)
    x0, r0, frag = decollinearize(fam, strat)
    assert not detect_collinear(r0)
    assert frag.block_matvecs == 5 and frag.matvecs == 15
    expect = fam.residual_block(x0)
    assert np.allclose(r0, expect, atol=1e-10)


def test_decollinearize_requires_collinear_input():
    a = SparseMatrix.identity(4)
    fam = ShiftedFamily(a, [0.0, 1.0], np.eye(4)[:, :2], None)
    with pytest.raises(CollinearityError):
        decollinearize(fam, DecollinearizeStrategy("random-x0"))


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
    arn = block_arnoldi(a, r0, m, seed=0)
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

    for i, sigma in enumerate(shifts):
        h_sigma = shifted_hessenberg(arn.hess, ell, sigma)
        y_i, _ = hessenberg_least_squares(h_sigma, g_block[:, i])
        assert np.linalg.norm(y_i - y_coupled[:, i]) <= 1e-10 * \
            max(1.0, np.linalg.norm(y_coupled[:, i]))

    # square (Galerkin) version decouples exactly as well
    big_sq = np.kron(np.eye(ell), arn.hess[:jl, :]) \
        + np.kron(np.diag(shifts), np.eye(jl))
    y_sq = np.linalg.solve(big_sq, g_block[:jl, :].T.reshape(-1))
    y_sq = y_sq.reshape(ell, jl).T
    for i, sigma in enumerate(shifts):
        h_sigma = shifted_hessenberg(arn.hess, ell, sigma)
        y_i, _ = solve_small_dense(h_sigma[:jl, :], g_block[:jl, i])
        assert np.linalg.norm(y_i - y_sq[:, i]) <= 1e-10 * \
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
        arn = block_arnoldi(shifted, b, m, seed=99)
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
    for i, sigma in enumerate(shifts):
        _, rep_s = gmres_restarted(add_shift(a, sigma), b[:, i], None, cfg)
        hб = rep_b.history(i)
        hs = rep_s.history(0)
        upto = min(len(hб), len(hs))
        assert np.all(hб[:upto] <= hs[:upto] * (1 + 1e-8) + 1e-12)


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
    strat = DecollinearizeStrategy("fom-random-block", m_init=4, seed=17)
    x1, rep1 = sbgmres(fam, cfg, strat)
    x2, rep2 = sbgmres(fam, cfg, strat)
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


def test_drift_note_names_worst_active_shift():
    # shift 0 is already converged and drifted by 1.0, shift 1 is active
    # and drifted by 1e-6: the note must name shift 1
    n = 4
    b = np.zeros((n, 2))
    b[0] = 1.0
    fam = ShiftedFamily(SparseMatrix.identity(n), [0.0, 1.0], b, None)
    cfg = SolverConfig(tolerance=1e-12)
    report, targets, x, r, _, _ = _start(fam, cfg, "test")
    r[1, 0] = -1.0
    r[1, 1] = -1e-6
    converged = np.array([True, False])
    _end_cycle(fam, report, 1, x, r, converged, targets, ~converged)
    assert report.notes == ["cycle 1: recurrence residual drifted 1.00e-06 "
                            "from the true residual for shift index 1"]
