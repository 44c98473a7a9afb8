import numpy as np
import pytest

from shiftkrylov import (CollinearityError, ShiftedFamily, SolverConfig,
                         SparseMatrix, add_shift, block_arnoldi, fom_restarted,
                         generate_convection_diffusion, gmres_restarted,
                         matvec, sfom, sgmres, solve_small_dense,
                         NearSingularError)

from conftest import random_sparse


def _sin_angle(u, v):
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return np.linalg.norm(u - np.vdot(v, u) * v)


def test_gmres_identity_one_step():
    a = SparseMatrix.identity(4)
    b = np.array([1.0, -2.0, 3.0, 0.5])
    x, rep = gmres_restarted(a, b, None, SolverConfig(cycle_length=4))
    assert rep.converged == [True]
    assert rep.matvecs == 1
    assert np.allclose(x, b, atol=1e-12)


def test_gmres_grade_exact_convergence():
    a = SparseMatrix.diagonal([1.0, 2.0, 3.0, 4.0, 5.0])
    b = np.ones(5)
    cfg = SolverConfig(cycle_length=5, tolerance=1e-12)
    x, rep = gmres_restarted(a, b, None, cfg)
    assert rep.converged == [True] and rep.cycles == 1
    assert rep.iterations(0).max() == 5
    # dense oracle
    assert np.allclose(x, np.linalg.solve(a.to_dense(), b), atol=1e-10)


def test_gmres_true_residual_matches_estimate():
    a = generate_convection_diffusion(10, 20.0)
    b = np.random.default_rng(0).standard_normal(100)
    cfg = SolverConfig(cycle_length=20, tolerance=1e-8, max_cycles=60)
    x, rep = gmres_restarted(a, b, None, cfg)
    true = np.linalg.norm(b - matvec(a, x))
    assert true <= 1e-8 * np.linalg.norm(b)
    est = rep.final_residuals[0]
    assert abs(true - est) <= 1e-6 * max(true, 1e-30) + 1e-14


def test_gmres_monotone_history():
    a = generate_convection_diffusion(8, 30.0)
    b = np.random.default_rng(1).standard_normal(64)
    cfg = SolverConfig(cycle_length=10, tolerance=1e-10, max_cycles=40)
    _, rep = gmres_restarted(a, b, None, cfg)
    hist = rep.history(0)
    assert np.all(np.diff(hist) <= 1e-12 * hist[0])


def test_fom_identity_and_grade():
    a = SparseMatrix.identity(3)
    b = np.ones(3)
    _, rep = fom_restarted(a, b, None, SolverConfig(cycle_length=3))
    assert rep.converged == [True] and rep.matvecs == 1
    a = SparseMatrix.diagonal([1.0, 2.0, 3.0, 4.0, 5.0])
    b = np.ones(5)
    x, rep = fom_restarted(a, b, None, SolverConfig(cycle_length=5,
                                                    tolerance=1e-12))
    assert rep.converged == [True]
    assert np.allclose(x, np.linalg.solve(a.to_dense(), b), atol=1e-10)


def test_fom_residual_parallel_to_next_basis_vector():
    # one cycle of FOM leaves the residual collinear with v_{m+1}
    a = random_sparse(20, density=0.4, seed=5, diag_boost=6.0)
    b = np.random.default_rng(6).standard_normal(20)
    cfg = SolverConfig(cycle_length=6, tolerance=1e-14, max_cycles=1)
    x, rep = fom_restarted(a, b, None, cfg)
    r = b - matvec(a, x)
    # rebuild the basis the cycle used (block process at block size one)
    state = block_arnoldi(a, b, 6)
    v7 = state.basis[:, 6]
    assert _sin_angle(r, v7) <= 1e-8


def test_gmres_stagnation_fom_nonexistence():
    # on this permutation operator GMRES stagnates at step 1 and the
    # 1 x 1 Galerkin system is exactly singular
    a = SparseMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    b = np.array([1.0, 0.0])
    cfg = SolverConfig(cycle_length=1, tolerance=1e-10, max_cycles=2)
    _, rep = gmres_restarted(a, b, None, cfg)
    assert any("stagnation" in n for n in rep.notes)
    h11 = np.array([[np.vdot(b, matvec(a, b))]])  # = [[0]]
    with pytest.raises(NearSingularError):
        solve_small_dense(h11, np.array([1.0]))
    _, rep_f = fom_restarted(a, b, None, cfg)
    assert any("no Galerkin iterate" in n for n in rep_f.notes)


# ---------------------------------------------------------------------------
# collinear shifted baselines
# ---------------------------------------------------------------------------

def test_sgmres_degenerate_single_shift():
    a = random_sparse(30, density=0.2, seed=8, diag_boost=5.0)
    b = np.random.default_rng(9).standard_normal(30)
    sigma = 0.3
    cfg = SolverConfig(cycle_length=8, tolerance=1e-9, max_cycles=50)
    fam = ShiftedFamily(a, [sigma], b, None)
    x1, rep1 = sgmres(fam, cfg)
    x2, rep2 = gmres_restarted(add_shift(a, sigma), b, None, cfg)
    assert rep1.matvecs == rep2.matvecs
    assert np.allclose(x1[:, 0], x2, rtol=1e-9, atol=1e-12)


def test_sgmres_collinear_family_converges_and_stays_collinear():
    a = SparseMatrix.diagonal([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    b = np.ones((6, 1)) @ np.array([[1.0, 2.0]])  # collinear pair
    fam = ShiftedFamily(a, [0.0, 1.0], b, None)
    cfg = SolverConfig(cycle_length=3, tolerance=1e-10, max_cycles=30)
    x, rep = sgmres(fam, cfg)
    assert rep.converged == [True, True]
    final = fam.residual_block(x)
    assert np.all(np.linalg.norm(final, axis=0)
                  <= 1e-10 * np.linalg.norm(b, axis=0))


def test_sgmres_restart_collinearity():
    a = generate_convection_diffusion(8, 25.0)
    b = np.tile(np.random.default_rng(3).standard_normal((64, 1)), (1, 2))
    fam = ShiftedFamily(a, [1e-4, 1e-2], b, None)
    cfg = SolverConfig(cycle_length=8, tolerance=1e-8, max_cycles=2)
    x, rep = sgmres(fam, cfg)  # stop early: restart happened at least once
    r = fam.residual_block(x)
    assert _sin_angle(r[:, 0], r[:, 1]) <= 1e-8


def test_sgmres_positive_real_existence():
    # positive-real operator with positive shifts: iterates exist at every
    # cycle and the method converges
    a = generate_convection_diffusion(10, 40.0)
    b = np.tile(np.random.default_rng(4).standard_normal((100, 1)), (1, 2))
    fam = ShiftedFamily(a, [1e-4, 1e-2], b, None)
    cfg = SolverConfig(cycle_length=20, tolerance=1e-8, max_cycles=80)
    _, rep = sgmres(fam, cfg)
    assert rep.converged == [True, True]


def test_sgmres_rejects_unrelated_rhs():
    a = SparseMatrix.identity(5)
    b = np.eye(5)[:, :2]
    fam = ShiftedFamily(a, [0.0, 1.0], b, None)
    with pytest.raises(CollinearityError):
        sgmres(fam, SolverConfig())


def test_sfom_degenerate_single_shift():
    a = random_sparse(30, density=0.2, seed=8, diag_boost=5.0)
    b = np.random.default_rng(9).standard_normal(30)
    sigma = 0.3
    cfg = SolverConfig(cycle_length=8, tolerance=1e-9, max_cycles=50)
    fam = ShiftedFamily(a, [sigma], b, None)
    x1, rep1 = sfom(fam, cfg)
    x2, rep2 = fom_restarted(add_shift(a, sigma), b, None, cfg)
    assert rep1.matvecs == rep2.matvecs
    assert np.allclose(x1[:, 0], x2, rtol=1e-9, atol=1e-12)


def test_sfom_residuals_parallel_to_shared_basis_vector():
    a = SparseMatrix.diagonal(np.arange(1.0, 7.0))
    b = np.tile(np.ones((6, 1)), (1, 2))
    fam = ShiftedFamily(a, [0.0, 1.0], b, None)
    cfg = SolverConfig(cycle_length=3, tolerance=1e-14, max_cycles=1)
    x, rep = sfom(fam, cfg)
    r = fam.residual_block(x)
    # both residuals parallel to each other (same Arnoldi direction)
    assert _sin_angle(r[:, 0], r[:, 1]) <= 1e-8


def test_sfom_shared_basis_matvec_identity():
    # one basis serves every shift: matvec count equals iteration count,
    # independent of the number of shifts
    a = generate_convection_diffusion(8, 25.0)
    b3 = np.tile(np.random.default_rng(5).standard_normal((64, 1)), (1, 3))
    cfg = SolverConfig(cycle_length=12, tolerance=1e-8, max_cycles=60)
    fam3 = ShiftedFamily(a, [1e-3, 1e-2, 1e-1], b3, None)
    _, rep3 = sfom(fam3, cfg)
    assert rep3.converged == [True, True, True]
    iters = max(rep3.iterations(i).max() for i in range(3))
    assert rep3.matvecs == iters


def test_absolute_tolerance_mode():
    a = generate_convection_diffusion(6, 5.0)
    b = 100.0 * np.random.default_rng(11).standard_normal(36)
    cfg = SolverConfig(cycle_length=10, tolerance=1e-4, max_cycles=60,
                       relative=False)
    x, rep = gmres_restarted(a, b, None, cfg)
    assert rep.converged == [True]
    assert np.linalg.norm(b - matvec(a, x)) <= 1e-4 * 1.01
    # the relative run with the same tolerance stops much earlier
    cfg_rel = SolverConfig(cycle_length=10, tolerance=1e-4, max_cycles=60,
                           relative=True)
    _, rep_rel = gmres_restarted(a, b, None, cfg_rel)
    assert rep_rel.matvecs < rep.matvecs


def test_sgmres_handles_grade_breakdown():
    # cycle length past the operator grade: the collinear machinery must
    # switch to the exact square solve when the basis closes
    a = SparseMatrix.diagonal(np.arange(1.0, 7.0))
    b = np.tile(np.ones((6, 1)), (1, 2))
    fam = ShiftedFamily(a, [0.0, 1.0], b, None)
    cfg = SolverConfig(cycle_length=10, tolerance=1e-12, max_cycles=5)
    x, rep = sgmres(fam, cfg)
    assert rep.converged == [True, True]
    true = fam.residual_block(x)
    assert np.linalg.norm(true) <= 1e-10 * np.linalg.norm(b)


def test_sgmres_converges_when_base_residual_reaches_rounding_level():
    # the base residual's unit direction carries the collinearity
    # condition, so a base residual near rounding level does not make
    # the other shifts' systems singular
    a = generate_convection_diffusion(7, 15.0)
    b = np.tile(np.random.default_rng(0).standard_normal((49, 1)), (1, 3))
    fam = ShiftedFamily(a, [1e-3, 0.1, 5.0], b, None)
    _, rep = sgmres(fam, SolverConfig(cycle_length=6, tolerance=1e-13))
    assert rep.converged == [True] * 3


def _final_rows(rep, ell):
    return [[row for row in rep.rows if row[0] == i][-1] for i in range(ell)]


@pytest.mark.parametrize("solver", [sgmres, sfom])
def test_step_estimate_matches_one_cycle_oracle(solver):
    # the estimate recorded at step j of a long cycle is the final estimate
    # of a cycle of length j, and that equals the true residual of the
    # iterate that cycle returns
    a = generate_convection_diffusion(6, 10.0)
    b = np.tile(np.random.default_rng(2).standard_normal((36, 1)), (1, 3))
    fam = ShiftedFamily(a, [1e-3, 0.5, 2 + 1j], b, None)
    _, long_rep = solver(fam, SolverConfig(cycle_length=8, tolerance=1e-15,
                                           max_cycles=1))
    rhs_norms = np.linalg.norm(b, axis=0)
    for j in range(1, 9):
        x, rep = solver(fam, SolverConfig(cycle_length=j, tolerance=1e-15,
                                          max_cycles=1))
        final = _final_rows(rep, 3)
        true = np.linalg.norm(fam.residual_block(x), axis=0)
        for i in range(3):
            at_j = [row for row in long_rep.rows
                    if row[0] == i and row[2] == j]
            assert at_j == [final[i]]
            assert abs(final[i][5] - true[i]) <= 1e-9 * rhs_norms[i]


def test_sgmres_singular_collinearity_system_skips_only_that_shift():
    # with A = [[1, 1], [1, 0]], b = e_1 and one step, the residual
    # direction of offset -2 is orthogonal to the base's, so no collinear
    # iterate exists for shift -2; the base still takes its update
    a = SparseMatrix.from_dense(np.array([[1.0, 1.0], [1.0, 0.0]]))
    b = np.array([[1.0, 1.0], [0.0, 0.0]])
    fam = ShiftedFamily(a, [0.0, -2.0], b, None)
    x, rep = sgmres(fam, SolverConfig(cycle_length=1, max_cycles=1))
    assert rep.notes == ["cycle 1: no collinear update for shift index 1"]
    assert np.allclose(x[:, 0], [0.5, 0.0]) and np.all(x[:, 1] == 0.0)


def _skip_family():
    # the family of the test above: shift -2 has no collinear iterate
    a = SparseMatrix.from_dense(np.array([[1.0, 1.0], [1.0, 0.0]]))
    b = np.array([[1.0, 1.0], [0.0, 0.0]])
    return ShiftedFamily(a, [0.0, -2.0], b, None)


def test_sgmres_skipped_shift_is_solved_alone():
    # the skipped shift leaves the shared family instead of drifting with
    # a stale residual, and the engine solves it alone afterwards
    fam = _skip_family()
    cfg = SolverConfig(cycle_length=1, tolerance=1e-6)
    x, rep = sgmres(fam, cfg)
    assert rep.converged == [True, True]
    assert not any("drifted" in note for note in rep.notes)
    assert any("shift index 1 left the shared family" in note
               for note in rep.notes)
    true = np.linalg.norm(fam.residual_block(x), axis=0)
    assert np.all(true <= 1e-6 * np.linalg.norm(fam.rhs, axis=0))
    # merged rows continue the shared loop's counters and end at its totals
    rows = [row for row in rep.rows if row[0] == 1]
    assert [row[1] for row in rows] == sorted(row[1] for row in rows)
    assert [row[3] for row in rows] == sorted(row[3] for row in rows)
    assert rep.rows[-1][3] == rep.matvecs and rep.cycles <= cfg.max_cycles
    assert rows[-1][5] == pytest.approx(true[1], rel=1e-6)


def test_sfom_shift_with_singular_galerkin_system_leaves_family():
    # at cycle 2 shift 0's Galerkin system is singular; it leaves the
    # family, so shift -2 still converges and nothing drifts, and alone it
    # converges by GMRES, whose longer cycle gets past the singular step
    fam = _skip_family()
    x, rep = sfom(fam, SolverConfig(cycle_length=1, tolerance=1e-6,
                                    max_cycles=45))
    assert rep.notes[0] == ("cycle 2: singular Galerkin system for shift "
                            "index 0; update skipped")
    assert rep.notes[1].startswith("shift index 0 left the shared family")
    assert not any("drifted" in note for note in rep.notes)
    assert rep.converged[0]
    assert rep.converged[1]
    true = np.linalg.norm(fam.residual_block(x), axis=0)
    assert rep.final_residuals == pytest.approx(list(true), rel=1e-12)
