import numpy as np
import pytest
import scipy.io
from scipy.linalg import subspace_angles

from shiftkrylov import (DimensionError, NearSingularError, RecycleSpace,
                         ShiftedFamily, SolverConfig, SparseMatrix, add_shift,
                         generate_convection_diffusion, gmres_restarted,
                         load_recycle_space, oblique_project_shift,
                         rgmres_baseline, rsbgmres, sbgmres,
                         update_recycle_space)
from shiftkrylov.arnoldi import block_arnoldi_extend, block_arnoldi_start
from shiftkrylov.recycling import augmentation_blocks

from conftest import augmented_matrix, block_arnoldi, random_sparse


def _u_hat(blocks):
    """The ``Uhat`` of ``blocks``, which the solvers never form: the
    remainder's columns that are not padded times the inverse of their
    triangle in ``n_factor``, so ``D = Uhat n_factor`` on them."""
    keep = np.setdiff1d(np.arange(blocks.n_factor.shape[1]), blocks.padded)
    return np.linalg.solve(blocks.n_factor[:, keep].T,
                           blocks.remainder[:, keep].T).T


def _space(a, k, seed=0):
    rng = np.random.default_rng(seed)
    return RecycleSpace.from_basis(a, rng.standard_normal((a.n_rows, k)))


def test_from_basis_invariants():
    a = random_sparse(20, seed=3, diag_boost=4.0)
    space = _space(a, 4)
    ad = a.to_dense()
    assert np.linalg.norm(ad @ space.u - space.c) <= 1e-10 * a.frobenius_norm
    gram = space.c.conj().T @ space.c
    assert np.linalg.norm(gram - np.eye(4)) <= 1e-10 * 4


def test_from_basis_drops_dependent_directions():
    a = random_sparse(15, seed=4, diag_boost=4.0)
    rng = np.random.default_rng(5)
    basis = rng.standard_normal((15, 3))
    basis = np.column_stack([basis, basis[:, 0]])  # repeated direction
    space = RecycleSpace.from_basis(a, basis)
    assert space.k == 3
    # the kept columns of the first image still give C = A U exactly
    assert np.linalg.norm(a.to_dense() @ space.u - space.c) \
        <= 1e-10 * a.frobenius_norm
    assert np.linalg.norm(space.c.conj().T @ space.c - np.eye(3)) <= 1e-12


def test_oblique_zero_shift_degenerates_to_orthogonal():
    a = random_sparse(16, seed=8, diag_boost=4.0)
    space = _space(a, 3)
    rng = np.random.default_rng(9)
    r = rng.standard_normal(16).astype(complex)
    x = rng.standard_normal(16).astype(complex)
    r_hat, x_hat = oblique_project_shift(space, 0.0, r, x)
    expect = r - space.c @ (space.c.conj().T @ r)
    assert np.linalg.norm(r_hat - expect) <= 1e-12 * np.linalg.norm(r)
    assert np.allclose(x_hat, x + space.u @ (space.c.conj().T @ r),
                       atol=1e-12)


def test_oblique_range_direction_solves_exactly():
    a = random_sparse(16, seed=10, diag_boost=4.0)
    space = _space(a, 3)
    sigma = 0.4
    w = np.random.default_rng(11).standard_normal(3)
    r = (space.c + sigma * space.u) @ w   # residual inside span(C + sigma U)
    x = np.zeros(16, dtype=complex)
    b = r.copy()                          # so that b - (A+sigma I) x = r
    r_hat, x_hat = oblique_project_shift(space, sigma, r, x)
    assert np.linalg.norm(r_hat) <= 1e-10 * np.linalg.norm(r)
    ad = a.to_dense()
    resid = b - (ad + sigma * np.eye(16)) @ x_hat
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(b)


def test_oblique_idempotence_and_consistency():
    a = random_sparse(20, seed=12, diag_boost=4.0)
    space = _space(a, 4)
    sigma = 0.3 + 0.1j
    rng = np.random.default_rng(13)
    x = rng.standard_normal(20).astype(complex)
    r = rng.standard_normal(20).astype(complex)
    ad = a.to_dense()
    b = r + (ad + sigma * np.eye(20)) @ x
    r1, x1 = oblique_project_shift(space, sigma, r, x)
    r2, x2 = oblique_project_shift(space, sigma, r1, x1)
    assert np.linalg.norm(r2 - r1) <= 1e-12 * max(np.linalg.norm(r1), 1.0)
    assert np.linalg.norm(x2 - x1) <= 1e-12 * max(np.linalg.norm(x1), 1.0)
    resid = b - (ad + sigma * np.eye(20)) @ x1
    assert np.linalg.norm(resid - r1) <= 1e-8 * np.linalg.norm(b)
    assert np.abs(space.c.conj().T @ r1).max() <= 1e-10


def test_oblique_near_singular_raises():
    a = random_sparse(12, seed=14, diag_boost=4.0)
    space = _space(a, 2)
    # choose sigma so that C*(C + sigma U) is singular: sigma = -1/lambda
    # for an eigenvalue lambda of C* U
    m = space.c.conj().T @ space.u
    lam = np.linalg.eigvals(m)[0]
    sigma = -1.0 / lam
    rng = np.random.default_rng(15)
    with pytest.raises(NearSingularError):
        oblique_project_shift(space, sigma,
                              rng.standard_normal(12).astype(complex),
                              np.zeros(12, dtype=complex))


def test_oblique_system_at_k_one_is_measured_against_its_scale():
    # C = U = e1 and sigma = -1 + 1e-15: the 1 x 1 system C* (C + sigma U)
    # is rounding noise beside its bound 1 + |sigma| ||U||_F = 2, though
    # its condition number is 1; solving it scaled the iterate by 1e15
    a = SparseMatrix.diagonal(np.arange(1.0, 5.0))
    space = RecycleSpace.from_basis(a, np.eye(4)[:, :1])
    with pytest.raises(NearSingularError):
        oblique_project_shift(space, -1.0 + 1e-15, np.ones(4), np.zeros(4))


def test_rsbgmres_shift_without_oblique_projection_is_solved_over_krylov():
    # C = U = e1, so C* (C + sigma U) = 1 + sigma vanishes at sigma = -1:
    # that shift is minimized over the Krylov space alone at every cycle
    # (with U it is exactly singular, since (A - I) U = 0), reaches its
    # least-squares minimum |b_1| = 1 over the range of A - I, and no
    # longer holds the other shift back.  Both projected residuals are
    # (0, 1, 1, 1), so cycle 1's start block keeps one column: shift 0.5
    # converges in cycle 1 after 3 products (at cycle 4 after 8 when the
    # dependent column was replaced by a random one, and at cycle 7 after
    # 14 when the shift without a projection held it back)
    a = SparseMatrix.diagonal(np.arange(1.0, 5.0))
    space = RecycleSpace.from_basis(a, np.eye(4)[:, :1])
    fam = ShiftedFamily(a, [0.5, -1.0], np.ones((4, 2)), None)
    cfg = SolverConfig(cycle_length=4, tolerance=1e-8, max_cycles=20)
    x, rep, _ = rsbgmres(fam, cfg, space, update=False)
    assert rep.converged == [True, False]
    assert rep.notes[0] == ("cycle 1: no oblique projection for shift index "
                            "1; solved over the Krylov space alone")
    first = next(row for row in rep.rows if row[0] == 0 and row[6])
    assert first[1:4] == (1, 3, 3)
    assert not any(row[6] for row in rep.rows if row[0] == 1)
    assert rep.final_residuals[1] == pytest.approx(1.0, rel=1e-12)
    true = np.linalg.norm(fam.residual_block(x), axis=0)
    assert rep.final_residuals == pytest.approx(list(true), rel=1e-12)


def test_augmented_operator_zero_shift_collapses():
    a = random_sparse(18, seed=16, diag_boost=4.0)
    space = _space(a, 3)
    rng = np.random.default_rng(17)
    r0 = rng.standard_normal((18, 2)).astype(complex)
    r0 -= space.c @ (space.c.conj().T @ r0)
    arn = block_arnoldi(a, r0, 3, projector=space)
    blocks = augmentation_blocks(space, arn.basis)
    g_bar = augmented_matrix(arn.hess, arn.coupling, blocks.p, blocks.q2,
                             blocks.n_factor, 0.0)
    k = 3
    # bottom sigma*N block vanishes
    assert np.linalg.norm(g_bar[-k:, :]) == 0.0
    # the relation reduces to the unshifted augmented relation
    ad = a.to_dense()
    concat = np.hstack([arn.basis, space.c, _u_hat(blocks)])
    lhs = ad @ np.hstack([arn.w, space.u])
    assert np.linalg.norm(lhs - concat @ g_bar) <= 1e-9 * a.frobenius_norm


def test_augmented_operator_empty_space_is_plain_hessenberg():
    a = random_sparse(18, seed=18, diag_boost=4.0)
    r0 = np.random.default_rng(19).standard_normal((18, 2))
    arn = block_arnoldi(a, r0, 3)
    blocks = augmentation_blocks(RecycleSpace.empty(18), arn.basis)
    # no recycle directions: the unprojected state carries a 0 x 3L
    # coupling, so there are no coupling rows and no trailing columns
    assert arn.coupling.shape == (0, arn.hess.shape[1])
    g_bar = augmented_matrix(arn.hess, arn.coupling, blocks.p, blocks.q2,
                             blocks.n_factor, 0.25)
    assert np.array_equal(g_bar, arn.hess + 0.25 * np.eye(*arn.hess.shape))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_contained_direction_leaves_uhat_when_the_space_is_exhausted(dtype):
    # n = 2: [W C] = [e1 e2] spans everything, so U = e2 is contained:
    # Uhat has no column, N is 0 x 1 and [W C U] = [W C Uhat] T holds
    # exactly, whether the blocks are carried from the step before or not
    phase = 1.0 if dtype == np.float64 else 1j
    e1, e2 = np.eye(2)[:, :1].astype(dtype), np.eye(2)[:, 1:]
    space = RecycleSpace(phase * e2, phase * e2)
    start = augmentation_blocks(space, e1[:, :0])
    for blocks in (augmentation_blocks(space, e1),
                   augmentation_blocks(space, e1, prev=start)):
        assert blocks.padded == (0,)
        assert blocks.n_factor.dtype == dtype
        assert blocks.n_factor.shape == (0, 1)
        rebuilt = (e1 @ blocks.p + space.c @ blocks.q2
                   + _u_hat(blocks) @ blocks.n_factor)
        assert np.array_equal(rebuilt, space.u)


def test_rsbgmres_solves_exactly_when_every_direction_is_contained():
    # U = C = e2 is an eigenvector of A = diag(3, 1); the projected
    # residual is e1, whose Krylov space closes at step 1, so [W C] is
    # the whole space, Uhat is empty and the tail of the augmented
    # least squares is padded with a zero row
    a = SparseMatrix.diagonal([3.0, 1.0])
    e2 = np.eye(2)[:, 1:]
    fam = ShiftedFamily(a, [0.5], np.ones((2, 1)), None)
    cfg = SolverConfig(cycle_length=4, tolerance=1e-12, max_cycles=2)
    x, rep, _ = rsbgmres(fam, cfg, RecycleSpace(e2, e2), update=False)
    assert rep.converged == [True] and rep.cycles == 1
    assert rep.matvecs == 1
    assert np.abs(x[:, 0] - [1.0 / 3.5, 1.0 / 1.5]).max() <= 1e-15
    assert rep.notes == ["cycle 1 step 1: recycle directions [0] "
                         "numerically contained in the Krylov space"]


@pytest.mark.parametrize("argument", ["u", "c"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_recycle_space_rejects_non_finite_input_by_name(argument, bad):
    blocks = {"u": np.eye(3)[:, :2], "c": np.eye(3)[:, :2]}
    blocks[argument][0, 1] = bad
    with pytest.raises(DimensionError, match=f"^{argument} "):
        RecycleSpace(blocks["u"], blocks["c"])


def test_augmented_relation_random_shift():
    a = random_sparse(22, seed=20, diag_boost=4.0)
    space = _space(a, 4)
    rng = np.random.default_rng(21)
    r0 = rng.standard_normal((22, 2)).astype(complex)
    r0 -= space.c @ (space.c.conj().T @ r0)
    arn = block_arnoldi(a, r0, 4, projector=space)
    sigma = 0.3
    blocks = augmentation_blocks(space, arn.basis)
    g_bar = augmented_matrix(arn.hess, arn.coupling, blocks.p, blocks.q2,
                             blocks.n_factor, sigma)
    ad = a.to_dense()
    concat = np.hstack([arn.basis, space.c, _u_hat(blocks)])
    lhs = (ad + sigma * np.eye(22)) @ np.hstack([arn.w, space.u])
    rel = np.linalg.norm(lhs - concat @ g_bar)
    assert rel <= 1e-9 * (a.frobenius_norm + abs(sigma))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_carried_augmentation_blocks_equal_the_one_shot_call(dtype):
    # a projected chain with L = 3, k = 4; recycle direction 2 is put in
    # the first three basis blocks, so it is contained, and has no Uhat
    # column, from step 2 on (the factorization does not need C = A U
    # for it)
    n, ell, k = 60, 3, 4
    a = random_sparse(n, seed=30, diag_boost=4.0)
    rng = np.random.default_rng(31)

    def draw(*shape):
        z = rng.standard_normal(shape)
        if dtype == np.complex128:
            z = z + 1j * rng.standard_normal(shape)
        return z

    space = RecycleSpace.from_basis(a, draw(n, k))
    states = [block_arnoldi_start(draw(n, ell), space)]
    for _ in range(12):
        states.append(block_arnoldi_extend(a, states[-1], 1))
    u = space.u.copy()
    u[:, 2] = states[-1].basis[:, :3 * ell] @ draw(3 * ell)
    space = RecycleSpace(u, space.c)
    blocks = None
    for j, arn in enumerate(states[1:], start=1):
        blocks = augmentation_blocks(space, arn.basis, prev=blocks)
        fresh = augmentation_blocks(space, arn.basis)
        u_hat = _u_hat(blocks)
        assert u_hat.dtype == blocks.n_factor.dtype == dtype
        assert blocks.padded == fresh.padded == ((2,) if j >= 2 else ())
        assert u_hat.shape == (n, k - len(blocks.padded))
        assert blocks.n_factor.shape == (k - len(blocks.padded), k)
        for carried, ref in ((blocks.p, fresh.p), (blocks.q2, fresh.q2),
                             (u_hat, _u_hat(fresh)),
                             (blocks.n_factor, fresh.n_factor)):
            assert np.linalg.norm(carried - ref) <= 1e-12 * np.linalg.norm(ref)
        wc = np.hstack([arn.basis, space.c])
        rebuilt = (wc @ np.vstack([blocks.p, blocks.q2])
                   + u_hat @ blocks.n_factor)
        assert np.linalg.norm(rebuilt - u) <= 1e-12 * np.linalg.norm(u)
        both = np.hstack([wc, u_hat])
        gram = both.conj().T @ both
        assert np.linalg.norm(gram - np.eye(len(gram))) <= 1e-12


def test_padding_is_noted_once_per_cycle():
    # e1 is an eigenvector of the diagonal A, so recycle direction 0 lies
    # in span(C) and is contained at every step of every cycle
    a = SparseMatrix.diagonal(np.linspace(1.0, 100.0, 50))
    basis = np.random.default_rng(32).standard_normal((50, 3))
    basis[:, 0] = np.eye(50)[:, 0]
    space = RecycleSpace.from_basis(a, basis)
    fam = ShiftedFamily(a, [0.1, 0.5], np.ones((50, 2)), None)
    cfg = SolverConfig(cycle_length=4, tolerance=1e-8, max_cycles=30)
    _, rep, _ = rsbgmres(fam, cfg, space, update=False)
    assert rep.cycles >= 3
    padding = [n for n in rep.notes if "numerically contained" in n]
    assert padding == [f"cycle {c} step 1: recycle directions [0] "
                       "numerically contained in the Krylov space"
                       for c in range(1, rep.cycles + 1)]


def test_rsbgmres_k0_identical_to_sbgmres():
    a = generate_convection_diffusion(8, 20.0)
    rng = np.random.default_rng(23)
    b = rng.standard_normal((64, 3))
    fam = ShiftedFamily(a, [1e-3, 1e-2, 1e-1], b, None)
    cfg = SolverConfig(cycle_length=12, tolerance=1e-8, max_cycles=40, seed=5)
    x1, rep1 = sbgmres(fam, cfg)
    x2, rep2, space = rsbgmres(fam, cfg, None, k=0, update=False)
    assert np.array_equal(x1, x2)
    assert rep1.rows == rep2.rows
    assert rep1.matvecs == rep2.matvecs
    assert rep1.notes == rep2.notes
    assert space.k == 0


def test_rsbgmres_solutions_space_needs_no_iterations():
    a = generate_convection_diffusion(7, 15.0)
    n = 49
    rng = np.random.default_rng(24)
    shifts = np.array([0.5, 1.0, 1.5])
    b = rng.standard_normal((n, 3))
    ad = a.to_dense()
    sols = np.column_stack([
        np.linalg.solve(ad + s * np.eye(n), b[:, i])
        for i, s in enumerate(shifts)])
    space = RecycleSpace.from_basis(a, sols, "solutions")
    fam = ShiftedFamily(a, shifts, b, None)
    cfg = SolverConfig(cycle_length=10, tolerance=1e-8, max_cycles=10)
    x, rep, _ = rsbgmres(fam, cfg, space, update=False)
    assert rep.converged == [True, True, True]
    assert rep.matvecs == 0          # projections alone finished the solve
    true = fam.residual_block(x)
    assert np.all(np.linalg.norm(true, axis=0)
                  <= 1e-8 * np.linalg.norm(b, axis=0))


def test_rsbgmres_cycle_end_optimality():
    """Cycle-end residual norms match a dense least-squares minimization
    over the explicit augmented basis [U | W_m]."""
    a = generate_convection_diffusion(8, 25.0)
    n = 64
    rng = np.random.default_rng(25)
    shifts = np.array([1e-3, 1e-1])
    b = rng.standard_normal((n, 2))
    fam = ShiftedFamily(a, shifts, b, None)
    k = 4
    m = 5
    space = _space(a, k, seed=26)
    cfg = SolverConfig(cycle_length=m, tolerance=1e-30, max_cycles=1, seed=9)
    x, rep, _ = rsbgmres(fam, cfg, space, update=False)
    ad = a.to_dense()
    # reproduce the projected starting data with the public operations
    r_hat = np.empty((n, 2), dtype=complex)
    x_hat = np.empty((n, 2), dtype=complex)
    for i, s in enumerate(shifts):
        r_hat[:, i], x_hat[:, i] = oblique_project_shift(
            space, s, b[:, i], np.zeros(n, dtype=complex))
    arn = block_arnoldi(a, r_hat, m, projector=space)
    for i, s in enumerate(shifts):
        basis = np.hstack([space.u, arn.w])
        image = (ad + s * np.eye(n)) @ basis
        resid_opt = np.linalg.lstsq(image, r_hat[:, i], rcond=None)[1]
        opt = np.sqrt(float(resid_opt[0])) if len(resid_opt) else \
            np.linalg.norm(r_hat[:, i] - image @ np.linalg.lstsq(
                image, r_hat[:, i], rcond=None)[0])
        got = rep.final_residuals[i]
        assert abs(got - opt) <= 1e-8 * max(np.linalg.norm(b[:, i]), 1.0)


def test_rgmres_k0_equals_gmres():
    a = generate_convection_diffusion(7, 10.0)
    b = np.random.default_rng(27).standard_normal(49)
    cfg = SolverConfig(cycle_length=10, tolerance=1e-8, max_cycles=30, seed=2)
    x1, rep1 = gmres_restarted(a, b, None, cfg)
    x2, rep2, _ = rgmres_baseline(a, b, None, cfg, None, k=0)
    assert np.array_equal(x1, x2)
    assert rep1.rows == rep2.rows


def test_rgmres_perfect_space_immediate():
    a = random_sparse(15, seed=28, diag_boost=5.0)
    ad = a.to_dense()
    b = np.random.default_rng(29).standard_normal(15)
    sol = np.linalg.solve(ad, b)
    space = RecycleSpace.from_basis(a, sol[:, None], "solutions")
    cfg = SolverConfig(cycle_length=8, tolerance=1e-8, max_cycles=10)
    x, rep, _ = rgmres_baseline(a, b, None, cfg, space, k=0)
    assert rep.converged == [True] and rep.matvecs == 0
    assert np.linalg.norm(b - ad @ x) <= 1e-8 * np.linalg.norm(b)


def test_shift_rebase_identities():
    from shiftkrylov import shift_rebase
    a = random_sparse(16, seed=40, diag_boost=4.0)
    space = _space(a, 3, seed=41)
    delta = 0.35
    moved = shift_rebase(space, delta)
    shifted = add_shift(a, delta).to_dense()
    assert np.linalg.norm(shifted @ moved.u - moved.c) \
        <= 1e-10 * a.frobenius_norm
    gram = moved.c.conj().T @ moved.c
    assert np.linalg.norm(gram - np.eye(3)) <= 1e-10
    # the span of U is unchanged, only the normalization moved
    assert subspace_angles(space.u, moved.u).max() <= 1e-10


def test_shift_rebase_rejects_a_rank_deficient_shifted_image():
    from shiftkrylov import shift_rebase
    # A = diag(d, 2, 3) and U = e1 / d give C = A U = e1, so C + delta U
    # vanishes at delta = -d
    d = 2.5
    e1 = np.eye(3)[:, :1]
    space = RecycleSpace(e1 / d, e1)
    with pytest.raises(NearSingularError, match="rank deficient"):
        shift_rebase(space, -d)
    assert shift_rebase(space, -d / 2).k == 1


@pytest.mark.parametrize("typo", [{"mode": "ritz-larg"},
                                  {"source": "augmented"}])
def test_unknown_recycle_mode_or_source_raises_before_any_product(
        typo, monkeypatch):
    # a mistyped name used to reach the cycle-end update, whose error the
    # engine keeps as a note, so the solve silently ran with k = 0; each
    # mode has one extraction, so a source is no keyword at all
    def no_product(*args):
        raise AssertionError("an operator product ran before the check")

    monkeypatch.setattr("shiftkrylov.arnoldi.block_matvec", no_product)
    a = generate_convection_diffusion(5, 10.0)
    b = np.random.default_rng(3).standard_normal((25, 2))
    fam = ShiftedFamily(a, [0.1, 0.2], b, None)
    cfg = SolverConfig(cycle_length=5, tolerance=1e-8, max_cycles=3)
    if "mode" in typo:
        with pytest.raises(DimensionError, match="unknown recycle mode"):
            rsbgmres(fam, cfg, None, k=4, **typo)
        with pytest.raises(DimensionError, match="unknown recycle mode"):
            rgmres_baseline(a, b[:, 0], None, cfg, k=4, **typo)
    else:
        with pytest.raises(TypeError, match="'source'"):
            rsbgmres(fam, cfg, None, k=4, **typo)


def test_sequential_rgmres_total_not_worse_than_gmres():
    # a sequence of closely related shifted systems: recycling across the
    # sequence should not increase the total work
    from shiftkrylov import shift_rebase
    a = generate_convection_diffusion(12, 80.0)
    n = a.n_rows
    rng = np.random.default_rng(30)
    shifts = [1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3]
    b = rng.standard_normal((n, len(shifts)))
    b /= np.linalg.norm(b, axis=0)[None, :]
    cfg = SolverConfig(cycle_length=10, tolerance=1e-8, max_cycles=200,
                       seed=4)
    total_plain = 0
    for i, s in enumerate(shifts):
        _, rep = gmres_restarted(add_shift(a, s), b[:, i], None, cfg)
        total_plain += rep.matvecs
    total_recycled = 0
    space = None
    prev = 0.0
    for i, s in enumerate(shifts):
        a_i = add_shift(a, s)
        space_i = shift_rebase(space, s - prev) \
            if (space is not None and space.k) else None
        _, rep, space = rgmres_baseline(a_i, b[:, i], None, cfg, space_i,
                                        k=8, mode="harmonic-ritz-smallest")
        prev = s
        total_recycled += rep.matvecs
    assert total_recycled <= total_plain


def test_update_recycle_space_ritz_directions():
    a = SparseMatrix.diagonal(np.arange(1.0, 9.0))
    rng = np.random.default_rng(31)
    r0 = rng.standard_normal((8, 2))
    arn = block_arnoldi(a, r0, 4)   # full grade: span is all of C^8
    space = update_recycle_space(arn, "ritz-largest", 2)
    assert space.provenance == "ritz-largest"
    # at full grade the Ritz pairs are exact: directions e8, e7
    got = np.abs(space.u / np.linalg.norm(space.u, axis=0)[None, :])
    assert np.arccos(min(1.0, got[7, 0])) <= 1e-4
    assert np.arccos(min(1.0, got[6, 1])) <= 1e-4
    ad = a.to_dense()
    assert np.linalg.norm(ad @ space.u - space.c) <= 1e-10 * a.frobenius_norm


def test_update_recycle_space_k0_empty():
    a = SparseMatrix.diagonal(np.arange(1.0, 9.0))
    r0 = np.random.default_rng(32).standard_normal((8, 2))
    arn = block_arnoldi(a, r0, 2)
    space = update_recycle_space(arn, "harmonic-ritz-smallest", 0)
    assert space.k == 0 and space.provenance == "harmonic-ritz-smallest"


def test_update_recycle_space_keeps_the_space_invariants_in_both_modes():
    a = random_sparse(20, seed=33, diag_boost=5.0)
    space = _space(a, 3, seed=34)
    rng = np.random.default_rng(35)
    r0 = rng.standard_normal((20, 2)).astype(complex)
    r0 -= space.c @ (space.c.conj().T @ r0)
    arn = block_arnoldi(a, r0, 4, projector=space)
    ad = a.to_dense()
    for mode in ("ritz-largest", "harmonic-ritz-smallest"):
        out = update_recycle_space(arn, mode, 3, space)
        assert out.k == 3
        assert np.linalg.norm(ad @ out.u - out.c) <= 1e-9 * a.frobenius_norm
        gram = out.c.conj().T @ out.c
        assert np.linalg.norm(gram - np.eye(3)) <= 1e-9
        # one extraction per mode: no source to choose
        with pytest.raises(TypeError):
            update_recycle_space(arn, mode, 3, space, source="augmented")


def test_harmonic_refresh_keeps_an_exact_invariant_space():
    # U = [e1 e2] spans the eigenvectors of the two smallest eigenvalues:
    # the extraction over [W U] finds them again, whereas one over the
    # Krylov block alone (orthogonal to C = U here) cannot
    d = np.concatenate(([0.5, 0.7], np.linspace(5.0, 50.0, 38)))
    a = SparseMatrix.diagonal(d)
    space = RecycleSpace.from_basis(a, np.eye(40)[:, :2])
    r0 = np.random.default_rng(39).standard_normal((40, 2))
    r0 -= space.c @ (space.c.T @ r0)
    arn = block_arnoldi(a, r0, 4, projector=space)
    out = update_recycle_space(arn, "harmonic-ritz-smallest", 2, space)
    assert out.k == 2
    assert subspace_angles(out.u, np.eye(40)[:, :2]).max() <= 1e-8


def test_harmonic_refresh_without_space_matches_a_dense_oracle():
    # with no recycle columns the harmonic Ritz vectors are W g for the
    # smallest eigenpairs of H + H^-* E h* h E^T (h the last subdiagonal
    # block, E the last L unit columns)
    a = random_sparse(30, seed=40, diag_boost=3.0)
    rng = np.random.default_rng(41)
    ell, m, k = 2, 5, 3
    r0 = rng.standard_normal((30, ell)) + 1j * rng.standard_normal((30, ell))
    arn = block_arnoldi(a, r0, m)
    jl = m * ell
    h_sq, h = arn.hess[:jl], arn.hess[jl:, jl - ell:]
    e = np.eye(jl)[:, -ell:]
    dense = h_sq + np.linalg.solve(h_sq.conj().T, e @ h.conj().T @ h @ e.T)
    vals, vecs = np.linalg.eig(dense)
    order = np.lexsort((vals.imag, vals.real, np.abs(vals)))[:k]
    out = update_recycle_space(arn, "harmonic-ritz-smallest", k)
    assert subspace_angles(out.u, arn.w @ vecs[:, order]).max() <= 1e-8
    ad = a.to_dense()
    assert np.linalg.norm(ad @ out.u - out.c) <= 1e-9 * a.frobenius_norm


def test_refresh_raises_on_a_direction_whose_image_vanishes():
    # A has the null vector e1, which the Krylov space of e1 + e2 + e3
    # holds: at k = 1 the rank test used to compare R's one diagonal
    # entry with itself and folded 1 / R ~ 1e15 into U
    a = SparseMatrix.diagonal(np.arange(6.0))
    v = np.zeros((6, 1))
    v[:3] = 1.0
    arn = block_arnoldi(a, v, 3)
    try:
        out = update_recycle_space(arn, "harmonic-ritz-smallest", 1)
    except NearSingularError:
        pass
    else:
        assert np.linalg.norm(a.to_dense() @ out.u - out.c) \
            <= 1e-9 * a.frobenius_norm
    # the engine keeps its previous (empty) space and says so
    fam = ShiftedFamily(a, [0.5], v, None)
    cfg = SolverConfig(cycle_length=3, tolerance=1e-10, max_cycles=3)
    _, rep, space = rsbgmres(fam, cfg, None, k=1,
                             mode="harmonic-ritz-smallest")
    assert rep.converged == [True]
    assert space.k == 0
    assert any("recycle update failed" in note for note in rep.notes)


def test_ritz_values_approach_extremes():
    # largest Ritz values of the diagonal operator approach {8, 7}
    a = SparseMatrix.diagonal(np.arange(1.0, 9.0))
    v = np.random.default_rng(36).standard_normal((8, 1))
    arn = block_arnoldi(a, v, 8)
    from shiftkrylov import hessenberg_eigen
    j = arn.steps
    pairs = hessenberg_eigen(arn.hess[:j, :], 2)
    assert sorted(np.real(pairs.values), reverse=True) == \
        pytest.approx([8.0, 7.0], abs=1e-4)


def test_space_serialization_roundtrip(tmp_path):
    a = random_sparse(14, seed=37, diag_boost=4.0)
    space = _space(a, 3, seed=38)
    # a space is stored as its basis U, by any Matrix Market writer
    path = tmp_path / "space.mtx"
    scipy.io.mmwrite(path, space.u)
    loaded = load_recycle_space(path, a)
    # C is recomputed on load, invariants re-established
    ad = a.to_dense()
    assert np.linalg.norm(ad @ loaded.u - loaded.c) <= 1e-10 * a.frobenius_norm
    assert subspace_angles(space.u, loaded.u).max() <= 1e-8
