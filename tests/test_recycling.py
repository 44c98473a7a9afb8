import numpy as np
import pytest

from shiftkrylov import (DimensionError, NearSingularError, RecycleSpace,
                         ShiftedFamily, SolverConfig, SparseMatrix, add_shift,
                         block_arnoldi,
                         generate_convection_diffusion, gmres_restarted,
                         load_recycle_space, oblique_project_shift,
                         orthogonal_residual_projection, rgmres_baseline,
                         rsbgmres, save_recycle_space, sbgmres,
                         update_recycle_space)
from shiftkrylov.recycling import (assemble_augmented, augmentation_blocks,
                                   shifted_hessenberg)

from conftest import random_sparse


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
    with pytest.raises(NearSingularError):
        RecycleSpace.from_basis(a, basis)
    space = RecycleSpace.from_basis(a, basis, drop_tol=1e-10)
    assert space.k == 3


def test_orthogonal_projection_properties():
    a = random_sparse(18, seed=6, diag_boost=4.0)
    space = _space(a, 3)
    rng = np.random.default_rng(7)
    r = rng.standard_normal((18, 2)).astype(complex)
    r_perp = r - space.c @ (space.c.conj().T @ r)
    # fixed point on the orthogonal complement
    out = orthogonal_residual_projection(space, r_perp)
    assert np.linalg.norm(out - r_perp) <= 1e-14 * np.linalg.norm(r_perp)
    # kernel direction maps to zero
    out = orthogonal_residual_projection(space, space.c[:, :1])
    assert np.linalg.norm(out) <= 1e-12
    # general input lands orthogonal to C
    out = orthogonal_residual_projection(space, r)
    assert np.abs(space.c.conj().T @ out).max() <= 1e-12


def test_oblique_zero_shift_degenerates_to_orthogonal():
    a = random_sparse(16, seed=8, diag_boost=4.0)
    space = _space(a, 3)
    rng = np.random.default_rng(9)
    r = rng.standard_normal(16).astype(complex)
    x = rng.standard_normal(16).astype(complex)
    r_hat, x_hat = oblique_project_shift(space, 0.0, r, x, a)
    expect = orthogonal_residual_projection(space, r[:, None])[:, 0]
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
    r_hat, x_hat = oblique_project_shift(space, sigma, r, x, a)
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
    r1, x1 = oblique_project_shift(space, sigma, r, x, a)
    r2, x2 = oblique_project_shift(space, sigma, r1, x1, a)
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
                              np.zeros(12, dtype=complex), a)


def test_augmented_operator_zero_shift_collapses():
    a = random_sparse(18, seed=16, diag_boost=4.0)
    space = _space(a, 3)
    rng = np.random.default_rng(17)
    r0 = rng.standard_normal((18, 2)).astype(complex)
    r0 -= space.c @ (space.c.conj().T @ r0)
    arn = block_arnoldi(a, r0, 3, projector=space, seed=0)
    blocks = augmentation_blocks(space, arn.basis)
    g_bar = assemble_augmented(arn.hess, arn.coupling, blocks, 2, 0.0)
    k = 3
    # bottom sigma*N block vanishes
    assert np.linalg.norm(g_bar[-k:, :]) == 0.0
    # the relation reduces to the unshifted augmented relation
    ad = a.to_dense()
    concat = np.hstack([arn.basis, space.c, blocks.u_hat])
    lhs = ad @ np.hstack([arn.w, space.u])
    assert np.linalg.norm(lhs - concat @ g_bar) <= 1e-9 * a.frobenius_norm


def test_augmented_operator_empty_space_is_plain_hessenberg():
    a = random_sparse(18, seed=18, diag_boost=4.0)
    r0 = np.random.default_rng(19).standard_normal((18, 2))
    arn = block_arnoldi(a, r0, 3, seed=0)
    blocks = augmentation_blocks(RecycleSpace.empty(18), arn.basis)
    # no recycle directions: the unprojected state carries a 0 x 3L
    # coupling, so there are no coupling rows and no trailing columns
    assert arn.coupling.shape == (0, arn.hess.shape[1])
    g_bar = assemble_augmented(arn.hess, arn.coupling, blocks, 2, 0.25)
    assert np.array_equal(g_bar, shifted_hessenberg(arn.hess, 2, 0.25))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_padding_filler_stays_zero_when_the_space_is_exhausted(dtype):
    # n = 2: [W C] = [e1 e2] spans everything, so U = e2 is contained and
    # no filler direction is left; the Uhat column stays zero and
    # [W C U] = [W C Uhat] T holds exactly
    phase = 1.0 if dtype == np.float64 else 1j
    e1, e2 = np.eye(2)[:, :1].astype(dtype), np.eye(2)[:, 1:]
    space = RecycleSpace(phase * e2, phase * e2)
    blocks = augmentation_blocks(space, e1, pad_seed=7)
    assert blocks.padded == (0,)
    assert blocks.u_hat.dtype == dtype
    assert np.array_equal(blocks.u_hat, np.zeros((2, 1)))
    assert np.array_equal(blocks.n_factor, np.zeros((1, 1)))
    rebuilt = (e1 @ blocks.p + space.c @ blocks.q2
               + blocks.u_hat @ blocks.n_factor)
    assert np.array_equal(rebuilt, space.u)


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
    arn = block_arnoldi(a, r0, 4, projector=space, seed=0)
    sigma = 0.3
    blocks = augmentation_blocks(space, arn.basis)
    g_bar = assemble_augmented(arn.hess, arn.coupling, blocks, 2, sigma)
    ad = a.to_dense()
    concat = np.hstack([arn.basis, space.c, blocks.u_hat])
    lhs = (ad + sigma * np.eye(22)) @ np.hstack([arn.w, space.u])
    rel = np.linalg.norm(lhs - concat @ g_bar)
    assert rel <= 1e-9 * (a.frobenius_norm + abs(sigma))


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
            space, s, b[:, i], np.zeros(n, dtype=complex), a)
    arn = block_arnoldi(a, r_hat, m, projector=space, seed=0)
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
    x2, rep2, _ = rgmres_baseline(a, b, None, cfg, None, k=0, update=False)
    assert np.array_equal(x1, x2)
    assert rep1.rows == rep2.rows


def test_rgmres_perfect_space_immediate():
    a = random_sparse(15, seed=28, diag_boost=5.0)
    ad = a.to_dense()
    b = np.random.default_rng(29).standard_normal(15)
    sol = np.linalg.solve(ad, b)
    space = RecycleSpace.from_basis(a, sol[:, None], "solutions")
    cfg = SolverConfig(cycle_length=8, tolerance=1e-8, max_cycles=10)
    x, rep, _ = rgmres_baseline(a, b, None, cfg, space, update=False)
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
    from shiftkrylov import subspace_equality_angle
    qa, _ = np.linalg.qr(space.u)
    qb, _ = np.linalg.qr(moved.u)
    assert subspace_equality_angle(qa, qb) <= 1e-10


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
    arn = block_arnoldi(a, r0, 4, seed=0)   # full grade: span is all of C^8
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
    arn = block_arnoldi(a, r0, 2, seed=0)
    space = update_recycle_space(arn, "harmonic-ritz-smallest", 0)
    assert space.k == 0 and space.provenance == "harmonic-ritz-smallest"


def test_update_recycle_space_harmonic_and_augmented_sources():
    a = random_sparse(20, seed=33, diag_boost=5.0)
    space = _space(a, 3, seed=34)
    rng = np.random.default_rng(35)
    r0 = rng.standard_normal((20, 2)).astype(complex)
    r0 -= space.c @ (space.c.conj().T @ r0)
    arn = block_arnoldi(a, r0, 4, projector=space, seed=0)
    ad = a.to_dense()
    for mode in ("ritz-largest", "harmonic-ritz-smallest"):
        for source in ("hessenberg", "augmented"):
            out = update_recycle_space(arn, mode, 3, space, source=source)
            assert out.k == 3
            assert np.linalg.norm(ad @ out.u - out.c) \
                <= 1e-9 * a.frobenius_norm
            gram = out.c.conj().T @ out.c
            assert np.linalg.norm(gram - np.eye(3)) <= 1e-9


def test_ritz_values_approach_extremes():
    # largest Ritz values of the diagonal operator approach {8, 7}
    a = SparseMatrix.diagonal(np.arange(1.0, 9.0))
    v = np.random.default_rng(36).standard_normal((8, 1))
    arn = block_arnoldi(a, v, 8, seed=0)
    from shiftkrylov import hessenberg_eigen
    j = arn.steps
    pairs = hessenberg_eigen(arn.hess[:j, :], "largest", 2)
    assert sorted(np.real(pairs.values), reverse=True) == \
        pytest.approx([8.0, 7.0], abs=1e-4)


def test_space_serialization_roundtrip(tmp_path):
    a = random_sparse(14, seed=37, diag_boost=4.0)
    space = _space(a, 3, seed=38)
    path = tmp_path / "space.mtx"
    save_recycle_space(path, space)
    loaded = load_recycle_space(path, a, provenance="initial")
    # C is recomputed on load, invariants re-established
    ad = a.to_dense()
    assert np.linalg.norm(ad @ loaded.u - loaded.c) <= 1e-10 * a.frobenius_norm
    from shiftkrylov import subspace_equality_angle
    qs, _ = np.linalg.qr(space.u)
    ql, _ = np.linalg.qr(loaded.u)
    assert subspace_equality_angle(qs, ql) <= 1e-8
