"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime (run with ``pytest tests/test_acceptance.py -s``
to see them).  Tolerances are pinned here and nowhere else."""

import time

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from shiftkrylov import (RecycleSpace, ShiftedFamily, SolverConfig, add_shift,
                         fom_restarted, generate_convection_diffusion,
                         gmres_restarted, oblique_project_shift, rsbgmres,
                         sbfom, sbgmres, sfom, sgmres)
from shiftkrylov.harness import (ExperimentConfig, build_rhs, run_experiment,
                                 run_method, run_smooth_parameter_protocol,
                                 smooth_rhs)

from conftest import block_arnoldi, projected_sylvester_powers, random_sparse


def _report(num, text, t0):
    print(f"\nACCEPTANCE {num} PASS ({time.monotonic() - t0:.1f}s): {text}")


def _space_from_random(a, k, seed):
    rng = np.random.default_rng(seed)
    return RecycleSpace.from_basis(a, rng.standard_normal((a.n_rows, k)))


def test_criterion_01_arnoldi_relations():
    t0 = time.monotonic()
    budget = 5.0
    a = random_sparse(200, density=0.05, seed=1, diag_boost=3.0)
    ad = a.to_dense()
    fro = a.frobenius_norm
    # single vector: the block process at block size one
    v = np.random.default_rng(2).standard_normal(200)
    st = block_arnoldi(a, v, 10)
    assert st.block_size == 1 and st.basis.shape == (200, 11)
    assert np.linalg.norm(ad @ st.w - st.basis @ st.hess) <= 1e-9 * fro
    g = st.basis.conj().T @ st.basis
    assert np.linalg.norm(g - np.eye(g.shape[0])) <= 1e-10
    # block, unprojected
    for ell, m in ((2, 10), (4, 5), (4, 10)):
        r0 = np.random.default_rng(ell * m).standard_normal((200, ell))
        bs = block_arnoldi(a, r0, m)
        assert np.linalg.norm(ad @ bs.w - bs.basis @ bs.hess) <= 1e-9 * fro
        g = bs.basis.conj().T @ bs.basis
        assert np.linalg.norm(g - np.eye(g.shape[0])) <= 1e-10
    # block, projected
    space = _space_from_random(a, 5, seed=3)
    proj = np.eye(200) - space.c @ space.c.conj().T
    r0 = np.random.default_rng(9).standard_normal((200, 3)).astype(complex)
    r0 -= space.c @ (space.c.conj().T @ r0)
    bs = block_arnoldi(a, r0, 8, projector=space)
    assert np.linalg.norm(proj @ ad @ bs.w - bs.basis @ bs.hess) <= 1e-9 * fro
    g = bs.basis.conj().T @ bs.basis
    assert np.linalg.norm(g - np.eye(g.shape[0])) <= 1e-10
    assert np.linalg.norm(bs.coupling - space.c.conj().T @ ad @ bs.w) \
        <= 1e-9 * fro
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _report(1, "Arnoldi relations and orthonormality, single/block, "
               "projected/unprojected", t0)


def test_criterion_02_shift_invariance():
    t0 = time.monotonic()
    budget = 5.0
    j = 3
    for trial in range(5):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(20, 40))
        ell = int(rng.integers(1, 4))
        a = random_sparse(n, density=0.3, seed=200 + trial, diag_boost=4.0)
        sigma = complex(rng.standard_normal(), rng.standard_normal())
        r0 = rng.standard_normal((n, ell))
        plain = block_arnoldi(a, r0, j)
        shifted_a = add_shift(a, sigma)
        moved = block_arnoldi(shifted_a, r0, j)
        assert subspace_angles(plain.w, moved.w).max() <= 1e-8
        # projected Sylvester-operator invariance
        k = 3
        space = _space_from_random(a, k, seed=300 + trial)
        v = rng.standard_normal((n, ell)).astype(complex)
        v -= space.c @ (space.c.conj().T @ v)
        ad = a.to_dense()
        dtilde = np.diag(rng.standard_normal(ell))
        q_syl = projected_sylvester_powers(ad, space.c, dtilde, v, j)
        q_mat = projected_sylvester_powers(ad, space.c,
                                           np.zeros((ell, ell)), v, j)
        assert subspace_angles(q_syl, q_mat).max() <= 1e-8
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _report(2, "block Krylov shift invariance and projected Sylvester "
               "invariance, 5 random triples", t0)


@pytest.mark.parametrize("m,ell", [(3, 2), (4, 3)])
def test_criterion_03_kronecker_decoupling(m, ell):
    t0 = time.monotonic()
    budget = 1.0
    rng = np.random.default_rng(m * 7 + ell)
    n = 24
    a = random_sparse(n, density=0.4, seed=m + 2 * ell, diag_boost=4.0)
    shifts = rng.standard_normal(ell) + 2.0
    b = rng.standard_normal((n, ell))
    fam = ShiftedFamily(a, shifts, b, None)
    cfg = SolverConfig(cycle_length=m, tolerance=1e-30, max_cycles=1, seed=0)
    x_g, _ = sbgmres(fam, cfg)
    x_f, _ = sbfom(fam, cfg)

    arn = block_arnoldi(a, b, m)
    jl = m * ell
    pad = np.zeros(((m + 1) * ell, jl))
    pad[:jl, :] = np.eye(jl)
    g_block = np.zeros(((m + 1) * ell, ell), dtype=complex)
    g_block[:ell, :] = arn.s0

    # coupled brute force, least squares (minimum-residual method)
    big = np.kron(np.eye(ell), arn.hess) + np.kron(np.diag(shifts), pad)
    y = np.linalg.lstsq(big, g_block.T.reshape(-1), rcond=None)[0]
    x_expect = arn.w @ y.reshape(ell, jl).T
    assert np.linalg.norm(x_g - x_expect) <= 1e-10 * max(
        1.0, np.linalg.norm(x_expect))

    # coupled brute force, square system (Galerkin method)
    big_sq = np.kron(np.eye(ell), arn.hess[:jl, :]) \
        + np.kron(np.diag(shifts), np.eye(jl))
    y_sq = np.linalg.solve(big_sq, g_block[:jl, :].T.reshape(-1))
    x_expect = arn.w @ y_sq.reshape(ell, jl).T
    assert np.linalg.norm(x_f - x_expect) <= 1e-10 * max(
        1.0, np.linalg.norm(x_expect))
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _report(3, f"Kronecker decoupling oracle at (m, L) = ({m}, {ell})", t0)


def test_criterion_04_dominance():
    t0 = time.monotonic()
    budget = 30.0
    cases = [(8, 0.0, 41), (8, 20.0, 42), (10, 40.0, 43)]
    for grid, convection, seed in cases:
        a = generate_convection_diffusion(grid, convection)
        n = a.n_rows
        rng = np.random.default_rng(seed)
        shifts = np.array([1e-3, 1e-2, 1e-1, 1.0])
        b = rng.standard_normal((n, 4))
        b /= np.linalg.norm(b, axis=0)[None, :]
        fam = ShiftedFamily(a, shifts, b, None)
        cfg = SolverConfig(cycle_length=n + 10, tolerance=1e-9,
                           max_cycles=1, seed=1)
        _, rep_b = sbgmres(fam, cfg)
        st_b = rep_b.steps
        for i, sigma in enumerate(shifts):
            _, rep_s = gmres_restarted(add_shift(a, sigma), b[:, i],
                                       None, cfg)
            st_s = rep_s.steps
            hb = st_b.resid[st_b.recorded[:, i], i]
            hs = st_s.resid[st_s.recorded[:, 0], 0]
            upto = min(len(hb), len(hs))
            assert np.all(hb[:upto] <= hs[:upto] * (1 + 1e-8) + 1e-12), \
                f"dominance violated: grid {grid}, shift {sigma}"
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _report(4, "per-iteration block residual dominance over single-vector "
               "GMRES on 3 families", t0)


def test_criterion_05_rsbgmres_optimality():
    t0 = time.monotonic()
    budget = 30.0
    for (grid, convection, k, m, seed) in ((8, 25.0, 4, 5, 61),
                                           (10, 15.0, 8, 6, 62)):
        a = generate_convection_diffusion(grid, convection)
        n = a.n_rows
        rng = np.random.default_rng(seed)
        shifts = np.array([1e-3, 1e-1])
        b = rng.standard_normal((n, 2))
        fam = ShiftedFamily(a, shifts, b, None)
        space = _space_from_random(a, k, seed + 1)
        cfg = SolverConfig(cycle_length=m, tolerance=1e-30, max_cycles=1,
                           seed=9)
        _, rep, _ = rsbgmres(fam, cfg, space, update=False)
        ad = a.to_dense()
        r_hat = np.empty((n, 2), dtype=complex)
        for i, s in enumerate(shifts):
            r_hat[:, i], _ = oblique_project_shift(
                space, s, b[:, i], np.zeros(n, dtype=complex))
        arn = block_arnoldi(a, r_hat, m, projector=space)
        for i, s in enumerate(shifts):
            basis = np.hstack([space.u, arn.w])
            image = (ad + s * np.eye(n)) @ basis
            sol = np.linalg.lstsq(image, r_hat[:, i], rcond=None)[0]
            opt = np.linalg.norm(r_hat[:, i] - image @ sol)
            got = rep.final_residuals[i]
            assert abs(got - opt) <= 1e-8 * max(np.linalg.norm(b[:, i]), 1.0)
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _report(5, "cycle-end residuals match dense least squares over "
               "[U | W_m], k in {4, 8}", t0)


def test_criterion_06_oblique_projector_suite():
    t0 = time.monotonic()
    budget = 5.0
    a = random_sparse(30, density=0.25, seed=71, diag_boost=4.0)
    ad = a.to_dense()
    space = _space_from_random(a, 4, seed=72)
    rng = np.random.default_rng(73)
    for sigma in (0.0, 0.37, -0.2 + 0.5j):
        r = rng.standard_normal(30).astype(complex)
        x = rng.standard_normal(30).astype(complex)
        b = r + (ad + sigma * np.eye(30)) @ x
        r1, x1 = oblique_project_shift(space, sigma, r, x)
        # range/kernel containment
        assert np.abs(space.c.conj().T @ r1).max() <= 1e-12 * np.linalg.norm(r)
        # idempotence
        r2, x2 = oblique_project_shift(space, sigma, r1, x1)
        assert np.linalg.norm(r2 - r1) <= 1e-12 * max(1.0, np.linalg.norm(r1))
        assert np.linalg.norm(x2 - x1) <= 1e-12 * max(1.0, np.linalg.norm(x1))
        # consistency of the pair
        resid = b - (ad + sigma * np.eye(30)) @ x1
        assert np.linalg.norm(resid - r1) <= 1e-8 * np.linalg.norm(b)
        if sigma == 0.0:
            expect = r - space.c @ (space.c.conj().T @ r)
            assert np.linalg.norm(r1 - expect) <= 1e-12 * np.linalg.norm(r)
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _report(6, "oblique projector idempotence, containment, zero-shift "
               "degeneration, consistency", t0)


def test_criterion_07_degenerate_equivalences():
    t0 = time.monotonic()
    budget = 10.0
    a = generate_convection_diffusion(8, 20.0)
    rng = np.random.default_rng(81)
    b = rng.standard_normal((64, 3))
    fam = ShiftedFamily(a, [1e-3, 1e-2, 1e-1], b, None)
    cfg = SolverConfig(cycle_length=12, tolerance=1e-8, max_cycles=40,
                       seed=5)
    # k = 0 recycled == plain block
    x1, rep1 = sbgmres(fam, cfg)
    x2, rep2, _ = rsbgmres(fam, cfg, None, k=0, update=False)
    assert np.array_equal(x1, x2)
    assert rep1.rows == rep2.rows
    assert (rep1.matvecs, rep1.block_matvecs, rep1.cycles) == \
        (rep2.matvecs, rep2.block_matvecs, rep2.cycles)
    # L = 1 block == single-vector, on the shifted matrix (exact reports)
    sigma = 0.05
    a_shift = add_shift(a, sigma)
    fam1 = ShiftedFamily(a_shift, [0.0], b[:, :1], None)
    xb, repb = sbgmres(fam1, cfg)
    xg, repg = gmres_restarted(a_shift, b[:, 0], None, cfg)
    assert np.array_equal(xb[:, 0], xg) and repb.rows == repg.rows
    xb, repb = sbfom(fam1, cfg)
    xf, repf = fom_restarted(a_shift, b[:, 0], None, cfg)
    assert np.array_equal(xb[:, 0], xf) and repb.rows == repf.rows
    # and the nonzero-shift family agrees with the explicitly shifted run
    fam_s = ShiftedFamily(a, [sigma], b[:, :1], None)
    xs, reps = sbgmres(fam_s, cfg)
    assert reps.matvecs == repg.matvecs
    assert np.allclose(xs[:, 0], xg, rtol=1e-9, atol=1e-11)
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _report(7, "k=0 recycled == block, L=1 block == single vector, "
               "exact reports", t0)


def test_criterion_08_baseline_collinearity():
    t0 = time.monotonic()
    budget = 30.0
    a = generate_convection_diffusion(10, 40.0)   # positive real
    n = a.n_rows
    rng = np.random.default_rng(91)
    b = np.tile(rng.standard_normal((n, 1)), (1, 3))
    shifts = np.array([1e-4, 1e-3, 1e-2])         # all positive
    fam = ShiftedFamily(a, shifts, b, None)

    def _sin(u, v):
        u = u / np.linalg.norm(u)
        v = v / np.linalg.norm(v)
        return np.linalg.norm(u - np.vdot(v, u) * v)

    # sFOM: residuals parallel to the shared last Arnoldi vector at every
    # cycle end
    m = 10
    for cycles in (1, 2, 3):
        cfg = SolverConfig(cycle_length=m, tolerance=1e-12,
                           max_cycles=cycles, seed=1)
        x, rep = sfom(fam, cfg)
        r = fam.residual_block(x)
        for i in range(1, 3):
            assert _sin(r[:, 0], r[:, i]) <= 1e-8
        if cycles == 1:
            st = block_arnoldi(a, b[:, 0], m)
            v_next = st.basis[:, m]
            for i in range(3):
                assert _sin(r[:, i], v_next) <= 1e-8
    # sGMRES: pairwise collinearity at every restart
    for cycles in (1, 2, 3):
        cfg = SolverConfig(cycle_length=m, tolerance=1e-12,
                          max_cycles=cycles, seed=1)
        x, rep = sgmres(fam, cfg)
        r = fam.residual_block(x)
        for i in range(1, 3):
            assert _sin(r[:, 0], r[:, i]) <= 1e-8
    # existence and convergence on the positive-real family
    cfg = SolverConfig(cycle_length=20, tolerance=1e-8, max_cycles=120,
                       seed=1)
    _, rep_g = sgmres(fam, cfg)
    assert rep_g.converged == [True, True, True]
    _, rep_f = sfom(fam, cfg)
    assert rep_f.converged == [True, True, True]
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _report(8, "collinear-baseline residual geometry and positive-real "
               "convergence", t0)


def _edge_family_config(grid, convection, frac, m, solver_seed, rhs_seed,
                        methods):
    """Families shifted near the spectrum edge: the regime where shared
    block information and recycling pay off."""
    a = generate_convection_diffusion(grid, convection)
    herm = (a.to_dense() + a.to_dense().conj().T) / 2
    lmin = float(np.linalg.eigvalsh(herm).min())
    base = -frac * lmin
    shifts = tuple(base + d * lmin for d in (1e-4, 2e-4, 1e-2, 2e-2))
    cfg = ExperimentConfig(shifts=shifts, rhs_mode="unrelated-random",
                           rhs_seed=rhs_seed, methods=methods, recycle_k=8,
                           grid_m=grid, convection=convection,
                           solver=SolverConfig(cycle_length=m,
                                               tolerance=1e-8,
                                               max_cycles=300,
                                               seed=solver_seed))
    return a, cfg


def test_criterion_09_qualitative_table_ordering():
    t0 = time.monotonic()
    budget = 120.0
    methods = ("sbgmres", "seq-gmres", "rsbgmres-ritz", "rsbgmres-harmonic")
    cases = [(12, 0.0, 0.9, 15, 11, 19),
             (14, 0.0, 0.9, 15, 5, 21),
             (12, 5.0, 0.85, 15, 3, 9)]
    wins_block = 0
    wins_recycle = 0
    harmonic_report = []
    for grid, convection, frac, m, seed, rhs_seed in cases:
        a, cfg = _edge_family_config(grid, convection, frac, m, seed,
                                     rhs_seed, methods)
        shifts = np.asarray(cfg.shifts)
        fam = ShiftedFamily(a, shifts, build_rhs(cfg, a, shifts), None)
        totals = {}
        for meth in methods:
            res = run_method(meth, cfg, a, fam)
            assert res.converged_count == 4, (meth, grid)
            totals[meth] = res.matvecs + res.extra_matvecs
        wins_block += totals["sbgmres"] < totals["seq-gmres"]
        wins_recycle += totals["rsbgmres-ritz"] <= totals["sbgmres"]
        harmonic_report.append(
            (grid, totals["rsbgmres-harmonic"], totals["sbgmres"]))
    assert wins_block >= 2
    assert wins_recycle >= 2
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _report(9, f"matvec ordering block < sequential ({wins_block}/3) and "
               f"recycled <= block ({wins_recycle}/3); harmonic totals "
               f"reported, not gated: {harmonic_report}", t0)


def test_criterion_10_smooth_parameter_protocol(tmp_path):
    t0 = time.monotonic()
    budget = 120.0
    cfg = ExperimentConfig(out_dir=str(tmp_path / "smooth"), grid_m=20,
                           convection=10.0, smooth_count=100,
                           smooth_n_seed=10, group_size=10, rhs_seed=7,
                           solver=SolverConfig(cycle_length=20,
                                               tolerance=1e-8,
                                               max_cycles=60, seed=11))
    outcome = run_smooth_parameter_protocol(cfg)
    assert outcome["iteration_ratio"] < 0.25
    # dimension report matches an independent dense SVD oracle exactly
    a = generate_convection_diffusion(20, 10.0)
    n = 400
    rng = np.random.default_rng(7)
    shifts = rng.uniform(1.0, 2.0, 100)
    rhs = np.column_stack([smooth_rhs(n, s) for s in shifts])
    ad = a.to_dense()
    sols = np.column_stack([
        np.linalg.solve(ad + s * np.eye(n), rhs[:, i])
        for i, s in enumerate(shifts)])
    svals = np.linalg.svd(sols, compute_uv=False)
    dim = int(np.count_nonzero(svals > 1e-10 * svals[0]))
    assert outcome["solution_subspace_dimension"] == dim
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _report(10, f"solution seeding cut mean group iterations to "
                f"{outcome['iteration_ratio']:.3f} of baseline; subspace "
                f"dimension {dim} matches the SVD oracle", t0)


def test_criterion_11_determinism(tmp_path):
    t0 = time.monotonic()
    budget = 60.0
    base = ExperimentConfig(grid_m=10, convection=20.0,
                            shifts=(1e-3, 1e-2, 1e-1),
                            rhs_mode="shared-random", rhs_seed=13,
                            methods=("sbgmres", "rsbgmres"), recycle_k=4,
                            strategy="fom-random-block",
                            solver=SolverConfig(cycle_length=10,
                                                tolerance=1e-8,
                                                max_cycles=60, seed=23),
                            out_dir="unused")
    outs = []
    for run in (1, 2):
        out = tmp_path / f"run{run}"
        cfg = ExperimentConfig(**{**vars(base), "out_dir": str(out)})
        _, failures = run_experiment(cfg)
        assert failures == []
        outs.append(out)
    for name in ("sbgmres.csv", "rsbgmres.csv", "sbgmres_joint.csv",
                 "rsbgmres_joint.csv", "summary.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _report(11, "byte-identical CSV artifacts across repeated runs", t0)
