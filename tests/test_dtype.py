"""One working dtype per family: a real family (real matrix, shifts,
right-hand sides and initial guess) runs in float64 end to end, a family
with any complex input in complex128, and both run the same arithmetic."""

import numpy as np
import pytest

from shiftkrylov import (RecycleSpace, ShiftedFamily, SolverConfig,
                         generate_convection_diffusion, rsbgmres, sbfom,
                         sbgmres, sfom, sgmres, update_recycle_space)
from shiftkrylov.dense import hessenberg_eigen

from conftest import block_arnoldi, random_sparse

THETA = 0.7
SHIFTS = [0.05, 0.5, 2.0, 8.0]
SOLVERS = ("sbgmres", "sbfom", "rsbgmres", "sgmres", "sfom")


def _solve(name, family, cfg):
    if name == "rsbgmres":
        # a fixed real space: a recycle update that splits a conjugate
        # pair drops it in real arithmetic but keeps one member in complex
        # arithmetic, so updated spaces may differ by design
        basis = np.random.default_rng(6).standard_normal((family.n, 4))
        space = RecycleSpace.from_basis(family.matrix, basis)
        x, rep, _ = rsbgmres(family, cfg, space, k=4, update=False)
        return x, rep
    return {"sbgmres": sbgmres, "sbfom": sbfom, "sgmres": sgmres,
            "sfom": sfom}[name](family, cfg)


def _real_family(name, phase=1.0, shifts=SHIFTS):
    a = generate_convection_diffusion(7, 10.0)
    rng = np.random.default_rng(3)
    if name in ("sgmres", "sfom"):
        # the collinear baselines need one shared right-hand side
        b = np.tile(rng.standard_normal((a.n_rows, 1)), (1, len(shifts)))
    else:
        b = rng.standard_normal((a.n_rows, len(shifts)))
    return ShiftedFamily(a, shifts, b * phase, None)


@pytest.mark.parametrize("name", SOLVERS)
def test_real_and_rotated_complex_family_agree(name):
    # B e^{i theta} runs the complex path on a family whose solutions are
    # e^{i theta} times the real family's
    cfg = SolverConfig(cycle_length=8, tolerance=1e-8, max_cycles=40, seed=5)
    phase = np.exp(1j * THETA)
    real = _real_family(name)
    cplx = _real_family(name, phase)
    assert real.rhs.dtype == np.float64 and cplx.rhs.dtype == np.complex128
    x_r, rep_r = _solve(name, real, cfg)
    x_c, rep_c = _solve(name, cplx, cfg)
    assert x_r.dtype == np.float64 and x_c.dtype == np.complex128
    assert rep_r.converged == rep_c.converged and all(rep_r.converged)
    assert rep_r.matvecs == rep_c.matvecs
    assert [row[:5] for row in rep_r.rows] == [row[:5] for row in rep_c.rows]
    # residual histories agree to 1e-10 of each right-hand side's norm
    bnorm = np.linalg.norm(real.rhs, axis=0)
    st_r, st_c = rep_r.steps, rep_c.steps
    for i in range(real.n_shifts):
        assert np.abs(st_r.resid[st_r.recorded[:, i], i]
                      - st_c.resid[st_c.recorded[:, i], i]).max() \
            <= 1e-10 * bnorm[i]
    scale = np.linalg.norm(x_r, axis=0)
    assert np.linalg.norm(x_c - phase * x_r, axis=0) \
        == pytest.approx(np.zeros(real.n_shifts), abs=1e-8 * scale.max())


@pytest.mark.parametrize("name", SOLVERS)
def test_one_complex_shift_makes_the_family_complex(name):
    cfg = SolverConfig(cycle_length=8, tolerance=1e-6, max_cycles=40)
    family = _real_family(name, shifts=[0.05, 0.5, 2.0 + 1.0j, 8.0])
    assert family.rhs.dtype == np.complex128
    assert family.matrix.values.dtype == np.float64
    x, rep = _solve(name, family, cfg)
    assert x.dtype == np.complex128 and all(rep.converged)


def test_zero_imaginary_complex_input_is_real():
    a = generate_convection_diffusion(4, 1.0)
    fam = ShiftedFamily(a, np.array([0.5, 1.0], dtype=complex),
                        np.ones((16, 2), dtype=complex),
                        np.zeros((16, 2), dtype=complex))
    assert fam.rhs.dtype == np.float64
    assert fam.shifts.dtype == fam.initial_guess.dtype == np.float64


def _pair_at_cut():
    """A real block Arnoldi state and a k whose Ritz ordering puts a
    conjugate pair at positions k and k + 1."""
    a = random_sparse(24, density=0.3, seed=8, diag_boost=3.0)
    r0 = np.random.default_rng(9).standard_normal((24, 2))
    arn = block_arnoldi(a, r0, 5)
    pairs = hessenberg_eigen(arn.hess[:10, :], 10)
    vals = pairs.values
    for k in range(2, 10):
        if vals[k - 1].imag != 0 and vals[k] == vals[k - 1].conj():
            return a, arn, k
    raise AssertionError("no conjugate pair in the ordering")


def test_ritz_pair_at_the_cut_is_dropped_whole():
    a, arn, k = _pair_at_cut()
    assert arn.basis.dtype == np.float64
    space = update_recycle_space(arn, "ritz-largest", k)
    assert space.u.dtype == space.c.dtype == np.float64
    assert space.k == k - 1
    ad = a.to_dense()
    scale = np.linalg.norm(ad, 2) * np.linalg.norm(space.u, 2)
    assert np.linalg.norm(ad @ space.u - space.c) <= 1e-12 * scale
    assert np.linalg.norm(space.c.T @ space.c - np.eye(k - 1)) <= 1e-12
    # the kept pairs' span matches the complex eigenvectors' span
    keep = hessenberg_eigen(arn.hess[:10, :].astype(complex), k - 1).vectors
    lifted = arn.w @ keep
    q, _ = np.linalg.qr(space.u)
    assert np.linalg.norm(lifted - q @ (q.T @ lifted)) \
        <= 1e-10 * np.linalg.norm(lifted)


def test_real_eigen_pairs_are_a_real_basis():
    h = np.array([[1.0, -2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 0.5]])
    pairs = hessenberg_eigen(h, 2)
    assert pairs.vectors.dtype == np.float64
    assert sorted(pairs.values, key=lambda z: z.imag) == \
        pytest.approx([1 - 2j, 1 + 2j])
    # [Re v, Im v] spans the invariant plane of the pair
    plane = pairs.vectors
    assert np.linalg.norm(plane[2]) <= 1e-14
    assert np.linalg.matrix_rank(plane[:2]) == 2
    # cutting the pair at count 1 keeps it whole, as nothing would be left
    assert len(hessenberg_eigen(h, 1).values) == 2
    # count 3 keeps all
    assert len(hessenberg_eigen(h, 3).values) == 3
    # a pair split below a real value of larger modulus is dropped
    h[2, 2] = 3.0
    assert list(hessenberg_eigen(h, 2).values) == [3.0]


def test_recycle_space_from_real_basis_is_real():
    a = random_sparse(12, seed=2, diag_boost=4.0)
    basis = np.random.default_rng(4).standard_normal((12, 3))
    assert RecycleSpace.from_basis(a, basis).u.dtype == np.float64
    assert RecycleSpace.from_basis(a, basis * 1j).u.dtype == np.complex128
