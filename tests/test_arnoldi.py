import dataclasses

import numpy as np
import pytest
import scipy.linalg

from shiftkrylov import (RecycleSpace, ShiftedFamily, SolverConfig,
                         SparseMatrix, block_arnoldi_extend,
                         block_arnoldi_start, block_matvec, sfom, sgmres)
import shiftkrylov.arnoldi as arnoldi
from shiftkrylov.arnoldi import DEPENDENCY_TOL, _project_out

from conftest import (block_arnoldi, block_krylov_powers, narrowing_chain,
                      noise_led_family, projected_sylvester_powers,
                      random_sparse, sylvester_powers)


# ---------------------------------------------------------------------------
# block size one: the single-vector process
# ---------------------------------------------------------------------------

def test_identity_breaks_down_immediately():
    a = SparseMatrix.identity(4)
    v = np.array([1.0, 2.0, 0.0, -1.0])
    state = block_arnoldi_extend(a, block_arnoldi_start(v), 1)
    # the new direction vanished: the relation closes square at step 1,
    # with no replacement
    assert state.invariant and state.steps == 1 and not state.replacements
    assert state.hess.shape == (1, 1) and state.basis.shape == (4, 1)
    assert state.hess[0, 0] == pytest.approx(1.0)
    # a closed state extends no further
    assert block_arnoldi_extend(a, state, 3) is state


def test_grade_equals_distinct_eigenvalues():
    a = SparseMatrix.diagonal([1.0, 2.0])
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    state = block_arnoldi(a, v, 5)
    # no replacement exists in the exhausted space: the relation closes
    assert state.invariant and state.steps == 2
    assert state.hess.shape == (2, 2) and state.basis.shape == (2, 2)
    # the basis spans the whole space
    assert np.linalg.matrix_rank(state.basis) == 2


def test_arnoldi_relation_random():
    a = random_sparse(20, density=0.3, seed=2)
    v = np.random.default_rng(3).standard_normal(20)
    state = block_arnoldi(a, v, 5)
    assert not state.invariant
    assert state.hess.shape == (6, 5) and state.basis.shape == (20, 6)
    ad = a.to_dense()
    rel = np.linalg.norm(ad @ state.basis[:, :5] - state.basis @ state.hess)
    assert rel <= 1e-10 * a.frobenius_norm
    gram = state.basis.conj().T @ state.basis
    assert np.linalg.norm(gram - np.eye(6)) <= 1e-10 * 6


def test_arnoldi_extend_incrementally_matches():
    a = random_sparse(15, density=0.4, seed=9)
    v = np.random.default_rng(5).standard_normal(15)
    one = block_arnoldi_extend(a, block_arnoldi_start(v), 4)
    two = block_arnoldi_extend(
        a, block_arnoldi_extend(a, block_arnoldi_start(v), 2), 2)
    assert np.allclose(one.basis, two.basis, atol=1e-14)
    assert np.allclose(one.hess, two.hess, atol=1e-14)


# ---------------------------------------------------------------------------
# block process
# ---------------------------------------------------------------------------

def test_block_initial_dependence_replaced():
    # two identical columns: the start block has rank one, so the state
    # keeps one basis column and logs the other candidate as deflated
    v = np.random.default_rng(1).standard_normal(10)
    r0 = np.column_stack([v, v])
    state = block_arnoldi_start(r0)
    assert state.basis.shape == (10, 1) and state.s0.shape == (1, 2)
    assert len(state.replacements) == 1 and state.replacements[0][0] == 0
    assert np.linalg.norm(state.basis.T @ state.basis - 1.0) <= 1e-15
    assert np.linalg.norm(state.basis @ state.s0 - r0) \
        <= DEPENDENCY_TOL * np.linalg.norm(r0)


def test_block_identity_grade_one():
    a = SparseMatrix.identity(6)
    r0 = np.random.default_rng(4).standard_normal((6, 3))
    state = block_arnoldi(a, r0, 2)
    # every candidate column was dependent after one application: the
    # relation closes square at step 1, with no replacement
    assert state.invariant and state.steps == 1 and not state.replacements
    assert state.hess.shape == (3, 3) and state.basis.shape == (6, 3)
    assert np.allclose(state.hess, np.eye(3), atol=1e-12)


def test_block_start_replaces_near_dependent_column():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((6, 3))
    m[:, 2] = m[:, 0] + m[:, 1] + 1e-14 * rng.standard_normal(6)
    state = block_arnoldi_start(m)
    # one of the three columns is deflated, and the two kept reproduce
    # the block
    assert len(state.replacements) == 1 and state.replacements[0][0] == 0
    assert state.basis.shape == (6, 2) and state.s0.shape == (2, 3)
    assert np.linalg.norm(state.basis @ state.s0 - m) \
        <= DEPENDENCY_TOL * np.linalg.norm(m)
    # SVD oracle confirms the configured dependency level
    s = np.linalg.svd(m, compute_uv=False)
    assert s[2] / s[0] < DEPENDENCY_TOL


def test_block_start_dependence_scale_invariant():
    rng = np.random.default_rng(29)
    m = rng.standard_normal((6, 4))
    m[:, 3] = m[:, 1]  # one dependent column
    scales = np.array([1.0, 5e-3, 12.0, 0.3])
    for block in (m, m * scales[None, :]):
        state = block_arnoldi_start(block)
        # the pivoted QR keeps the larger of the two equal directions
        assert len(state.replacements) == 1
        assert state.replacements[0] in ((0, 1), (0, 3))
        assert state.basis.shape == (6, 3)
        assert np.linalg.norm(state.basis @ state.s0 - block) \
            <= DEPENDENCY_TOL * np.linalg.norm(block)


def test_block_start_more_columns_than_rows_deflates():
    # a block wider than the n - k rows left beside k recycle directions
    # keeps n - k columns, and R = W_0 s0 holds over its projection
    rng = np.random.default_rng(0)
    a = random_sparse(4, seed=1, diag_boost=4.0)
    space = RecycleSpace.from_basis(a, rng.standard_normal((4, 2)))
    for r0, proj, kept in ((rng.standard_normal((2, 3)), None, 2),
                           (rng.standard_normal((4, 3)), space, 2)):
        state = block_arnoldi_start(r0, proj)
        target = r0 if proj is None else r0 - proj.c @ (proj.c.T @ r0)
        assert state.basis.shape == (r0.shape[0], kept)
        assert state.s0.shape == (kept, 3)
        assert len(state.replacements) == 3 - kept
        assert np.linalg.norm(state.basis @ state.s0 - target) \
            <= 1e-14 * np.linalg.norm(r0)
        gram = state.basis.T @ state.basis
        assert np.linalg.norm(gram - np.eye(kept)) <= 1e-14
        if proj is not None:
            assert np.linalg.norm(proj.c.T @ state.basis) <= 1e-14


def test_block_relation_and_rank():
    a = random_sparse(30, density=0.2, seed=8)
    r0 = np.random.default_rng(7).standard_normal((30, 2))
    state = block_arnoldi(a, r0, 4)
    ad = a.to_dense()
    rel = np.linalg.norm(ad @ state.w - state.basis @ state.hess)
    assert rel <= 1e-10 * a.frobenius_norm
    assert np.linalg.matrix_rank(state.w) == 8
    assert state.basis.shape == (30, 10)
    gram = state.basis.conj().T @ state.basis
    assert np.linalg.norm(gram - np.eye(10)) <= 1e-10 * 10


def test_block_extend_matches_batch():
    a = random_sparse(18, density=0.3, seed=12)
    r0 = np.random.default_rng(13).standard_normal((18, 3))
    batch = block_arnoldi(a, r0, 3)
    inc = block_arnoldi_extend(
        a, block_arnoldi_extend(a, block_arnoldi_start(r0), 1), 2)
    assert np.allclose(batch.basis, inc.basis, atol=1e-14)
    assert np.allclose(batch.hess, inc.hess, atol=1e-14)


def test_shifted_block_relation():
    a = random_sparse(24, density=0.25, seed=3)
    r0 = np.random.default_rng(11).standard_normal((24, 3))
    state = block_arnoldi(a, r0, 4)
    ad = a.to_dense()
    for sigma in (0.7, -0.2 + 0.4j):
        h_sigma = state.hess + sigma * np.eye(*state.hess.shape)
        rel = np.linalg.norm((ad + sigma * np.eye(24)) @ state.w
                             - state.basis @ h_sigma)
        assert rel <= 1e-9 * (a.frobenius_norm + abs(sigma))


def test_initial_residual_reconstruction():
    a = random_sparse(16, seed=6)
    r0 = np.random.default_rng(15).standard_normal((16, 3))
    state = block_arnoldi(a, r0, 3)
    lift = np.zeros((state.basis.shape[1], 3), dtype=complex)
    lift[:3, :] = state.s0
    recon = state.basis @ lift
    assert np.linalg.norm(recon - r0) <= 1e-10 * np.linalg.norm(r0)


def test_block_krylov_sum_identity():
    # span W_j equals the sum of the per-column Krylov spaces
    a = random_sparse(20, density=0.3, seed=19)
    r0 = np.random.default_rng(21).standard_normal((20, 2))
    j = 3
    state = block_arnoldi(a, r0, j)
    ad = a.to_dense()
    brute = block_krylov_powers(ad, r0, j)
    angle = scipy.linalg.subspace_angles(state.w[:, :j * 2], brute).max()
    assert angle <= 1e-8


def test_block_shift_invariance():
    a = random_sparse(25, density=0.3, seed=23)
    r0 = np.random.default_rng(25).standard_normal((25, 2))
    sigma = 0.7
    shifted = SparseMatrix.from_dense(a.to_dense() + sigma * np.eye(25))
    j = 3
    plain = block_arnoldi(a, r0, j)
    moved = block_arnoldi(shifted, r0, j)
    angle = scipy.linalg.subspace_angles(plain.w, moved.w).max()
    assert angle <= 1e-8


def test_sylvester_operator_invariance_oracle():
    # brute-force powers of T: F -> A F + F Dtilde span the same space as
    # powers of A, for general (non-diagonal) coupling
    rng = np.random.default_rng(31)
    a = random_sparse(18, density=0.4, seed=29)
    ad = a.to_dense()
    f = rng.standard_normal((18, 2))
    dtilde = rng.standard_normal((2, 2))
    j = 3
    q_syl = sylvester_powers(ad, dtilde, f, j)
    q_mat = block_krylov_powers(ad, f, j)
    assert scipy.linalg.subspace_angles(q_syl, q_mat).max() <= 1e-8


def test_projected_block_arnoldi_relation_and_coupling():
    a = random_sparse(22, density=0.3, seed=41, diag_boost=4.0)
    rng = np.random.default_rng(43)
    space = RecycleSpace.from_basis(a, rng.standard_normal((22, 3)))
    r0 = rng.standard_normal((22, 2)).astype(complex)
    r0 -= space.c @ (space.c.conj().T @ r0)
    state = block_arnoldi(a, r0, 4, projector=space)
    ad = a.to_dense()
    proj = np.eye(22) - space.c @ space.c.conj().T
    rel = np.linalg.norm(proj @ ad @ state.w - state.basis @ state.hess)
    assert rel <= 1e-10 * a.frobenius_norm
    coupling_true = space.c.conj().T @ ad @ state.w
    assert np.linalg.norm(state.coupling - coupling_true) \
        <= 1e-10 * a.frobenius_norm
    # the basis is orthogonal to C as well
    assert np.abs(space.c.conj().T @ state.basis).max() <= 1e-10


def test_projected_sylvester_invariance():
    a = random_sparse(20, density=0.35, seed=47, diag_boost=4.0)
    rng = np.random.default_rng(49)
    space = RecycleSpace.from_basis(a, rng.standard_normal((20, 3)))
    v = rng.standard_normal((20, 2)).astype(complex)
    v -= space.c @ (space.c.conj().T @ v)
    ad = a.to_dense()
    dtilde = np.diag(rng.standard_normal(2))
    j = 3
    q_syl = projected_sylvester_powers(ad, space.c, dtilde, v, j)
    q_mat = projected_sylvester_powers(ad, space.c, np.zeros((2, 2)), v, j)
    assert scipy.linalg.subspace_angles(q_syl, q_mat).max() <= 1e-8
    # and both match the span built by the projected block Arnoldi process
    state = block_arnoldi(a, v, j, projector=space)
    assert scipy.linalg.subspace_angles(state.w, q_mat).max() <= 1e-8


def test_partial_invariant_closing_mid_block():
    # n = 10 with block size 3: the third step can only add one direction
    # before the space is exhausted, so its block narrows to one column,
    # and the fourth step multiplies that column and closes the relation
    # square over the full space
    a = random_sparse(10, density=0.5, seed=53, diag_boost=4.0)
    r0 = np.random.default_rng(54).standard_normal((10, 3))
    state = block_arnoldi(a, r0, 8)
    assert state.invariant and state.steps == 4
    assert [step for step, _ in state.replacements] == [3, 3]
    n_cols = state.basis.shape[1]
    assert n_cols == 10                      # spans the whole space
    assert state.hess.shape == (10, 10)
    ad = a.to_dense()
    rel = np.linalg.norm(ad @ state.w - state.basis @ state.hess)
    assert rel <= 1e-9 * a.frobenius_norm
    gram = state.basis.conj().T @ state.basis
    assert np.linalg.norm(gram - np.eye(n_cols)) <= 1e-10


@pytest.mark.parametrize("complex_start", [False, True])
@pytest.mark.parametrize("projected", [False, True])
def test_chain_narrows_block_by_block_and_closes(projected, complex_start):
    # blocks of widths 3, 3, 2 and 1, then a vanished candidate: after
    # every step the (projected) relation holds over the basis so far,
    # with coupling rows C* A W_j when projected
    ad, r0, c = narrowing_chain(projected, complex_start)
    a = SparseMatrix.from_dense(ad)
    space = None if c is None else RecycleSpace(c, c)
    state = block_arnoldi_start(r0, space)
    assert state.s0.shape == (3, 3)
    assert np.linalg.norm(state.basis @ state.s0 - r0) \
        <= 1e-14 * np.linalg.norm(r0)
    proj = np.eye(12) if c is None else np.eye(12) - c @ c.T
    widths = []
    while not state.invariant:
        state = block_arnoldi_extend(a, state, 1)
        widths.append(state.basis.shape[1] - state.hess.shape[1])
        rel = proj @ ad @ state.w - state.basis @ state.hess
        assert np.linalg.norm(rel) <= 1e-13 * a.frobenius_norm
        if c is not None:
            assert np.linalg.norm(state.coupling - c.T @ ad @ state.w) \
                <= 1e-13 * a.frobenius_norm
        gram = state.basis.conj().T @ state.basis
        assert np.linalg.norm(gram - np.eye(len(gram))) <= 1e-13
    assert widths == [3, 2, 1, 0] and state.steps == 4
    assert state.basis.shape == (12, 9) and state.hess.shape == (9, 9)
    assert [step for step, _ in state.replacements] == [2, 3]
    assert state.coupling.shape == (0 if c is None else 2, 9)


@pytest.mark.parametrize("rotation", range(5))
def test_rotated_chain_closes_where_its_space_does(rotation):
    # the rotated chain's blocks hold its invariant space only to
    # rounding: the candidate of step 4 is the rounding steps 2 and 3
    # deflated, and it reads as zero at the deflation threshold (judged
    # at 1e-14 ||A||_F it passed, and the chain ran 7 steps over noise
    # and filled R^12)
    ad, r0, _ = narrowing_chain(rotation=rotation)
    a = SparseMatrix.from_dense(ad)
    state = block_arnoldi_start(r0)
    widths = []
    while not state.invariant:
        state = block_arnoldi_extend(a, state, 1)
        widths.append(state.basis.shape[1] - state.hess.shape[1])
    assert widths == [3, 2, 1, 0] and state.basis.shape == (12, 9)
    # the closing step drops at most DEPENDENCY_TOL of its product
    rel = ad @ state.w - state.basis @ state.hess
    assert np.linalg.norm(rel) <= DEPENDENCY_TOL * a.frobenius_norm


def test_noise_column_does_not_hide_a_live_one_from_the_breakdown_test():
    # the candidate block's largest column is live, so the step does not
    # close the relation square on it, though both diagonal entries of its
    # unpivoted QR are noise (a square close left a relation error of 1.5)
    a, r0 = noise_led_family()
    mat = SparseMatrix.from_dense(a)
    state = block_arnoldi_extend(mat, block_arnoldi_start(r0), 1)
    assert state.hess.shape == (3, 2)
    rel = np.linalg.norm(a @ state.w - state.basis @ state.hess)
    assert rel <= 1e-13 * mat.frobenius_norm


# ---------------------------------------------------------------------------
# the shared workspace and the dependence probe
# ---------------------------------------------------------------------------

def _arrays(state):
    return [arr.copy() for arr in (state.basis, state.hess, state.coupling)]


def _assert_same(state, arrays):
    for arr, kept in zip((state.basis, state.hess, state.coupling), arrays):
        assert arr.shape == kept.shape and np.array_equal(arr, kept)


def _bits(arr):
    return np.ascontiguousarray(arr).tobytes()


def _composed_step(a, state):
    """One width-one step from the public product, the two Gram-Schmidt
    passes and a division by the norm: the step's new basis column (None
    when the candidate vanished) and Hessenberg column."""
    j = state.steps
    basis = np.asfortranarray(state.basis,
                              dtype=np.result_type(state.basis, a.values))
    z = np.asfortranarray(block_matvec(a, basis[:, j:j + 1]))
    [h] = _project_out(z, basis)
    nrm = arnoldi._norm(z)
    if arnoldi._negligible(nrm, a.frobenius_norm):
        return None, h
    return z / nrm, np.vstack((h, [[nrm]]))


@pytest.mark.parametrize("case", ["real", "complex-matrix", "closing"])
def test_width_one_step_is_the_composed_step_bit_for_bit(case):
    # a width-one step normalizes by the candidate's norm, without the
    # block QR of wider steps: the bits of the composed step
    rng = np.random.default_rng(67)
    steps = 6
    if case == "real":
        a = random_sparse(30, density=0.2, seed=68, diag_boost=2.0)
    elif case == "complex-matrix":
        real = random_sparse(30, density=0.2, seed=69).to_dense()
        a = SparseMatrix.from_dense(real + 1j * (real != 0) * rng.random())
    else:
        # two distinct eigenvalues: the space of a generic start closes at
        # step 2
        a, steps = SparseMatrix.diagonal([1.0] * 6 + [2.0] * 6), 2
    v = rng.standard_normal(a.n_rows)       # real in every case
    state = block_arnoldi_start(v, capacity=2)
    for _ in range(steps):
        column, h = _composed_step(a, state)
        new = block_arnoldi_extend(a, state, 1)
        j = state.steps
        assert new.steps == j + 1 and new.block_size == 1
        assert new.s0 is state.s0 and new.replacements == ()
        assert new.invariant == (column is None)
        assert new.basis.dtype == np.result_type(v, a.values)
        assert _bits(new.basis[:, :j + 1]) \
            == _bits(state.basis.astype(new.basis.dtype))
        if column is None:
            assert new.basis.shape[1] == j + 1
            assert new.hess.shape == (j + 1, j + 1)
        else:
            assert _bits(new.basis[:, j + 1:]) == _bits(column)
        assert _bits(new.hess[:, j:]) == _bits(h)
        assert _bits(new.hess[:, :j]) == _bits(
            np.vstack((state.hess, np.zeros((len(h) - len(state.hess), j)))))
        with pytest.raises(dataclasses.FrozenInstanceError):
            new.steps = 0
        assert new.steps == j + 1
        state = new
        if state.invariant:
            break
    assert state.invariant == (case == "closing")
    assert state.steps == steps


def test_branching_a_chain_leaves_earlier_states_unchanged():
    a = random_sparse(40, density=0.2, seed=57)
    other = random_sparse(40, density=0.2, seed=56)
    r0 = np.random.default_rng(58).standard_normal((40, 2))
    start = block_arnoldi_start(r0)
    parent = block_arnoldi_extend(a, start, 2)
    kept = block_arnoldi_extend(a, parent, 1)     # same workspace, in place
    # parent is no longer the newest state of its workspace, so a branch
    # from it (here with another operator) must copy; the kept tip then
    # extends in place, past the room its workspace has
    branch = block_arnoldi_extend(other, parent, 2)
    snapshots = [(st, _arrays(st)) for st in (parent, kept, branch)]
    longer = block_arnoldi_extend(a, kept, 1)
    grown = block_arnoldi_extend(a, longer, 3)
    again = block_arnoldi_extend(other, start, 1)
    for state, arrays in snapshots:
        _assert_same(state, arrays)
    for state in (start, parent, kept, branch, longer, grown, again):
        assert not state.basis.flags.writeable
    fresh_branch = block_arnoldi_extend(
        other, block_arnoldi(a, r0, 2), 2)
    for state, fresh in ((branch, fresh_branch),
                         (longer, block_arnoldi(a, r0, 4)),
                         (grown, block_arnoldi(a, r0, 7)),
                         (again, block_arnoldi(other, r0, 1))):
        assert np.abs(state.basis - fresh.basis).max() <= 1e-12
        assert np.abs(state.hess - fresh.hess).max() <= 1e-12


def test_one_step_extensions_across_capacity_growth():
    n, ell, m = 150, 3, 40
    a = random_sparse(n, density=0.05, seed=59, diag_boost=2.0)
    r0 = np.random.default_rng(60).standard_normal((n, ell))
    state = block_arnoldi_start(r0)
    for _ in range(m):
        state = block_arnoldi_extend(a, state, 1)
    batch = block_arnoldi(a, r0, m)
    assert state.steps == m and not state.invariant
    assert state.basis.shape == batch.basis.shape == (n, (m + 1) * ell)
    assert np.abs(state.basis - batch.basis).max() <= 1e-12
    assert np.abs(state.hess - batch.hess).max() <= 1e-12
    rel = np.linalg.norm(a.to_dense() @ state.w - state.basis @ state.hess)
    assert rel <= 1e-10 * a.frobenius_norm
    gram = state.basis.conj().T @ state.basis
    assert np.linalg.norm(gram - np.eye((m + 1) * ell)) <= 1e-10


def test_workspace_views_never_expose_unwritten_entries(monkeypatch):
    # the workspace starts uninitialized; fill it with NaN to show that
    # every entry a state can see was written by a step
    def poisoned(shape, dtype=float, order="C", _empty=np.empty):
        if not np.issubdtype(dtype, np.inexact):
            return _empty(shape, dtype=dtype, order=order)
        return np.full(shape, np.nan, dtype=dtype, order=order)

    monkeypatch.setattr(np, "empty", poisoned)
    a = random_sparse(20, density=0.3, seed=63, diag_boost=3.0)
    r0 = np.random.default_rng(64).standard_normal((20, 2))
    state = block_arnoldi_start(r0)
    states = []
    for _ in range(12):           # grows at steps 5 and 9, closes at 10
        state = block_arnoldi_extend(a, state, 1)
        states.append(state)
    states.append(block_arnoldi_extend(a, states[1], 3))     # a branch
    assert states[-2].invariant and states[-2].steps == 10
    for st in states:
        for arr in (st.basis, st.hess, st.coupling):
            assert np.isfinite(arr).all()


@pytest.mark.parametrize("projected", [False, True])
def test_extension_keeps_what_the_benchmark_tracer_reads(projected):
    # perfbench's tracer reads, after each block_arnoldi_extend call, the
    # input state's steps, replacements, basis.shape, block_size and
    # projector_c and the result's steps and replacements; the start
    # block's second column repeats its first, so the chain carries a
    # deflated column, and capacity 2 makes the third extension regrow
    a = random_sparse(30, density=0.2, seed=65, diag_boost=3.0)
    rng = np.random.default_rng(66)
    space = RecycleSpace.from_basis(a, rng.standard_normal((30, 2))) \
        if projected else None
    v = rng.standard_normal(30)
    r0 = np.column_stack((v, v, rng.standard_normal(30)))
    state = block_arnoldi_start(r0, space, capacity=2)
    assert len(state.replacements) == 1
    for _ in range(4):
        read = (state.steps, state.replacements, state.basis.shape,
                state.block_size, state.projector_c)
        arrays = _arrays(state)
        new = block_arnoldi_extend(a, state, 1)
        assert (state.steps, state.replacements, state.basis.shape,
                state.block_size) == read[:4]
        assert state.projector_c is read[4]
        _assert_same(state, arrays)
        assert new.steps == state.steps + 1
        ws = new._ws
        rows, cols = new.basis.shape[1], new.hess.shape[1]
        eager = block_arnoldi(a, r0, new.steps, space)
        for got, prefix, batch in (
                (new.basis, ws.basis[:, :rows], eager.basis),
                (new.hess, ws.hess[:rows, :cols], eager.hess),
                (new.coupling, ws.coupling[:, :cols], eager.coupling)):
            assert not got.flags.writeable
            assert np.array_equal(got, prefix)
            assert np.array_equal(got, batch)
        state = new


@pytest.mark.parametrize("projected", [False, True])
def test_start_state_is_the_same_at_any_capacity(projected):
    # the start block's second column repeats its first, so both states
    # carry a deflated column; capacity 3 holds 1 and 3 steps in place and
    # makes 5 regrow, the default capacity 4 holds 1 and 3
    a = random_sparse(30, density=0.2, seed=67, diag_boost=3.0)
    rng = np.random.default_rng(68)
    space = RecycleSpace.from_basis(a, rng.standard_normal((30, 2))) \
        if projected else None
    v = rng.standard_normal(30)
    r0 = np.column_stack((v, v, rng.standard_normal(30)))
    for steps in (1, 3, 5):
        default = block_arnoldi_start(r0, space)
        held = block_arnoldi_start(r0, space, capacity=3)
        assert held._ws.cap == 3 and held._ws.steps == 0
        assert len(held.replacements) == 1
        assert held.replacements == default.replacements
        for name in ("basis", "s0", "hess", "coupling"):
            got, want = getattr(held, name), getattr(default, name)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert not held.basis.flags.writeable
        ext_default = block_arnoldi_extend(a, default, steps)
        ext_held = block_arnoldi_extend(a, held, steps)
        assert (ext_held._ws is held._ws) == (steps <= 3)
        for name in ("basis", "hess", "coupling"):
            assert np.array_equal(getattr(ext_held, name),
                                  getattr(ext_default, name))


def test_projected_chain_closes_invariant_in_workspace():
    # n = 10 beside k = 3 recycle directions leaves room for 7 basis
    # columns: from block size 2, step 3 keeps one column and step 4
    # closes the relation square
    a = random_sparse(10, density=0.5, seed=61, diag_boost=4.0)
    rng = np.random.default_rng(62)
    space = RecycleSpace.from_basis(a, rng.standard_normal((10, 3)))
    state = block_arnoldi_start(rng.standard_normal((10, 2)), space)
    for _ in range(6):
        state = block_arnoldi_extend(a, state, 1)
    assert state.invariant and state.steps == 4
    assert state.replacements == ((3, 0),)
    assert state.basis.shape == (10, 7)
    assert state.hess.shape == (7, 7) and state.coupling.shape == (3, 7)
    ad = a.to_dense()
    c = space.c
    proj = np.eye(10) - c @ c.conj().T
    rel = np.linalg.norm(proj @ ad @ state.w - state.basis @ state.hess)
    assert rel <= 1e-9 * a.frobenius_norm
    assert np.linalg.norm(state.coupling - c.conj().T @ ad @ state.w) \
        <= 1e-10 * a.frobenius_norm
    both = np.hstack([state.basis, c])
    assert np.linalg.norm(both.conj().T @ both - np.eye(10)) <= 1e-10


def test_no_qr_probe_at_block_size_one(monkeypatch):
    def no_qr(*args, **kwargs):
        raise AssertionError("scipy.linalg.qr called")

    monkeypatch.setattr(scipy.linalg, "qr", no_qr)
    a = random_sparse(30, density=0.2, seed=8, diag_boost=5.0)
    b = np.random.default_rng(9).standard_normal(30)
    state = block_arnoldi(a, b, 6)
    assert state.steps == 6
    fam = ShiftedFamily(a, [0.0, 0.3, 1.0], np.tile(b[:, None], (1, 3)),
                        None)
    cfg = SolverConfig(cycle_length=8, tolerance=1e-9, max_cycles=50)
    for solve in (sgmres, sfom):
        _, rep = solve(fam, cfg)
        assert all(rep.converged)


def test_deflated_columns_pinned():
    # the pivoted QR takes 2v first, then w, and deflates v
    rng = np.random.default_rng(61)
    v, w = rng.standard_normal(12), rng.standard_normal(12)
    block = np.column_stack([v, w, 2.0 * v])
    start = block_arnoldi_start(block)
    assert start.replacements == ((0, 0),)
    # A = I + e12 e12^T moves the basis by one direction, so the step-1
    # candidate block has rank one and one of its two columns is
    # deflated; step 2 multiplies the one column left, whose candidate
    # vanishes, and the relation closes square
    a = SparseMatrix.diagonal(np.r_[np.ones(11), 2.0])
    state = block_arnoldi(a, block, 3)
    assert state.replacements == ((0, 0), (1, 0))
    assert state.invariant and state.steps == 2
    assert state.basis.shape == (12, 3) and state.hess.shape == (3, 3)
    rel = a.to_dense() @ state.w - state.basis @ state.hess
    assert np.linalg.norm(rel) <= 1e-14 * a.frobenius_norm


def test_start_block_in_recycle_span_has_rank_zero():
    # a start block inside span(C) leaves only rounding noise once
    # projected; measured against the raw block it is zero, so the state
    # has no basis column and is closed before any step, like a step
    # whose candidate vanishes (which logs no deflated column either)
    n = 30
    a = random_sparse(n, density=0.3, seed=74, diag_boost=3.0)
    rng = np.random.default_rng(75)
    space = RecycleSpace.from_basis(a, rng.standard_normal((n, 4)))
    r0 = space.c @ rng.standard_normal((4, 3))
    state = block_arnoldi_start(r0, space)
    assert state.basis.shape == (n, 0) and state.s0.shape == (0, 3)
    assert state.invariant and state.steps == 0 and not state.replacements
    assert block_arnoldi_extend(a, state, 2) is state


# ---------------------------------------------------------------------------
# the in-place chunked BMGS2 kernel and the Householder block QR
# ---------------------------------------------------------------------------

def _draw(rng, dtype, *shape):
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if dtype is np.complex128 \
        else x


def _chunk_columns(monkeypatch, cols, n, dtype):
    """Cap the kernel's column chunks at ``cols`` columns of ``n`` rows
    (a fractional count rounds down); None keeps the default budget."""
    if cols is not None:
        monkeypatch.setattr(arnoldi, "_CHUNK_BYTES",
                            int(cols * n * np.dtype(dtype).itemsize))


@pytest.mark.parametrize("ell, chunk_cols", [
    pytest.param(1, None, id="1"), pytest.param(4, None, id="4"),
    pytest.param(1, 3, id="1-chunks3"), pytest.param(4, 3, id="4-chunks3")])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("projected", [False, True])
def test_thirty_steps_orthonormal_exact_with_nonnegative_diagonals(
        ell, chunk_cols, dtype, projected, monkeypatch):
    # 3-column chunks straddle the 4-column blocks and split C
    n, m = 200, 30
    _chunk_columns(monkeypatch, chunk_cols, n, dtype)
    rng = np.random.default_rng(71)
    ad = random_sparse(n, density=0.05, seed=72, diag_boost=2.0).to_dense()
    r0 = rng.standard_normal((n, ell))
    if dtype is np.complex128:
        ad = ad + 1j * random_sparse(n, density=0.05, seed=73).to_dense()
        r0 = r0 + 1j * rng.standard_normal((n, ell))
    a = SparseMatrix.from_dense(ad)
    space = (RecycleSpace.from_basis(a, rng.standard_normal((n, 3)))
             if projected else RecycleSpace.empty(n))
    state = block_arnoldi(a, r0, m, projector=space)
    assert state.steps == m and state.basis.dtype == dtype
    assert not state.replacements
    both = np.hstack([space.c, state.basis])
    assert np.linalg.norm(
        np.eye(both.shape[1]) - both.conj().T @ both) <= 1e-13
    # (I - C C*) A W = W_{j+1} Hbar with coupling rows C* A W
    resid = ad @ state.w - space.c @ state.coupling \
        - state.basis @ state.hess
    assert np.linalg.norm(resid) <= 1e-13 * a.frobenius_norm
    # the start factor and every subdiagonal block are upper triangular
    # with a real non-negative diagonal
    tris = [state.s0] + [
        state.hess[(t + 1) * ell:(t + 2) * ell, t * ell:(t + 1) * ell]
        for t in range(m)]
    for tri in tris:
        assert np.all(np.tril(tri, -1) == 0.0)
        diag = np.diagonal(tri)
        assert np.all(diag.imag == 0.0) and np.all(diag.real >= 0.0)


def test_extend_with_one_dependent_candidate_column_is_deflated():
    # A e4 = A e1, so the first candidate block A [e1 .. e4] has one
    # dependent column, which the pivoted QR deflates: blocks 1 to 3 are
    # three columns wide
    n = 40
    ad = random_sparse(n, density=0.3, seed=76, diag_boost=3.0).to_dense()
    ad[:, 3] = ad[:, 0]
    a = SparseMatrix.from_dense(ad)
    state = block_arnoldi(a, np.eye(n)[:, :4], 3)
    assert state.replacements == ((1, 3),)
    assert state.basis.shape == (n, 13) and state.hess.shape == (13, 10)
    # the subdiagonal block is R P^T of the pivoted QR: its last column
    # repeats its first, A e4 = A e1
    sub = state.hess[4:7, :4]
    assert np.linalg.norm(sub[:, 3] - sub[:, 0]) <= 1e-14 * np.abs(sub).max()
    assert np.all(state.hess[7:, :4] == 0.0)
    gram = state.basis.T @ state.basis
    assert np.linalg.norm(gram - np.eye(13)) <= 1e-13
    resid = ad @ state.w - state.basis @ state.hess
    assert np.linalg.norm(resid) <= 1e-13 * a.frobenius_norm


@pytest.mark.parametrize("dtype, chunk_cols", [
    pytest.param(np.float64, None, id="float64"),
    pytest.param(np.complex128, None, id="complex128"),
    pytest.param(np.float64, 2.5, id="float64-chunks2"),
    pytest.param(np.complex128, 2.5, id="complex128-chunks2")])
def test_project_out_matches_two_plain_passes(dtype, chunk_cols,
                                              monkeypatch):
    # 2-column chunks split c into 2 + 1 columns and v into four
    _chunk_columns(monkeypatch, chunk_cols, 50, dtype)
    rng = np.random.default_rng(77)
    c = np.linalg.qr(_draw(rng, dtype, 50, 3))[0]
    v = np.linalg.qr(_draw(rng, dtype, 50, 8))[0]
    z0 = _draw(rng, dtype, 50, 4)
    ref, coefs = z0.copy(), [0.0, 0.0]
    for _pass in range(2):
        for i, blk in enumerate((c, v)):
            h = blk.conj().T @ ref
            ref = ref - blk @ h
            coefs[i] = coefs[i] + h
    z = np.array(z0, order="F")
    got_c, empty, got_v = _project_out(z, c, v[:, :0], v)
    assert np.abs(z - ref).max() <= 1e-13
    assert np.abs(got_c - coefs[0]).max() <= 1e-13
    assert np.abs(got_v - coefs[1]).max() <= 1e-13
    assert empty.shape == (0, 4) and got_v.dtype == dtype


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_project_out_near_dependent_candidate_stays_orthogonal(
        dtype, monkeypatch):
    # the candidate lies in span(V) up to 1e-8, so almost all of it
    # cancels; both passes sweep every chunk in turn, and the second
    # removes what the first pass's rounding left in span(V).  Running
    # both passes on one chunk before the next leaves the later chunks'
    # rounding in the earlier chunks' span, about 1e-9 of the result
    n, k = 400, 60
    _chunk_columns(monkeypatch, 16, n, dtype)
    rng = np.random.default_rng(78)
    v = np.asfortranarray(np.linalg.qr(_draw(rng, dtype, n, k))[0])
    z = np.asfortranarray(v @ _draw(rng, dtype, k, 4)
                          + 1e-8 * _draw(rng, dtype, n, 4))
    _project_out(z, v)
    q = z / np.linalg.norm(z, axis=0)
    assert np.abs(v.conj().T @ q).max() <= 1e-14
