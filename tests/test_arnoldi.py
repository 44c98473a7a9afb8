import numpy as np
import pytest
import scipy.linalg

from shiftkrylov import (DimensionError, RecycleSpace, ShiftedFamily,
                         SolverConfig, SparseMatrix, block_arnoldi,
                         block_arnoldi_extend, block_arnoldi_start, sfom,
                         sgmres)
import shiftkrylov.arnoldi as arnoldi
from shiftkrylov.arnoldi import DEPENDENCY_TOL, Replacement, _project_out

from conftest import (block_krylov_powers, noise_led_family,
                      projected_sylvester_powers, random_sparse,
                      sylvester_powers)


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
    a = random_sparse(10, seed=1)
    v = np.random.default_rng(1).standard_normal(10)
    r0 = np.column_stack([v, v])  # two identical columns
    state = block_arnoldi_start(r0, seed=3)
    assert len(state.replacements) == 1
    assert state.replacements[0].step == 0
    gram = state.basis.conj().T @ state.basis
    assert np.linalg.norm(gram - np.eye(2)) <= 1e-12


def test_block_identity_grade_one():
    a = SparseMatrix.identity(6)
    r0 = np.random.default_rng(4).standard_normal((6, 3))
    state = block_arnoldi(a, r0, 2, seed=5)
    # every candidate column was dependent after one application: the
    # relation closes square at step 1, with no replacement
    assert state.invariant and state.steps == 1 and not state.replacements
    assert state.hess.shape == (3, 3) and state.basis.shape == (6, 3)
    assert np.allclose(state.hess, np.eye(3), atol=1e-12)


def test_block_start_replaces_near_dependent_column():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((6, 3))
    m[:, 2] = m[:, 0] + m[:, 1] + 1e-14 * rng.standard_normal(6)
    state = block_arnoldi_start(m, seed=0)
    assert [rec.column for rec in state.replacements] == [2]
    assert state.s0[2, 2] == 0.0
    # SVD oracle confirms the configured dependency level
    s = np.linalg.svd(m, compute_uv=False)
    assert s[2] / s[0] < DEPENDENCY_TOL


def test_block_start_dependence_scale_invariant():
    rng = np.random.default_rng(29)
    m = rng.standard_normal((6, 4))
    m[:, 3] = m[:, 1]  # one dependent column
    scales = np.array([1.0, 5e-3, 12.0, 0.3])
    for block in (m, m * scales[None, :]):
        state = block_arnoldi_start(block, seed=0)
        assert [rec.column for rec in state.replacements] == [3]


def test_block_start_more_columns_than_rows_raises():
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionError, match="2 x 3"):
        block_arnoldi_start(rng.standard_normal((2, 3)))
    # the recycle directions take up rows as well
    a = random_sparse(4, seed=1, diag_boost=4.0)
    space = RecycleSpace.from_basis(a, rng.standard_normal((4, 2)))
    with pytest.raises(DimensionError, match="4 x 3 beside 2"):
        block_arnoldi_start(rng.standard_normal((4, 3)), space)


def test_block_relation_and_rank():
    a = random_sparse(30, density=0.2, seed=8)
    r0 = np.random.default_rng(7).standard_normal((30, 2))
    state = block_arnoldi(a, r0, 4, seed=0)
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
    batch = block_arnoldi(a, r0, 3, seed=1)
    inc = block_arnoldi_extend(
        a, block_arnoldi_extend(a, block_arnoldi_start(r0, seed=1), 1), 2)
    assert np.allclose(batch.basis, inc.basis, atol=1e-14)
    assert np.allclose(batch.hess, inc.hess, atol=1e-14)


def test_shifted_block_relation():
    a = random_sparse(24, density=0.25, seed=3)
    r0 = np.random.default_rng(11).standard_normal((24, 3))
    state = block_arnoldi(a, r0, 4, seed=0)
    ad = a.to_dense()
    for sigma in (0.7, -0.2 + 0.4j):
        h_sigma = state.hess + sigma * np.eye(*state.hess.shape)
        rel = np.linalg.norm((ad + sigma * np.eye(24)) @ state.w
                             - state.basis @ h_sigma)
        assert rel <= 1e-9 * (a.frobenius_norm + abs(sigma))


def test_initial_residual_reconstruction():
    a = random_sparse(16, seed=6)
    r0 = np.random.default_rng(15).standard_normal((16, 3))
    state = block_arnoldi(a, r0, 3, seed=0)
    lift = np.zeros((state.basis.shape[1], 3), dtype=complex)
    lift[:3, :] = state.s0
    recon = state.basis @ lift
    assert np.linalg.norm(recon - r0) <= 1e-10 * np.linalg.norm(r0)


def test_block_krylov_sum_identity():
    # span W_j equals the sum of the per-column Krylov spaces
    a = random_sparse(20, density=0.3, seed=19)
    r0 = np.random.default_rng(21).standard_normal((20, 2))
    j = 3
    state = block_arnoldi(a, r0, j, seed=0)
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
    plain = block_arnoldi(a, r0, j, seed=0)
    moved = block_arnoldi(shifted, r0, j, seed=0)
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
    state = block_arnoldi(a, r0, 4, projector=space, seed=0)
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
    state = block_arnoldi(a, v, j, projector=space, seed=0)
    assert scipy.linalg.subspace_angles(state.w, q_mat).max() <= 1e-8


def test_partial_invariant_closing_mid_block():
    # n = 10 with block size 3: the fourth step can only add one direction
    # before the space is exhausted, and the relation must close exactly
    # over the full space
    a = random_sparse(10, density=0.5, seed=53, diag_boost=4.0)
    r0 = np.random.default_rng(54).standard_normal((10, 3))
    state = block_arnoldi(a, r0, 8, seed=1)
    assert state.invariant
    n_cols = state.basis.shape[1]
    assert n_cols == 10                      # spans the whole space
    assert state.hess.shape == (n_cols, state.steps * 3)
    ad = a.to_dense()
    rel = np.linalg.norm(ad @ state.w - state.basis @ state.hess)
    assert rel <= 1e-9 * a.frobenius_norm
    gram = state.basis.conj().T @ state.basis
    assert np.linalg.norm(gram - np.eye(n_cols)) <= 1e-10


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


def test_branching_a_chain_leaves_earlier_states_unchanged():
    a = random_sparse(40, density=0.2, seed=57)
    other = random_sparse(40, density=0.2, seed=56)
    r0 = np.random.default_rng(58).standard_normal((40, 2))
    start = block_arnoldi_start(r0, seed=2)
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
        other, block_arnoldi(a, r0, 2, seed=2), 2)
    for state, fresh in ((branch, fresh_branch),
                         (longer, block_arnoldi(a, r0, 4, seed=2)),
                         (grown, block_arnoldi(a, r0, 7, seed=2)),
                         (again, block_arnoldi(other, r0, 1, seed=2))):
        assert np.abs(state.basis - fresh.basis).max() <= 1e-12
        assert np.abs(state.hess - fresh.hess).max() <= 1e-12


def test_one_step_extensions_across_capacity_growth():
    n, ell, m = 150, 3, 40
    a = random_sparse(n, density=0.05, seed=59, diag_boost=2.0)
    r0 = np.random.default_rng(60).standard_normal((n, ell))
    state = block_arnoldi_start(r0, seed=0)
    for _ in range(m):
        state = block_arnoldi_extend(a, state, 1)
    batch = block_arnoldi(a, r0, m, seed=0)
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
    state = block_arnoldi_start(r0, seed=0)
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
    # replacement, and capacity 2 makes the third extension regrow
    a = random_sparse(30, density=0.2, seed=65, diag_boost=3.0)
    rng = np.random.default_rng(66)
    space = RecycleSpace.from_basis(a, rng.standard_normal((30, 2))) \
        if projected else None
    v = rng.standard_normal(30)
    r0 = np.column_stack((v, v, rng.standard_normal(30)))
    state = block_arnoldi_start(r0, space, seed=4, capacity=2)
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
        rows, cols = new.basis.shape[1], new.steps * new.block_size
        eager = block_arnoldi(a, r0, new.steps, space, seed=4)
        for got, prefix, batch in (
                (new.basis, ws.basis[:, :rows], eager.basis),
                (new.hess, ws.hess[:rows, :cols], eager.hess),
                (new.coupling, ws.coupling[:, :cols], eager.coupling)):
            assert not got.flags.writeable
            assert np.array_equal(got, prefix)
            assert np.array_equal(got, batch)
        state = new


def test_projected_chain_closes_invariant_in_workspace():
    # n = 10 beside k = 3 recycle directions leaves room for 7 basis
    # columns: block size 2 closes at step 3, which builds one of its two
    a = random_sparse(10, density=0.5, seed=61, diag_boost=4.0)
    rng = np.random.default_rng(62)
    space = RecycleSpace.from_basis(a, rng.standard_normal((10, 3)))
    state = block_arnoldi_start(rng.standard_normal((10, 2)), space, seed=1)
    for _ in range(6):
        state = block_arnoldi_extend(a, state, 1)
    assert state.invariant and state.steps == 3
    assert state.basis.shape == (10, 7)
    assert state.hess.shape == (7, 6) and state.coupling.shape == (3, 6)
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


def test_replacement_seed_keys_pinned():
    rng = np.random.default_rng(61)
    v, w = rng.standard_normal(12), rng.standard_normal(12)
    block = np.column_stack([v, w, 2.0 * v])
    start = block_arnoldi_start(block, seed=7)
    assert start.replacements == (Replacement(0, 2, (7, 0, 2, 0)),)
    # A = I + e12 e12^T moves the basis by one direction, so the step-1
    # candidate block has rank one and its last two columns are replaced;
    # at step 2 the whole block vanishes and the relation closes
    a = SparseMatrix.diagonal(np.r_[np.ones(11), 2.0])
    state = block_arnoldi(a, block, 3, seed=7)
    assert state.replacements == start.replacements + tuple(
        Replacement(1, col, (7, 1, col, 0)) for col in (1, 2))
    assert state.invariant and state.steps == 2
    assert state.hess.shape == (6, 6)


def test_start_block_in_recycle_span_is_replaced_whole():
    # a start block inside span(C) leaves only rounding noise once
    # projected; measured against the raw block it is all dependent, so
    # every column is a logged replacement and the start factor is zero
    n = 30
    a = random_sparse(n, density=0.3, seed=74, diag_boost=3.0)
    rng = np.random.default_rng(75)
    space = RecycleSpace.from_basis(a, rng.standard_normal((n, 4)))
    r0 = space.c @ rng.standard_normal((4, 3))
    state = block_arnoldi_start(r0, space, seed=6)
    assert state.replacements == tuple(
        Replacement(0, col, (6, 0, col, 0)) for col in range(3))
    assert np.all(state.s0 == 0.0)
    both = np.hstack([space.c, state.basis])
    assert np.linalg.norm(both.conj().T @ both - np.eye(7)) <= 1e-13


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
    state = block_arnoldi(a, r0, m, projector=space, seed=0)
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


def test_extend_with_one_dependent_candidate_column_is_replaced():
    # A e4 = A e1, so the first candidate block A [e1 .. e4] has one
    # dependent column, which the column-wise path replaces
    n = 40
    ad = random_sparse(n, density=0.3, seed=76, diag_boost=3.0).to_dense()
    ad[:, 3] = ad[:, 0]
    a = SparseMatrix.from_dense(ad)
    state = block_arnoldi(a, np.eye(n)[:, :4], 3, seed=5)
    assert state.replacements == (Replacement(1, 3, (5, 1, 3, 0)),)
    sub = state.hess[4:8, :4]
    assert sub[3, 3] == 0.0 and np.all(np.diagonal(sub)[:3] > 0.0)
    assert np.all(np.tril(sub, -1) == 0.0)
    gram = state.basis.T @ state.basis
    assert np.linalg.norm(gram - np.eye(16)) <= 1e-13
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
