"""Property-based checks of the band QR that the block engine reads its
per-step residual estimates from: on generated families, every estimate
equals the residual of the dense (augmented) least-squares problem,
solved from scratch at that step.  The recycle blocks are carried from
step to step, as the block engine carries them.

Generated inputs cover complex and near-duplicate shifts, block Krylov
spaces that exhaust the ambient dimension (n <= m L, so the relation
closes on a partial or empty block) and recycle spaces with k >= n/2.
Examples are derandomized and bounded so the module runs in a few
seconds.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from shiftkrylov import SparseMatrix
from shiftkrylov.arnoldi import block_arnoldi_extend, block_arnoldi_start
from shiftkrylov.dense import ShiftedBandQR
from shiftkrylov.recycling import RecycleSpace, augmentation_blocks

from conftest import augmented_matrix

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

_shift = st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                            allow_infinity=False)


@st.composite
def families(draw):
    """``(a, r0, shifts, space, steps)`` with L = len(shifts) columns."""
    ell = draw(st.integers(1, 3))
    n = draw(st.integers(ell + 1, 10))
    if draw(st.booleans()) and n - ell >= (n + 1) // 2:
        k = draw(st.integers((n + 1) // 2, n - ell))    # k >= n/2
    else:
        k = draw(st.integers(0, min(2, n - ell)))
    steps = draw(st.integers(1, 6))
    shifts = [draw(_shift) for _ in range(ell)]
    if ell > 1 and draw(st.booleans()):
        shifts[1] = shifts[0] + 1e-12 * (1.0 + 1.0j)     # near-duplicate
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = SparseMatrix.from_dense(a + 3.0 * np.eye(n))
    r0 = rng.standard_normal((n, ell)) + 1j * rng.standard_normal((n, ell))
    space = RecycleSpace.from_basis(a, rng.standard_normal((n, k))) \
        if k else None
    return a, r0, np.array(shifts, dtype=complex), space, steps


def _dense_residual(h, g):
    """Residual norm of ``min ||g - h y||`` by LAPACK's SVD-based least
    squares and a scale for the comparison tolerance; None for a
    numerically rank-deficient ``h``."""
    y, _, rank, _ = np.linalg.lstsq(h, g, rcond=None)
    if rank < h.shape[1]:
        return None, None
    return (np.linalg.norm(g - h @ y),
            np.linalg.norm(g) + np.linalg.norm(h) * np.linalg.norm(y))


@SETTINGS
@given(families())
def test_every_estimate_equals_dense_least_squares_residual(family):
    a, r0, shifts, space, steps = family
    ell = len(shifts)
    k = space.k if space is not None else 0
    arn = block_arnoldi_start(r0, space)
    qr = ShiftedBandQR(shifts, arn.s0.T, ell, k, steps, a.frobenius_norm)
    checked = 0
    blocks = None
    for _ in range(steps):
        if arn.invariant:
            break
        arn = block_arnoldi_extend(a, arn, 1)
        j = arn.steps
        cols = slice((j - 1) * ell, j * ell)
        qr.append(arn.hess[:j * ell, cols], arn.hess[j * ell:, cols],
                  arn.coupling[:, cols])
        if k:
            blocks = augmentation_blocks(space, arn.basis, prev=blocks)
            estimates = qr.augmented_residual(blocks.p, blocks.q2,
                                              blocks.n_factor,
                                              np.zeros(ell, dtype=bool))
        else:
            estimates = qr.residual()
            galerkin, singular = qr.galerkin_residual()
        for i, sigma in enumerate(shifts):
            g_mat = augmented_matrix(arn.hess, arn.coupling, blocks.p,
                                     blocks.q2, blocks.n_factor, sigma) if k \
                else arn.hess + sigma * np.eye(*arn.hess.shape)
            g_vec = np.zeros(g_mat.shape[0], dtype=complex)
            g_vec[:ell] = arn.s0[:, i]
            resid, scale = _dense_residual(g_mat, g_vec)
            if resid is None:
                continue
            assert abs(estimates[i] - resid) <= 1e-10 * scale
            checked += 1
            if k or singular[i]:
                continue
            if np.linalg.cond(g_mat[:j * ell]) > 1e14:
                continue
            y = np.linalg.solve(g_mat[:j * ell], g_vec[:j * ell])
            galerkin_true = np.linalg.norm(g_mat[j * ell:] @ y)
            assert abs(galerkin[i] - galerkin_true) <= 1e-10 * (
                np.linalg.norm(g_vec) + np.linalg.norm(g_mat)
                * np.linalg.norm(y))
    assume(checked > 0)
