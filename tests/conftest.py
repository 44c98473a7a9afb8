"""Shared fixtures and independent oracle helpers.

The oracle routines here deliberately take different computational routes
than the library (dense reconstruction, explicit operator powers, normal
equations) so the tests check against independent arithmetic.
"""

import numpy as np
import pytest

from shiftkrylov import SparseMatrix, block_arnoldi_extend, block_arnoldi_start
from shiftkrylov.dense import ShiftedBandQR


def block_arnoldi(a, r0, m, projector=None):
    """``m`` steps of the (optionally projected) block Arnoldi process
    from ``r0`` in one call, on a chain allocated for ``m`` steps: the
    eager oracle that step-by-step extensions are compared against."""
    return block_arnoldi_extend(
        a, block_arnoldi_start(r0, projector, capacity=m), m)


def random_sparse(n, density=0.2, seed=0, diag_boost=0.0):
    """Seeded random sparse matrix with a guaranteed nonzero diagonal."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    a = rng.standard_normal((n, n)) * mask
    a += np.diag(rng.standard_normal(n) + diag_boost)
    return SparseMatrix.from_dense(a)


def noise_led_family():
    """``(A, R)``: A = [[-1, -1, -1], [-1, 0, 0], [-1, 0, 0]] and a start
    block whose first column leads with -1e-16.  The first block Arnoldi
    step's candidate block has a noise first column parallel to its live
    second one, so both diagonal entries of its unpivoted QR are noise.
    ``A`` is singular; ``A + 0.5 I`` has condition number 3."""
    a = np.array([[-1.0, -1.0, -1.0], [-1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    r0 = np.array([[-1e-16, -1.6], [0.34, 1.5], [-0.34, -1.1]])
    return a, r0


def narrowing_chain(projected=False, complex_start=False, rotation=None):
    """``(A, R, C)``: a dense 12 x 12 operator, a 3-column start block
    whose block Krylov space grows by 3, 3, 2 and 1 directions and then
    closes, so a block Arnoldi process that keeps each block's rank runs
    blocks of widths 3, 3, 2 and 1 and closes at step 4; and C, None or
    the orthonormal 12 x 2 projector basis ``[e11 e12]``.

    A acts on the first 9 coordinates as a symmetric matrix with
    eigenvalues 1, ..., 9 and leaves them exactly invariant (its other
    entries there are zeros).  R mixes, by a random invertible matrix,
    sums of 4, 3 and 2 of those eigenvectors (complex mixing with
    ``complex_start``), so every block lies in the first 9 coordinates
    to the last bit and the fourth step's candidate is rounding noise.
    With ``projected``, A adds ``C K`` for a random K: the projected
    operator ``(I - C C*) A`` acts on the Krylov space as before, and its
    coupling rows ``C* A W = K W`` are dense.

    With a ``rotation`` seed, A, R and C are rotated by a random 12 x 12
    orthogonal matrix G (``G A G^T``, ``G R``, ``G C``): the invariant
    space is then the span of 9 columns of G, which holds the blocks only
    to rounding, so the rounding each step's deflation drops comes back
    in the later candidates."""
    rng = np.random.default_rng(80)
    q = np.linalg.qr(rng.standard_normal((9, 9)))[0]
    a = np.diag(np.arange(1.0, 13.0))
    a[:9, :9] = q @ np.diag(np.arange(1.0, 10.0)) @ q.T
    chains = np.zeros((9, 3))
    chains[0:4, 0] = chains[4:7, 1] = chains[7:9, 2] = 1.0
    mix = rng.standard_normal((3, 3))
    if complex_start:
        mix = mix + 1j * rng.standard_normal((3, 3))
    r0 = np.zeros((12, 3), dtype=mix.dtype)
    r0[:9] = q @ chains @ mix
    c = None
    if projected:
        c = np.eye(12)[:, 10:]
        a = a + c @ rng.standard_normal((2, 12))
    if rotation is not None:
        g = np.linalg.qr(np.random.default_rng(rotation).standard_normal(
            (12, 12)))[0]
        a, r0 = g @ a @ g.T, g @ r0
        c = None if c is None else g @ c
    return a, r0, c


def block_krylov_powers(ad, r0, j):
    """Brute-force basis of the block Krylov space span{R, AR, ..&}."""
    blocks = [r0]
    for _ in range(j - 1):
        blocks.append(ad @ blocks[-1])
    stacked = np.hstack(blocks)
    q, _ = np.linalg.qr(stacked)
    return q


def sylvester_powers(ad, dtilde, f, j):
    """Brute-force basis of the block Krylov space of the Sylvester
    operator T: F -> A F + F Dtilde."""
    blocks = [f]
    cur = f
    for _ in range(j - 1):
        cur = ad @ cur + cur @ dtilde
        blocks.append(cur)
    q, _ = np.linalg.qr(np.hstack(blocks))
    return q


def projected_sylvester_powers(ad, c_basis, dtilde, f, j):
    """Powers of the projected Sylvester operator (I - C C*) T."""
    proj = np.eye(ad.shape[0]) - c_basis @ c_basis.conj().T
    blocks = [f]
    cur = f
    for _ in range(j - 1):
        cur = proj @ (ad @ cur + cur @ dtilde)
        blocks.append(cur)
    q, _ = np.linalg.qr(np.hstack(blocks))
    return q


def band_qr(hbar, coupling, block_size, shifts, rhs):
    """A :class:`ShiftedBandQR` state fed every block column of the band
    Hessenberg relation ``hbar`` with ``coupling`` rows, one step at a
    time, as the solvers feed it; ``hbar`` stands for its operator in
    the singular tests."""
    ell = block_size
    steps = hbar.shape[1] // ell
    qr = ShiftedBandQR(shifts, rhs, ell, coupling.shape[0], steps,
                       np.linalg.norm(hbar))
    for t in range(steps):
        new = slice(t * ell, (t + 1) * ell)
        qr.append(hbar[:(t + 1) * ell, new],
                  hbar[(t + 1) * ell:(t + 2) * ell, new], coupling[:, new])
    return qr


def augmented_matrix(hbar, coupling, p, q2, n_factor, sigma):
    """The shifted augmented matrix built from its definition,
    ``[[Hbar + sigma [I; 0], sigma P], [B, I + sigma Q2], [0, sigma N]]``:
    it maps coefficients on ``[W_j U]`` to coefficients on
    ``[W_{j+1} C Uhat]``, whose ``Uhat`` has one column per row of N."""
    k = q2.shape[0]
    return np.block([
        [hbar + sigma * np.eye(*hbar.shape), sigma * p],
        [coupling, np.eye(k) + sigma * q2],
        [np.zeros((len(n_factor), hbar.shape[1])), sigma * n_factor]])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
