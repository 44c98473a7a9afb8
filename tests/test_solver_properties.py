"""Property-based checks of the solvers as a whole: ``sgmres`` and
``sfom`` on collinear families, ``sbgmres``, ``sbfom`` and ``rsbgmres``
on any family, and ``sbgmres`` and ``sbfom`` under each decollinearizing
strategy on collinear families.  On every generated family a solve

- raises nothing but :class:`ShiftKrylovError` subclasses (a bare
  ``numpy.linalg.LinAlgError`` or a ``RuntimeWarning``, which tier-1 turns
  into an error, fails the check);
- flags a shift converged only if its true residual, recomputed here from
  the dense matrix, meets the target to within a factor 1 + 1e-6;
- gives the identical iterate and report rows when rerun;
- for the minimum-residual methods (``sbgmres``, which at one shift is
  ``gmres_restarted``'s path, ``rsbgmres`` and ``sgmres`` at its base
  shift), returns from x0 = 0 no iterate whose true residual exceeds
  ``||b_i||``.

Generated families have complex, near-duplicate and zero shifts, and
collinear, zero or rank-deficient right-hand sides; small n with long
cycles lets the Krylov space exhaust the ambient dimension.  Examples are
derandomized and bounded so the module runs in a few seconds; the
environment variable ``SHIFTKRYLOV_PROPERTY_EXAMPLES`` raises the number
of examples per test from 40 for a longer sweep.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from shiftkrylov import (RecycleSpace, ShiftedFamily, ShiftKrylovError,
                         SolverConfig, SparseMatrix, rsbgmres, sbfom, sbgmres,
                         sfom, sgmres)
from shiftkrylov.block_solvers import STRATEGY_TAGS

from conftest import noise_led_family

SETTINGS = settings(max_examples=int(os.environ.get(
                        "SHIFTKRYLOV_PROPERTY_EXAMPLES", "40")),
                    deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

COLLINEAR = ("sgmres", "sfom")


def _solve(method, family, cfg, k, tag="gmres-cycle"):
    if method == "sgmres":
        return sgmres(family, cfg)
    if method == "sfom":
        return sfom(family, cfg)
    if method == "sbgmres":
        return sbgmres(family, cfg, tag)
    if method == "sbfom":
        return sbfom(family, cfg, tag)
    # a pair (start, k) starts from a space of `start` unit vectors and
    # refreshes it to k directions per cycle (keeps it when k = 0)
    start, k = k if isinstance(k, tuple) else (max(-k, 0), max(k, 0))
    space = RecycleSpace.from_basis(
        family.matrix, np.eye(family.n, start)[:, ::-1]) if start else None
    return rsbgmres(family, cfg, space, k=k, update=k > 0)[:2]


@st.composite
def problems(draw, collinear):
    """``(a, shifts, rhs, cfg, k)``: a dense matrix, distinct shifts,
    right-hand sides (collinear when ``collinear``), a solver config and
    the recycle request (``k > 0`` Ritz updates of dimension k, ``k < 0``
    a fixed space from -k unit vectors, 0 none)."""
    n = draw(st.integers(2, 8))
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    complex_data = draw(st.booleans())
    a = rng.standard_normal((n, n))
    if complex_data:
        a = a + 1j * rng.standard_normal((n, n))
    matrix = draw(st.sampled_from(["random", "diagonal", "skew", "identity",
                                   "integer"]))
    if matrix == "random":
        a = a + draw(st.sampled_from([0.0, 3.0])) * np.eye(n)
    elif matrix == "diagonal":
        a = np.diag(np.arange(1.0, n + 1))       # exact arithmetic
    elif matrix == "skew":
        a = a - a.T       # v* A v = 0 for real v: singular Galerkin steps
    elif matrix == "identity":
        a = np.eye(n)     # every Krylov space breaks down at once
    else:
        # symmetric with entries -1, 0, 1: exactly orthogonal residual
        # directions, as for [[1, 1], [1, 0]] at offsets 0 and -2
        a = np.triu(rng.integers(-1, 2, (n, n)).astype(float))
        a = a + np.triu(a, 1).T
    pool = [0.0, 0.5, -1.0, -2.0, 1.0 + 2.0j, 2.0, 0.5 + 1e-12, 1e-12j]
    shifts = draw(st.lists(st.sampled_from(pool), min_size=p, max_size=p,
                           unique=True))
    base = rng.standard_normal(n) + (1j * rng.standard_normal(n)
                                     if complex_data else 0.0)
    kind = "collinear" if collinear else draw(
        st.sampled_from(["collinear", "rank-deficient", "random"]))
    if kind == "collinear":
        scales = draw(st.lists(st.sampled_from([1.0, -2.0, 0.5j, 0.0]),
                               min_size=p, max_size=p))
        rhs = np.outer(base, scales)
    elif kind == "rank-deficient":
        rhs = rng.standard_normal((n, 1)) @ rng.standard_normal((1, p))
        rhs[:, -1] = rhs[:, 0] + rhs[:, -1]
    else:
        rhs = rng.standard_normal((n, p))
    if draw(st.booleans()):
        rhs[:, draw(st.integers(0, p - 1))] = 0.0  # an already solved system
    cfg = SolverConfig(cycle_length=draw(st.integers(1, 6)),
                       tolerance=draw(st.sampled_from([1e-10, 1e-4])),
                       max_cycles=draw(st.integers(1, 6)),
                       seed=draw(st.integers(0, 3)))
    k = draw(st.sampled_from([0, 2, -1, -2])) if n > 3 else 0
    return a, np.array(shifts), rhs, cfg, k


# A = I breaks down at once, and at shift -1 the square system is 0; with
# A = [[1, 1], [1, 0]] and b = e_1 the residual directions of offsets 0
# and -2 are orthogonal after one step
IDENTITY = (np.eye(3), np.array([-1.0, 0.5]), np.outer(np.ones(3), [1, 2.0]),
            SolverConfig(cycle_length=3, max_cycles=3), 0)
ORTHOGONAL = (np.array([[1.0, 1.0], [1.0, 0.0]]), np.array([0.0, -2.0]),
              np.array([[1.0, 1.0], [0.0, 0.0]]),
              SolverConfig(cycle_length=1, max_cycles=2), 0)
# A = diag(1, 2, 3, 4) from the space U = C = e1, refreshed each cycle:
# at shift -1 the 1 x 1 oblique system 1 + sigma vanishes (true residuals
# of 9.04, and 6.3e48 within two cycles, against ||b|| = 2); beside shift
# 0.5, shift -1's least-squares pivots fall to rounding level (3.68)
_DIAG = np.diag(np.arange(1.0, 5.0))
ONE_SHIFT = (_DIAG, np.array([-1.0]), np.ones((4, 1)),
             SolverConfig(cycle_length=4, max_cycles=20), (1, 1))
ONE_SHIFT_TWO_CYCLES = (*ONE_SHIFT[:3],
                        SolverConfig(cycle_length=4, max_cycles=2), (1, 1))
KEPT_SHIFT = (_DIAG, np.array([0.5, -1.0]), np.ones((4, 2)),
              SolverConfig(cycle_length=4, max_cycles=20), (1, 1))
# a candidate block whose noise column hid its live one (1.7e15 and 161)
_NOISE_A, _NOISE_R = noise_led_family()
NOISE_LED = (_NOISE_A, np.array([0.0, 0.5]), _NOISE_R,
             SolverConfig(cycle_length=1, max_cycles=6), 0)


def _check(method, problem, tag="gmres-cycle"):
    a, shifts, rhs, cfg, k = problem
    runs = []
    for _ in range(2):
        family = ShiftedFamily(SparseMatrix.from_dense(a), shifts, rhs, None)
        try:
            x, report = _solve(method, family, cfg, k, tag)
        except ShiftKrylovError:
            runs.append(None)
            continue
        runs.append((x, report))
    first, second = runs
    assert (first is None) == (second is None)
    if first is None:
        return
    (x, report), (x2, report2) = first, second
    assert np.array_equal(x, x2)
    assert repr(report.rows) == repr(report2.rows)
    targets = cfg.tolerance * np.linalg.norm(rhs, axis=0)
    for i, sigma in enumerate(shifts):
        true = np.linalg.norm(rhs[:, i] - a @ x[:, i] - sigma * x[:, i])
        if report.converged[i]:
            assert true <= targets[i] * (1 + 1e-6), (i, true, targets[i])


@pytest.mark.parametrize("method", COLLINEAR)
@SETTINGS
@given(problem=problems(collinear=True))
@example(problem=IDENTITY)
@example(problem=ORTHOGONAL)
def test_collinear_solvers_fail_cleanly_and_flag_truthfully(method, problem):
    _check(method, problem)


@pytest.mark.parametrize("method", ["sbgmres", "sbfom", "rsbgmres"])
@SETTINGS
@given(problem=problems(collinear=False))
@example(problem=IDENTITY)
@example(problem=ORTHOGONAL)
def test_block_solvers_fail_cleanly_and_flag_truthfully(method, problem):
    a, shifts, rhs, cfg, k = problem
    _check(method, (a, shifts, rhs, cfg, k if method == "rsbgmres" else 0))


@pytest.mark.parametrize("tag", STRATEGY_TAGS)
@pytest.mark.parametrize("method", ["sbgmres", "sbfom"])
@SETTINGS
@given(problem=problems(collinear=True))
@example(problem=IDENTITY)
@example(problem=ORTHOGONAL)
def test_block_solvers_decollinearize_cleanly_and_flag_truthfully(
        method, tag, problem):
    _check(method, problem, tag)


def _check_never_worse_than_zero(method, problem):
    """From x0 = 0, a minimum-residual method returns no iterate whose
    true residual exceeds ``||b_i||`` (``sgmres`` minimizes its base shift
    only).  A solve that ran a random initial guess or a
    ``fom-random-block`` cycle (the fallback of ``gmres-cycle``) is exempt:
    neither minimizes."""
    a, shifts, rhs, cfg, k = problem
    family = ShiftedFamily(SparseMatrix.from_dense(a), shifts, rhs, None)
    try:
        x, report = _solve(method, family, cfg, k)
    except ShiftKrylovError:
        return
    if any("random-x0" in note or "fom-random-block" in note
           for note in report.notes):
        return
    cols = [int(np.argmin(np.abs(shifts)))] if method == "sgmres" \
        else range(len(shifts))
    for i in cols:
        true = np.linalg.norm(rhs[:, i] - a @ x[:, i] - shifts[i] * x[:, i])
        bound = np.linalg.norm(rhs[:, i]) * (1 + 1e-6) + 1e-12
        assert true <= bound, (i, true, bound)


@pytest.mark.parametrize("method", ["sbgmres", "rsbgmres"])
@SETTINGS
@given(problem=problems(collinear=False))
@example(problem=IDENTITY)
@example(problem=ORTHOGONAL)
@example(problem=ONE_SHIFT)
@example(problem=ONE_SHIFT_TWO_CYCLES)
@example(problem=KEPT_SHIFT)
@example(problem=NOISE_LED)
def test_block_minimum_residual_never_returns_worse_than_zero(method,
                                                              problem):
    a, shifts, rhs, cfg, k = problem
    _check_never_worse_than_zero(
        method, (a, shifts, rhs, cfg, k if method == "rsbgmres" else 0))


@SETTINGS
@given(problem=problems(collinear=True))
@example(problem=IDENTITY)
@example(problem=ORTHOGONAL)
def test_gmres_cycle_never_returns_worse_than_zero(problem):
    # the default strategy's cycle is minimum residual, under the drift
    # guard of every sbgmres cycle
    _check_never_worse_than_zero("sbgmres", problem)


@SETTINGS
@given(problem=problems(collinear=True))
@example(problem=IDENTITY)
@example(problem=ORTHOGONAL)
def test_sgmres_base_shift_never_returns_worse_than_zero(problem):
    _check_never_worse_than_zero("sgmres", problem)
