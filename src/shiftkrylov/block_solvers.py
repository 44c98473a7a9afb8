"""Shifted block GMRES and FOM over one shared block Krylov subspace, the
strategies for rendering collinear initial residuals independent, and the
restart engine they (and the recycled variant) run on.

One cycle builds the block Krylov space of the residual columns of the
shifts still unconverged when it starts (a converged shift costs no more
products), then solves one small shifted subproblem per active shift: a
tall least-squares problem for the minimum-residual method, a square
Galerkin system for the orthogonal-residual method.  The subproblems
share the band Hessenberg data and differ only by ``sigma I`` on the
square part, so every shifted system is driven by the same operator
applications.  One :class:`.dense.ShiftedBandQR` state per cycle,
updated by one block column per step, gives every active shift's
residual estimates and, in one solve at cycle end, its iterate; the true
residual of the iterates, computed at every cycle end, starts the next
cycle.  The recycled method adds a recycle space ``(U, C)``; without one
the space is empty (k = 0).  A shift with no oblique projection is
solved over the Krylov space alone; a shift whose last estimate is NaN
(a singular subproblem) keeps its iterate for the cycle, with a note,
and the rest of the family goes on.  A cycle in which no active shift
progressed ends the solve when the next one could not progress either.
Every solve iterates in its family's working dtype (real for a real
family, see :class:`.sparse.ShiftedFamily`), made complex by a complex
recycle space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arnoldi import _routine, block_arnoldi_extend, block_arnoldi_start
from .dense import ShiftedBandQR
from .errors import (CollinearityError, DimensionError, NearSingularError,
                     ShiftKrylovError)
from .recycling import (RecycleSpace, augmentation_blocks,
                        oblique_project_shift, update_recycle_space)
from .report import SolveReport, SolverConfig
from .sparse import ShiftedFamily

COLLINEAR_TOL = 1e-12
_STRATEGY_RETRIES = 3
_DRIFT_TOL = 1e-8
_STAGNATION_TOL = 1e-14
STRATEGY_TAGS = ("random-x0", "gmres-cycle", "fom-random-block")


def detect_collinear(r, tol=COLLINEAR_TOL):
    """True iff all pairwise sines of angles between columns are <= tol.

    The sines against the first column decide almost every block in one
    O(p n) pass: one above ``tol`` is a failing pair, and when none is
    above ``tol / 2`` every pair passes, because the angle between lines
    is a metric and ``sin(2 asin(tol / 2)) <= tol``.  Only in between do
    the later columns' sweeps run.

    A zero column raises :class:`CollinearityError`: that system is
    already solved and the caller must drop it before asking.
    """
    r = np.asarray(r)
    if r.ndim == 1:
        r = r[:, None]
    norms = np.linalg.norm(r, axis=0)
    if np.any(norms == 0.0):
        raise CollinearityError(
            f"column {int(np.nonzero(norms == 0.0)[0][0])} is zero; the "
            "system is already solved and must be dropped")
    return _collinear_columns(r, norms, norms > 0.0, tol)


def _collinear_columns(r, norms, cols, tol):
    """:func:`detect_collinear` of the columns of ``r`` in the mask
    ``cols``, all nonzero, with the column norms ``norms`` of ``r``."""
    # one contiguous row per unit column, and one reused buffer for the
    # differences, so each column's pass touches no fresh memory
    units = r.T[cols]
    units /= norms[cols, None]
    diff = np.empty_like(units)
    for i in range(len(units) - 1):
        # sines ||u_i - (u_j* u_i) u_j|| against every later column u_j;
        # u_j* u_i is formed as (u_i* u_j)* so only u_i is conjugated
        later, d = units[i + 1:], diff[i + 1:]
        np.multiply(later, (later @ units[i].conj()).conj()[:, None], out=d)
        d -= units[i]
        worst = np.linalg.norm(d, axis=1).max()
        if worst > tol:
            return False
        if i == 0 and worst <= 0.5 * tol:
            return True
    return True


@dataclass(frozen=True)
class DecollinearizeStrategy:
    """How to turn collinear initial residuals into independent ones.

    ``tag`` is one of ``random-x0`` (draw a fresh random initial guess),
    ``gmres-cycle`` (minimize every shifted residual over one shared
    single-vector Krylov space of length ``m_init``), or
    ``fom-random-block`` (one Galerkin cycle over a block space grown from
    the common residual direction plus random columns).
    """

    tag: str = "gmres-cycle"
    m_init: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.tag not in STRATEGY_TAGS:
            raise DimensionError(f"unknown strategy '{self.tag}'")
        if self.m_init < 1:
            raise DimensionError("m_init must be >= 1")


def _nonzero_collinear(r):
    """Whether the nonzero columns of ``r``, at least two, are collinear."""
    norms = np.linalg.norm(r, axis=0)
    cols = norms > 0.0
    return np.count_nonzero(cols) > 1 and _collinear_columns(
        r, norms, cols, COLLINEAR_TOL)


def _reference_direction(r, among=None):
    """The unit direction ``v1`` of the largest column of ``r``, of those
    in the mask ``among`` when given, and ``v1* r``."""
    norms = np.linalg.norm(r, axis=0)
    if among is not None:
        norms[~among] = 0.0
    ref = int(np.argmax(norms))
    if norms[ref] == 0.0:
        raise CollinearityError("all residual columns are zero")
    v1 = r[:, ref] / norms[ref]
    beta = v1.conj() @ r
    return v1, beta


def _add_products(out, *terms):
    """``out += sum_i w_i y_i^T`` in place over all of ``out``'s
    columns, for the pairs ``(w_i, y_i)``: one BLAS ``gemm`` per term with
    columns, accumulating into the transpose of the C-ordered block
    ``out``, so no n x p product or sum is formed.  A zero row of ``y_i``
    leaves its column of ``out`` bit-identical."""
    gemm = _routine("gemm", out.dtype)
    c = out.T
    for w, y in terms:
        if w.shape[1]:
            fortran = w.flags.f_contiguous
            c = gemm(1.0, y, w if fortran else w.T, 1.0, c,
                     trans_b=int(fortran), overwrite_c=True)
    if not np.may_share_memory(c, out):
        out[...] = c.T          # a block that is not C-ordered was copied


def _scatter_rows(a, idx, p):
    """The p-row array holding the rows of ``a`` at ``idx``, zero
    elsewhere."""
    out = np.zeros((p, a.shape[1]), dtype=a.dtype)
    out[idx] = a
    return out


def _strategy_cycle(family, x, r, m_init, report, seed_key=None):
    """One cycle over a space all shifts share, solved from one shifted QR
    state: without ``seed_key`` (``gmres-cycle``) the least squares over
    the Krylov space of the common residual direction, with one
    (``fom-random-block``) the Galerkin solve over the block space of that
    direction and random columns seeded by ``seed_key``."""
    v1, beta = _reference_direction(r)
    block = v1[:, None]
    if seed_key is not None:
        rng = np.random.default_rng(np.random.SeedSequence(seed_key))
        block = np.column_stack(
            (block, rng.standard_normal((family.n, family.n_shifts - 1))))
    ell = block.shape[1]
    arn = block_arnoldi_start(block, capacity=m_init)
    qr = ShiftedBandQR(family.shifts, np.outer(beta, arn.s0[:, 0]), ell, 0,
                       m_init, family.matrix.frobenius_norm)
    for _ in range(m_init):
        arn = block_arnoldi_extend(family.matrix, arn, 1)
        j = arn.steps
        new = slice((j - 1) * ell, j * ell)
        qr.append(arn.hess[:j * ell, new], arn.hess[j * ell:, new],
                  arn.coupling[:, new])
        if arn.invariant:
            break
    report.matvecs += j * ell
    if seed_key is None:
        tag, kind, skipped = "gmres-cycle", "least-squares", \
            np.isnan(qr.residual())
    else:
        report.block_matvecs += j
        tag, kind, skipped = "fom-random-block", "Galerkin", \
            qr.galerkin_residual()[1]
    for i in np.nonzero(skipped)[0]:
        report.note(f"{tag}: singular {kind} system for shift index {i}; "
                    "update skipped")
    # the residual through the Arnoldi relation, (A + sigma_i I) W y_i =
    # W_{j+1} Hbar y_i + sigma_i W y_i, at no further product
    y = qr.solve().T
    x += arn.w @ y
    r -= arn.basis @ (arn.hess @ y) + arn.w @ (y * family.shifts)
    return x, r, j


def _apply_strategy(family, x, r, strategy, report):
    """Render residual columns non-collinear; returns iterations used."""
    tag = strategy.tag
    total_iters = 0
    for attempt in range(_STRATEGY_RETRIES):
        if tag == "random-x0":
            rng = np.random.default_rng(
                np.random.SeedSequence((strategy.seed, attempt)))
            x = rng.standard_normal(x.shape).astype(x.dtype)
            r = family.residual_block(x)
            report.block_matvecs += 1
            report.matvecs += family.n_shifts
            iters = 0
        else:
            x, r, iters = _strategy_cycle(
                family, x, r, strategy.m_init, report,
                None if tag == "gmres-cycle" else (strategy.seed, attempt))
        total_iters += iters
        if not _nonzero_collinear(r):
            report.note(f"decollinearized with {tag}")
            return x, r, total_iters
        if tag == "gmres-cycle":
            report.note("gmres-cycle strategy left residuals collinear "
                        "(stagnation); falling back to fom-random-block")
            tag = "fom-random-block"
    raise CollinearityError(
        f"residuals remain collinear after {_STRATEGY_RETRIES} attempts")


def _start(family: ShiftedFamily, cfg: SolverConfig, method):
    """State of a restarted solve before its first cycle.

    Returns ``(report, targets, x, r, resid, converged)``: the report with
    the cycle-0 point recorded, the per-shift residual targets, the initial
    iterate and residual block (one counted block product when the initial
    guess is nonzero), the residual norms and the converged flags.
    """
    rhs_norms = np.linalg.norm(family.rhs, axis=0)
    report = SolveReport(method=method, shifts=family.shifts.copy(),
                         rhs_norms=rhs_norms)
    targets = cfg.tolerance * rhs_norms if cfg.relative \
        else np.full(family.n_shifts, cfg.tolerance)
    x = family.initial_guess.copy()
    if np.any(x):
        r = family.residual_block(x)
        report.block_matvecs += 1
        report.matvecs += family.n_shifts
    else:
        r = family.rhs.copy()
    resid = np.linalg.norm(r, axis=0)
    converged = resid <= targets
    report.record_step(0, 0, resid, converged)
    return report, targets, x, r, resid, converged


def _end_cycle(family: ShiftedFamily, report, x, r, converged, targets,
               work):
    """Cycle-end bookkeeping: the true residual of ``x`` (counted in
    ``extra_matvecs``) written into ``r``, from which the next cycle
    starts, then its norms and the converged update.  ``work``, a block
    shaped like ``r`` that the solve keeps across cycles, holds ``X D``,
    then ``conj(r)`` and then the squares ``conj(r) * r`` the norms sum,
    the operations of ``np.linalg.norm(r, axis=0)`` in the same order.
    Returns
    ``(resid, converged)``.
    """
    family.residual_block(x, out=r, work=work)
    report.extra_matvecs += family.n_shifts
    np.conjugate(r, out=work)
    squares = np.multiply(work, r, out=work).real
    resid = np.sqrt(np.add.reduce(squares, axis=0))
    return resid, converged | (resid <= targets)


def _finish(family: ShiftedFamily, report, x, targets, r_true):
    """Set the final flags from the true residual, so ``converged[i]``
    means ``||b_i - (A + sigma_i I) x_i|| <= target_i``.

    ``r_true`` is the true residual of ``x`` from the last cycle end, or
    None when the solve left the loop without one; it is then computed
    here and counted in ``extra_matvecs``.  A shift whose last recorded
    point claims convergence that its final flag denies (its last cycle
    was undone) gets one more point for the family, at the last point's
    cycle and iteration, with the true residual norms and final flags.
    """
    if r_true is None:
        r_true = family.residual_block(x)
        report.extra_matvecs += family.n_shifts
    true = np.linalg.norm(r_true, axis=0)
    final = true <= targets
    report.converged = final.tolist()
    report.final_residuals = true.tolist()
    if final.all():
        return
    st = report.steps
    last = len(st.cycle) - 1 - np.argmax(st.recorded[::-1], axis=0)
    if np.any(st.converged[last, np.arange(len(final))] & ~final):
        report.record_step(int(st.cycle[-1]), int(st.iteration[-1]), true,
                           final)


def _cycle_seed(seed, cycle):
    return seed * 1000003 + cycle


def _run_cycles(family: ShiftedFamily, cfg: SolverConfig, *, kind,
                strategy=None, space=None, recycle_k=0,
                recycle_mode="ritz-largest", method="sbgmres"):
    """Restarted shifted block Krylov engine.

    ``kind`` selects the subproblem: ``"gmres"`` (minimum residual, tall
    least squares) or ``"fom"`` (Galerkin, square solve).  With a recycle
    ``space`` each cycle is augmented, and each cycle end refreshes the
    space to ``recycle_k`` directions if that is positive; recycling
    requires ``kind == "gmres"``.  Each cycle ends with one solve on its
    :class:`.dense.ShiftedBandQR` state, then ``x += [W U] [y; z]`` for
    every k including 0, and the true residual of ``x`` (:func:`_end_cycle`)
    starts the next cycle.  A cycle's block holds the residual
    columns of the shifts unconverged as the cycle starts (a shift its
    oblique projection converges keeps its column for that cycle), and
    each block product counts that many matvecs; ``report.block_widths``
    records the width per cycle.  The solve ends, with a note naming the
    shifts that leave, after a cycle in which no active shift progressed
    and the next cycle could not either: for ``"gmres"``, each active
    shift converged or met the ``_STAGNATION_TOL`` test and the next
    cycle searches inside this one's space (the recycle space kept, or
    drawn from a closed unaugmented Krylov space); for ``"fom"``, whose
    residual is not monotone, no column of the block changed, so the
    next cycle would repeat this one.  The report gets one point for the
    whole family at the start, after a decollinearizing rewrite, after
    each cycle's oblique projection and after each step; each cycle's
    Arnoldi chain allocates its workspace once, for ``cfg.cycle_length``
    steps.  For ``"gmres"`` a shift whose true residual rose past the drift
    tolerance (rounding) gets its cycle-start iterate and residual back,
    with a note.

    Returns ``(x, report, space)`` where ``space`` is the final recycle
    space (possibly empty).
    """
    a = family.matrix
    ell = family.n_shifts
    shifts = family.shifts
    report, targets, x, r, resid, converged = _start(family, cfg, method)
    iteration = 0
    r_true = None

    cur_space = space if space is not None else RecycleSpace.empty(family.n)
    k_now = cur_space.k
    # a complex recycle space makes a real family's iterates complex
    dtype = np.result_type(x, cur_space.u)
    x, r = x.astype(dtype, copy=False), r.astype(dtype, copy=False)
    work = np.empty_like(r)

    if not converged.all() and ell > 1 and k_now == 0 \
            and _nonzero_collinear(r):
        strat = strategy if strategy is not None else DecollinearizeStrategy(
            "gmres-cycle", m_init=cfg.cycle_length, seed=cfg.seed)
        x, r, iters = _apply_strategy(family, x, r, strat, report)
        iteration += iters
        resid = np.linalg.norm(r, axis=0)
        converged = resid <= targets
        # a decollinearizing restart rewrites the cycle-0 state; random-x0
        # consumes no iterations, so its record shares the iteration index
        report.record_step(0, iteration, resid, converged)

    cycle, qr = 0, None
    while cycle < cfg.max_cycles and not converged.all():
        cycle += 1
        report.cycles = cycle
        resid_at_start = resid.copy()
        kept = (x.copy(), r.copy()) if kind == "gmres" else None
        active = ~converged
        # the cycle's block holds the columns of the shifts unconverged as
        # it starts, those its oblique projection converges included
        in_block = active.copy()
        block = np.nonzero(in_block)[0]
        report.block_widths.append(len(block))
        # shifts with no oblique projection: solved over the Krylov space
        # alone, their part in span(C) a right-hand side on the coupling rows
        alone = np.zeros(ell, dtype=bool)

        if k_now > 0:
            for i in np.nonzero(active)[0]:
                try:
                    r_hat, x_hat = oblique_project_shift(
                        cur_space, shifts[i], r[:, i], x[:, i])
                    overlap = np.linalg.norm(cur_space.c.conj().T @ r_hat)
                    if overlap > 1e-13 * max(np.linalg.norm(r_hat), 1e-300):
                        r_hat, x_hat = oblique_project_shift(
                            cur_space, shifts[i], r_hat, x_hat)
                except NearSingularError:
                    report.note(f"cycle {cycle}: no oblique projection for "
                                f"shift index {i}; solved over the Krylov "
                                "space alone")
                    alone[i] = True
                    continue
                r[:, i] = r_hat
                x[:, i] = x_hat
            r_true = None
            resid = np.linalg.norm(r, axis=0)
            converged = converged | (resid <= targets)
            report.record_step(cycle, iteration, resid, converged)
            active &= ~converged
            if not active.any():
                break

        idx = np.nonzero(active)[0]
        width = len(block)
        arn = block_arnoldi_start(r[:, block], cur_space,
                                  seed=_cycle_seed(cfg.seed, cycle),
                                  capacity=cfg.cycle_length)
        rhs = np.concatenate(
            (arn.s0[:, np.searchsorted(block, idx)],
             (cur_space.c.conj().T @ r[:, idx]) * alone[idx]))
        args = (shifts[idx], rhs.T, width, k_now, cfg.cycle_length,
                a.frobenius_norm)
        qr = ShiftedBandQR(*args) if qr is None else qr.restart(*args)
        rho = resid.copy()
        blocks, noted = None, ()
        for _j in range(cfg.cycle_length):
            arn = block_arnoldi_extend(a, arn, 1)
            report.block_matvecs += 1
            report.matvecs += width
            iteration += 1
            j = arn.steps
            new = slice((j - 1) * width, j * width)
            qr.append(arn.hess[:j * width, new], arn.hess[j * width:, new],
                      arn.coupling[:, new])
            if k_now > 0:
                blocks = augmentation_blocks(cur_space, arn.basis,
                                             prev=blocks)
                if blocks.padded and blocks.padded != noted:
                    report.note(
                        f"cycle {cycle} step {j}: recycle directions "
                        f"{list(blocks.padded)} numerically contained in "
                        "the Krylov space")
                noted = blocks.padded
                est = qr.augmented_residual(blocks.p, blocks.q2,
                                            blocks.n_factor, alone[idx])
            elif kind == "gmres":
                est = qr.residual()
            else:
                est, _ = qr.galerkin_residual()
            # a singular shift's estimate (NaN) keeps its previous value
            ok = ~np.isnan(est)
            rho[idx[ok]] = est[ok]
            # every shift is converged or active, so a cycle whose shifts
            # are all done has every active shift at its target
            done = converged | (active & (rho <= targets))
            report.record_step(cycle, iteration, rho, done)
            if np.count_nonzero(done) == ell or arn.invariant:
                break

        name = "Galerkin" if kind == "fom" else "least-squares"
        for i in idx[np.isnan(est)]:
            report.note(f"cycle {cycle}: no {name} iterate for shift index "
                        f"{i}; kept previous approximation")
        # one update for every k, in every column: an empty space adds no
        # columns or rows, and a shift not solved this cycle gets zero
        # coefficients
        y = _scatter_rows(qr.solve(), idx, ell)
        cols = arn.w.shape[1]
        _add_products(x, (arn.w, y[:, :cols]), (cur_space.u, y[:, cols:]))
        for rec in arn.replacements:
            report.replacements.append((cycle, rec.step, rec.column,
                                        rec.seed_key))
        resid, converged = _end_cycle(family, report, x, r, converged,
                                      targets, work)
        r_true = r
        worse = kept is not None and active & (
            resid > resid_at_start + _DRIFT_TOL * report.rhs_norms)
        if np.any(worse):
            report.note(f"cycle {cycle}: true residual rose for shift "
                        f"indices {np.nonzero(worse)[0].tolist()}; kept "
                        "previous approximation")
            x[:, worse], r[:, worse] = kept[0][:, worse], kept[1][:, worse]
            resid[worse], r_true = resid_at_start[worse], None
        stalled = active & (resid > targets) & \
            (resid_at_start - resid < _STAGNATION_TOL * resid_at_start)
        if np.any(stalled):
            report.note(f"cycle {cycle}: stagnation for shift indices "
                        f"{np.nonzero(stalled)[0].tolist()}")

        # the next cycle searches inside this one's space when it keeps the
        # recycle space, or when this cycle closed an unaugmented Krylov
        # space, which holds any recycle space drawn from it
        inside = recycle_k == 0 or (k_now == 0 and arn.invariant)
        if recycle_k > 0:
            try:
                cur_space = update_recycle_space(arn, recycle_mode,
                                                 recycle_k, cur_space)
                k_now = cur_space.k
            except (ShiftKrylovError, np.linalg.LinAlgError) as exc:
                report.note(f"cycle {cycle}: recycle update failed "
                            f"({exc}); space kept")
        if kind == "gmres":
            # a minimum residual that did not fall over this cycle's space
            # cannot fall over one inside it, and the next block holds the
            # stalled columns alone, all but unchanged
            stuck = stalled & inside
            rest = active & ~converged
        else:
            # a Galerkin residual is not monotone: only a cycle that left
            # every column of its block as it was, and that the next would
            # repeat, shows that no shift progresses
            stuck = in_block & ~y.any(axis=1)
            rest = in_block
        if np.any(stuck) and not np.any(rest & ~stuck):
            report.note(f"cycle {cycle}: no active shift progressed; shift "
                        f"indices {np.nonzero(stuck)[0].tolist()} leave "
                        "and the solve ends")
            break

    _finish(family, report, x, targets, r_true)
    return x, report, cur_space


def sbgmres(family: ShiftedFamily, cfg: SolverConfig,
            strategy: DecollinearizeStrategy | None = None):
    """Shifted block GMRES: minimize every shifted residual over the block
    Krylov space of the residual block, restarting until all shifts
    converge.  Returns ``(x, report)``."""
    x, report, _ = _run_cycles(family, cfg, kind="gmres", strategy=strategy,
                               method="sbgmres")
    return x, report


def sbfom(family: ShiftedFamily, cfg: SolverConfig,
          strategy: DecollinearizeStrategy | None = None):
    """Shifted block FOM: Galerkin condition per shift over the shared
    block Krylov space.  Returns ``(x, report)``."""
    x, report, _ = _run_cycles(family, cfg, kind="fom", strategy=strategy,
                               method="sbfom")
    return x, report
