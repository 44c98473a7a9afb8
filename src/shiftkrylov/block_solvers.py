"""Shifted block GMRES and FOM over one shared block Krylov subspace, and
the restart engine they (and the recycled variant) run on, whose own
cycles render collinear initial residuals independent by the strategy
named by a tag of :data:`STRATEGY_TAGS`.  Every cycle of the package,
the engine's and the collinear baselines', steps through one loop,
:func:`_steps`.

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


def _collinear_columns(r, norms, cols, tol):
    """True iff all pairwise sines of angles between the columns of ``r``
    in the mask ``cols``, all nonzero, are <= tol; ``norms`` holds the
    column norms of ``r``.

    The sines against the first column decide almost every block in one
    O(p n) pass: one above ``tol`` is a failing pair, and when none is
    above ``tol / 2`` every pair passes, because the angle between lines
    is a metric and ``sin(2 asin(tol / 2)) <= tol``.  Only in between do
    the later columns' sweeps run.
    """
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


def _nonzero_collinear(r, norms):
    """Whether the nonzero columns of ``r``, at least two, are collinear;
    ``norms`` holds the column norms of ``r``."""
    cols = norms > 0.0
    return np.count_nonzero(cols) > 1 and _collinear_columns(
        r, norms, cols, COLLINEAR_TOL)


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


def _steps(a, arn, qr, steps, report, blocks=True):
    """The step loop of every cycle: up to ``steps`` block Arnoldi steps
    on ``a`` from the state ``arn``, each counted in ``report`` (the width
    of the block it multiplies in ``matvecs``, and one block product when
    ``blocks``) and appended to ``qr`` as its new block column.  Yields
    the state after each step; the step that closes the relation is the
    last, and a start of rank zero takes none."""
    for _ in range(steps):
        # the last basis block, empty once the relation closed
        width = arn.basis.shape[1] - arn.hess.shape[1]
        if not width:
            return
        arn = block_arnoldi_extend(a, arn, 1)
        report.matvecs += width
        if blocks:
            report.block_matvecs += 1
        cols = arn.hess.shape[1]
        new = slice(cols - width, cols)
        qr.append(arn.hess[:cols, new], arn.hess[cols:, new],
                  arn.coupling[:, new])
        yield arn


def _next_attempt(r, resid, tag, attempt, report):
    """The tag of the decollinearizing attempt that follows attempt
    ``attempt`` (from 0) by ``tag``, which left the residual block ``r``
    with column norms ``resid``: None, with a note, once the columns are
    not collinear; otherwise, with a note, ``fom-random-block`` after
    ``gmres-cycle`` and ``tag`` again after a random draw.  After the
    last of ``_STRATEGY_RETRIES`` attempts, collinear columns raise
    :class:`CollinearityError`."""
    if not _nonzero_collinear(r, resid):
        report.note(f"decollinearized with {tag}")
        return None
    if attempt + 1 == _STRATEGY_RETRIES:
        raise CollinearityError(
            f"residuals remain collinear after {_STRATEGY_RETRIES} attempts")
    if tag == "gmres-cycle":
        report.note("gmres-cycle strategy left residuals collinear "
                    "(stagnation); falling back to fom-random-block")
        return "fom-random-block"
    report.note(f"{tag} strategy left residuals collinear; drawing again")
    return tag


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


def _run_cycles(family: ShiftedFamily, cfg: SolverConfig, *, kind,
                strategy="gmres-cycle", space=None, recycle_k=0,
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
    each block product counts that many matvecs, less the columns its
    QRs deflated; ``report.block_widths`` records the width per cycle.  The solve ends, with a note naming the
    shifts that leave, after a cycle in which no active shift progressed
    and the next cycle could not either: after a minimum-residual cycle,
    each active shift converged or met the ``_STAGNATION_TOL`` test and
    the next cycle searches inside this one's space (the recycle space
    kept, or drawn from a closed unaugmented Krylov space); after a
    Galerkin one, whose residual is not monotone, no column of the block
    changed, so the next cycle would repeat this one.  After a
    minimum-residual cycle a shift whose true residual rose past the
    drift tolerance (rounding) gets its cycle-start iterate and residual
    back, with a note.

    An unaugmented start whose nonzero residual columns are collinear is
    made independent by the tag ``strategy``, in up to
    ``_STRATEGY_RETRIES`` attempts whose draws are seeded by
    ``(cfg.seed, attempt)``.  ``random-x0`` redraws the initial guess
    before the first cycle, one counted block product per draw, and the
    report records the start it keeps as a second cycle-0 point.  The
    other tags choose the subproblem of the engine's next cycle, whatever
    ``kind`` is: ``gmres-cycle`` a minimum-residual cycle on the residual
    block, which its start QR deflates to one column, ``fom-random-block``
    a Galerkin cycle on the residual block beside one random column
    fewer than the family has shifts (``report.block_widths`` counts
    them).  Such a cycle is a cycle like any other: it counts toward
    ``cfg.max_cycles``, ends at the true residual and ends the solve once
    every shift converged.  After each attempt the residual columns
    either read independent (noted ``decollinearized with <tag>``) or the
    next attempt follows, with a note (``gmres-cycle`` falls back to
    ``fom-random-block``, a random strategy draws again); after the last,
    :class:`CollinearityError` is raised.  The report gets one point for
    the whole family at the start, after each cycle's oblique projection
    and after each step of :func:`_steps`; each cycle's Arnoldi chain
    allocates its workspace once, for ``cfg.cycle_length`` steps.

    Returns ``(x, report, space)`` where ``space`` is the final recycle
    space (possibly empty).
    """
    if strategy not in STRATEGY_TAGS:
        raise DimensionError(f"unknown strategy '{strategy}'")
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

    # the tag of the next decollinearizing attempt, None once the residual
    # columns are independent
    tag = strategy if not converged.all() and ell > 1 and k_now == 0 \
        and _nonzero_collinear(r, resid) else None
    attempt = 0
    while tag == "random-x0":
        rng = np.random.default_rng(
            np.random.SeedSequence((cfg.seed, attempt)))
        x = rng.standard_normal(x.shape).astype(x.dtype)
        r = family.residual_block(x)
        report.block_matvecs += 1
        report.matvecs += ell
        resid = np.linalg.norm(r, axis=0)
        tag = _next_attempt(r, resid, tag, attempt, report)
        attempt += 1
    if attempt:
        # the solve starts from the redrawn initial guess
        converged = resid <= targets
        report.record_step(0, 0, resid, converged)

    cycle, qr = 0, None
    while cycle < cfg.max_cycles and not converged.all():
        cycle += 1
        report.cycles = cycle
        # a decollinearizing cycle's subproblem is the strategy's, whatever
        # the solve's
        kind_now = {"gmres-cycle": "gmres", "fom-random-block": "fom"}.get(
            tag, kind)
        resid_at_start = resid.copy()
        kept = (x.copy(), r.copy()) if kind_now == "gmres" else None
        active = ~converged
        # the cycle's block holds the columns of the shifts unconverged as
        # it starts, those its oblique projection converges included
        in_block = active.copy()
        block = np.nonzero(in_block)[0]
        # a fom-random-block cycle's block adds one random column fewer
        # than the family has shifts
        drawn = ell - 1 if tag == "fom-random-block" else 0
        report.block_widths.append(len(block) + drawn)
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
        start = r[:, block]
        if drawn:
            # each as long as the largest residual column beside a unit one
            rng = np.random.default_rng(
                np.random.SeedSequence((cfg.seed, attempt)))
            start = np.concatenate((start, resid.max() * rng.standard_normal(
                (family.n, drawn))), axis=1)
        arn = block_arnoldi_start(start, cur_space, capacity=cfg.cycle_length)
        rhs = np.concatenate(
            (arn.s0[:, np.searchsorted(block, idx)],
             (cur_space.c.conj().T @ r[:, idx]) * alone[idx]))
        args = (shifts[idx], rhs.T, len(arn.s0), k_now, cfg.cycle_length,
                a.frobenius_norm)
        if qr is None:
            # sized for the first cycle's whole block, the widest, so that
            # no later cycle whose start keeps more columns reallocates
            qr = ShiftedBandQR(*args[:2], start.shape[1], *args[3:])
        qr.restart(*args)
        rho = resid.copy()
        blocks, noted = None, ()
        for arn in _steps(a, arn, qr, cfg.cycle_length, report):
            iteration += 1
            if k_now > 0:
                blocks = augmentation_blocks(cur_space, arn.basis,
                                             prev=blocks)
                if blocks.padded and blocks.padded != noted:
                    report.note(
                        f"cycle {cycle} step {arn.steps}: recycle directions "
                        f"{list(blocks.padded)} numerically contained in "
                        "the Krylov space")
                noted = blocks.padded
                est = qr.augmented_residual(blocks.p, blocks.q2,
                                            blocks.n_factor, alone[idx])
            elif kind_now == "gmres":
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
            if np.count_nonzero(done) == ell:
                break

        # a start block of rank zero, inside span(C), takes no step and
        # leaves every iterate as it is
        y = np.zeros((ell, 0))
        if arn.steps:
            name = "Galerkin" if kind_now == "fom" else "least-squares"
            for i in idx[np.isnan(est)]:
                report.note(f"cycle {cycle}: no {name} iterate for shift "
                            f"index {i}; kept previous approximation")
            # one update for every k, in every column: an empty space adds
            # no columns or rows, and a shift not solved this cycle gets
            # zero coefficients
            y = _scatter_rows(qr.solve(), idx, ell)
            cols = arn.w.shape[1]
            _add_products(x, (arn.w, y[:, :cols]), (cur_space.u, y[:, cols:]))
        report.replacements.extend((cycle, *pair)
                                   for pair in arn.replacements)
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
        if tag and not converged.all():
            tag = _next_attempt(r, resid, tag, attempt, report)
            attempt += 1
            if tag:
                # the next cycle decollinearizes again, unaugmented: this
                # one neither refreshes the recycle space nor ends the solve
                continue

        # the next cycle searches inside this one's space when it keeps the
        # recycle space (no refresh, or no step to refresh it from), or
        # when this cycle closed an unaugmented Krylov space, which holds
        # any recycle space drawn from it
        refresh = recycle_k > 0 and arn.steps > 0
        inside = not refresh or (k_now == 0 and arn.invariant)
        if refresh:
            try:
                cur_space = update_recycle_space(arn, recycle_mode,
                                                 recycle_k, cur_space)
                k_now = cur_space.k
            except (ShiftKrylovError, np.linalg.LinAlgError) as exc:
                report.note(f"cycle {cycle}: recycle update failed "
                            f"({exc}); space kept")
        if kind_now == "gmres":
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
            strategy: str = "gmres-cycle"):
    """Shifted block GMRES: minimize every shifted residual over the block
    Krylov space of the residual block, restarting until all shifts
    converge.  Collinear initial residuals are made independent by
    ``strategy``, a tag of :data:`STRATEGY_TAGS`, whose cycles are the
    engine's own (see :func:`_run_cycles`); an unknown tag raises
    :class:`DimensionError`.  Returns ``(x, report)``."""
    x, report, _ = _run_cycles(family, cfg, kind="gmres", strategy=strategy,
                               method="sbgmres")
    return x, report


def sbfom(family: ShiftedFamily, cfg: SolverConfig,
          strategy: str = "gmres-cycle"):
    """Shifted block FOM: Galerkin condition per shift over the shared
    block Krylov space, with ``strategy`` as in :func:`sbgmres`.  Returns
    ``(x, report)``."""
    x, report, _ = _run_cycles(family, cfg, kind="fom", strategy=strategy,
                               method="sbfom")
    return x, report
