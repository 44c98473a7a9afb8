"""Single-vector baselines: restarted GMRES and FOM, and the classical
collinear-residual shifted solvers that share one single-vector Krylov
space across all shifts.  Every basis comes from the block Arnoldi
process at block size one, and every solver runs on the restart
scaffold of :mod:`.block_solvers`.

The collinear methods are the comparison points for the block solvers:
they are cheap (one vector per step serves every shift) but only apply
when all shifted residuals are scalar multiples of one another, and they
must preserve that collinearity at every restart.  Both run on one
restart driver, :func:`_collinear_cycles`; they differ only in two hooks,
the per-step residual estimate and the cycle-end coefficients.  Their
small problems live in one :class:`.dense.ShiftedGivensQR` state per
cycle, updated at each step for every shift together rather than
refactored per shift.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .arnoldi import block_arnoldi_extend, block_arnoldi_start
from .block_solvers import (_SINGULAR_RTOL, _end_cycle, _finish,
                            _nonzero_collinear, _reference_direction,
                            _run_cycles, _start, _unit_relation)
from .dense import ShiftedGivensQR
from .errors import CollinearityError
from .report import SolverConfig
from .sparse import ShiftedFamily, SparseMatrix, add_shift


def gmres_restarted(a: SparseMatrix, b, x0, cfg: SolverConfig):
    """Restarted GMRES; each cycle minimizes the residual over the Krylov
    space of the current residual.  Returns ``(x, report)``.

    Implemented as the single-column degenerate case of the block engine,
    so its iterates coincide exactly with the block method at block size
    one.
    """
    family = ShiftedFamily(a, [0.0], b, x0)
    x, report, _ = _run_cycles(family, cfg, kind="gmres", method="gmres")
    return x[:, 0], report


def fom_restarted(a: SparseMatrix, b, x0, cfg: SolverConfig):
    """Restarted FOM (Galerkin condition per cycle).  Returns
    ``(x, report)``; a singular Galerkin system skips that cycle's update
    and is noted."""
    family = ShiftedFamily(a, [0.0], b, x0)
    x, report, _ = _run_cycles(family, cfg, kind="fom", method="fom")
    return x[:, 0], report


def _solve_alone(family, cfg, report, x, alone, cycles, iteration):
    """Run restarted GMRES on each shift in ``alone`` by itself, from its
    current iterate, for the ``cycles`` left of the budget, and merge the
    result into ``report`` and ``x``; a note names the cycle length.  Its
    rows are offset by the shared loop's cycle and iteration counts and
    by the products counted so far.  Returns whether any shift was
    solved."""
    budget = cfg.max_cycles - cycles
    idx = np.nonzero(alone)[0] if budget > 0 else []
    longest = 0
    for i in idx:
        report.note(f"shift index {i} left the shared family; solved alone "
                    f"by gmres({cfg.cycle_length}) for up to {budget} more "
                    "cycles")
        fam = ShiftedFamily(family.matrix, family.shifts[i:i + 1],
                            family.rhs[:, i:i + 1], x[:, i:i + 1])
        xi, sub, _ = _run_cycles(fam, replace(cfg, max_cycles=budget),
                                 kind="gmres", method=report.method)
        x[:, i] = xi[:, 0]
        for (_, cyc, it, mv, bmv, res, conv) in sub.rows:
            report.rows.append((int(i), cycles + cyc, iteration + it,
                                report.matvecs + mv,
                                report.block_matvecs + bmv, res, conv))
        report.matvecs += sub.matvecs
        report.block_matvecs += sub.block_matvecs
        report.extra_matvecs += sub.extra_matvecs
        report.notes.extend(f"shift index {i} alone: {note}"
                            for note in sub.notes)
        longest = max(longest, sub.cycles)
    report.cycles = cycles + longest
    return len(idx) > 0


def _collinear_cycles(family, cfg, method, base, step, end, skip_note,
                      solo_cfg):
    """The restart loop of the collinear methods.

    Each cycle's Krylov space starts from the unit residual ``v1`` of
    shift ``base`` on ``A + sigma_base I`` or, for ``base`` None, from the
    largest residual on ``A``; every shift is one row of a
    :class:`ShiftedGivensQR` state with right-hand side ``v1* r_i``.  Two
    hooks make the method.  ``step(qr, base, sub)``, given the step's
    subdiagonal entry (0 after a happy breakdown), returns per shift the
    coefficient ``c_i`` of its residual ``c_i W d`` and the mask of shifts
    with no iterate.  ``end(qr, base, idx, c)`` returns the cycle-end
    coefficients of the shifts ``idx`` (one column each) and the unit
    direction ``d`` (j+1 entries).  A shift with no iterate keeps its
    previous one, with the note ``skip_note``, and leaves the family, which
    cannot go on without its base; shifts that left unconverged are then
    solved alone by restarted GMRES under ``solo_cfg``.
    """
    report, targets, x, r, resid, converged = _start(family, cfg, method)
    if not converged.all() and np.count_nonzero(resid) > 1 \
            and not _nonzero_collinear(r):
        raise CollinearityError(
            f"{method} requires pairwise collinear initial residuals; "
            "use a block method for unrelated right-hand sides")
    shift0 = 0.0 if base is None else family.shifts[base]
    a = family.matrix if base is None else add_shift(family.matrix, shift0)
    iteration = cycle = 0
    r_true = None
    left = np.zeros(family.n_shifts, dtype=bool)
    while cycle < cfg.max_cycles and not (converged | left).all():
        cycle += 1
        report.cycles = cycle
        active = ~converged & ~left
        if base is None:
            v1, _ = _reference_direction(r[:, ~left])
        else:
            beta = np.linalg.norm(r[:, base])
            if beta == 0.0:
                report.note(f"cycle {cycle}: base residual vanished exactly")
                break
            v1 = r[:, base] / beta
        arn = block_arnoldi_start(v1)
        qr = ShiftedGivensQR(family.shifts - shift0, v1.conj() @ r,
                             cfg.cycle_length)
        rho = resid.copy()
        for _j in range(cfg.cycle_length):
            arn = block_arnoldi_extend(a, arn, 1)
            report.matvecs += 1
            iteration += 1
            j = arn.steps
            basis, hb, breakdown = _unit_relation(arn)
            sub = 0.0 if breakdown else hb[j, j - 1]
            qr.append(hb[:j, j - 1], sub)
            coef, singular = step(qr, base, sub)
            ok = active & ~singular
            rho[ok] = np.abs(coef[ok])
            # a converged shift repeats its residual, a singular one keeps
            # its previous estimate, and a shift that left records no row
            done = converged | (ok & (rho <= targets))
            for i in np.nonzero(active | converged)[0]:
                report.record(i, cycle, iteration, rho[i], done[i])
            if np.all(rho[active] <= targets[active]) or breakdown:
                break
        for i in np.nonzero(active & singular)[0]:
            report.note(f"cycle {cycle}: " + skip_note.format(i))
        solved = active & ~singular
        if base is not None:
            # the base residual starts the next cycle, converged or not
            solved[base] = not singular[base]
        idx = np.nonzero(solved)[0]
        if len(idx):
            y, d = end(qr, base, idx, coef)
            x[:, idx] += basis[:, :j] @ y
            # after a breakdown the basis has j columns and d = e_{j+1}
            r[:, idx] = np.outer(basis @ d[:basis.shape[1]], coef[idx])
        resid, converged, r_true = _end_cycle(family, report, cycle, x, r,
                                              converged, targets, active)
        left |= active & singular
        if base is not None and left[base]:
            left |= ~converged
    if _solve_alone(family, solo_cfg, report, x, left & ~converged, cycle,
                    iteration):
        r_true = None
    _finish(family, report, x, targets, r_true)
    return x, report


def _sgmres_step(qr, base, sub):
    """``t_i = g_i[j] / (q_i* q_b)``, with ``r_i = t_i r_base`` at the
    collinear iterate, and the shifts whose collinearity system (after a
    happy breakdown, also whose square system) is singular."""
    j = qr.steps
    overlap = qr.q[:, :j + 1].conj() @ qr.q[base, :j + 1]
    singular = np.abs(overlap) <= _SINGULAR_RTOL
    if sub == 0.0:
        singular |= qr.galerkin_singular(_SINGULAR_RTOL)
    t = np.zeros(len(overlap), dtype=qr.g.dtype)
    np.divide(qr.g[:, j], overlap, out=t, where=~singular)
    return t, singular


def _sgmres_end(qr, base, idx, t):
    """``y_i = R_i^-1 (g_i - t_i Q_i* q_b)``; the residuals lie along
    ``W q_b``."""
    j = qr.steps
    q_b = qr.q[base, :j + 1]
    qh_qb = qr.apply_adjoint(q_b)
    return np.column_stack([qr.solve(i, qr.g[i, :j] - t[i] * qh_qb[i, :j])
                            for i in idx]), q_b


def sgmres(family: ShiftedFamily, cfg: SolverConfig):
    """Restarted shifted GMRES with collinear residuals.

    One system, the base (the smallest shift in modulus, typically the
    hardest), is minimized per cycle over the Krylov space of its own
    shifted operator.  Every other shifted iterate keeps its residual a
    scalar multiple ``t_i`` of the base residual, read off the shared
    :class:`ShiftedGivensQR` state (the base at offset 0) through the unit
    direction ``q_b`` of the base residual.  A happy breakdown gives the
    exact square solve through the same formulas.  The collinear iterate
    exists for positive-real matrices and positive real shifts; a shift
    whose collinearity system is singular keeps its previous iterate for
    that cycle, with a note.  Returns ``(x, report)``.
    """
    base = int(np.argmin(np.abs(family.shifts)))
    return _collinear_cycles(family, cfg, "sgmres", base, _sgmres_step,
                             _sgmres_end,
                             "no collinear update for shift index {}", cfg)


def _sfom_step(qr, base, sub):
    """``-h_{j+1,j} y_j``, the last Galerkin coefficient ``y_j`` scaled to
    the residual along ``v_{j+1}``, and the singular Galerkin systems."""
    singular = qr.galerkin_singular(_SINGULAR_RTOL)
    y_last = np.zeros(len(singular), dtype=qr.g.dtype)
    np.divide(qr.g_pivot, qr.pivot, out=y_last, where=~singular)
    return -sub * y_last, singular


def _sfom_end(qr, base, idx, coef):
    """The Galerkin solutions; the residuals lie along ``v_{j+1}``."""
    return (np.column_stack([qr.galerkin_solve(i) for i in idx]),
            np.eye(qr.steps + 1)[-1])


def sfom(family: ShiftedFamily, cfg: SolverConfig):
    """Restarted shifted FOM with collinear residuals.

    Each shift gets the Galerkin solve with its own diagonal shift of the
    square Hessenberg block of one shared Krylov basis, with residual
    estimate ``|h_{j+1,j}| |y_j|``.  The FOM residual at cycle end is
    ``-h_{j+1,j} y_j v_{j+1}``, parallel to the next Arnoldi vector, so
    collinearity survives every restart without extra work.  A shift
    whose Galerkin system is singular keeps its previous iterate for that
    cycle, with a note, and leaves the family.  It is then solved alone
    by restarted GMRES, not FOM, with cycles one step longer: alone it
    would start from the same Krylov space, so FOM would meet the same
    singular system, and GMRES over that space makes no progress at its
    last step (a singular Galerkin step is a GMRES stagnation step), which
    at cycle length one is every step.  Returns ``(x, report)``.
    """
    return _collinear_cycles(
        family, cfg, "sfom", None, _sfom_step, _sfom_end,
        "singular Galerkin system for shift index {}; update skipped",
        replace(cfg, cycle_length=cfg.cycle_length + 1))
