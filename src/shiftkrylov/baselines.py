"""Single-vector baselines: restarted GMRES and FOM, and the classical
collinear-residual shifted solvers that share one single-vector Krylov
space across all shifts.  Every basis comes from the block Arnoldi
process at block size one, and every solver runs on the restart
scaffold of :mod:`.block_solvers`.

The collinear methods are the comparison points for the block solvers:
they are cheap (one vector per step serves every shift) but only apply
when all shifted residuals are scalar multiples of one another, and they
must preserve that collinearity at every restart.  Their small problems
live in one :class:`.dense.ShiftedGivensQR` state per cycle, updated at
each step for every shift together rather than refactored per shift.
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
from .sparse import COMPLEX, ShiftedFamily, SparseMatrix, add_shift


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


def _require_collinear(r, resid, converged, method):
    """Raise unless the nonzero initial residuals are pairwise collinear."""
    if not converged.all() and np.count_nonzero(resid) > 1 \
            and not _nonzero_collinear(r):
        raise CollinearityError(
            f"{method} requires pairwise collinear initial residuals; "
            "use a block method for unrelated right-hand sides")


def _record_step(report, cycle, iteration, active, converged, resid, rho,
                 ok, targets):
    """One row per shift of the shared family for one step: a converged
    shift repeats its residual, and a shift whose system is singular at
    this step (not ``ok``) keeps its previous estimate and is not
    converged.  A shift that left the family records no row."""
    for i in range(len(rho)):
        if active[i]:
            report.record(i, cycle, iteration, rho[i],
                          bool(ok[i] and rho[i] <= targets[i]))
        elif converged[i]:
            report.record(i, cycle, iteration, resid[i], True)


def _solve_alone(family, cfg, kind, report, x, alone, cycles, iteration):
    """Run the block engine on each shift in ``alone`` by itself, from its
    current iterate, for the ``cycles`` left of the budget, and merge the
    result into ``report`` and ``x``.  Its rows are offset by the shared
    loop's cycle and iteration counts and by the products counted so far.
    Returns whether any shift was solved."""
    budget = cfg.max_cycles - cycles
    idx = np.nonzero(alone)[0] if budget > 0 else []
    longest = 0
    for i in idx:
        report.note(f"shift index {i} left the shared family; solved alone "
                    f"for up to {budget} more cycles")
        fam = ShiftedFamily(family.matrix, family.shifts[i:i + 1],
                            family.rhs[:, i:i + 1], x[:, i:i + 1])
        xi, sub, _ = _run_cycles(fam, replace(cfg, max_cycles=budget),
                                 kind=kind, method=report.method)
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


def sgmres(family: ShiftedFamily, cfg: SolverConfig, base_index=None):
    """Restarted shifted GMRES with collinear residuals.

    One system (``base_index``, by default the smallest shift in modulus,
    which is typically the hardest) is minimized per cycle over the Krylov
    space of its own shifted operator, built by the block Arnoldi process
    at block size one.  Every other shifted iterate is chosen so its
    residual stays a scalar multiple of the base residual.  All shifts,
    the base at offset 0, share one :class:`ShiftedGivensQR` state: each
    step costs O(j) vector operations over the shifts, the collinearity
    factor and residual estimate of shift i come from the unit direction
    ``q_b`` of the base residual, and each cycle ends with one triangular
    solve per shift.  A happy breakdown gives the exact square solve
    through the same formulas.  Existence of the collinear iterate is
    guaranteed for positive-real matrices and positive real shifts; a
    shift whose collinearity system is singular keeps its previous
    iterate for that cycle, with a note.  Returns ``(x, report)``.
    """
    report, targets, x, r, resid, converged = _start(family, cfg, "sgmres")
    _require_collinear(r, resid, converged, "sgmres")
    ell = family.n_shifts
    shifts = family.shifts
    base = int(np.argmin(np.abs(shifts))) if base_index is None \
        else int(base_index)
    a_base = add_shift(family.matrix, shifts[base])
    iteration = 0
    r_true = None
    cycle = 0
    left = np.zeros(ell, dtype=bool)
    while cycle < cfg.max_cycles and not (converged | left).all():
        cycle += 1
        report.cycles = cycle
        active = ~converged & ~left
        beta = np.linalg.norm(r[:, base])
        if beta == 0.0:
            report.note(f"cycle {cycle}: base residual vanished exactly")
            break
        v1 = r[:, base] / beta
        factors = (v1.conj() @ r) / beta    # r_i ~= factors_i * r_base
        arn = block_arnoldi_start(v1)
        qr = ShiftedGivensQR(shifts - shifts[base], beta, cfg.cycle_length)
        rho = resid.copy()
        for _j in range(cfg.cycle_length):
            arn = block_arnoldi_extend(a_base, arn, 1)
            report.matvecs += 1
            iteration += 1
            j = arn.steps
            basis, hb, breakdown = _unit_relation(arn)
            qr.append(hb[:j, j - 1], 0.0 if breakdown else hb[j, j - 1])
            q_b = qr.q[base, :j + 1]
            overlap = qr.q[:, :j + 1].conj() @ q_b     # q_i* q_b
            singular = np.abs(overlap) <= _SINGULAR_RTOL
            if breakdown:
                singular |= qr.galerkin_singular(_SINGULAR_RTOL)
            t = np.zeros(ell, dtype=COMPLEX)
            np.divide(factors * qr.g[:, j], overlap, out=t, where=~singular)
            ok = active & ~singular
            rho[ok] = np.abs(t[ok])
            _record_step(report, cycle, iteration, active, converged, resid,
                         rho, ok, targets)
            if np.all(rho[active] <= targets[active]) or breakdown:
                break
        update = active & ~singular
        # the base residual starts the next cycle, converged or not
        update[base] = not singular[base]
        for i in np.nonzero(active & singular)[0]:
            report.note(f"cycle {cycle}: no collinear update for shift "
                        f"index {i}")
        qh_qb = qr.apply_adjoint(q_b)
        idx = np.nonzero(update)[0]
        ys = [qr.solve(i, factors[i] * qr.g[i, :j] - t[i] * qh_qb[i, :j])
              for i in idx]
        if ys:
            x[:, idx] += basis[:, :j] @ np.column_stack(ys)
            # after a breakdown the basis has j columns, q_b = e_{j+1}, t = 0
            r[:, idx] = np.outer(basis @ q_b[:basis.shape[1]], t[idx])
        resid, converged, r_true = _end_cycle(family, report, cycle, x, r,
                                              converged, targets, active)
        # a skipped shift's residual is no longer collinear with the base
        # residual, and the family cannot go on without its base
        left |= active & singular
        if left[base]:
            left |= ~converged
    if _solve_alone(family, cfg, "gmres", report, x, left & ~converged,
                    cycle, iteration):
        r_true = None
    _finish(family, report, x, targets, r_true)
    return x, report


def sfom(family: ShiftedFamily, cfg: SolverConfig):
    """Restarted shifted FOM with collinear residuals.

    One shared Krylov basis per cycle, built by the block Arnoldi process
    at block size one; each shift gets the Galerkin solve with its own
    diagonal shift of the square Hessenberg block.  Every shift is one
    row of a :class:`ShiftedGivensQR` state, so a step costs O(j) vector
    operations over the shifts, the residual estimate
    ``|h_{j+1,j}| |y_j|`` is read off the factor, and each cycle ends with
    one triangular solve per shift.  The FOM residual at cycle end is
    ``-h_{j+1,j} y_j v_{j+1}``, parallel to the next Arnoldi vector, so
    collinearity survives every restart without extra work.  A shift
    whose Galerkin system is singular keeps its previous iterate for that
    cycle, with a note.  Returns ``(x, report)``.
    """
    report, targets, x, r, resid, converged = _start(family, cfg, "sfom")
    _require_collinear(r, resid, converged, "sfom")
    ell = family.n_shifts
    shifts = family.shifts
    iteration = 0
    r_true = None
    cycle = 0
    left = np.zeros(ell, dtype=bool)
    while cycle < cfg.max_cycles and not (converged | left).all():
        cycle += 1
        report.cycles = cycle
        active = ~converged & ~left
        v1, _ = _reference_direction(r[:, ~left])
        beta = v1.conj() @ r        # r_i = beta_i * v1 in the shared family
        arn = block_arnoldi_start(v1)
        qr = ShiftedGivensQR(shifts, beta, cfg.cycle_length)
        rho = resid.copy()
        for _j in range(cfg.cycle_length):
            arn = block_arnoldi_extend(family.matrix, arn, 1)
            report.matvecs += 1
            iteration += 1
            j = arn.steps
            basis, hb, breakdown = _unit_relation(arn)
            sub = 0.0 if breakdown else hb[j, j - 1]
            qr.append(hb[:j, j - 1], sub)
            singular = qr.galerkin_singular(_SINGULAR_RTOL)
            y_last = np.zeros(ell, dtype=COMPLEX)
            np.divide(qr.g_pivot, qr.pivot, out=y_last, where=~singular)
            ok = active & ~singular
            rho[ok] = abs(sub) * np.abs(y_last[ok])
            _record_step(report, cycle, iteration, active, converged, resid,
                         rho, ok, targets)
            if np.all(rho[active] <= targets[active]) or breakdown:
                break
        for i in np.nonzero(active & singular)[0]:
            report.note(f"cycle {cycle}: singular Galerkin system for "
                        f"shift index {i}; update skipped")
        idx = np.nonzero(active & ~singular)[0]
        ys = [qr.galerkin_solve(i) for i in idx]
        if ys:
            x[:, idx] += basis[:, :j] @ np.column_stack(ys)
            r[:, idx] = 0.0 if breakdown else np.outer(basis[:, j],
                                                       -sub * y_last[idx])
        resid, converged, r_true = _end_cycle(family, report, cycle, x, r,
                                              converged, targets, active)
        # a skipped shift's residual is no longer parallel to v_{j+1}
        left |= active & singular
    if _solve_alone(family, cfg, "fom", report, x, left & ~converged,
                    cycle, iteration):
        r_true = None
    _finish(family, report, x, targets, r_true)
    return x, report
