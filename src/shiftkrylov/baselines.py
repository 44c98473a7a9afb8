"""Single-vector baselines: restarted GMRES and FOM, and the classical
collinear-residual shifted solvers that share one single-vector Krylov
space across all shifts.  Every basis comes from the block Arnoldi
process at block size one, and every solver runs on the restart
scaffold of :mod:`.block_solvers`.

The collinear methods are the comparison points for the block solvers:
they are cheap (one vector per step serves every shift) but only apply
when all shifted residuals are scalar multiples of one another, and they
must preserve that collinearity at every restart.
"""

from __future__ import annotations

import numpy as np

from .arnoldi import block_arnoldi_extend, block_arnoldi_start
from .block_solvers import (_end_cycle, _finish, _nonzero_collinear,
                            _reference_direction, _run_cycles, _start,
                            _unit_relation)
from .dense import hessenberg_least_squares, solve_small_dense
from .errors import CollinearityError, NearSingularError
from .recycling import shifted_hessenberg
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


def sgmres(family: ShiftedFamily, cfg: SolverConfig, base_index=None):
    """Restarted shifted GMRES with collinear residuals.

    One system (``base_index``, by default the smallest shift in modulus,
    which is typically the hardest) is minimized per cycle over the Krylov
    space of its own shifted operator, built by the block Arnoldi process
    at block size one; a happy breakdown switches every shift to the exact
    square solve on the invariant subspace.  Every other shifted iterate is
    chosen so its residual stays a scalar multiple of the base residual,
    which costs one small bordered (m+1) x (m+1) solve per shift and per
    cycle.  Existence of those solutions is guaranteed for positive-real
    matrices and positive real shifts; a singular bordered system raises
    an error naming the shift.  Returns ``(x, report)``.
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
    while cycle < cfg.max_cycles and not converged.all():
        cycle += 1
        report.cycles = cycle
        active = ~converged
        beta = np.linalg.norm(r[:, base])
        if beta == 0.0:
            report.note(f"cycle {cycle}: base residual vanished exactly")
            break
        v1 = r[:, base] / beta
        factors = (v1.conj() @ r) / beta    # r_i ~= factors_i * r_base
        arn = block_arnoldi_start(v1)
        rho = resid.copy()
        final = {}
        for _j in range(cfg.cycle_length):
            arn = block_arnoldi_extend(a_base, arn, 1)
            report.matvecs += 1
            iteration += 1
            j = arn.steps
            basis, hb, breakdown = _unit_relation(arn)
            g = np.zeros(hb.shape[0], dtype=COMPLEX)
            g[0] = beta
            y_base, _ = hessenberg_least_squares(hb, g)
            z_hat = g - hb @ y_base
            rho[base] = np.linalg.norm(z_hat)
            for i in range(ell):
                if i == base:
                    continue
                if converged[i]:
                    report.record(i, cycle, iteration, resid[i], True)
                    continue
                h_shift = shifted_hessenberg(hb, 1, shifts[i] - shifts[base])
                rhs = np.zeros(h_shift.shape[0], dtype=COMPLEX)
                rhs[0] = factors[i] * beta
                if breakdown:
                    # invariant subspace: every shifted system is exactly
                    # solvable, no collinearity factor needed
                    sol_i, _ = solve_small_dense(h_shift, rhs)
                    final[i] = (j, sol_i, 0.0)
                    rho[i] = 0.0
                else:
                    bordered = np.hstack([h_shift, z_hat[:, None]])
                    try:
                        sol, _ = solve_small_dense(bordered, rhs)
                    except NearSingularError as exc:
                        if _j == cfg.cycle_length - 1:
                            raise NearSingularError(
                                f"collinearity system is singular for shift "
                                f"{shifts[i]}: {exc}")
                        report.record(i, cycle, iteration, rho[i], False)
                        continue
                    final[i] = (j, sol[:-1], sol[-1])
                    rho[i] = abs(sol[-1]) * np.linalg.norm(z_hat)
                report.record(i, cycle, iteration, rho[i],
                              bool(rho[i] <= targets[i]))
            report.record(base, cycle, iteration, rho[base],
                          bool(rho[base] <= targets[base]))
            if np.all(rho[~converged] <= targets[~converged]) or breakdown:
                break
        j_end = arn.steps
        x[:, base] += basis[:, :j_end] @ y_base
        r[:, base] = basis @ z_hat
        for i in range(ell):
            if i == base or converged[i]:
                continue
            stored = final.get(i)
            if stored is None or stored[0] != j_end:
                report.note(f"cycle {cycle}: no collinear update for shift "
                            f"index {i}")
                continue
            _, y_i, gamma = stored
            x[:, i] += basis[:, :j_end] @ y_i
            r[:, i] = gamma * r[:, base]
        resid, converged, r_true = _end_cycle(family, report, cycle, x, r,
                                              converged, targets, active)
    _finish(family, report, x, targets, r_true)
    return x, report


def sfom(family: ShiftedFamily, cfg: SolverConfig):
    """Restarted shifted FOM with collinear residuals.

    One shared Krylov basis per cycle, built by the block Arnoldi process
    at block size one; each shift gets the Galerkin solve with its own
    diagonal shift of the square Hessenberg block.  The FOM
    residual at cycle end is automatically parallel to the last Arnoldi
    vector, so collinearity survives every restart without extra work.
    Returns ``(x, report)``.
    """
    report, targets, x, r, resid, converged = _start(family, cfg, "sfom")
    _require_collinear(r, resid, converged, "sfom")
    ell = family.n_shifts
    shifts = family.shifts
    iteration = 0
    r_true = None
    cycle = 0
    while cycle < cfg.max_cycles and not converged.all():
        cycle += 1
        report.cycles = cycle
        active = ~converged
        v1, beta = _reference_direction(r)   # r_i = beta_i * v1
        arn = block_arnoldi_start(v1)
        rho = resid.copy()
        final = {}
        for _j in range(cfg.cycle_length):
            arn = block_arnoldi_extend(family.matrix, arn, 1)
            report.matvecs += 1
            iteration += 1
            j = arn.steps
            basis, hb, breakdown = _unit_relation(arn)
            h_sq = hb[:j, :]
            sub = 0.0 if breakdown else hb[j, j - 1]
            for i in range(ell):
                if converged[i]:
                    report.record(i, cycle, iteration, resid[i], True)
                    continue
                g = np.zeros(j, dtype=COMPLEX)
                g[0] = beta[i]
                try:
                    y, _ = solve_small_dense(
                        h_sq + shifts[i] * np.eye(j, dtype=COMPLEX), g)
                except NearSingularError:
                    report.record(i, cycle, iteration, rho[i], False)
                    continue
                final[i] = (j, y)
                rho[i] = abs(sub * y[-1])
                report.record(i, cycle, iteration, rho[i],
                              bool(rho[i] <= targets[i]))
            if np.all(rho[~converged] <= targets[~converged]) or breakdown:
                break
        j_end = arn.steps
        for i in np.nonzero(active)[0]:
            stored = final.get(i)
            if stored is None or stored[0] != j_end:
                report.note(f"cycle {cycle}: singular Galerkin system for "
                            f"shift index {i}; update skipped")
                continue
            _, y = stored
            h_sigma = shifted_hessenberg(hb, 1, shifts[i])
            x[:, i] += basis[:, :j_end] @ y
            g_full = np.zeros(hb.shape[0], dtype=COMPLEX)
            g_full[0] = beta[i]
            r[:, i] = basis @ (g_full - h_sigma @ y)
        resid, converged, r_true = _end_cycle(family, report, cycle, x, r,
                                              converged, targets, active)
    _finish(family, report, x, targets, r_true)
    return x, report
