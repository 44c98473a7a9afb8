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
the per-step residual estimate and the cycle-end coefficients.  Each
cycle's per-step estimates come from one :class:`.dense.ShiftedBandQR`
state at block size one, the state the block engine uses, updated at each
step for every shift together rather than refactored per shift; each
cycle ends with one batched solve from the same factor, and the true
residual of the updated iterates starts the next cycle.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .arnoldi import _negligible, block_arnoldi_extend, block_arnoldi_start
from .block_solvers import (_add_products, _end_cycle, _finish,
                            _nonzero_collinear, _reference_direction,
                            _run_cycles, _start)
from .dense import ShiftedBandQR
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
    recorded points are offset by the shared loop's cycle and iteration
    counts and by the products counted so far.  Returns whether any shift
    was solved."""
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
        report.absorb(sub, i, cycles, iteration)
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
    :class:`.dense.ShiftedBandQR` state at block size one, with offset
    ``d_i = sigma_i - sigma_base`` and right-hand side ``beta_i = v1* r_i``.
    Two hooks make the method.  ``step(qr, base)`` returns per shift the
    residual estimate and the mask of shifts with no iterate.
    ``end(qr, base, beta)`` returns per shift the coefficients ``y_i``
    (one row each) from one solve on ``qr``.  Each cycle ends with
    ``x += W y`` and the true residual of ``x``, collinear up to rounding,
    from which the next cycle starts.  A shift
    with no iterate keeps its previous one, with the note ``skip_note``,
    and leaves the family, which cannot go on without its base; shifts
    that left unconverged are then solved alone by restarted GMRES under
    ``solo_cfg``.  Each step records one point for the family, in which a
    shift that left is not recorded.
    """
    report, targets, x, r, resid, converged = _start(family, cfg, method)
    if not converged.all() and np.count_nonzero(resid) > 1 \
            and not _nonzero_collinear(r):
        raise CollinearityError(
            f"{method} requires pairwise collinear initial residuals; "
            "use a block method for unrelated right-hand sides")
    shift0 = 0.0 if base is None else family.shifts[base]
    a = family.matrix if base is None else add_shift(family.matrix, shift0)
    offsets = family.shifts - shift0
    iteration = cycle = 0
    r_true = qr = None
    work = np.empty_like(r)
    left = np.zeros(family.n_shifts, dtype=bool)
    while cycle < cfg.max_cycles and not (converged | left).all():
        cycle += 1
        report.cycles = cycle
        active = ~converged & ~left
        if base is None:
            v1, _ = _reference_direction(r, ~left)
        else:
            norm = np.linalg.norm(r[:, base])
            if norm == 0.0:
                report.note(f"cycle {cycle}: base residual vanished exactly")
                break
            v1 = r[:, base] / norm
        arn = block_arnoldi_start(v1, capacity=cfg.cycle_length)
        beta = v1.conj() @ r
        args = (offsets, beta[:, None], 1, 0, cfg.cycle_length,
                a.frobenius_norm)
        qr = ShiftedBandQR(*args) if qr is None else qr.restart(*args)
        rho = resid.copy()
        for _j in range(cfg.cycle_length):
            arn = block_arnoldi_extend(a, arn, 1)
            report.matvecs += 1
            iteration += 1
            j = arn.steps
            qr.append(arn.hess[:j, j - 1:], arn.hess[j:, j - 1:],
                      arn.coupling[:, j - 1:])
            est, singular = step(qr, base)
            ok = active & ~singular
            rho[ok] = est[ok]
            # a converged shift repeats its residual, a singular one keeps
            # its previous estimate, and a shift that left is not recorded
            met = rho <= targets
            report.record_step(cycle, iteration, rho, converged | (ok & met),
                               active | converged)
            if met[active].all() or arn.invariant:
                break
        for i in np.nonzero(active & singular)[0]:
            report.note(f"cycle {cycle}: " + skip_note.format(i))
        solved = active & ~singular
        if base is not None:
            # the base residual starts the next cycle, converged or not
            solved[base] = not singular[base]
        if solved.any():
            # every column at once: a shift not solved this cycle gets
            # zero coefficients and keeps its iterate
            y = end(qr, base, beta)
            y[~solved] = 0.0
            _add_products(x, (arn.w, y))
        resid, converged = _end_cycle(family, report, x, r, converged,
                                      targets, work)
        r_true = r
        left |= active & singular
        if base is not None and left[base]:
            left |= ~converged
    if _solve_alone(family, solo_cfg, report, x, left & ~converged, cycle,
                    iteration):
        r_true = None
    _finish(family, report, x, targets, r_true)
    return x, report


def _collinearity(qr, base):
    """Per shift, ``t_i = g_i / (q_i* q_b)`` (``r_i = t_i r_base`` at the
    collinear iterate; ``q_i`` the unit residual direction, ``g_i`` its
    coefficient), whether ``[Hbar_j + d_i [I; 0], q_b]`` is singular (its
    determinant is ``det(R_i) q_i* q_b``), and ``q_b``."""
    # the carried row of each Q_i* (block size one, k = 0) is q_i*
    q = qr.q[:, qr.steps, :qr.steps + 1].conj()
    overlap = q.conj() @ q[base]
    singular = np.isnan(qr.residual()) | _negligible(np.abs(overlap), 1.0)
    t = np.zeros(len(q), dtype=np.result_type(qr.g, overlap))
    np.divide(qr.g[:, qr.steps], overlap, out=t, where=~singular)
    return t, singular, q[base]


def _sgmres_step(qr, base):
    """``|t_i|`` and the singular shifts; after a happy breakdown every
    residual vanishes and the square systems decide."""
    if qr.carry == 0:
        _, singular = qr.galerkin_residual()
        return np.zeros(len(singular)), singular
    t, singular, _ = _collinearity(qr, base)
    return np.abs(t), singular


def _sgmres_end(qr, base, beta):
    """``[Hbar_j + d_i [I; 0], q_b] [y_i; t_i] = beta_i e_1``, solved for
    ``y_i`` as the least squares of ``beta_i e_1 - t_i q_b``, which the
    first block reaches exactly.  After a happy breakdown,
    ``(H_j + d_i I) y_i = beta_i e_1``."""
    if qr.carry == 0:
        return qr.solve()
    t, _, q_b = _collinearity(qr, base)
    rhs = np.outer(-t, q_b)
    rhs[:, 0] += beta
    return qr.solve(rhs)


def sgmres(family: ShiftedFamily, cfg: SolverConfig):
    """Restarted shifted GMRES with collinear residuals.

    One system, the base (the smallest shift in modulus, typically the
    hardest), is minimized per cycle over the Krylov space of its own
    shifted operator.  Every other shifted iterate keeps its residual a
    scalar multiple ``t_i`` of the base residual.  Per step ``|t_i|`` is
    read off the shared :class:`.dense.ShiftedBandQR` state (the base at
    offset 0) through the unit residual directions ``q_i``; at cycle end
    one batched solve of the bordered systems gives every ``y_i``.
    A happy breakdown gives the exact square solve.  The collinear
    iterate exists for positive-real matrices and positive real shifts; a
    shift whose collinearity system is singular keeps its previous
    iterate for that cycle, with a note.  Returns ``(x, report)``.
    """
    base = int(np.argmin(np.abs(family.shifts)))
    return _collinear_cycles(family, cfg, "sgmres", base, _sgmres_step,
                             _sgmres_end,
                             "no collinear update for shift index {}", cfg)


def _sfom_step(qr, base):
    """``|h_{j+1,j} y_j|``, the Galerkin residual norm, and the singular
    Galerkin systems."""
    return qr.galerkin_residual()


def _sfom_end(qr, base, beta):
    """The Galerkin solutions of ``(H_j + d_i I) y_i = beta_i e_1``."""
    return qr.solve()


def sfom(family: ShiftedFamily, cfg: SolverConfig):
    """Restarted shifted FOM with collinear residuals.

    Each shift gets the Galerkin solve with its own diagonal shift of the
    square Hessenberg block of one shared Krylov basis, with residual
    estimate ``|h_{j+1,j}| |y_j|`` read off the shared
    :class:`.dense.ShiftedBandQR` state; at cycle end one batched solve
    gives every ``y_i``.  The FOM residual at cycle end is
    ``-h_{j+1,j} y_j v_{j+1}``, parallel to the next Arnoldi vector, so
    collinearity survives every restart; the next cycle starts from the
    true residual, which holds it up to rounding.  A shift
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
