"""Shifted block GMRES and FOM over one shared block Krylov subspace, the
strategies for rendering collinear initial residuals independent, and the
restart engine they (and the recycled variant) run on.

One cycle builds the block Krylov space of the current residual block,
then solves one small shifted subproblem per shift: a tall least-squares
problem for the minimum-residual method, a square Galerkin system for the
orthogonal-residual method.  The subproblems share the band Hessenberg
data and differ only by ``sigma I`` on the square part, so every shifted
system is driven by the same operator applications.  Within a cycle one
:class:`.dense.ShiftedBandQR` state holds every active shift's QR factor,
updated by one block column per step; each step's residual estimates are
read off it, and each active shift's subproblem is solved once, at cycle
end.  Every solve iterates in its family's working dtype (real for a real
family, see :class:`.sparse.ShiftedFamily`), made complex by a complex
recycle space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arnoldi import block_arnoldi_extend, block_arnoldi_start
from .dense import (ShiftedBandQR, hessenberg_least_squares,
                    solve_small_dense)
from .errors import (CollinearityError, DimensionError, NearSingularError,
                     ShiftKrylovError)
from .recycling import (RecycleSpace, assemble_augmented, augmentation_blocks,
                        oblique_project_shift, shifted_hessenberg,
                        update_recycle_space)
from .report import SolveReport, SolverConfig
from .sparse import ShiftedFamily

COLLINEAR_TOL = 1e-12
_STRATEGY_RETRIES = 3
_DRIFT_TOL = 1e-8
_STAGNATION_TOL = 1e-14
_SINGULAR_RTOL = 1e-14


def detect_collinear(r, tol=COLLINEAR_TOL):
    """True iff all pairwise sines of angles between columns are <= tol.

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
    units = r / norms[None, :]
    ell = r.shape[1]
    for i in range(ell):
        for j in range(i + 1, ell):
            overlap = np.vdot(units[:, j], units[:, i])
            sine = np.linalg.norm(units[:, i] - overlap * units[:, j])
            if sine > tol:
                return False
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
        if self.tag not in ("random-x0", "gmres-cycle", "fom-random-block"):
            raise DimensionError(f"unknown strategy '{self.tag}'")
        if self.m_init < 1:
            raise DimensionError("m_init must be >= 1")


def _nonzero_collinear(r):
    norms = np.linalg.norm(r, axis=0)
    cols = np.nonzero(norms > 0.0)[0]
    if len(cols) < 2:
        return False
    return detect_collinear(r[:, cols])


def _reference_direction(r):
    norms = np.linalg.norm(r, axis=0)
    ref = int(np.argmax(norms))
    if norms[ref] == 0.0:
        raise CollinearityError("all residual columns are zero")
    v1 = r[:, ref] / norms[ref]
    beta = v1.conj() @ r
    return v1, beta


def _unit_relation(arn):
    """Basis, Hessenberg matrix and happy-breakdown flag of a
    block-size-one Arnoldi state, with ``A basis[:, :steps] = basis hess``.
    The last step broke down when the relation closed square
    (``invariant``) or left an exact zero subdiagonal entry (the vanished
    direction was replaced); the exact square leading relation is then
    returned, else the tall one."""
    j = arn.steps
    rows = j if arn.invariant or arn.hess[j, j - 1] == 0.0 else j + 1
    return arn.basis[:, :rows], arn.hess[:rows, :], rows == j


def _strategy_gmres_cycle(family, x, r, m_init, report):
    """One shared single-vector cycle; every shifted residual is
    minimized over it through its own shifted Hessenberg problem."""
    a = family.matrix
    v1, beta = _reference_direction(r)
    arn = block_arnoldi_start(v1)
    for _ in range(m_init):
        arn = block_arnoldi_extend(a, arn, 1)
        basis, hess, breakdown = _unit_relation(arn)
        if breakdown:
            break
    j = arn.steps
    report.matvecs += j
    for i in range(family.n_shifts):
        h_sigma = shifted_hessenberg(hess, 1, family.shifts[i])
        g = np.zeros(h_sigma.shape[0], dtype=np.result_type(h_sigma, beta))
        g[0] = beta[i]
        y, _ = hessenberg_least_squares(h_sigma, g)
        x[:, i] += basis[:, :j] @ y
        r[:, i] -= basis @ (h_sigma @ y)
    return x, r, j


def _strategy_fom_block(family, x, r, m_init, seed_key, report):
    """One Galerkin cycle over the block space grown from the common
    residual direction and random companion columns."""
    a = family.matrix
    ell = family.n_shifts
    v1, beta = _reference_direction(r)
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    block = np.empty((family.n, ell), dtype=r.dtype)
    block[:, 0] = v1
    block[:, 1:] = rng.standard_normal((family.n, ell - 1))
    arn = block_arnoldi_extend(a, block_arnoldi_start(block), m_init)
    report.block_matvecs += arn.steps
    report.matvecs += arn.steps * ell
    j = arn.steps
    g = np.zeros(j * ell, dtype=arn.s0.dtype)
    g[:ell] = arn.s0[:, 0]
    for i in range(ell):
        h_sigma = shifted_hessenberg(arn.hess, ell, family.shifts[i])
        try:
            y, _ = solve_small_dense(h_sigma[:j * ell, :], g)
        except NearSingularError:
            report.note(f"fom-random-block: singular Galerkin system for "
                        f"shift index {i}; update skipped")
            continue
        y = beta[i] * y
        x[:, i] += arn.w @ y
        r[:, i] -= arn.basis @ (h_sigma @ y)
    return x, r, j


def _apply_strategy(family, x, r, strategy, report):
    """Render residual columns non-collinear; returns iterations used."""
    if family.n_shifts == 1:
        return x, r, 0
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
        elif tag == "gmres-cycle":
            x, r, iters = _strategy_gmres_cycle(
                family, x, r, strategy.m_init, report)
        else:
            x, r, iters = _strategy_fom_block(
                family, x, r, strategy.m_init, (strategy.seed, attempt),
                report)
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


def decollinearize(family: ShiftedFamily, strategy: DecollinearizeStrategy):
    """Public wrapper: returns updated (x0, r0, fragment report).

    Precondition: the family's initial residuals are collinear (checked).
    """
    x = family.initial_guess.copy()
    r = family.residual_block(x) if np.any(x) else family.rhs.copy()
    if family.n_shifts > 1 and not _nonzero_collinear(r):
        raise CollinearityError("initial residuals are not collinear; "
                                "no strategy is needed")
    fragment = SolveReport(method=f"decollinearize-{strategy.tag}",
                           shifts=family.shifts.copy(),
                           rhs_norms=np.linalg.norm(family.rhs, axis=0),
                           seed=strategy.seed)
    if np.any(family.initial_guess):
        fragment.block_matvecs += 1
        fragment.matvecs += family.n_shifts
    x, r, iters = _apply_strategy(family, x, r, strategy, fragment)
    fragment.cycles = 1 if iters or strategy.tag == "random-x0" else 0
    resid = np.linalg.norm(r, axis=0)
    for i in range(family.n_shifts):
        fragment.record(i, 0, iters, resid[i], False)
    return x, r, fragment


def _start(family: ShiftedFamily, cfg: SolverConfig, method):
    """State of a restarted solve before its first cycle.

    Returns ``(report, targets, x, r, resid, converged)``: the report with
    the cycle-0 rows recorded, the per-shift residual targets, the initial
    iterate and residual block (one counted block product when the initial
    guess is nonzero), the residual norms and the converged flags.
    """
    rhs_norms = np.linalg.norm(family.rhs, axis=0)
    report = SolveReport(method=method, shifts=family.shifts.copy(),
                         rhs_norms=rhs_norms, seed=cfg.seed)
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
    for i in range(family.n_shifts):
        report.record(i, 0, 0, resid[i], converged[i])
    return report, targets, x, r, resid, converged


def _end_cycle(family: ShiftedFamily, report, cycle, x, r, converged,
               targets, active):
    """Cycle-end bookkeeping: recurrence residual norms and the converged
    update, then the true residual (counted in ``extra_matvecs``) with a
    note when an ``active`` shift's recurrence residual drifted from it.

    Returns ``(resid, converged, r_true)``.
    """
    resid = np.linalg.norm(r, axis=0)
    converged = converged | (resid <= targets)
    r_true = family.residual_block(x)
    report.extra_matvecs += family.n_shifts
    drift = np.linalg.norm(r_true - r, axis=0) / np.maximum(
        report.rhs_norms, 1e-300)
    if np.any(drift[active] > _DRIFT_TOL):
        worst = int(np.argmax(np.where(active, drift, -np.inf)))
        report.note(f"cycle {cycle}: recurrence residual drifted "
                    f"{drift[worst]:.2e} from the true residual for "
                    f"shift index {worst}")
    return resid, converged, r_true


def _finish(family: ShiftedFamily, report, x, targets, r_true):
    """Set the final flags from the true residual, so ``converged[i]``
    means ``||b_i - (A + sigma_i I) x_i|| <= target_i``.

    ``r_true`` is the true residual of ``x`` from the last cycle end, or
    None when the solve left the loop without one; it is then computed
    here and counted in ``extra_matvecs``.
    """
    if r_true is None:
        r_true = family.residual_block(x)
        report.extra_matvecs += family.n_shifts
    true = np.linalg.norm(r_true, axis=0)
    report.converged = [bool(t <= g) for t, g in zip(true, targets)]
    report.final_residuals = [float(t) for t in true]


def _cycle_seed(seed, cycle):
    return seed * 1000003 + cycle


def _run_cycles(family: ShiftedFamily, cfg: SolverConfig, *, kind,
                strategy=None, space=None, recycle_k=0,
                recycle_mode="ritz-largest", recycle_source="hessenberg",
                recycle_update=False, method="sbgmres"):
    """Restarted shifted block Krylov engine.

    ``kind`` selects the subproblem: ``"gmres"`` (minimum residual, tall
    least squares) or ``"fom"`` (Galerkin, square solve).  With a recycle
    ``space`` (or a positive ``recycle_k`` and updates enabled) each cycle
    is augmented; recycling requires ``kind == "gmres"``.

    Returns ``(x, report, space)`` where ``space`` is the final recycle
    space (possibly empty).
    """
    if kind not in ("gmres", "fom"):
        raise DimensionError(f"unknown solver kind '{kind}'")
    if kind == "fom" and (recycle_k > 0 or (space is not None and space.k > 0)):
        raise DimensionError("recycling is only supported for the "
                             "minimum-residual (gmres) subproblem")
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

    if not converged.all() and ell > 1 and k_now == 0 \
            and _nonzero_collinear(r):
        strat = strategy if strategy is not None else DecollinearizeStrategy(
            "gmres-cycle", m_init=cfg.cycle_length, seed=cfg.seed)
        x, r, iters = _apply_strategy(family, x, r, strat, report)
        iteration += iters
        resid = np.linalg.norm(r, axis=0)
        converged = resid <= targets
        # a decollinearizing restart rewrites the cycle-0 state; random-x0
        # consumes no iterations, so its row shares the iteration index
        for i in range(ell):
            report.record(i, 0, iteration, resid[i], converged[i])

    cycle = 0
    while cycle < cfg.max_cycles and not converged.all():
        cycle += 1
        report.cycles = cycle
        resid_at_start = resid.copy()

        if k_now > 0:
            for i in np.nonzero(~converged)[0]:
                r_hat, x_hat = oblique_project_shift(
                    cur_space, shifts[i], r[:, i], x[:, i], a)
                overlap = np.linalg.norm(cur_space.c.conj().T @ r_hat)
                if overlap > 1e-13 * max(np.linalg.norm(r_hat), 1e-300):
                    r_hat, x_hat = oblique_project_shift(
                        cur_space, shifts[i], r_hat, x_hat, a)
                r[:, i] = r_hat
                x[:, i] = x_hat
            r_true = None
            resid = np.linalg.norm(r, axis=0)
            newly = resid <= targets
            for i in range(ell):
                report.record(i, cycle, iteration, resid[i],
                              bool(converged[i] or newly[i]))
            converged = converged | newly
            if converged.all():
                break

        active = ~converged
        idx = np.nonzero(active)[0]
        arn = block_arnoldi_start(r, cur_space if k_now > 0 else None,
                                  seed=_cycle_seed(cfg.seed, cycle))
        qr = ShiftedBandQR(shifts[idx], arn.s0[:, idx].T, ell, k_now,
                           cfg.cycle_length)
        rho = resid.copy()
        blocks = None
        for _j in range(cfg.cycle_length):
            arn = block_arnoldi_extend(a, arn, 1)
            report.block_matvecs += 1
            report.matvecs += ell
            iteration += 1
            j = arn.steps
            cols = slice((j - 1) * ell, j * ell)
            qr.append(arn.hess[:j * ell, cols], arn.hess[j * ell:, cols],
                      arn.coupling[:, cols])
            if k_now > 0:
                blocks = augmentation_blocks(
                    cur_space, arn.basis,
                    pad_seed=_cycle_seed(cfg.seed, cycle) + j)
                if blocks.padded:
                    report.note(
                        f"cycle {cycle} step {j}: recycle directions "
                        f"{list(blocks.padded)} numerically contained in "
                        "the Krylov space")
                rho[idx] = qr.augmented_residual(blocks.p, blocks.q2,
                                                 blocks.n_factor)
            elif kind == "gmres":
                rho[idx] = qr.residual()
            else:
                est, singular = qr.galerkin_residual(_SINGULAR_RTOL)
                # a singular shift's estimate keeps its previous value
                rho[idx[~singular]] = est[~singular]
            for i in range(ell):
                if active[i]:
                    report.record(i, cycle, iteration, rho[i],
                                  bool(rho[i] <= targets[i]))
                else:
                    report.record(i, cycle, iteration, resid[i], True)
            if np.all(rho[active] <= targets[active]) or arn.invariant:
                break

        j_end = arn.steps
        w = arn.basis[:, :j_end * ell]
        concat = None
        if k_now > 0:
            concat = np.hstack([arn.basis, cur_space.c, blocks.u_hat])
        for i in idx:
            sigma = shifts[i]
            if k_now > 0:
                g_mat = assemble_augmented(arn.hess, arn.coupling, blocks,
                                           ell, sigma)
            else:
                g_mat = shifted_hessenberg(arn.hess, ell, sigma)
            g_vec = np.zeros(g_mat.shape[0], dtype=g_mat.dtype)
            g_vec[:ell] = arn.s0[:, i]
            if kind == "gmres":
                y, _ = hessenberg_least_squares(g_mat, g_vec)
            else:
                try:
                    y, _ = solve_small_dense(g_mat[:j_end * ell, :],
                                             g_vec[:j_end * ell])
                except NearSingularError:
                    report.note(f"cycle {cycle}: no Galerkin iterate for "
                                f"shift index {i}; kept previous "
                                "approximation")
                    continue
            if k_now > 0:
                yk = y[:j_end * ell]
                z = y[j_end * ell:]
                x[:, i] = x[:, i] + cur_space.u @ z + w @ yk
                r[:, i] = concat @ (g_vec - g_mat @ y)
            else:
                x[:, i] = x[:, i] + w @ y
                r[:, i] = r[:, i] - arn.basis @ (g_mat @ y)
        for rec in arn.replacements:
            report.replacements.append((cycle, rec.step, rec.column,
                                        rec.seed_key))
        resid, converged, r_true = _end_cycle(family, report, cycle, x, r,
                                              converged, targets, active)
        stalled = active & (resid > targets) & \
            (resid_at_start - resid < _STAGNATION_TOL * resid_at_start)
        if np.any(stalled):
            report.note(f"cycle {cycle}: stagnation for shift indices "
                        f"{np.nonzero(stalled)[0].tolist()}")

        if recycle_update and recycle_k > 0:
            if recycle_k > j_end * ell + (cur_space.k if recycle_source == "augmented" else 0):
                report.note(f"cycle {cycle}: only {j_end * ell} candidate "
                            f"directions, recycle space kept")
            else:
                try:
                    cur_space = update_recycle_space(
                        arn, recycle_mode, recycle_k,
                        cur_space if k_now > 0 else None,
                        source=recycle_source)
                    k_now = cur_space.k
                except (ShiftKrylovError, np.linalg.LinAlgError) as exc:
                    report.note(f"cycle {cycle}: recycle update failed "
                                f"({exc}); space kept")

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
