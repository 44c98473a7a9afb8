"""Solver configuration and the per-solve instrumentation record.

A :class:`SolveReport` holds one record per step for the whole shift
family: the cycle, the iteration and the product counters, and one row
of per-shift values (residual norms, converged and recorded flags),
returned as arrays by :attr:`SolveReport.steps`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionError


@dataclass(frozen=True)
class SolverConfig:
    """Restart length, convergence tolerance, cycle cap and seed.

    ``relative`` selects the convergence test ``||r|| <= tol * ||b||``
    per shift; set it False for an absolute test ``||r|| <= tol``.
    """

    cycle_length: int = 20
    tolerance: float = 1e-8
    max_cycles: int = 100
    seed: int = 0
    relative: bool = True

    def __post_init__(self):
        if self.cycle_length < 1:
            raise DimensionError("cycle_length must be >= 1")
        if not 0 < self.tolerance < np.inf:
            raise DimensionError("tolerance must be positive and finite")
        if self.max_cycles < 1:
            raise DimensionError("max_cycles must be >= 1")
        if self.seed < 0:
            raise DimensionError("seed must be >= 0")


class Steps(NamedTuple):
    """A report's points as arrays, one row per point: the cycle, the
    iteration (cumulative across cycles) and the product totals there,
    then per shift the residual norm (NaN where not recorded), the
    converged flag and whether the shift was recorded."""

    cycle: np.ndarray
    iteration: np.ndarray
    matvecs: np.ndarray
    block_matvecs: np.ndarray
    resid: np.ndarray
    converged: np.ndarray
    recorded: np.ndarray


@dataclass
class SolveReport:
    """Instrumented history of one (family) solve.

    Every solver records one point per step for the whole family
    (:meth:`record_step`); :attr:`steps` returns them as arrays.
    ``extra_matvecs`` counts the products that are not part of the
    iteration itself: the true residual of the iterates at every cycle
    end, which also starts the next cycle, and at the end of a solve that
    left its loop without one.
    ``block_widths`` holds, per cycle of the block restart engine, the
    width of that cycle's block: the number of shifts unconverged as the
    cycle starts, plus the random columns of a ``fom-random-block``
    cycle (recorded also for a cycle that ends at its oblique
    projection, before any block product).  A block product multiplies
    that many columns unless a basis block lost dependent ones:
    ``replacements`` holds one ``(cycle, step, column)`` entry per
    candidate column a QR of the block Arnoldi process dropped (step 0 is
    the start block, ``column`` indexes the candidate block).
    ``final_residuals`` and
    ``converged`` come from the true residual ``b_i - (A + sigma_i I)
    x_i`` of the returned solution.
    """

    method: str
    shifts: np.ndarray
    rhs_norms: np.ndarray
    matvecs: int = 0
    block_matvecs: int = 0
    extra_matvecs: int = 0
    cycles: int = 0
    block_widths: list = field(default_factory=list)
    converged: list = field(default_factory=list)
    final_residuals: list = field(default_factory=list)
    replacements: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    _points: list = field(default_factory=list, repr=False)
    # the built :attr:`steps`, until the next point is recorded
    _steps: Steps | None = field(default=None, init=False, repr=False,
                                 compare=False)

    def record_step(self, cycle, iteration, resid, converged, recorded=None):
        """Record one point for the whole family at the current counters:
        per shift the residual norm and converged flag, for the shifts in
        the mask ``recorded`` (all by default)."""
        if recorded is None:
            resid, recorded = np.asarray(resid, dtype=float), \
                [True] * self.n_shifts
        else:
            recorded = np.asarray(recorded, dtype=bool)
            resid = np.where(recorded, resid, np.nan)
            recorded = recorded.tolist()
        # kept as Python lists: thousands of small long-lived numpy buffers
        # would sit between the solver's large temporaries on the C heap
        # and keep it from shrinking (about 6 MB of peak RSS on smooth-param)
        self._steps = None
        self._points.append((cycle, iteration, self.matvecs,
                             self.block_matvecs, resid.tolist(),
                             np.asarray(converged, dtype=bool).tolist(),
                             recorded))

    def absorb(self, sub, shift_index, cycle, iteration):
        """Append the points of ``sub``, the report of shift
        ``shift_index`` solved alone, as that shift's: cycles and
        iterations offset by ``cycle`` and ``iteration``, counters by this
        report's totals."""
        mask = np.arange(self.n_shifts) == shift_index
        self._steps = None
        self._points.extend(
            (cycle + cyc, iteration + it, self.matvecs + mv,
             self.block_matvecs + bmv,
             np.where(mask, res[0], np.nan).tolist(),
             (mask & conv[0]).tolist(), (mask & seen[0]).tolist())
            for cyc, it, mv, bmv, res, conv, seen in sub._points)

    @property
    def steps(self):
        """The recorded points as read-only :class:`Steps` arrays, built
        once per set of points."""
        if self._steps is None:
            shape = (len(self._points), self.n_shifts)
            cols = list(zip(*self._points)) or [()] * 7
            self._steps = Steps(
                *(np.array(c, dtype=np.int64) for c in cols[:4]),
                np.array(cols[4], dtype=float).reshape(shape),
                *(np.array(c, dtype=bool).reshape(shape) for c in cols[5:]))
            for arr in self._steps:
                arr.flags.writeable = False
        return self._steps

    @property
    def rows(self):
        """Read-only per-shift view of :attr:`steps`: one tuple
        ``(shift_index, cycle, iteration, matvecs, block_matvecs,
        resid_norm, converged)`` per recorded shift per point, in recorded
        order."""
        st = self.steps
        at, shift = np.nonzero(st.recorded)
        return tuple(zip(shift.tolist(), st.cycle[at].tolist(),
                         st.iteration[at].tolist(), st.matvecs[at].tolist(),
                         st.block_matvecs[at].tolist(),
                         st.resid[at, shift].tolist(),
                         st.converged[at, shift].tolist()))

    @property
    def n_shifts(self):
        return len(self.shifts)

    def note(self, text):
        self.notes.append(str(text))
