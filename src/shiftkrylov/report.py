"""Solver configuration and the per-solve instrumentation record."""

from __future__ import annotations

from dataclasses import dataclass, field

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
        if self.tolerance <= 0:
            raise DimensionError("tolerance must be positive")
        if self.max_cycles < 1:
            raise DimensionError("max_cycles must be >= 1")


@dataclass
class SolveReport:
    """Instrumented history of one (family) solve.

    ``rows`` holds one tuple per shift per recorded point:
    ``(shift_index, cycle, iteration, matvecs, block_matvecs, resid_norm,
    converged)`` where ``iteration`` counts Krylov steps cumulatively
    across cycles and ``matvecs``/``block_matvecs`` are the totals at that
    point.  ``extra_matvecs`` counts diagnostic products (true-residual
    verification, recycle-space re-basing) that are not part of the
    iteration itself.  ``final_residuals`` and ``converged`` come from the
    true residual ``b_i - (A + sigma_i I) x_i`` of the returned solution.
    """

    method: str
    shifts: np.ndarray
    rhs_norms: np.ndarray
    rows: list = field(default_factory=list)
    matvecs: int = 0
    block_matvecs: int = 0
    extra_matvecs: int = 0
    cycles: int = 0
    converged: list = field(default_factory=list)
    final_residuals: list = field(default_factory=list)
    replacements: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    seed: int = 0

    def record(self, shift_index, cycle, iteration, resid_norm, converged):
        self.rows.append((int(shift_index), int(cycle), int(iteration),
                          int(self.matvecs), int(self.block_matvecs),
                          float(resid_norm), bool(converged)))

    def history(self, shift_index):
        """Residual norms for one shift, in recorded order."""
        return np.array([r[5] for r in self.rows if r[0] == shift_index])

    def iterations(self, shift_index):
        return np.array([r[2] for r in self.rows if r[0] == shift_index])

    @property
    def n_shifts(self):
        return len(self.shifts)

    def note(self, text):
        self.notes.append(str(text))
