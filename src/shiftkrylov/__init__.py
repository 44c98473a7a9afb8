"""shiftkrylov: block Krylov solvers for families of shifted linear
systems, with subspace recycling.

The package solves families ``(A + sigma_i I) x_i = b_i`` over one shared
block Krylov subspace (shifted block GMRES / FOM), supports recycling an
augmentation subspace between cycles and between families, and ships the
single-vector baselines needed for comparison plus an experiment harness
with a command-line interface.
"""

from .arnoldi import (BlockArnoldiState, block_arnoldi_extend,
                      block_arnoldi_start)
from .baselines import fom_restarted, gmres_restarted, sfom, sgmres
from .block_solvers import sbfom, sbgmres
from .dense import EigenPairs, hessenberg_eigen
from .errors import (CollinearityError, ConfigError, DimensionError,
                     EigenConvergenceError, MatrixMarketError,
                     NearSingularError, ShiftKrylovError)
from .recycling import (RecycleSpace, load_recycle_space,
                        oblique_project_shift, rgmres_baseline, rsbgmres,
                        shift_rebase, update_recycle_space)
from .report import SolveReport, SolverConfig
from .sparse import (ShiftedFamily, SparseMatrix, add_shift, block_matvec,
                     generate_convection_diffusion, read_dense_matrix_market,
                     read_matrix_market)

__version__ = "0.1.0"

__all__ = [
    "BlockArnoldiState", "CollinearityError", "ConfigError", "DimensionError",
    "EigenConvergenceError", "EigenPairs", "MatrixMarketError",
    "NearSingularError", "RecycleSpace", "ShiftKrylovError", "ShiftedFamily",
    "SolveReport", "SolverConfig", "SparseMatrix", "add_shift",
    "block_arnoldi_extend", "block_arnoldi_start", "block_matvec",
    "fom_restarted", "generate_convection_diffusion", "gmres_restarted",
    "hessenberg_eigen", "load_recycle_space", "oblique_project_shift",
    "read_dense_matrix_market", "read_matrix_market", "rgmres_baseline",
    "rsbgmres", "sbfom", "sbgmres", "sfom", "sgmres", "shift_rebase",
    "update_recycle_space",
]
