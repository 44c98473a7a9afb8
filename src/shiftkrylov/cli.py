"""Command-line experiment runner.

Subcommands: ``run`` (configured method comparison), ``variability``
(randomized-strategy spread study), ``smooth-param`` (recycling across a
smoothly parameterized family), ``inspect`` (parse and describe a config
without solving).  Exit codes: 0 success, 1 config error, 2 solver
failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .errors import ConfigError, MatrixMarketError, ShiftKrylovError
from .harness import (build_problem, build_rhs, load_config, run_experiment,
                      run_smooth_parameter_protocol, run_variability_study)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IO = 3


def _parser():
    parser = argparse.ArgumentParser(
        prog="shiftkrylov",
        description="Experiment runner for shifted-system block Krylov "
                    "solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the solver seed")
        p.add_argument("--method", action="append", default=None,
                       help="method to run (repeatable, overrides config)")
        p.add_argument("--multiplier", type=float, default=None,
                       help="block matvec cost multiplier for the summary")

    run_p = sub.add_parser("run", help="run the configured experiment")
    common(run_p)
    var_p = sub.add_parser("variability",
                           help="repeat a randomized solve, report spread")
    common(var_p)
    var_p.add_argument("--trials", type=int, default=50)
    smooth_p = sub.add_parser("smooth-param",
                              help="smooth-parameter recycling protocol")
    common(smooth_p)
    ins_p = sub.add_parser("inspect", help="describe the configured problem")
    common(ins_p)
    return parser


def _apply_overrides(cfg, args):
    updates = {}
    if args.out is not None:
        updates["out_dir"] = args.out
    if args.method:
        updates["methods"] = tuple(args.method)
    if args.multiplier is not None:
        updates["multiplier"] = args.multiplier
    if updates:
        cfg = replace(cfg, **updates)
    if args.seed is not None:
        cfg = replace(cfg, solver=replace(cfg.solver, seed=args.seed),
                      rhs_seed=args.seed)
    return cfg


def _inspect(cfg):
    a = build_problem(cfg)
    shifts = np.asarray(cfg.shifts)
    rhs = build_rhs(cfg, a, shifts)
    print(f"matrix: {a.n_rows} x {a.n_cols}, nnz = {a.nnz}, "
          f"frobenius = {a.frobenius_norm:.6e}")
    sym = "unknown (too large)" if a.n_rows > 2000 else str(
        bool(np.allclose(a.to_dense(), a.to_dense().conj().T)))
    print(f"hermitian: {sym}")
    print(f"shifts ({len(shifts)}): "
          + ", ".join(f"{s.real:g}{'' if s.imag == 0 else f'{s.imag:+g}j'}"
                      for s in shifts))
    print(f"rhs mode: {cfg.rhs_mode}, column norms: "
          + ", ".join(f"{v:.3e}" for v in np.linalg.norm(rhs, axis=0)))
    print(f"methods: {', '.join(cfg.methods)}")
    print(f"solver: m={cfg.solver.cycle_length} tol={cfg.solver.tolerance:g} "
          f"max_cycles={cfg.solver.max_cycles} seed={cfg.solver.seed}")
    print(f"recycle: k={cfg.recycle_k} mode={cfg.recycle_mode}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
    except ShiftKrylovError as exc:     # a ConfigError, or a bad override
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        if args.command == "inspect":
            _inspect(cfg)
            return EXIT_OK
        if args.command == "run":
            _, failures = run_experiment(cfg)
            for method, message in failures:
                print(f"solver failure in {method}: {message}",
                      file=sys.stderr)
            print(f"artifacts written to {cfg.out_dir}")
            return EXIT_SOLVER if failures else EXIT_OK
        if args.command == "variability":
            stats = run_variability_study(cfg, args.trials)
            print(f"mean = {stats['mean']:g}, median = {stats['median']:g}, "
                  f"mode = {stats['mode']:g}, "
                  f"standard deviation = {stats['stddev']:g}")
            return EXIT_SOLVER if stats["failures"] else EXIT_OK
        if args.command == "smooth-param":
            outcome = run_smooth_parameter_protocol(cfg)
            for key, value in outcome.items():
                print(f"{key} = {value}")
            return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MatrixMarketError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ShiftKrylovError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
