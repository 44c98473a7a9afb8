"""Experiment harness: problem construction from config files, method
runners, CSV convergence histories, comparison tables and the protocol
runs (variability study, smooth-parameter recycling).

Config files are flat key-value text with sections (INI syntax).  All
randomness is seeded from the config, and identical configs produce
byte-identical CSV artifacts; wall-clock timing goes only into the run
manifest, never into CSVs or comparisons.
"""

from __future__ import annotations

import configparser
import csv
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.sparse

from . import __version__
from .baselines import fom_restarted, gmres_restarted, sfom, sgmres
from .block_solvers import DecollinearizeStrategy, sbfom, sbgmres
from .errors import ConfigError, ShiftKrylovError
from .recycling import (RecycleSpace, load_recycle_space, rgmres_baseline,
                        rsbgmres, shift_rebase)
from .report import SolveReport, SolverConfig
from .sparse import (ShiftedFamily, SparseMatrix, add_shift,
                     generate_convection_diffusion, read_dense_matrix_market,
                     read_matrix_market)

KNOWN_METHODS = ("seq-gmres", "seq-fom", "seq-rgmres", "sgmres", "sfom",
                 "sbgmres", "sbfom", "rsbgmres", "rsbgmres-ritz",
                 "rsbgmres-harmonic")
RHS_MODES = ("shared-random", "unrelated-random", "smooth-parameter",
             "from-file")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description."""

    source: str = "generate"
    matrix_path: str | None = None
    grid_m: int = 24
    convection: float = 40.0
    shifts: tuple = (0.002, 0.004, 0.2, 0.4)
    rhs_mode: str = "unrelated-random"
    rhs_path: str | None = None
    rhs_seed: int = 7
    methods: tuple = ("sbgmres",)
    solver: SolverConfig = field(default_factory=SolverConfig)
    per_method: dict = field(default_factory=dict)
    strategy: str = "gmres-cycle"
    m_init: int | None = None
    recycle_k: int = 8
    recycle_mode: str = "ritz-largest"
    recycle_source: str = "hessenberg"
    initial_space_path: str | None = None
    group_size: int = 8
    multiplier: float = 3.3
    out_dir: str = "out"
    smooth_count: int = 100
    smooth_interval: tuple = (1.0, 2.0)
    smooth_n_seed: int = 10
    smooth_seed_method: str = "seq-gmres"

    def __post_init__(self):
        if not self.methods:
            raise ConfigError("at least one method is required")
        if not self.shifts:
            raise ConfigError("shift list must be non-empty")
        if self.multiplier <= 0:
            raise ConfigError("multiplier must be positive")
        if self.rhs_mode not in RHS_MODES:
            raise ConfigError(f"unknown rhs mode '{self.rhs_mode}'")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ConfigError(f"unknown method '{m}' "
                                  f"(known: {', '.join(KNOWN_METHODS)})")

    def solver_for(self, method):
        return self.per_method.get(method, self.solver)


def _parse_scalar(text):
    text = text.strip()
    try:
        return complex(text) if "j" in text else float(text)
    except ValueError:
        raise ConfigError(f"cannot parse scalar '{text}'")


def _parse_list(text):
    return [p for p in (t.strip() for t in text.split(",")) if p]


def load_config(path) -> ExperimentConfig:
    """Parse an experiment config file; raises ConfigError with the
    section and key that failed."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file '{path}'")

    def get(section, key, default=None, cast=str):
        if not parser.has_option(section, key):
            return default
        raw = parser.get(section, key)
        try:
            if cast is bool:
                return raw.strip().lower() in ("1", "true", "yes", "on")
            return cast(raw)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"[{section}] {key}: {exc}")

    source = get("problem", "source", "generate")
    kwargs = dict(
        source=source,
        matrix_path=get("problem", "path"),
        grid_m=get("problem", "grid_m", 24, int),
        convection=get("problem", "convection", 40.0, float),
        rhs_mode=get("rhs", "mode", "unrelated-random"),
        rhs_path=get("rhs", "path"),
        rhs_seed=get("rhs", "seed", 7, int),
        strategy=get("solver", "strategy", "gmres-cycle"),
        recycle_k=get("recycle", "k", 8, int),
        recycle_mode=get("recycle", "mode", "ritz-largest"),
        recycle_source=get("recycle", "source", "hessenberg"),
        initial_space_path=get("recycle", "initial_space"),
        group_size=get("run", "group_size", 8, int),
        multiplier=get("run", "multiplier", 3.3, float),
        out_dir=get("run", "out", "out"),
        smooth_count=get("smooth", "count", 100, int),
        smooth_n_seed=get("smooth", "n_seed", 10, int),
        smooth_seed_method=get("smooth", "seed_method", "seq-gmres"),
    )
    if parser.has_option("shifts", "values"):
        kwargs["shifts"] = tuple(
            _parse_scalar(v) for v in _parse_list(parser.get("shifts", "values")))
    if parser.has_option("methods", "names"):
        kwargs["methods"] = tuple(_parse_list(parser.get("methods", "names")))
    if parser.has_option("smooth", "interval"):
        vals = [_parse_scalar(v) for v in
                _parse_list(parser.get("smooth", "interval"))]
        if len(vals) != 2:
            raise ConfigError("[smooth] interval: expected 'low, high'")
        kwargs["smooth_interval"] = (float(np.real(vals[0])),
                                     float(np.real(vals[1])))
    m_init = get("solver", "m_init", None, int)
    kwargs["m_init"] = m_init

    def solver_from(section, fallback: SolverConfig):
        return SolverConfig(
            cycle_length=get(section, "cycle_length", fallback.cycle_length, int),
            tolerance=get(section, "tolerance", fallback.tolerance, float),
            max_cycles=get(section, "max_cycles", fallback.max_cycles, int),
            seed=get(section, "seed", fallback.seed, int),
            relative=get(section, "relative", fallback.relative, bool),
        )

    base_solver = solver_from("solver", SolverConfig())
    per_method = {}
    for section in parser.sections():
        if section.startswith("solver."):
            per_method[section.split(".", 1)[1]] = solver_from(section, base_solver)
    kwargs["solver"] = base_solver
    kwargs["per_method"] = per_method
    try:
        return ExperimentConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))


def build_problem(cfg: ExperimentConfig) -> SparseMatrix:
    if cfg.source == "generate":
        return generate_convection_diffusion(cfg.grid_m, cfg.convection)
    if cfg.source == "matrix-market":
        if not cfg.matrix_path:
            raise ConfigError("[problem] path is required for matrix-market")
        return read_matrix_market(cfg.matrix_path)
    raise ConfigError(f"unknown problem source '{cfg.source}'")


def smooth_rhs(n, sigma):
    """Right-hand side depending smoothly on the shift:
    entry j is sin(sigma * j * pi / n), j = 1..n."""
    j = np.arange(1, n + 1)
    return np.sin(np.real(sigma) * j * np.pi / n)


def build_rhs(cfg: ExperimentConfig, a: SparseMatrix, shifts) -> np.ndarray:
    """Right-hand-side block for the configured mode.

    Random modes draw unit-norm columns from the seeded generator (the
    seed is recorded in the manifest).
    """
    n = a.n_rows
    ell = len(shifts)
    rng = np.random.default_rng(cfg.rhs_seed)
    if cfg.rhs_mode == "shared-random":
        v = rng.standard_normal(n)
        v = v / np.linalg.norm(v)
        return np.tile(v[:, None], (1, ell))
    if cfg.rhs_mode == "unrelated-random":
        b = rng.standard_normal((n, ell))
        return b / np.linalg.norm(b, axis=0)[None, :]
    if cfg.rhs_mode == "smooth-parameter":
        return np.column_stack([smooth_rhs(n, s) for s in shifts])
    if cfg.rhs_mode == "from-file":
        if not cfg.rhs_path:
            raise ConfigError("[rhs] path is required for from-file")
        b = read_dense_matrix_market(cfg.rhs_path)
        if b.shape != (n, ell):
            raise ConfigError(f"rhs block is {b.shape}, expected ({n}, {ell})")
        return b
    raise ConfigError(f"unknown rhs mode '{cfg.rhs_mode}'")


def _groups(n_items, size):
    return [list(range(lo, min(lo + size, n_items)))
            for lo in range(0, n_items, size)]


@dataclass
class RunUnit:
    """One solver invocation covering a subset of the shift indices."""

    shift_indices: list
    report: SolveReport


@dataclass
class MethodResult:
    method: str
    units: list = field(default_factory=list)
    error: str | None = None

    @property
    def matvecs(self):
        return sum(u.report.matvecs for u in self.units)

    @property
    def block_matvecs(self):
        return sum(u.report.block_matvecs for u in self.units)

    @property
    def extra_matvecs(self):
        return sum(u.report.extra_matvecs for u in self.units)

    @property
    def total_matvecs(self):
        return self.matvecs + self.extra_matvecs

    @property
    def cycles(self):
        return sum(u.report.cycles for u in self.units)

    @property
    def converged_count(self):
        return sum(sum(u.report.converged) for u in self.units)

    @property
    def shift_count(self):
        return sum(len(u.shift_indices) for u in self.units)

    @property
    def worst_residual(self):
        """Largest last-recorded residual norm over all shifts, taken from
        the same per-iteration records the CSV is written from, so the
        summary can be recomputed from the file alone."""
        worst = 0.0
        for u in self.units:
            last = {}
            for row in u.report.rows:
                last[row[0]] = row[5]
            if last:
                worst = max(worst, max(last.values()))
        return worst


def _strategy_for(cfg: ExperimentConfig, solver: SolverConfig):
    m_init = cfg.m_init if cfg.m_init is not None else solver.cycle_length
    return DecollinearizeStrategy(cfg.strategy, m_init=m_init,
                                  seed=solver.seed)


def _initial_space(cfg: ExperimentConfig, a: SparseMatrix):
    if cfg.initial_space_path:
        return load_recycle_space(cfg.initial_space_path, a, drop_tol=1e-12)
    return None


def run_method(method, cfg: ExperimentConfig, a: SparseMatrix,
               family: ShiftedFamily) -> MethodResult:
    """Run one method over the whole family, grouping block methods by at
    most ``group_size`` shifts at a time."""
    solver = cfg.solver_for(method)
    shifts = family.shifts
    result = MethodResult(method)
    if method in ("seq-gmres", "seq-fom"):
        run_one = gmres_restarted if method == "seq-gmres" else fom_restarted
        for i in range(family.n_shifts):
            a_i = add_shift(a, shifts[i])
            _, rep = run_one(a_i, family.rhs[:, i], family.initial_guess[:, i],
                             solver)
            rep.method = method
            result.units.append(RunUnit([i], rep))
        return result
    if method == "seq-rgmres":
        space = _initial_space(cfg, a)
        prev_shift = None
        for i in range(family.n_shifts):
            a_i = add_shift(a, shifts[i])
            space_i = None
            if space is not None and space.k > 0:
                # the recycle space satisfied C = (A + prev) U; re-basing to
                # the new shift uses the C + sigma U identity, no matvecs
                delta = shifts[i] - (prev_shift if prev_shift is not None
                                     else 0.0)
                space_i = shift_rebase(space, delta)
            _, rep, space = rgmres_baseline(
                a_i, family.rhs[:, i], family.initial_guess[:, i], solver,
                space_i, k=cfg.recycle_k, mode=cfg.recycle_mode)
            prev_shift = shifts[i]
            rep.method = method
            result.units.append(RunUnit([i], rep))
        return result
    if method in ("sgmres", "sfom"):
        run_fam = sgmres if method == "sgmres" else sfom
        x, rep = run_fam(family, solver)
        result.units.append(RunUnit(list(range(family.n_shifts)), rep))
        return result
    if method in ("sbgmres", "sbfom"):
        run_fam = sbgmres if method == "sbgmres" else sbfom
        strategy = _strategy_for(cfg, solver)
        for grp in _groups(family.n_shifts, cfg.group_size):
            sub = ShiftedFamily(a, shifts[grp], family.rhs[:, grp],
                                family.initial_guess[:, grp])
            _, rep = run_fam(sub, solver, strategy)
            result.units.append(RunUnit(grp, rep))
        return result
    if method.startswith("rsbgmres"):
        mode = {"rsbgmres": cfg.recycle_mode,
                "rsbgmres-ritz": "ritz-largest",
                "rsbgmres-harmonic": "harmonic-ritz-smallest"}[method]
        space = _initial_space(cfg, a)
        strategy = _strategy_for(cfg, solver)
        for grp in _groups(family.n_shifts, cfg.group_size):
            sub = ShiftedFamily(a, shifts[grp], family.rhs[:, grp],
                                family.initial_guess[:, grp])
            _, rep, space = rsbgmres(sub, solver, space, k=cfg.recycle_k,
                                     mode=mode, source=cfg.recycle_source,
                                     strategy=strategy)
            rep.method = method
            result.units.append(RunUnit(grp, rep))
        return result
    raise ConfigError(f"unknown method '{method}'")


def _fmt(v):
    if isinstance(v, complex):
        return repr(v.real) if v.imag == 0.0 else repr(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_method_csv(path, method, units, shifts):
    """Per-iteration convergence history, RFC-4180 quoted.

    Counter columns are running totals across the method's units so every
    summary number can be recomputed from the file alone.
    """
    with open(path, "w", newline="", encoding="ascii") as handle:
        writer = csv.writer(handle, quoting=csv.QUOTE_MINIMAL,
                            lineterminator="\n")
        writer.writerow(["method", "shift", "cycle", "iteration", "matvecs",
                         "block_matvecs", "resid_norm", "converged"])
        mv_off = bmv_off = 0
        for unit in units:
            rep = unit.report
            labels = [_fmt(complex(shifts[g])) for g in unit.shift_indices]
            # report rows hold Python floats, which _fmt writes by repr
            writer.writerows(
                [method, labels[si], cyc, it, mv + mv_off, bmv + bmv_off,
                 repr(res), int(conv)]
                for (si, cyc, it, mv, bmv, res, conv) in rep.rows)
            mv_off += rep.matvecs
            bmv_off += rep.block_matvecs


def write_joint_csv(path, method, units):
    """Joint residual curves: Frobenius norm over a unit's shifts divided
    by the Frobenius norm of its right-hand-side block, per iteration."""
    with open(path, "w", newline="", encoding="ascii") as handle:
        writer = csv.writer(handle, quoting=csv.QUOTE_MINIMAL,
                            lineterminator="\n")
        writer.writerow(["method", "unit", "cycle", "iteration",
                         "joint_resid_frob"])
        for uidx, unit in enumerate(units):
            rep = unit.report
            bnorm = float(np.linalg.norm(rep.rhs_norms))
            points = {}
            for (si, cyc, it, _mv, _bmv, res, _c) in rep.rows:
                points.setdefault((cyc, it), {})[si] = res
            last = [None] * rep.n_shifts
            for (cyc, it) in sorted(points):
                for si, res in points[(cyc, it)].items():
                    last[si] = res
                if any(v is None for v in last):
                    continue
                joint = float(np.sqrt(sum(v * v for v in last)))
                writer.writerow([method, uidx, cyc, it,
                                 _fmt(joint / bnorm if bnorm else joint)])


BLOCK_METHODS = ("sbgmres", "sbfom", "rsbgmres", "rsbgmres-ritz",
                 "rsbgmres-harmonic")


def summary_lines(results, multiplier):
    header = (f"{'method':<18} {'matvecs':>9} {'extra':>7} {'block_mv':>9} "
              f"{'block_mv*mult':>14} {'cycles':>7} {'conv':>7} "
              f"{'worst_resid':>12}")
    lines = [header, "-" * len(header)]
    for res in results:
        if res.error is not None:
            lines.append(f"{res.method:<18} failed: {res.error}")
            continue
        if res.method in BLOCK_METHODS:
            bmv = str(res.block_matvecs)
            bcost = f"{res.block_matvecs * multiplier:.1f}"
        else:
            bmv = bcost = "-"
        lines.append(
            f"{res.method:<18} {res.matvecs:>9} {res.extra_matvecs:>7} "
            f"{bmv:>9} {bcost:>14} {res.cycles:>7} "
            f"{str(res.converged_count) + '/' + str(res.shift_count):>7} "
            f"{res.worst_residual:>12.3e}")
    return lines


def write_manifest(path, cfg: ExperimentConfig, results, elapsed,
                   extra=None):
    with open(path, "w", encoding="ascii") as handle:
        def put(key, value):
            handle.write(f"{key} = {value}\n")

        put("shiftkrylov_version", __version__)
        put("numpy_version", np.__version__)
        put("scipy_version", scipy.__version__)
        put("elapsed_seconds", f"{elapsed:.3f}")
        for key, value in sorted(vars(cfg).items()):
            if key in ("per_method",):
                continue
            put(f"config.{key}", value)
        for res in results:
            prefix = f"method.{res.method}"
            if res.error is not None:
                put(f"{prefix}.status", f"failed: {res.error}")
                continue
            put(f"{prefix}.status", "ok")
            put(f"{prefix}.matvecs", res.matvecs)
            put(f"{prefix}.block_matvecs", res.block_matvecs)
            put(f"{prefix}.extra_matvecs", res.extra_matvecs)
            replaced = sum(len(u.report.replacements) for u in res.units)
            put(f"{prefix}.replacements", replaced)
            pure_block = res.method in ("sbgmres", "sbfom") and replaced == 0
            if pure_block:
                ell_total = sum(
                    len(u.shift_indices) * u.report.block_matvecs
                    for u in res.units)
                put(f"{prefix}.matvec_identity",
                    "ok" if ell_total == res.matvecs else
                    f"mismatch ({ell_total} != {res.matvecs})")
        if extra:
            for key, value in extra.items():
                put(key, value)


def run_experiment(cfg: ExperimentConfig):
    """Run every configured method; returns (results, failures).

    Artifacts written to ``cfg.out_dir``: one ``<method>.csv`` and
    ``<method>_joint.csv`` per method, ``summary.txt`` and
    ``manifest.txt``.
    """
    t0 = time.monotonic()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    a = build_problem(cfg)
    shifts = np.asarray(cfg.shifts)
    rhs = build_rhs(cfg, a, shifts)
    family = ShiftedFamily(a, shifts, rhs, None)
    results = []
    failures = []
    for method in cfg.methods:
        try:
            res = run_method(method, cfg, a, family)
        except ShiftKrylovError as exc:
            res = MethodResult(method, error=str(exc))
            failures.append((method, str(exc)))
        results.append(res)
        if res.error is None:
            write_method_csv(out / f"{method}.csv", method, res.units, shifts)
            write_joint_csv(out / f"{method}_joint.csv", method, res.units)
    lines = summary_lines(results, cfg.multiplier)
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="ascii")
    write_manifest(out / "manifest.txt", cfg, results,
                   time.monotonic() - t0)
    return results, failures


def run_variability_study(cfg: ExperimentConfig, trials: int,
                          vary_seeds: bool = True):
    """Repeat one randomized solve with distinct seeds and collect the
    spread of matvec counts.

    The first configured method is run (must be a block method) with the
    configured random strategy.  Writes ``variability.csv`` and
    ``variability_stats.txt``; returns the stats dict.
    """
    if trials < 2:
        raise ConfigError("trials must be >= 2")
    if cfg.strategy not in ("fom-random-block", "random-x0"):
        raise ConfigError("variability study requires a random strategy "
                          "(fom-random-block or random-x0)")
    method = cfg.methods[0]
    if method not in ("sbgmres", "sbfom"):
        raise ConfigError("variability study requires sbgmres or sbfom")
    t0 = time.monotonic()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    a = build_problem(cfg)
    shifts = np.asarray(cfg.shifts)
    rhs = build_rhs(cfg, a, shifts)
    family = ShiftedFamily(a, shifts, rhs, None)
    run_fam = sbgmres if method == "sbgmres" else sbfom
    base_solver = cfg.solver_for(method)
    counts = []
    rows = []
    failures = []
    for t in range(trials):
        seed = base_solver.seed + t if vary_seeds else base_solver.seed
        solver = replace(base_solver, seed=seed)
        strategy = DecollinearizeStrategy(
            cfg.strategy,
            m_init=cfg.m_init if cfg.m_init is not None else solver.cycle_length,
            seed=seed)
        try:
            _, rep = run_fam(family, solver, strategy)
        except ShiftKrylovError as exc:
            failures.append((t, str(exc)))
            rows.append((t, seed, "", "", 0))
            continue
        ok = int(all(rep.converged))
        counts.append(rep.matvecs)
        rows.append((t, seed, rep.matvecs, rep.block_matvecs, ok))
    with open(out / "variability.csv", "w", newline="",
              encoding="ascii") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["trial", "seed", "matvecs", "block_matvecs",
                         "converged"])
        for row in rows:
            writer.writerow(row)
    stats = {
        "trials": trials,
        "failures": len(failures),
        "mean": statistics.fmean(counts) if counts else float("nan"),
        "median": statistics.median(counts) if counts else float("nan"),
        "mode": (min(v for v, c in Counter(counts).items()
                     if c == max(Counter(counts).values()))
                 if counts else float("nan")),
        "stddev": statistics.stdev(counts) if len(counts) > 1 else 0.0,
    }
    lines = [
        f"trials = {trials}, excluded failures = {len(failures)}",
        f"mean = {stats['mean']:g}, median = {stats['median']:g}, "
        f"mode = {stats['mode']:g}, standard deviation = {stats['stddev']:g}",
        "",
        "histogram (matvecs : trials)",
    ]
    for value, count in sorted(Counter(counts).items()):
        lines.append(f"{value:>8} : {'#' * count}")
    (out / "variability_stats.txt").write_text("\n".join(lines) + "\n",
                                               encoding="ascii")
    write_manifest(out / "manifest.txt", cfg,
                   [], time.monotonic() - t0,
                   extra={"variability." + k: v for k, v in stats.items()})
    return stats


def solution_subspace_dimension(a: SparseMatrix, shifts, rhs,
                                threshold=1e-10):
    """Numerical dimension of the span of the exact solutions, computed by
    one sparse LU of ``A + sigma I`` per shift and an SVD with a relative
    singular-value cutoff, in real arithmetic when the matrix, shifts and
    right-hand sides are real."""
    # imported here: scipy.sparse.linalg adds about 2 MB to the memory of
    # every process that imports the harness, and only this oracle uses it
    import scipy.sparse.linalg

    n = a.n_rows
    dtype = np.result_type(a.values, np.asarray(shifts), np.asarray(rhs))
    csc = scipy.sparse.csr_matrix((a.values, a.col_indices, a.row_offsets),
                                  shape=(n, n), dtype=dtype).tocsc()
    eye = scipy.sparse.identity(n, dtype=dtype, format="csc")
    sols = np.empty((n, len(shifts)), dtype=dtype)
    for i, sigma in enumerate(shifts):
        lu = scipy.sparse.linalg.splu(csc + sigma * eye)
        sols[:, i] = lu.solve(np.asarray(rhs[:, i], dtype=dtype))
    svals = np.linalg.svd(sols, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals > threshold * svals[0]))


def run_smooth_parameter_protocol(cfg: ExperimentConfig):
    """Solve a smoothly parameterized family by seeding a recycle space
    with a few exact-to-tolerance solutions.

    Draws ``smooth_count`` shifts from ``smooth_interval``, solves the
    first ``smooth_n_seed`` systems one at a time (or with sbgmres),
    installs the solutions as the recycle space and solves the remaining
    systems in groups with the recycled block method.  The same groups are
    also solved without augmentation as the baseline.  Writes
    ``smooth_groups.csv`` and ``smooth_report.txt``; returns a dict of
    headline numbers.
    """
    t0 = time.monotonic()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    a = build_problem(cfg)
    n = a.n_rows
    rng = np.random.default_rng(cfg.rhs_seed)
    lo, hi = cfg.smooth_interval
    shifts = rng.uniform(lo, hi, cfg.smooth_count)
    rhs = np.column_stack([smooth_rhs(n, s) for s in shifts])
    n_seed = min(cfg.smooth_n_seed, cfg.smooth_count)
    solver = cfg.solver

    seed_matvecs = 0
    if cfg.smooth_seed_method == "sbgmres" and n_seed > 1:
        fam = ShiftedFamily(a, shifts[:n_seed], rhs[:, :n_seed], None)
        x_seed, rep = sbgmres(fam, solver)
        seed_matvecs = rep.matvecs
        sols = x_seed
    else:
        cols = []
        for i in range(n_seed):
            x_i, rep = gmres_restarted(add_shift(a, shifts[i]), rhs[:, i],
                                       None, solver)
            seed_matvecs += rep.matvecs
            cols.append(x_i)
        sols = np.column_stack(cols) if cols else np.zeros((n, 0))

    space = RecycleSpace.from_basis(a, sols, "solutions", drop_tol=1e-12) \
        if n_seed else RecycleSpace.empty(n, "solutions")

    groups = _groups(cfg.smooth_count - n_seed, cfg.group_size)
    rows = []
    aug_iters = []
    base_iters = []
    for gidx, grp in enumerate(groups):
        idx = [n_seed + g for g in grp]
        sub = ShiftedFamily(a, shifts[idx], rhs[:, idx], None)
        _, rep_aug, _ = rsbgmres(sub, solver, space, k=space.k,
                                 mode=cfg.recycle_mode, update=False)
        _, rep_base = sbgmres(sub, solver)
        aug_iters.append(rep_aug.block_matvecs)
        base_iters.append(rep_base.block_matvecs)
        rows.append((gidx, "rsbgmres", rep_aug.block_matvecs,
                     rep_aug.matvecs, int(all(rep_aug.converged))))
        rows.append((gidx, "sbgmres-baseline", rep_base.block_matvecs,
                     rep_base.matvecs, int(all(rep_base.converged))))
    dim = solution_subspace_dimension(a, shifts, rhs)
    mean_aug = statistics.fmean(aug_iters) if aug_iters else 0.0
    mean_base = statistics.fmean(base_iters) if base_iters else 0.0
    outcome = {
        "n_shifts": cfg.smooth_count,
        "n_seed": n_seed,
        "seed_matvecs": seed_matvecs,
        "recycle_dim": space.k,
        "mean_block_iters_augmented": mean_aug,
        "mean_block_iters_baseline": mean_base,
        "iteration_ratio": (mean_aug / mean_base) if mean_base else 0.0,
        "solution_subspace_dimension": dim,
    }
    with open(out / "smooth_groups.csv", "w", newline="",
              encoding="ascii") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["group", "method", "block_iterations", "matvecs",
                         "converged"])
        for row in rows:
            writer.writerow(row)
    lines = [f"{k} = {v}" for k, v in outcome.items()]
    (out / "smooth_report.txt").write_text("\n".join(lines) + "\n",
                                           encoding="ascii")
    write_manifest(out / "manifest.txt", cfg, [], time.monotonic() - t0,
                   extra={"smooth." + k: str(v) for k, v in outcome.items()})
    return outcome
