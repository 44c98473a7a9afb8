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
import io
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from itertools import repeat
from pathlib import Path

import numpy as np
import scipy.sparse

from . import __version__
from .baselines import fom_restarted, gmres_restarted, sfom, sgmres
from .block_solvers import STRATEGY_TAGS, sbfom, sbgmres
from .errors import ConfigError, DimensionError, ShiftKrylovError
from .recycling import (RECYCLE_MODES, RecycleSpace, load_recycle_space,
                        rgmres_baseline, rsbgmres, shift_rebase)
from .report import SolveReport, SolverConfig
from .sparse import (ShiftedFamily, SparseMatrix, add_shift,
                     generate_convection_diffusion, read_dense_matrix_market,
                     read_matrix_market)

KNOWN_METHODS = ("seq-gmres", "seq-fom", "seq-rgmres", "sgmres", "sfom",
                 "sbgmres", "sbfom", "rsbgmres", "rsbgmres-ritz",
                 "rsbgmres-harmonic")
RHS_MODES = ("shared-random", "unrelated-random", "smooth-parameter",
             "from-file")
SMOOTH_SEED_METHODS = ("seq-gmres", "sbgmres")
PROBLEM_SOURCES = ("generate", "matrix-market")


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
    recycle_k: int = 8
    recycle_mode: str = "ritz-largest"
    initial_space_path: str | None = None
    group_size: int = 8
    multiplier: float = 3.3
    out_dir: str = "out"
    smooth_count: int = 100
    smooth_interval: tuple = (1.0, 2.0)
    smooth_n_seed: int = 10
    smooth_seed_method: str = "seq-gmres"

    def __post_init__(self):
        fin = np.isfinite
        for what, ok in (
                ("[methods] names: none given", self.methods),
                ("[shifts] values must be given and finite",
                 len(self.shifts) and fin(self.shifts).all()),
                ("[problem] grid_m must be >= 2", self.grid_m >= 2),
                ("[problem] convection must be finite", fin(self.convection)),
                ("[rhs] seed must be >= 0", self.rhs_seed >= 0),
                ("[recycle] k must be >= 0", self.recycle_k >= 0),
                ("[run] group_size must be >= 1", self.group_size >= 1),
                ("[run] multiplier must be positive and finite",
                 0 < self.multiplier < np.inf),
                ("[smooth] count must be >= 1", self.smooth_count >= 1),
                ("[smooth] n_seed must be >= 0", self.smooth_n_seed >= 0),
                ("[smooth] interval must be finite",
                 fin(self.smooth_interval).all())):
            if not ok:
                raise ConfigError(what)
        for key, value, known in (
                *(("[methods] names", m, KNOWN_METHODS) for m in self.methods),
                ("[problem] source", self.source, PROBLEM_SOURCES),
                ("[rhs] mode", self.rhs_mode, RHS_MODES),
                ("[solver] strategy", self.strategy, STRATEGY_TAGS),
                ("[recycle] mode", self.recycle_mode, RECYCLE_MODES),
                ("[smooth] seed_method", self.smooth_seed_method,
                 SMOOTH_SEED_METHODS)):
            if value not in known:
                raise ConfigError(f"{key}: unknown value '{value}' "
                                  f"(known: {', '.join(known)})")

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


def _parse_interval(text):
    vals = [_parse_scalar(v) for v in _parse_list(text)]
    if len(vals) != 2:
        raise ConfigError("expected 'low, high'")
    return float(np.real(vals[0])), float(np.real(vals[1]))


# (section, key) -> (ExperimentConfig field, parser); defaults on the fields
_CONFIG_KEYS = {
    ("problem", "source"): ("source", str),
    ("problem", "path"): ("matrix_path", str),
    ("problem", "grid_m"): ("grid_m", int),
    ("problem", "convection"): ("convection", float),
    ("shifts", "values"): (
        "shifts", lambda text: tuple(map(_parse_scalar, _parse_list(text)))),
    ("rhs", "mode"): ("rhs_mode", str),
    ("rhs", "path"): ("rhs_path", str),
    ("rhs", "seed"): ("rhs_seed", int),
    ("methods", "names"): ("methods", lambda text: tuple(_parse_list(text))),
    ("solver", "strategy"): ("strategy", str),
    ("recycle", "k"): ("recycle_k", int),
    ("recycle", "mode"): ("recycle_mode", str),
    ("recycle", "initial_space"): ("initial_space_path", str),
    ("run", "group_size"): ("group_size", int),
    ("run", "multiplier"): ("multiplier", float),
    ("run", "out"): ("out_dir", str),
    ("smooth", "count"): ("smooth_count", int),
    ("smooth", "interval"): ("smooth_interval", _parse_interval),
    ("smooth", "n_seed"): ("smooth_n_seed", int),
    ("smooth", "seed_method"): ("smooth_seed_method", str),
}


def load_config(path) -> ExperimentConfig:
    """Parse an experiment config file; raises ConfigError with the
    section and key that failed."""
    # no DEFAULT section: "[DEFAULT]" is then an unknown section, too
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       default_section="")
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file '{path}'")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file '{path}': {exc}")
    solver_keys = {f.name for f in fields(SolverConfig)}
    known = {f"solver.{m}": solver_keys for m in KNOWN_METHODS}
    for section, key in (*_CONFIG_KEYS, *(("solver", k) for k in solver_keys)):
        known.setdefault(section, set()).add(key)
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in known[section]:
                raise ConfigError(f"[{section}] {key}: unknown key")

    def get(section, key, cast):
        try:
            if cast is bool:
                # only 1/0, true/false, yes/no and on/off; ValueError else
                return parser.getboolean(section, key)
            return cast(parser.get(section, key))
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"[{section}] {key}: {exc}")

    def solver_from(section, fallback: SolverConfig):
        # a SolverConfig key parses as the type of its field's default
        try:
            return replace(fallback, **{
                f.name: get(section, f.name, type(f.default))
                for f in fields(SolverConfig)
                if parser.has_option(section, f.name)})
        except DimensionError as exc:
            raise ConfigError(f"[{section}] {exc}")

    kwargs = {name: get(section, key, cast)
              for (section, key), (name, cast) in _CONFIG_KEYS.items()
              if parser.has_option(section, key)}
    kwargs["solver"] = solver_from("solver", SolverConfig())
    kwargs["per_method"] = {
        section.split(".", 1)[1]: solver_from(section, kwargs["solver"])
        for section in parser.sections() if section.startswith("solver.")}
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))


def build_problem(cfg: ExperimentConfig) -> SparseMatrix:
    if cfg.source == "generate":
        return generate_convection_diffusion(cfg.grid_m, cfg.convection)
    if not cfg.matrix_path:
        raise ConfigError("[problem] path is required for matrix-market")
    return read_matrix_market(cfg.matrix_path)


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
            st = u.report.steps
            last, seen = _last_recorded(st.resid, st.recorded)
            if len(last) and seen[-1].any():
                worst = max(worst, float(last[-1, seen[-1]].max()))
        return worst


def _last_recorded(resid, recorded):
    """Per row of ``resid``, each shift's value at its latest recorded
    row up to there, and whether it has one yet."""
    pos = np.where(recorded, np.arange(len(resid))[:, None], -1)
    np.maximum.accumulate(pos, axis=0, out=pos)
    return resid[pos, np.arange(resid.shape[1])], pos >= 0


def _initial_space(cfg: ExperimentConfig, a: SparseMatrix):
    if cfg.initial_space_path:
        return load_recycle_space(cfg.initial_space_path, a)
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
        for grp in _groups(family.n_shifts, cfg.group_size):
            sub = ShiftedFamily(a, shifts[grp], family.rhs[:, grp],
                                family.initial_guess[:, grp])
            _, rep = run_fam(sub, solver, cfg.strategy)
            result.units.append(RunUnit(grp, rep))
        return result
    if method.startswith("rsbgmres"):
        mode = {"rsbgmres": cfg.recycle_mode,
                "rsbgmres-ritz": "ritz-largest",
                "rsbgmres-harmonic": "harmonic-ritz-smallest"}[method]
        space = _initial_space(cfg, a)
        for grp in _groups(family.n_shifts, cfg.group_size):
            sub = ShiftedFamily(a, shifts[grp], family.rhs[:, grp],
                                family.initial_guess[:, grp])
            _, rep, space = rsbgmres(sub, solver, space, k=cfg.recycle_k,
                                     mode=mode, strategy=cfg.strategy)
            rep.method = method
            result.units.append(RunUnit(grp, rep))
        return result
    raise ConfigError(f"unknown method '{method}'")


def _shift_label(sigma):
    sigma = complex(sigma)
    return repr(sigma.real) if sigma.imag == 0.0 else repr(sigma)


def _quoted(*fields):
    """``fields`` as one line of a QUOTE_MINIMAL csv writer, unended."""
    buf = io.StringIO()
    csv.writer(buf, quoting=csv.QUOTE_MINIMAL,
               lineterminator="").writerow(fields)
    return buf.getvalue()


def write_method_csv(path, method, units, shifts):
    """Per-iteration convergence history, RFC-4180 quoted.

    Counter columns are running totals across the method's units so every
    summary number can be recomputed from the file alone.
    """
    ends = (",0\n", ",1\n")       # the converged column and line end
    with open(path, "w", newline="", encoding="ascii") as handle:
        handle.write("method,shift,cycle,iteration,matvecs,block_matvecs,"
                     "resid_norm,converged\n")
        mv_off = bmv_off = 0
        for unit in units:
            rep = unit.report
            st = rep.steps
            # the text fields are quoted once per shift, the counters
            # formatted once per point; one line per recorded shift per
            # point, in recorded order, and one write per unit
            lead = [_quoted(method, _shift_label(shifts[g])) + ","
                    for g in unit.shift_indices]
            lines = []
            for cyc, it, mv, bmv, res, conv, seen in zip(
                    st.cycle.tolist(), st.iteration.tolist(),
                    (st.matvecs + mv_off).tolist(),
                    (st.block_matvecs + bmv_off).tolist(), st.resid.tolist(),
                    st.converged.tolist(), st.recorded.tolist()):
                point = f"{cyc},{it},{mv},{bmv},"
                lines += ["".join((text, point, repr(value), ends[done]))
                          for text, value, done, rec
                          in zip(lead, res, conv, seen) if rec]
            handle.write("".join(lines))
            mv_off += rep.matvecs
            bmv_off += rep.block_matvecs


def write_joint_csv(path, method, units):
    """Joint residual curves: Frobenius norm over a unit's shifts divided
    by the Frobenius norm of its right-hand-side block, per (cycle,
    iteration) point once every shift has a recorded residual, each
    shift's latest; the squares are summed in shift order, one by one."""
    with open(path, "w", newline="", encoding="ascii") as handle:
        handle.write("method,unit,cycle,iteration,joint_resid_frob\n")
        for uidx, unit in enumerate(units):
            rep = unit.report
            bnorm = float(np.linalg.norm(rep.rhs_norms))
            st = rep.steps
            order = np.lexsort((st.iteration, st.cycle))    # stable
            # a point that records no shift is no point of the curve
            order = order[st.recorded[order].any(axis=1)]
            cyc, it = st.cycle[order], st.iteration[order]
            last, seen = _last_recorded(st.resid[order],
                                        st.recorded[order])
            # the last record of each point, once every shift has a value
            ends = np.ones(len(cyc), dtype=bool)
            ends[:-1] = (cyc[1:] != cyc[:-1]) | (it[1:] != it[:-1])
            ends &= seen.all(axis=1)
            last = last[ends]
            joint = np.sqrt(np.add.accumulate(last * last, axis=1)[:, -1])
            lead = f"{_quoted(method)},{uidx},"
            handle.write("".join(map(
                "{}{},{},{!r}\n".format, repeat(lead), cyc[ends].tolist(),
                it[ends].tolist(),
                (joint / bnorm if bnorm else joint).tolist())))


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
            if res.method in ("sbgmres", "sbfom"):
                # after each unit's last cycle-0 record, per cycle of S
                # block products from L candidate columns (its recorded
                # block width), S L products less S - s per column
                # deflated at step s
                expected = 0
                for u in res.units:
                    st, rep = u.report.steps, u.report
                    at = np.nonzero(st.cycle == 0)[0][-1]
                    per = np.bincount(
                        st.cycle[at + 1:], np.diff(st.block_matvecs[at:]),
                        len(rep.block_widths) + 1).astype(int)
                    expected += int(
                        st.matvecs[at] + per[1:] @ rep.block_widths
                        - sum(per[c] - s for c, s, _ in rep.replacements))
                put(f"{prefix}.matvec_identity",
                    "ok" if expected == res.matvecs else
                    f"mismatch ({expected} != {res.matvecs})")
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


def run_variability_study(cfg: ExperimentConfig, trials: int):
    """Repeat one randomized solve with distinct seeds, trial t at the
    configured seed plus t, and collect the spread of matvec counts.

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
        solver = replace(base_solver, seed=base_solver.seed + t)
        try:
            _, rep = run_fam(family, solver, cfg.strategy)
        except ShiftKrylovError as exc:
            failures.append((t, str(exc)))
            rows.append((t, solver.seed, "", "", 0))
            continue
        ok = int(all(rep.converged))
        counts.append(rep.matvecs)
        rows.append((t, solver.seed, rep.matvecs, rep.block_matvecs, ok))
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

    space = RecycleSpace.from_basis(a, sols, "solutions") \
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
