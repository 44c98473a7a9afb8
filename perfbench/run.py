"""Benchmark for the shiftkrylov solvers, run from outside the package.

One workload per process::

    python3 perfbench/run.py --workload block-large-n --seed 1 \
        --seconds 28 --trace 0

measures the workload for about ``--seconds`` seconds and prints, as the
last line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they
are its per-layer metrics, taken from traced samples that alternate with
untraced ones so the tracing overhead can be reported.

Every sample's solutions are checked against true residuals computed with
scipy.sparse from the matrix's CSR arrays; a failed check makes the exit
code non-zero.

Other modes::

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

``--all`` runs every workload in a fresh process and prints one table;
``--self-test`` runs tiny sizes in seconds and checks the metric set, the
output checker and that tracing changes no count or solution.

BLAS is pinned to one thread before numpy is imported: on a two-core
machine one OpenBLAS thread was faster and steadier than two for these
problem sizes.

Times are calibrated against the machine's speed, which on a shared VM
drifts by more than the benchmark's bounds within a minute: a short fixed
kernel runs every quarter second during the timed regions, its time is
left out of theirs, and the reported seconds are the wall seconds scaled
by ``REF_SECONDS`` over the kernel's mean time (see calibration.py).  The
raw wall times and the kernel times are kept in the run's record.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Each sample is preceded by a set-up; a direct workload's set-up round
# repeats its set-up ``setup_reps`` times and reports the mean, so that
# ms-scale set-ups are timed over a larger, fixed amount of work.
MIN_SAMPLES = 3         # untraced samples per run, even past --seconds
MIN_TRACED = 2          # traced, and untraced, samples per --trace 1 run


def _load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _units(spec):
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def _import_package():
    """Import shiftkrylov from this checkout's sources, never from an
    installed copy; exit without a result when the sources are absent."""
    if not (SRC / "shiftkrylov" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import shiftkrylov
    if Path(shiftkrylov.__file__).resolve().parent != SRC / "shiftkrylov":
        sys.exit(f"perfbench: imported {shiftkrylov.__file__}, not {SRC}")
    return shiftkrylov


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            packed = (ROOT / ".git" / "packed-refs").read_text()
            for line in packed.splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment():
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": vendor,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "commit": _git_commit()}


def same_solutions(a, b):
    """Whether two recorders hold bit-identical solutions."""
    import numpy as np
    return len(a.solved) == len(b.solved) and all(
        (x.x is None and y.x is None) or
        (x.x is not None and y.x is not None and x.x.shape == y.x.shape and
         bool(np.array_equal(x.x, y.x)))
        for x, y in zip(a.solved, b.solved))


@dataclass
class Sample:
    """One sample: wall seconds of its solve (set-up excluded) and of one
    of its set-ups."""

    traced: bool
    solve_wall: float
    setup_wall: float
    setup_slice: float      # kernel slice seconds next to the set-up


class Run:
    """One measured run of one workload in this process."""

    def __init__(self, workload, seed, seconds, trace, size="full"):
        from calibration import Sampler
        from tracing import Tracer
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.params = workload.sizes[size]
        self.out_dir = OUT / f"{workload.name}-{size}"
        self.tracer = Tracer() if trace else None
        self.sampler = Sampler()
        self.samples = []
        self.reference = None      # recorder of the first sample
        self.first_traced = None   # recorder of the first traced sample
        self.failed = 0
        self.attempted = 0
        self.false_converged = 0
        self.problems = []

    def warm_up(self):
        """Untimed tiny problem through the same functions."""
        from workloads import Recorder
        tiny = self.workload.sizes["tiny"]
        inputs = self.workload.setup(self.seed, tiny, OUT / "warmup")
        self.workload.solve(inputs, Recorder())
        self.sampler.once()

    def set_up(self, index, traced):
        """A sample's inputs and the seconds of one set-up.  A traced
        sample's single set-up is traced with it."""
        reps = 1 if traced or self.workload.setup_in_call \
            else self.params["setup_reps"]
        clock = self.sampler.clock
        t0 = clock()
        for _rep in range(reps):
            if traced:
                self.tracer.sample = index
                with self.tracer:
                    inputs = self.workload.setup(self.seed, self.params,
                                                 self.out_dir)
            else:
                inputs = self.workload.setup(self.seed, self.params,
                                             self.out_dir)
        return inputs, (clock() - t0) / reps

    def measure(self):
        """Alternate set-ups and samples for about ``seconds``, checking
        each sample's outputs after its timed region.  Untraced runs are
        calibrated: the sampler runs throughout and its slices are left
        out of every timed region.  A set-up lasts too short a time for
        the periodic slices to say how fast the machine was during it, so
        each set-up also gets its own slices, just before it and (when it
        is not inside the harness call) just after."""
        from workloads import Recorder
        clock = self.sampler.clock
        start = time.perf_counter()
        index = 0
        calibrating = self.sampler if self.tracer is None \
            else contextlib.nullcontext()
        with calibrating:
            while True:
                traced = self.tracer is not None and index % 2 == 1
                local = self.sampler.once()
                inputs, setup = self.set_up(index, traced)
                if not self.workload.setup_in_call:
                    local = 0.5 * (local + self.sampler.once())
                rec = Recorder(clock=clock)
                if traced:
                    self.tracer.sample = index
                    with self.tracer:
                        t0 = clock()
                        checks = self.workload.solve(inputs, rec)
                        elapsed = clock() - t0
                else:
                    t0 = clock()
                    checks = self.workload.solve(inputs, rec)
                    elapsed = clock() - t0
                if self.workload.setup_in_call:
                    setup = rec.setup_seconds
                    elapsed -= setup
                self.samples.append(Sample(traced, elapsed, setup, local))
                self.verify(index, traced, rec, checks, inputs)
                index += 1
                n_plain = sum(1 for s in self.samples if not s.traced)
                n_traced = len(self.samples) - n_plain
                enough = n_plain >= (MIN_TRACED if self.tracer
                                     else MIN_SAMPLES) \
                    and (self.tracer is None or n_traced >= MIN_TRACED)
                spent = time.perf_counter() - start
                if enough and spent + elapsed + setup > self.seconds:
                    return

    def verify(self, index, traced, rec, checks, inputs):
        """Check one sample's outputs.  Counts and solutions must repeat
        exactly across samples, traced or not; only the first untraced
        and the first traced sample are kept, so peak memory does not
        grow with the number of samples."""
        from workloads import check
        expected = self.workload.expected_shifts(inputs)
        if self.reference is None:
            self.reference = rec
        if traced and self.first_traced is None:
            self.first_traced = rec
        ref = self.reference
        shifts = sum(s.n_shifts for s in rec.solved)
        self.attempted += max(shifts, expected)
        if shifts != expected:
            self.failed += max(expected - shifts, 1)
            self.problems.append(f"sample {index}: checked {shifts} of "
                                 f"{expected} shift solves")
        for solved in rec.solved:
            failed, claimed = check(solved)
            self.failed += int(failed.sum())
            self.false_converged += claimed
            if failed.any():
                self.problems.append(
                    f"sample {index}: {solved.call} failed on shifts "
                    f"{[complex(s) for s in solved.shifts[failed]]}")
        for err in rec.errors:
            self.problems.append(f"sample {index}: raised\n{err}")
        for name, ok, detail in checks:
            if not ok:
                self.failed += 1
                self.problems.append(f"sample {index}: {name} failed "
                                     f"({detail})")
        if (rec.matvecs, rec.block_matvecs) != (ref.matvecs,
                                                ref.block_matvecs):
            self.failed += 1
            self.problems.append(
                f"sample {index} (traced={traced}): matvecs "
                f"{rec.matvecs}/{rec.block_matvecs} differ from sample 0 "
                f"{ref.matvecs}/{ref.block_matvecs}")
        if not same_solutions(rec, ref):
            self.failed += 1
            self.problems.append(f"sample {index} (traced={traced}): "
                                 "solutions differ from sample 0")

    @property
    def correct(self):
        return self.failed == 0

    def end_to_end(self):
        from calibration import REF_SECONDS
        ref = self.reference
        plain = [s for s in self.samples if not s.traced]
        solve = statistics.median(s.solve_wall for s in plain)
        setup = statistics.median(s.setup_wall for s in plain)
        scale = self.sampler.scale
        return {
            "solve_s": solve * scale,
            "setup_s": statistics.median(
                s.setup_wall * REF_SECONDS / s.setup_slice for s in plain),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "matvecs": ref.matvecs,
        }, {
            "block_matvecs": ref.block_matvecs,
            "fail_frac": self.failed / max(self.attempted, 1),
            "solve_s.samples": len(plain),
            "solve_s.wall": solve,
            "setup_s.wall": setup,
            "calibration": scale,
            "calibration.slices": len(self.sampler.times),
        }

    def per_layer(self):
        traced = [(i, s) for i, s in enumerate(self.samples) if s.traced]
        rows = [self.tracer.layer_metrics(i) for i, _s in traced]
        metrics = {key: statistics.median(row[key] for row in rows)
                   for key in rows[0]}
        metrics["report.matvecs"] = self.reference.matvecs
        metrics["report.block_matvecs"] = self.reference.block_matvecs
        plain = statistics.median(s.solve_wall for s in self.samples
                                  if not s.traced)
        with_trace = statistics.median(s.solve_wall for _i, s in traced)
        return metrics, {"trace.solve_s": with_trace, "solve_s": plain,
                         "trace.overhead": with_trace / plain - 1.0}


def _purpose(name, m, traced_solve_s):
    """What each workload is for, confirmed from its traced run."""
    from tracing import LAYERS
    layers = [f"{layer}.self_s" for layer in LAYERS]
    top = max(layers, key=lambda k: m[k])
    recycle = m["recycling.augment.s"] + m["recycling.update.s"]
    if name == "block-large-n":
        return [("arnoldi.self_s is the largest layer self time",
                 top == "arnoldi.self_s"),
                ("no recycling work", recycle == 0.0)]
    if name == "smooth-param":
        others = [m[k] for k in layers if k != "dense.self_s"]
        return [("dense.lstsq.s exceeds every other layer's self time",
                 m["dense.lstsq.s"] > max(others))]
    if name == "recycle-seq":
        return [("recycling.augment.s + recycling.update.s > 10% of solve_s",
                 recycle > 0.1 * traced_solve_s)]
    if name == "shared-rhs":
        return [("no recycling work", recycle == 0.0),
                ("single-vector Arnoldi and small solves run",
                 m["arnoldi.extend.calls"] > 0 and m["dense.solve.calls"] > 0)]
    return []


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_one(name, seed, seconds, trace, size="full", quiet=False):
    """Measure one workload in this process; returns (result, run)."""
    from workloads import WORKLOADS
    spec = _load_spec()
    workload = WORKLOADS[name]
    run = Run(workload, seed, seconds, trace, size)
    run.warm_up()
    run.measure()
    units = _units(spec)
    say = (lambda *a: None) if quiet else print
    say(f"workload {name}  seed {seed}  size {size}  trace {trace}  "
        f"samples {len(run.samples)}")
    if trace:
        metrics, extra = run.per_layer()
        wanted = [m["name"] for m in spec["per_layer"]]
        say(f"  counts marked _computed come from array sizes, not hardware "
            f"counters; traced solve_s {extra['trace.solve_s']:.4f} s vs "
            f"untraced {extra['solve_s']:.4f} s, overhead "
            f"{100 * extra['trace.overhead']:.1f}%")
        if run.tracer.missing:
            say(f"  traced names not found (skipped): {run.tracer.missing}")
        for text, ok in _purpose(name, metrics, extra["trace.solve_s"]):
            say(f"  purpose: {text}: {'confirmed' if ok else 'NOT confirmed'}")
        if not quiet:
            OUT.mkdir(parents=True, exist_ok=True)
            run.tracer.write_spans(OUT / f"spans-{name}-seed{seed}.csv")
    else:
        metrics, extra = run.end_to_end()
        wanted = [m["name"] for m in spec["end_to_end"]]
        say(f"  solve_s median of {extra['solve_s.samples']} samples; "
            f"uncalibrated wall medians: solve {extra['solve_s.wall']:.4f} s,"
            f" set-up {extra['setup_s.wall']:.6f} s; calibration factor "
            f"{extra['calibration']:.4f} from "
            f"{extra['calibration.slices']} kernel slices")
        say(f"  block_matvecs = {extra['block_matvecs']} count")
        say(f"  fail_frac = {extra['fail_frac']:.6g} ratio "
            f"({run.failed} of {run.attempted} shift solves; "
            f"{run.false_converged} falsely reported converged)")
    say("  sample solve wall seconds (t = traced) " + " ".join(
        f"{s.solve_wall:.3f}{'t' if s.traced else ''}" for s in run.samples))
    for key in wanted:
        say(f"  {key} = {_fmt(metrics[key])} {units[key]}")
    say(f"  env {json.dumps(environment())}")
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)
    counts = {key for key, unit in units.items() if unit == "count"}
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": int(metrics[key]) if key in counts
                          else float(metrics[key]), "unit": units[key]}
                    for key in wanted},
    }
    if not quiet:
        OUT.mkdir(parents=True, exist_ok=True)
        with open(_record_path(name, seed, trace), "w",
                  encoding="utf-8") as handle:
            json.dump({"result": result, "extra": extra,
                       "samples": [vars(s) for s in run.samples],
                       "slice_seconds": run.sampler.times,
                       "problems": run.problems, "environment": environment()},
                      handle, indent=1)
    return result, run


def _record_path(name, seed, trace):
    return OUT / f"{name}-seed{seed}-trace{trace}.json"


def run_all(seed, seconds, trace):
    """Every workload in a fresh process, then one table."""
    from workloads import WORKLOADS
    spec = _load_spec()
    OUT.mkdir(parents=True, exist_ok=True)
    rows = {}
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--seconds", str(seconds), "--trace",
             str(trace)], capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            with open(_record_path(name, seed, trace),
                      encoding="utf-8") as handle:
                rows[name] = json.load(handle)
        except OSError:
            rows[name] = None
        ok = ok and proc.returncode == 0 and rows[name] is not None \
            and rows[name]["result"]["correct"]
    names = [m["name"] for m in
             (spec["per_layer"] if trace else spec["end_to_end"])]
    print()
    print(f"{'metric':<34}" + "".join(f"{w:>16}" for w in rows))
    units = _units(spec)
    units.update(block_matvecs="count", fail_frac="ratio")
    extra = [] if trace else ["block_matvecs", "fail_frac"]
    for key in names + extra:
        cells = []
        for row in rows.values():
            if row is None:
                cells.append("-")
            elif key in extra:
                cells.append(_fmt(row["extra"][key]))
            else:
                cells.append(_fmt(row["result"]["metrics"][key]["value"]))
        unit = units[key]
        print(f"{key + ' [' + unit + ']':<34}" +
              "".join(f"{c:>16}" for c in cells))
    return ok


def self_test():
    """Tiny sizes: metric set, checker sensitivity, trace transparency."""
    import numpy as np
    from workloads import WORKLOADS, check
    spec = _load_spec()
    ok = True

    def expect(cond, text):
        nonlocal ok
        print(f"  {'ok  ' if cond else 'FAIL'} {text}")
        ok = ok and cond

    for name in WORKLOADS:
        print(f"self-test {name}")
        plain, run0 = run_one(name, 3, 0.0, 0, size="tiny", quiet=True)
        traced, run1 = run_one(name, 3, 0.0, 1, size="tiny", quiet=True)
        expect(plain["correct"] and traced["correct"],
               f"outputs pass the checker ({run0.problems + run1.problems})")
        expect(set(plain["metrics"]) ==
               {m["name"] for m in spec["end_to_end"]},
               "every end-to-end metric is emitted")
        expect(set(traced["metrics"]) ==
               {m["name"] for m in spec["per_layer"]},
               "every per-layer metric is emitted")
        expect(all(s.setup_wall > 0 for s in run0.samples) and
               traced["metrics"]["sparse.build_s"]["value"] > 0,
               "every sample's set-up is timed and traced")
        a, b = run0.reference, run1.first_traced
        expect((a.matvecs, a.block_matvecs) == (b.matvecs, b.block_matvecs),
               f"traced and untraced counts agree ({a.matvecs}/"
               f"{a.block_matvecs} vs {b.matvecs}/{b.block_matvecs})")
        expect(same_solutions(a, b),
               "traced and untraced solutions are identical")
        victim = a.solved[0]
        failed, _ = check(victim)
        expect(not failed.any(), "unperturbed solution passes")
        good = victim.x
        victim.x = good.copy()
        victim.x[:, -1] += 1e-3 * np.linalg.norm(good[:, -1]) + 1e-3
        failed, claimed = check(victim)
        victim.x = good
        expect(bool(failed[-1]) and not failed[:-1].any() and claimed <= 1,
               "checker flags exactly the perturbed shift")
        print(f"  traced names not found: {run1.tracer.missing}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or (args.seconds is not None and args.seconds < 0):
        parser.error("--seed and --seconds must be non-negative")
    spec = _load_spec()
    _import_package()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.self_test:
        return 0 if self_test() else 1
    if args.all:
        return 0 if run_all(args.seed, seconds, args.trace) else 1
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result, _run = run_one(args.workload, args.seed, seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
