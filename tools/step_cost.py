"""In-process A/B of the cost of one width-one Krylov step.

Usage::

    python3 tools/step_cost.py A B [--reps 30]

``A`` and ``B`` are ``src/`` trees, each holding a ``shiftkrylov``
package (for example the ``src/`` of a second checkout).  Both load into
this one process under distinct package names.  One repetition runs the
seed solves of sample 1 of perfbench's smooth-param workload at its full
size (restarted GMRES, one shift each; 16 solves at n = 400 and cycle
length 20), their parameters read from perfbench's workload definition,
with both trees, solve by solve, the tree that goes first alternating
from solve to solve and from repetition to repetition, and times each
solve in CPU seconds; the operators and right-hand sides are built
before the clock starts.  The tool prints the CPU microseconds per step
of each tree (median and quartiles over the repetitions), in how many
repetitions B was faster, and each tree's matvec count, which is its
step count.  Timing both trees in one process, tens of milliseconds
apart, cancels most of the drift of a shared machine's speed.

BLAS runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SEED = 1    # perfbench's default --seed


def load_tree(src, name):
    """Import the ``shiftkrylov`` package under ``src`` as ``name``."""
    pkg = Path(src).resolve() / "shiftkrylov"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def sample_configs():
    """The harness configurations of smooth-param's full-size sample
    ``SEED``, as perfbench's workload builds them from this checkout."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS
    workload = WORKLOADS["smooth-param"]
    return workload.setup(SEED, workload.sizes["full"], "unused").cfgs


def seed_problems(pkg, cfgs):
    """The operators, right-hand sides and solver config of the seed
    solves of ``cfgs``, built as the harness's smooth-parameter protocol
    builds them, with ``pkg``'s own functions."""
    harness = importlib.import_module(pkg.__name__ + ".harness")
    sparse = importlib.import_module(pkg.__name__ + ".sparse")
    report = importlib.import_module(pkg.__name__ + ".report")
    problems = []
    for cfg in cfgs:
        if cfg.smooth_seed_method != "seq-gmres":
            sys.exit("step_cost: smooth-param no longer seeds with "
                     "restarted GMRES solves")
        a = harness.build_problem(cfg)
        shifts = np.random.default_rng(cfg.rhs_seed).uniform(
            *cfg.smooth_interval, cfg.smooth_count)
        solver = report.SolverConfig(**vars(cfg.solver))
        problems += [(sparse.add_shift(a, s), harness.smooth_rhs(a.n_rows, s),
                      solver)
                     for s in shifts[:min(cfg.smooth_n_seed,
                                          cfg.smooth_count)]]
    return problems


def solve(pkg, problem):
    """CPU seconds of one seed solve and its matvec count."""
    baselines = importlib.import_module(pkg.__name__ + ".baselines")
    a, b, cfg = problem
    start = time.process_time()
    matvecs = baselines.gmres_restarted(a, b, None, cfg)[1].matvecs
    return time.process_time() - start, matvecs


def repetition(trees, flip):
    """One pass over the seed solves, each solved by both trees in turn,
    B first in every other solve (and in all the others when ``flip``).
    Returns per tree the CPU microseconds per step and the matvecs."""
    seconds, matvecs = {"A": 0.0, "B": 0.0}, {"A": 0, "B": 0}
    for i in range(len(trees["A"][1])):
        for label in ("BA" if (i + flip) % 2 else "AB"):
            pkg, problems = trees[label]
            cpu, mv = solve(pkg, problems[i])
            seconds[label] += cpu
            matvecs[label] += mv
    return {k: 1e6 * seconds[k] / matvecs[k] for k in seconds}, matvecs


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:.1f} ({q1:.1f}-{q3:.1f})"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="src/ tree A (the reference)")
    parser.add_argument("b", help="src/ tree B (the change)")
    parser.add_argument("--reps", type=int, default=30)
    args = parser.parse_args(argv)
    if args.reps < 2:
        parser.error("--reps must be >= 2")
    cfgs = sample_configs()
    trees = {}
    for label, src in (("A", args.a), ("B", args.b)):
        pkg = load_tree(src, f"shiftkrylov_step_cost_{label.lower()}")
        trees[label] = (pkg, seed_problems(pkg, cfgs))
    repetition(trees, 0)            # warm-up: imports, LAPACK look-ups
    per_step = {"A": [], "B": []}
    for rep in range(args.reps):
        cost, matvecs = repetition(trees, rep % 2)
        for label in per_step:
            per_step[label].append(cost[label])
    won = sum(b < a for a, b in zip(per_step["A"], per_step["B"]))
    for label, src in (("A", args.a), ("B", args.b)):
        print(f"{label} {src}: {quartiles(per_step[label])} us per step, "
              f"median (quartiles); {matvecs[label]} matvecs")
    change = statistics.median(per_step["B"]) / statistics.median(
        per_step["A"]) - 1.0
    print(f"B faster in {won} of {args.reps} pairs; median {change:+.1%}")


if __name__ == "__main__":
    main()
