"""Layer tracing for the benchmark, done from outside the package.

The package's modules import each other's functions by name
(``from .dense import hessenberg_least_squares``), so a wrapper installed
only on the defining module misses every call made through another
module's copy of the name.  :class:`Tracer` therefore replaces the name in
every loaded ``shiftkrylov`` module whose attribute is the original
object, and puts the originals back on exit.  A target whose name no
longer exists is skipped and listed in :attr:`Tracer.missing`, so the
benchmark keeps running after refactors that delete or rename functions.

A call made while a span of the same layer and name is open, or while the
span it is part of (``PART_OF``) is open, gets no span of its own: its
time is its caller's, and it is not counted again.

Spans are kept in memory as tuples and aggregated (or written out) after
the measured samples end.  Counts marked ``_computed`` are derived from
array sizes, not from hardware counters.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

PACKAGE = "shiftkrylov"
LAYERS = ("sparse", "dense", "arnoldi", "recycling", "block_solvers",
          "baselines", "harness")

_C16 = 16   # bytes per complex double
_I8 = 8     # bytes per int64 index


def _matvec_bytes(a):
    """Bytes one CSR product reads and writes: values, column indices,
    row offsets, the operand and the result (computed, no cache model)."""
    return a.nnz * (_C16 + _I8) + (a.n_rows + 1) * _I8 + \
        (a.n_cols + a.n_rows) * _C16


def _extra_matvec(args, kwargs, result):
    return {"bytes": _matvec_bytes(args[0])}


def _extra_block_matvec(args, kwargs, result):
    cols = args[1].shape[1]
    return {"cols": cols, "bytes": cols * _matvec_bytes(args[0])}


def _orth_flops(n, ell, k, first_step, last_step):
    """Real flops of two-pass Gram-Schmidt for block steps
    ``first_step .. last_step - 1``: each of the ``ell`` new columns is
    projected twice against the ``k`` projector columns, the ``(s+1) ell``
    basis columns and the columns already done in its own block, at
    8n flops per complex inner product and 8n per complex update."""
    flops = 0
    for s in range(first_step, last_step):
        against = ell * (k + (s + 1) * ell) + ell * (ell - 1) // 2
        flops += 2 * against * 16 * n
    return flops


def _extra_block_extend(args, kwargs, result):
    state = args[1]
    ell = state.block_size
    n = state.basis.shape[0]
    k = 0 if state.projector_c is None else state.projector_c.shape[1]
    steps = result.steps - state.steps
    return {"flops": _orth_flops(n, ell, k, state.steps, result.steps),
            "cols": steps * ell,
            "replaced": len(result.replacements) - len(state.replacements)}


def _extra_block_start(args, kwargs, result):
    return {"cols": result.block_size,
            "replaced": len(result.replacements)}


def _extra_extend(args, kwargs, result):
    state = args[1]
    n = state.basis.shape[0]
    return {"flops": _orth_flops(n, 1, 0, state.steps, result.steps)}


def _extra_lstsq(args, kwargs, result):
    return {"cols": args[0].shape[1]}


def _extra_augment(args, kwargs, result):
    return {"offered": args[0].k, "padded": len(result.padded)}


def _extra_report(args, kwargs, result):
    rep = result[1]
    return {"cycles": rep.cycles, "rows": len(rep.rows),
            "extra_mv": rep.extra_matvecs}


def _extra_csv(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, qualified name, layer, span name, extra-counts function).  A
# dotted name is a method or classmethod of a class in that module.
TARGETS = (
    ("sparse", "matvec", "sparse", "matvec", _extra_matvec),
    ("sparse", "block_matvec", "sparse", "block_matvec", _extra_block_matvec),
    ("sparse", "ShiftedFamily.residual_block", "sparse", "residual_block",
     None),
    ("sparse", "generate_convection_diffusion", "sparse", "build", None),
    ("sparse", "add_shift", "sparse", "build", None),
    ("arnoldi", "block_arnoldi_start", "arnoldi", "block_start",
     _extra_block_start),
    ("arnoldi", "block_arnoldi_extend", "arnoldi", "block_extend",
     _extra_block_extend),
    ("arnoldi", "block_arnoldi", "arnoldi", "block_arnoldi", None),
    ("arnoldi", "start_arnoldi", "arnoldi", "start", None),
    ("arnoldi", "arnoldi_extend", "arnoldi", "extend", _extra_extend),
    ("dense", "hessenberg_least_squares", "dense", "lstsq", _extra_lstsq),
    ("dense", "solve_small_dense", "dense", "solve", None),
    ("dense", "householder_qr", "dense", "qr", None),
    ("dense", "rank_revealing_qr", "dense", "qr", None),
    ("dense", "hessenberg_eigen", "dense", "eig", None),
    ("recycling", "oblique_project_shift", "recycling", "project", None),
    ("recycling", "augmentation_blocks", "recycling", "augment",
     _extra_augment),
    ("recycling", "assemble_augmented", "recycling", "assemble", None),
    ("recycling", "update_recycle_space", "recycling", "update", None),
    ("recycling", "RecycleSpace.from_basis", "recycling", "space_build",
     None),
    ("recycling", "shift_rebase", "recycling", "space_build", None),
    ("block_solvers", "sbgmres", "block_solvers", "sbgmres", _extra_report),
    ("block_solvers", "sbfom", "block_solvers", "sbfom", _extra_report),
    ("recycling", "rsbgmres", "block_solvers", "rsbgmres", _extra_report),
    ("baselines", "gmres_restarted", "block_solvers", "gmres_restarted",
     _extra_report),
    ("baselines", "fom_restarted", "block_solvers", "fom_restarted",
     _extra_report),
    ("baselines", "sgmres", "baselines", "sgmres", _extra_report),
    ("baselines", "sfom", "baselines", "sfom", _extra_report),
    ("harness", "run_experiment", "harness", "run", None),
    ("harness", "run_smooth_parameter_protocol", "harness", "run", None),
    ("harness", "write_method_csv", "harness", "csv", _extra_csv),
    ("harness", "write_joint_csv", "harness", "csv", _extra_csv),
    ("harness", "solution_subspace_dimension", "harness", "oracle", None),
)


# sparse.block_matvec forms its product one column at a time with
# sparse.matvec; those column products belong to the block product.
PART_OF = {("sparse", "matvec"): ("sparse", "block_matvec")}


class Tracer:
    """Records one span per call into the traced functions while
    installed.  Use as a context manager around the traced region; set
    :attr:`sample` to tag the spans of each measured sample."""

    def __init__(self):
        # (id, parent, sample, layer, name, t0, t1, error, counts)
        self.spans = []
        self.missing = []
        self.sample = -1
        self._stack = [(0, None)]     # (span id, (layer, name)) of open spans
        self._next_id = 1
        self._patches = []     # (owner, attribute, original value)

    # -- installation ---------------------------------------------------
    def __enter__(self):
        for mod_name, qual, layer, name, extra in TARGETS:
            try:
                owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                owner = None
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                if f"{mod_name}.{qual}" not in self.missing:
                    self.missing.append(f"{mod_name}.{qual}")
                continue
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self._wrap(raw.__func__, layer, name, extra))
                self._patch(owner, attr, raw, wrapped)
                continue
            wrapped = self._wrap(raw, layer, name, extra)
            if path:
                self._patch(owner, attr, raw, wrapped)
                continue
            for other in list(sys.modules.values()):
                other_name = getattr(other, "__name__", "")
                if other_name != PACKAGE and \
                        not other_name.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(other).items()):
                    if value is raw:
                        self._patch(other, key, raw, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _patch(self, owner, attr, original, wrapped):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _wrap(self, fn, layer, name, extra):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        key = (layer, name)
        inside = {key, PART_OF.get(key, key)}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack[-1][1] in inside:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0]
            stack.append((sid, key))
            error = None
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                counts = extra(args, kwargs, result) \
                    if extra is not None and error is None else None
                spans.append((sid, parent, self.sample, layer, name, t0, t1,
                              error, counts))

        return traced

    # -- output ---------------------------------------------------------
    def write_spans(self, path):
        """Write every recorded span as one CSV row."""
        with open(path, "w", newline="", encoding="ascii") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["id", "parent", "sample", "layer", "name",
                             "start_s", "end_s", "error", "counts"])
            for sid, parent, sample, layer, name, t0, t1, error, counts \
                    in self.spans:
                fields = ";".join(f"{k}={v}"
                                  for k, v in (counts or {}).items())
                writer.writerow([sid, parent, sample, layer, name,
                                 f"{t0:.9f}", f"{t1:.9f}", error or "",
                                 fields])

    def sample_metrics(self, sample):
        """Per-layer metrics of the spans tagged with ``sample``."""
        spans = [s for s in self.spans if s[2] == sample]
        by_id = {s[0]: s for s in spans}
        child_time = defaultdict(float)
        for s in spans:
            if s[1] in by_id:
                child_time[s[1]] += s[6] - s[5]

        def outermost(s):
            """No ancestor of this span belongs to the same layer."""
            parent = by_id.get(s[1])
            while parent is not None:
                if parent[3] == s[3]:
                    return False
                parent = by_id.get(parent[1])
            return True

        m = defaultdict(float)
        for s in spans:
            sid, _parent, _sample, layer, name, t0, t1, error, counts = s
            dur = t1 - t0
            m[f"{layer}.self_s"] += dur - child_time[sid]
            if outermost(s):
                m[f"{layer}.s"] += dur
            key = f"{layer}.{name}"
            m[f"{key}.calls"] += 1
            m[f"{key}.s"] += dur
            if error == "NearSingularError":
                m[f"{key}.singular"] += 1
            for field, value in (counts or {}).items():
                m[f"{key}.{field}"] += value
        return m

    def layer_metrics(self, sample):
        """The benchmark's per-layer metric set for one sample."""
        m = self.sample_metrics(sample)
        g = m.get
        lstsq_calls = g("dense.lstsq.calls", 0)
        arn_cols = g("arnoldi.block_extend.cols", 0) + \
            g("arnoldi.block_start.cols", 0)
        arn_replaced = g("arnoldi.block_extend.replaced", 0) + \
            g("arnoldi.block_start.replaced", 0)
        arn_flops = g("arnoldi.block_extend.flops", 0) + \
            g("arnoldi.extend.flops", 0)
        arn_self = g("arnoldi.self_s", 0.0)
        offered = g("recycling.augment.offered", 0)
        solver_keys = ("sbgmres", "sbfom", "rsbgmres", "gmres_restarted",
                       "fom_restarted")

        def total(layer, keys, field):
            return sum(g(f"{layer}.{k}.{field}", 0) for k in keys)

        out = {
            "sparse.matvec.calls": g("sparse.matvec.calls", 0),
            "sparse.block_matvec.calls": g("sparse.block_matvec.calls", 0),
            "sparse.block_matvec.cols": g("sparse.block_matvec.cols", 0),
            "sparse.residual_block.s": g("sparse.residual_block.s", 0.0),
            "sparse.self_s": g("sparse.self_s", 0.0),
            "sparse.bytes_computed": g("sparse.matvec.bytes", 0) +
            g("sparse.block_matvec.bytes", 0),
            "sparse.build_s": g("sparse.build.s", 0.0),
            "arnoldi.block_extend.calls": g("arnoldi.block_extend.calls", 0),
            "arnoldi.block_extend.s": g("arnoldi.block_extend.s", 0.0),
            "arnoldi.extend.calls": g("arnoldi.extend.calls", 0),
            "arnoldi.extend.s": g("arnoldi.extend.s", 0.0),
            "arnoldi.self_s": arn_self,
            "arnoldi.orth_flops_computed": arn_flops,
            "arnoldi.gflops": arn_flops / arn_self / 1e9 if arn_self else 0.0,
            "arnoldi.replacements": arn_replaced,
            "arnoldi.replacement_frac": arn_replaced / arn_cols
            if arn_cols else 0.0,
            "dense.lstsq.calls": lstsq_calls,
            "dense.lstsq.s": g("dense.lstsq.s", 0.0),
            "dense.lstsq.cols": g("dense.lstsq.cols", 0),
            "dense.solve.calls": g("dense.solve.calls", 0),
            "dense.solve.s": g("dense.solve.s", 0.0),
            "dense.solve.singular": g("dense.solve.singular", 0),
            "dense.qr.calls": g("dense.qr.calls", 0),
            "dense.qr.s": g("dense.qr.s", 0.0),
            "dense.eig.calls": g("dense.eig.calls", 0),
            "dense.eig.s": g("dense.eig.s", 0.0),
            "dense.self_s": g("dense.self_s", 0.0),
            "recycling.project.calls": g("recycling.project.calls", 0),
            "recycling.project.s": g("recycling.project.s", 0.0),
            "recycling.project.singular": g("recycling.project.singular", 0),
            "recycling.augment.calls": g("recycling.augment.calls", 0),
            "recycling.augment.s": g("recycling.augment.s", 0.0),
            "recycling.augment.padded_frac":
                g("recycling.augment.padded", 0) / offered if offered else 0.0,
            "recycling.assemble.s": g("recycling.assemble.s", 0.0),
            "recycling.update.calls": g("recycling.update.calls", 0),
            "recycling.update.s": g("recycling.update.s", 0.0),
            "recycling.space_build.s": g("recycling.space_build.s", 0.0),
            "recycling.self_s": g("recycling.self_s", 0.0),
            "block_solvers.calls": total("block_solvers", solver_keys,
                                         "calls"),
            "block_solvers.s": g("block_solvers.s", 0.0),
            "block_solvers.self_s": g("block_solvers.self_s", 0.0),
            "block_solvers.cycles": total("block_solvers", solver_keys,
                                          "cycles"),
            "block_solvers.report_rows": total("block_solvers", solver_keys,
                                               "rows"),
            "block_solvers.extra_matvecs": total("block_solvers", solver_keys,
                                                 "extra_mv"),
            "baselines.calls": total("baselines", ("sgmres", "sfom"),
                                     "calls"),
            "baselines.s": g("baselines.s", 0.0),
            "baselines.self_s": g("baselines.self_s", 0.0),
            "baselines.cycles": total("baselines", ("sgmres", "sfom"),
                                      "cycles"),
            "harness.s": g("harness.s", 0.0),
            "harness.self_s": g("harness.self_s", 0.0),
            "harness.csv.s": g("harness.csv.s", 0.0),
            "harness.csv.bytes": g("harness.csv.bytes", 0),
            "harness.oracle.s": g("harness.oracle.s", 0.0),
        }
        return out
