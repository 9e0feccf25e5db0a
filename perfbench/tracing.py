"""Per-layer spans and counters, recorded from outside the package.

`Tracer.install()` replaces every public function of each layer module with a
wrapper, in every `fdhom.*` namespace that holds it (many are imported by
name, e.g. `solve` into modules, homology, endalg and auslander), and wraps
`Matrix.__matmul__` and `Module.__init__` on their classes. Each wrapped call
records a span (function, start, end, parent span, job) in memory.

A span's self time is its duration minus the full cost of its child calls,
their instrumentation included, and minus its own counting work, so the self
times of a pass sum to at most the pass's wall time.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import statistics
import sys
from array import array
from operator import mul
from time import perf_counter

LAYERS = ("linalg", "algebra", "modules", "homology", "endalg", "subcats",
          "auslander", "cli")

# functions with metrics of their own; every other public function of a layer
# is still wrapped, so that its time counts towards its own layer
REPORTED = {
    "linalg": ("matmul", "rref", "kernel_basis", "solve"),
    "algebra": ("build_path_algebra", "opposite", "primitive_idempotents"),
    "modules": ("hom_basis", "projective_cover", "injective_envelope",
                "radical_of_module", "submodule", "quotient_module", "iso",
                "decompose", "min_proj_resolution", "direct_sum"),
    "homology": ("ext_dim", "pd", "gldim", "injective_coresolution_terms",
                 "domdim_report", "mn_condition"),
    "endalg": ("end_algebra",),
    "subcats": ("knit_indecomposables", "maximal_ortho_enumerative",
                "maximal_ortho_homological"),
    "auslander": ("verify_triple", "alpha", "alpha_inv",
                  "check_extension_pair", "check_superprojective"),
    "cli": ("main", "load_algebra", "emit_report"),
}

# calls whose module argument may equal one already seen in the same job
# (other arguments, such as a resolution's length, are ignored)
REPEAT_TRACKED = ("projective_cover", "injective_envelope",
                  "min_proj_resolution")

COUNTERS = ("linalg.matmul.mults_dense", "linalg.matmul.mults_nonzero",
            "linalg.rref.cells", "modules.Module.built",
            "modules.Module.action_entries")


def metric_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
        for fn in REPORTED[layer]:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.self_s"]
    names += list(COUNTERS)
    names.append("linalg.matmul.nonzero_frac")
    names += [f"modules.{fn}.repeat_frac" for fn in REPEAT_TRACKED]
    names.append("trace.overhead_s")
    return names


def _module_key(m) -> int:
    rows = tuple(tuple(r) for mat in m.action for r in mat.data)
    return hash((id(m.algebra), m.dim, rows))


def _nonzero_count(vec) -> int:
    return sum(1 for x in vec if x)


class Tracer:
    def __init__(self):
        self.fn_names: list[str] = []   # "layer.fn", indexed by function id
        self.fn_layer: list[str] = []
        # spans, one entry per call, indexed by span id
        self.span_fn = array("i")
        self.span_parent = array("q")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.jobs: list[str] = []
        self._job = -1
        self._seen: dict[str, set] = {}
        self._stack = [[-1, 0.0]]  # [span id, cost of children] per open span
        self.new_pass()

    # -- per pass and per job state ------------------------------------------

    def new_pass(self) -> None:
        n = len(self.fn_names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.counts = {k: 0 for k in COUNTERS}
        self.repeats = {fn: 0 for fn in REPEAT_TRACKED}

    def begin_job(self, name: str) -> None:
        self.jobs.append(name)
        self._job = len(self.jobs) - 1
        self._seen = {}

    def pass_stats(self) -> dict:
        return {"calls": list(self.calls), "self_s": list(self.self_s),
                "counts": dict(self.counts), "repeats": dict(self.repeats)}

    # -- installation ----------------------------------------------------------

    def install(self, extra_namespaces=()) -> None:
        """Wrap every layer; `extra_namespaces` are modules outside the
        package that imported layer functions by name."""
        for layer in LAYERS:
            importlib.import_module(f"fdhom.{layer}")
        namespaces = [m for name, m in sys.modules.items()
                      if name == "fdhom" or name.startswith("fdhom.")]
        namespaces += list(extra_namespaces)
        for layer in LAYERS:
            mod = sys.modules[f"fdhom.{layer}"]
            for name, fn in vars(mod).copy().items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(layer, name, fn)
                for ns in namespaces:
                    for attr, val in vars(ns).copy().items():
                        if val is fn:
                            setattr(ns, attr, wrapped)
        from fdhom.linalg import Matrix
        from fdhom.modules import Module
        Matrix.__matmul__ = self._wrap("linalg", "matmul", Matrix.__matmul__)
        orig_init = Module.__init__
        tracer, stack = self, self._stack

        def init(mod, algebra, dim, *args, **kwargs):
            t0 = perf_counter()
            c = tracer.counts
            c["modules.Module.built"] += 1
            c["modules.Module.action_entries"] += algebra.dim * dim * dim
            stack[-1][1] += perf_counter() - t0
            orig_init(mod, algebra, dim, *args, **kwargs)
        Module.__init__ = init

    def _counter(self, name: str):
        if name == "matmul":
            def count(args, kwargs):
                a, b = args
                c = self.counts
                c["linalg.matmul.mults_dense"] += a.rows * a.cols * b.cols
                c["linalg.matmul.mults_nonzero"] += sum(map(
                    mul, map(_nonzero_count, zip(*a.data)),
                    map(_nonzero_count, b.data)))
            return count
        if name == "rref":
            def count(args, kwargs):
                self.counts["linalg.rref.cells"] += args[0].rows * args[0].cols
            return count
        if name in REPEAT_TRACKED:
            def count(args, kwargs):
                key = _module_key(args[0])
                seen = self._seen.setdefault(name, set())
                if key in seen:
                    self.repeats[name] += 1
                seen.add(key)
            return count
        return None

    def _wrap(self, layer: str, name: str, fn):
        fid = len(self.fn_names)
        self.fn_names.append(f"{layer}.{name}")
        self.fn_layer.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        counter = self._counter(name)
        stack = self._stack
        span_fn, span_parent, span_job = self.span_fn, self.span_parent, self.span_job
        span_start, span_end = self.span_start, self.span_end
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            if counter is not None:
                counter(args, kwargs)
            sid = len(span_fn)
            span_fn.append(fid)
            span_parent.append(stack[-1][0])
            span_job.append(tracer._job)
            span_start.append(0.0)
            span_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t1 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t2 = perf_counter()
                stack.pop()
                span_start[sid] = t1
                span_end[sid] = t2
                tracer.calls[fid] += 1
                tracer.self_s[fid] += (t2 - t1) - frame[1]
                stack[-1][1] += perf_counter() - t0
        wrapper.__wrapped__ = fn
        return wrapper

    # -- checks and output ----------------------------------------------------

    def spans_nest(self) -> bool:
        """Every span lies inside its parent's interval."""
        start, end, parent = self.span_start, self.span_end, self.span_parent
        return all(p < 0 or (start[p] <= start[i] and end[i] <= end[p])
                   for i, p in enumerate(parent))

    def write(self, path) -> None:
        """Write all spans as gzipped JSON lines: a header, then one
        [function, start, end, parent, job] row per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"functions": self.fn_names,
                                 "jobs": self.jobs}) + "\n")
            for row in zip(self.span_fn, self.span_start, self.span_end,
                           self.span_parent, self.span_job):
                fh.write(json.dumps(row) + "\n")


def layer_metrics(tracer: Tracer, passes: list[dict], overhead_s: float) -> dict:
    """Per-layer metrics of a traced run: call counts and counters of the
    first traced pass (every pass repeats them exactly), self times as the
    median over the traced passes."""
    first = passes[0]
    index = {name: i for i, name in enumerate(tracer.fn_names)}
    self_med = [statistics.median(p["self_s"][i] for p in passes)
                for i in range(len(tracer.fn_names))]
    out = {}
    for layer in LAYERS:
        ids = [i for i, lay in enumerate(tracer.fn_layer) if lay == layer]
        out[f"{layer}.calls"] = sum(first["calls"][i] for i in ids)
        out[f"{layer}.self_s"] = sum(self_med[i] for i in ids)
        for fn in REPORTED[layer]:
            i = index[f"{layer}.{fn}"]
            out[f"{layer}.{fn}.calls"] = first["calls"][i]
            out[f"{layer}.{fn}.self_s"] = self_med[i]
    counts = first["counts"]
    for k in COUNTERS:
        out[k] = counts[k]
    dense = counts["linalg.matmul.mults_dense"]
    out["linalg.matmul.nonzero_frac"] = (
        counts["linalg.matmul.mults_nonzero"] / dense if dense else 0.0)
    for fn in REPEAT_TRACKED:
        calls = first["calls"][index[f"modules.{fn}"]]
        out[f"modules.{fn}.repeat_frac"] = (
            first["repeats"][fn] / calls if calls else 0.0)
    out["trace.overhead_s"] = overhead_s
    return out
