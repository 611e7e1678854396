"""Spans around qalloc's public functions, recorded from outside the package.

`Tracer.install()` replaces every binding of each function in `TRACED` in
the loaded qalloc modules.  A module that imported a function by name holds
its own reference (probes imports `quantize_model` and
`quantize_single_layer`, modelio imports `forward_batch`), so patching only
the defining module would miss those calls.  `uninstall()` restores every
binding.  Nothing under `src/` changes.

Each call becomes a span `[name, start, end, parent, job, attrs]` kept in
memory; `attrs` holds counters taken at the call boundary (rows forwarded,
bit vectors quantized, bisection iterations, bytes read or written).
`metrics()` turns the spans into the per-layer metrics; a span's self time
is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
import threading
import time
import weakref
from pathlib import Path

LOADS = ("load_model", "load_dataset", "load_profiles", "load_allocation", "load_curve")
SAVES = ("save_model", "save_dataset", "save_profiles", "save_profiles_csv", "save_allocation",
         "save_curve", "write_json")

# (module, function, span name)
TRACED = (
    [("nn", "forward_batch", "nn.forward_batch"),
     ("nn", "perturb_layer", "nn.perturb_layer"),
     ("quantize", "quantize_model", "quantize.quantize_model"),
     ("quantize", "quantize_single_layer", "quantize.quantize_single_layer"),
     ("probes", "margin_stats", "probes.margin_stats"),
     ("probes", "estimate_t", "probes.estimate_t"),
     ("probes", "estimate_p", "probes.estimate_p"),
     ("harness", "run_pipeline", "harness.run_pipeline"),
     ("harness", "sweep", "harness.sweep"),
     ("harness", "compare", "harness.compare")]
    + [("allocate", f, "allocate") for f in
       ("allocate_adaptive", "allocate_sqnr", "allocate_equal", "round_allocation")]
    + [("modelio", f, "modelio.load") for f in LOADS]
    + [("modelio", f, "modelio.save") for f in SAVES]
)

NAME, START, END, PARENT, JOB, ATTRS = range(6)


def macs_per_row(model) -> int:
    """Multiply-adds one input costs in the engine, computed from layer shapes."""
    total = 0
    for layer, out in zip(model.layers, model.shapes[1:]):
        if layer.kind == "conv2d":
            kh, kw, cin, cout = layer.weights.shape
            total += out[0] * out[1] * kh * kw * cin * cout
        elif layer.kind == "dense":
            total += layer.weights.size
    return total


def _model_files(prefix, suffix: str) -> list[Path]:
    """Manifest and sidecar read by modelio.load_model / load_dataset for `prefix`."""
    path = Path(prefix)
    if path.name.endswith(suffix + ".json"):
        path = path.with_name(path.name[:-len(".json")])
    elif not path.name.endswith(suffix):
        path = path.with_name(path.name + suffix)
    return [path.with_name(path.name + ".json"), path.with_name(path.name + ".bin")]


def _size(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths if Path(p).is_file())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = 0
        self._local = threading.local()
        self._derived: dict[int, tuple] = {}  # models made inside a job (not the inputs)
        self._quantized_at: dict[int, tuple] = {}  # quantize_model result -> call start
        self._patched: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, {}]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list):
        rec[END] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn, hook):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                hook(self, rec, sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qalloc" or n.startswith("qalloc."))]
        for module, fname, span_name in TRACED:
            original = getattr(sys.modules[f"qalloc.{module}"], fname)
            wrapper = self._wrap(span_name, original, _HOOKS.get(fname))
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- model identity (by object, so a freed id is never confused) ---------

    @staticmethod
    def _remember(table: dict, obj, value):
        key = id(obj)
        table[key] = (weakref.ref(obj, lambda _r, k=key: table.pop(k, None)), value)

    @staticmethod
    def _lookup(table: dict, obj, pop: bool = False):
        entry = table.get(id(obj))
        if entry is None or entry[0]() is not obj:
            return None
        if pop:
            del table[id(obj)]
        return entry[1]

    def dump(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            [{"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
              "job": s[JOB], **s[ATTRS]} for s in self.spans]) + "\n")

    # -- per-layer metrics ---------------------------------------------------

    def metrics(self, n_rows: int, cli_commands=()) -> dict[str, float]:
        """Per-layer metrics over all recorded spans; a layer that did no work reads 0.

        `n_rows` is the dataset size, so rows / n_rows counts full forwards.
        CLI commands are spans the caller opened as `cli.<command>`.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]

        def ancestors(i):
            p = spans[i][PARENT]
            while p >= 0:
                yield spans[p][NAME]
                p = spans[p][PARENT]

        def named(name):
            return [i for i, s in enumerate(spans) if s[NAME] == name]

        def busy(name):  # outermost spans only, so nested calls are not counted twice
            return sum(spans[i][END] - spans[i][START] for i in named(name)
                       if name not in ancestors(i))

        def attr_sum(name, key, under=None):
            return sum(spans[i][ATTRS].get(key, 0) for i in named(name)
                       if under is None or under in ancestors(i))

        m: dict[str, float] = {}
        fwd = named("nn.forward_batch")
        rows = attr_sum("nn.forward_batch", "rows")
        nn_busy = busy("nn.forward_batch")
        m["nn.forward_batch.calls"] = len(fwd)
        m["nn.rows"] = rows
        m["nn.fwd_equiv"] = rows / n_rows
        m["nn.baseline_fwd_share"] = (attr_sum("nn.forward_batch", "baseline_rows") / rows
                                      if rows else 0.0)
        m["nn.busy_s"] = nn_busy
        m["nn.ms_per_fwd_equiv"] = 1e3 * nn_busy * n_rows / rows if rows else 0.0
        m["nn.gflop_per_s"] = (2 * attr_sum("nn.forward_batch", "macs") / nn_busy / 1e9
                               if nn_busy else 0.0)
        m["nn.perturb_layer.calls"] = len(named("nn.perturb_layer"))
        m["nn.perturb_layer.busy_s"] = busy("nn.perturb_layer")

        vectors = [spans[i][ATTRS]["b_int"] for i in named("quantize.quantize_model")]
        for f in ("quantize_model", "quantize_single_layer"):
            m[f"quantize.{f}.calls"] = len(named(f"quantize.{f}"))
            m[f"quantize.{f}.busy_s"] = busy(f"quantize.{f}")
        m["quantize.distinct_ratio"] = len(set(vectors)) / len(vectors) if vectors else 0.0

        for f in ("margin_stats", "estimate_t", "estimate_p"):
            m[f"probes.{f}.busy_s"] = busy(f"probes.{f}")
        for f in ("estimate_t", "estimate_p"):
            m[f"probes.{f}.fwd_equiv"] = attr_sum("nn.forward_batch", "rows",
                                                  under=f"probes.{f}") / n_rows
        probed = attr_sum("probes.estimate_t", "probed")
        m["probes.bisect_iters"] = attr_sum("probes.estimate_t", "iterations")
        m["probes.converged_ratio"] = (attr_sum("probes.estimate_t", "converged") / probed
                                       if probed else 0.0)
        m["probes.degenerate_layers"] = attr_sum("probes.estimate_p", "degenerate")

        m["allocate.calls"] = len(named("allocate"))
        m["allocate.busy_s"] = busy("allocate")
        m["allocate.variants"] = attr_sum("allocate", "variants")

        for f in ("run_pipeline", "sweep", "compare"):
            m[f"harness.{f}.busy_s"] = busy(f"harness.{f}")
        m["harness.sweep.points"] = attr_sum("harness.sweep", "points")
        m["harness.sweep.self_s"] = sum(spans[i][END] - spans[i][START] - child_time[i]
                                        for i in named("harness.sweep"))
        point_ms = [spans[i][ATTRS]["point_ms"] for i in fwd if "point_ms" in spans[i][ATTRS]]
        if len(point_ms) >= 2:
            deciles = statistics.quantiles(point_ms, n=10)
            m["harness.point_ms.p50"], m["harness.point_ms.p90"] = deciles[4], deciles[8]
        else:
            m["harness.point_ms.p50"] = m["harness.point_ms.p90"] = sum(point_ms)
        compares = [spans[i][ATTRS] for i in named("harness.compare")]
        m["dominance_frac"] = compares[-1].get("dominance_frac", 0.0) if compares else 0.0
        m["size_ratio_vs_equal"] = compares[-1].get("size_ratio_vs_equal", 0.0) if compares else 0.0

        for kind in ("load", "save"):
            m[f"modelio.{kind}.calls"] = len(named(f"modelio.{kind}"))
            m[f"modelio.{kind}.busy_s"] = busy(f"modelio.{kind}")
        m["modelio.bytes_read"] = attr_sum("modelio.load", "bytes")
        m["modelio.bytes_written"] = attr_sum("modelio.save", "bytes")
        for command in cli_commands:
            m[f"cli.{command}.s"] = busy(f"cli.{command}")
        m["trace.spans"] = len(spans)
        return m


# -- hooks: counters recorded when a traced call returns ------------------------


def _forward(tr: Tracer, rec, a, result):
    rows = len(a["inputs"])
    model = a["model"]
    rec[ATTRS]["rows"] = rows
    rec[ATTRS]["macs"] = rows * macs_per_row(model)
    if tr._lookup(tr._derived, model) is None:
        rec[ATTRS]["baseline_rows"] = rows
    start = tr._lookup(tr._quantized_at, model, pop=True)
    if start is not None:  # one sweep point: quantize_model start -> its evaluation's end
        rec[ATTRS]["point_ms"] = 1e3 * (rec[END] - start)


def _derived(tr: Tracer, rec, a, result):
    tr._remember(tr._derived, result, True)


def _quantize_model(tr: Tracer, rec, a, result):
    tr._remember(tr._derived, result, True)
    tr._remember(tr._quantized_at, result, rec[START])
    alloc = a["allocation"]
    rec[ATTRS]["b_int"] = tuple(int(b) for b in getattr(alloc, "b_int", alloc))


def _estimate_t(tr: Tracer, rec, a, result):
    probed = [r for r in result if not r.copied]
    rec[ATTRS].update(probed=len(probed), iterations=sum(r.iterations for r in probed),
                      converged=sum(1 for r in probed if r.converged))


def _estimate_p(tr: Tracer, rec, a, result):
    rec[ATTRS]["degenerate"] = sum(1 for r in result if r.degenerate)


def _round_allocation(tr: Tracer, rec, a, result):
    rec[ATTRS]["variants"] = len(result)


def _sweep(tr: Tracer, rec, a, result):
    rec[ATTRS]["points"] = sum(len(points) for points in result.values())


def _compare(tr: Tracer, rec, a, result):
    from qalloc import harness

    rec[ATTRS].update(comparison_quality(harness.comparison_payload(result)))


def _load(tr: Tracer, rec, a, result):
    if "prefix" in a:  # load_model / load_dataset read a manifest plus a sidecar
        suffix = ".model" if hasattr(result, "layers") else ".dataset"
        rec[ATTRS]["bytes"] = _size(_model_files(a["prefix"], suffix))
    else:
        rec[ATTRS]["bytes"] = _size([a["path"]])


def _save(tr: Tracer, rec, a, result):
    rec[ATTRS]["bytes"] = _size(result if isinstance(result, tuple) else [result])


def comparison_quality(payload: dict) -> dict[str, float]:
    """Adaptive against equal at matched accuracy, from a comparison payload.

    Returns the dominance fraction and the median size ratio, taken the way
    the CLI's `compare` prints it (upper median); empty when the curves have
    no matched accuracy level.
    """
    for e in payload["entries"]:
        ratios = sorted(level["ratio"] for level in e["levels"])
        if e["baseline"] == "equal" and ratios:
            return {"dominance_frac": e["dominance_fraction"],
                    "size_ratio_vs_equal": ratios[len(ratios) // 2]}
    return {}


_HOOKS = {
    "forward_batch": _forward,
    "perturb_layer": _derived,
    "quantize_single_layer": _derived,
    "quantize_model": _quantize_model,
    "estimate_t": _estimate_t,
    "estimate_p": _estimate_p,
    "round_allocation": _round_allocation,
    "sweep": _sweep,
    "compare": _compare,
    **{f: _load for f in LOADS},
    **{f: _save for f in SAVES},
}
