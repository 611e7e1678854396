"""The benchmark's own test: counts on the default inputs and the tracer's wiring.

    python3 perfbench/selftest.py

On input 0 (the package's default configuration) it asserts, through the
tracer, the work counts the workloads are described by: run_pipeline makes
52 full forwards, 11 of them on the unmodified model; estimate_t makes 42
and estimate_p 8, with 33 bisection iterations; the adaptive+equal sweep on
the default 17-anchor grid calls quantize_model 185 times over 139 distinct
bit vectors, with 9/26/67/139 distinct prefixes at depths 1-4.  It also
checks that install() reaches every binding of a traced function and that
uninstall() restores them, and that traced outputs equal the reference.
Exits 1 on the first failed check.  Takes about 90 s.
"""

import bootstrap  # noqa: F401  (first: pins BLAS threads before numpy loads)

import sys

import qalloc
import workloads
from qalloc import harness, modelio, nn, probes, quantize
from tracer import ATTRS, NAME, Tracer

failures = []


def check(what: str, got, want):
    ok = got == want
    print(f"[{'PASS' if ok else 'FAIL'}] {what}: {got!r}" + ("" if ok else f" != {want!r}"))
    if not ok:
        failures.append(what)


def traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        result = fn()
    finally:
        tracer.uninstall()
    return tracer, result


def main() -> int:
    bindings = [(modelio, "forward_batch", nn.forward_batch),
                (probes, "quantize_model", quantize.quantize_model),
                (probes, "quantize_single_layer", quantize.quantize_single_layer),
                (qalloc, "run_pipeline", harness.run_pipeline)]
    tracer = Tracer()
    tracer.install()
    check("install wraps names imported elsewhere",
          [getattr(mod, name) is not fn for mod, name, fn in bindings], [True] * len(bindings))
    tracer.uninstall()
    check("uninstall restores them",
          [getattr(mod, name) is fn for mod, name, fn in bindings], [True] * len(bindings))

    reference = workloads.load_reference()["workloads"]
    cal = workloads.WORKLOADS["calibrate"]
    state = cal.setup(0, None)
    tracer, profiles = traced(lambda: cal.job(state, workloads.no_span))
    m = tracer.metrics(workloads.N_ROWS)
    check("run_pipeline full forwards", m["nn.fwd_equiv"], 52.0)
    check("... on the unmodified model", round(m["nn.baseline_fwd_share"] * m["nn.fwd_equiv"]), 11)
    check("estimate_t full forwards", m["probes.estimate_t.fwd_equiv"], 42.0)
    check("estimate_p full forwards", m["probes.estimate_p.fwd_equiv"], 8.0)
    check("bisection iterations", m["probes.bisect_iters"], 33)
    check("traced calibrate outputs equal the reference",
          cal.outputs(state, profiles), reference["calibrate"]["0"])

    stored, _ = modelio.load_profiles(workloads.PROFILES)
    check("stored profiles equal run_pipeline's on input 0", stored == profiles, True)
    tracer, _ = traced(lambda: harness.sweep(state.model, state.data, stored,
                                             methods=("adaptive", "equal")))
    vectors = [s[ATTRS]["b_int"] for s in tracer.spans if s[NAME] == "quantize.quantize_model"]
    check("adaptive+equal quantize_model calls", len(vectors), 185)
    check("distinct bit vectors", len(set(vectors)), 139)
    check("distinct prefixes at depths 1-4",
          [len({v[:d] for v in vectors}) for d in (1, 2, 3, 4)], [9, 26, 67, 139])

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
