"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload calibrate|sweep|cli --seed N --seconds S --trace 0|1

Closed loop, one job at a time: after set-up (done SETUP_REPEATS times; the
median is `setup_s`), jobs run back to back until `--seconds` have passed,
and at least one runs.  Every job's outputs are checked against the
reference digests; a job that raises or whose outputs differ counts as
failed.

--trace 0 then runs one more job under tracemalloc for `peak_mem_mb` and
reports the end-to-end metrics of BENCHMARK.json.  --trace 1 instead runs one
more job with the span tracer installed, times the engine layer by layer,
and reports the per-layer metrics; `trace.overhead_s` is that job's wall time
minus the untraced median.

The last line of stdout is the JSON result.  Each run also appends a full
record (with the environment) to .perfbench_out/results.jsonl, which
compare.py reads, and --trace 1 writes its spans to .perfbench_out/.
"""

import bootstrap  # noqa: F401  (first: pins BLAS threads before numpy loads)

import argparse
import json
import math
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc

import workloads
from bootstrap import ROOT, environment
from tracer import Tracer

SETUP_REPEATS = 5
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"


def run_job(wl, state, expected: dict, tracer: Tracer | None = None):
    """One job: (wall_s, cpu_s, result), result None when it failed."""
    span = tracer.span if tracer else workloads.no_span
    if tracer:
        tracer.install()
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        with span("job"):
            result = wl.job(state, span)
    except Exception:  # a failed job is counted, and the loop goes on
        traceback.print_exc()
        result = None
    finally:
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if tracer:
            tracer.uninstall()
    if result is not None:
        try:
            outputs = wl.outputs(state, result)
        except Exception:
            traceback.print_exc()
            outputs = None
        if outputs != expected:
            diff = sorted(k for k in set(expected) | set(outputs or {})
                          if (outputs or {}).get(k) != expected.get(k))
            print(f"perfbench: outputs differ from the reference: {diff}", file=sys.stderr)
            result = None
    return wall, cpu, result


def tail(values):
    """Highest whole percentile with at least ten samples above it, or None."""
    if len(values) < 20:
        return None
    q = math.floor(100 * (1 - 10 / len(values)))
    return q, statistics.quantiles(values, n=100)[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl = workloads.WORKLOADS[args.workload]
    k = args.seed % workloads.N_INPUTS
    expected = workloads.load_reference()["workloads"][args.workload][str(k)]
    work = WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    jobs = []
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = wl.setup(k, work)
            setups.append(time.perf_counter() - t0)
        quality = {}
        start = time.perf_counter()
        while not jobs or time.perf_counter() - start < args.seconds:
            jobs.append(run_job(wl, state, expected))
            if jobs[-1][2] is not None:
                quality = wl.quality(state, jobs[-1][2])
        walls, cpus = [j[0] for j in jobs], [j[1] for j in jobs]
        if args.trace:
            tracer = Tracer()
            tracer.job = len(jobs)
            traced = run_job(wl, state, expected, tracer)
            jobs.append(traced)
            metrics = tracer.metrics(workloads.N_ROWS, workloads.CLI_COMMANDS)
            metrics.update(workloads.engine_table(state.model, state.data.inputs))
            metrics["trace.wall_s"] = traced[0]
            metrics["trace.overhead_s"] = traced[0] - statistics.median(walls)
            tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            tracemalloc.start()
            try:
                jobs.append(run_job(wl, state, expected))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            metrics = {"wall_s": statistics.median(walls),
                       "cpu_s": statistics.median(cpus),
                       "setup_s": statistics.median(setups),
                       "peak_mem_mb": peak / 1e6}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [m["name"] for m in wanted]
    if set(metrics) != set(names):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(names))}")
    failed = sum(1 for j in jobs if j[2] is None)
    result = {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    env = environment(wl.threads)

    print(f"perfbench {args.workload}: seed {args.seed} -> input {k}, trace {args.trace}, "
          f"{len(walls)} timed job(s), {len(setups)} set-ups")
    for m in wanted:
        print(f"  {m['name']:<34} {metrics[m['name']]:>14.6g} {m['unit']}")
    t = tail(walls)
    print(f"  wall_s samples {len(walls)}; tail: "
          + (f"p{t[0]} = {t[1]:.6g} s" if t else "none (needs >= 20 jobs)"))
    print(f"  failed_ratio {failed}/{len(jobs)} jobs")
    for name, value in quality.items():
        print(f"  {name} {value:.6g}")
    print(f"  env {json.dumps(env)}")
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed, "input": k,
                            "trace": args.trace, "seconds": args.seconds, "env": env,
                            "walls": walls, "quality": quality, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
