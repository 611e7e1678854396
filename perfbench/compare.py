"""Compare two result sets (parent against change), or show one set's spread.

    python3 perfbench/compare.py PARENT.jsonl [CHANGE.jsonl]

Each file holds records that run.py appends to .perfbench_out/results.jsonl;
run the same workloads and seeds on both commits.  Every workload gets its
own block, one row per metric: median [first quartile, third quartile] on
each side, the change in median, the pairs the change won (the i-th run of a
workload on one side against the i-th on the other; ties count for neither),
and a verdict under the bound BENCHMARK.json fixes for the metric:

  gain          the change wins at least 9/10 of the pairs and the medians
                differ by more than the parent's interquartile range
  unresolved    the spread (interquartile range / median) of either side is
                wider than the bound, and not every change run beats every
                parent run
  regression    the change's median is worse by more than the bound
  within bound  otherwise

Per-layer metrics have no bound, so they get only `gain` or `-`.  With one
file, each metric's spread is printed and marked `!` above its bound and `~`
above a third of it.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(path) -> dict:
    """{workload: {metric: [values in run order]}}"""
    runs: dict = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        for name, metric in rec["metrics"].items():
            runs[rec["workload"]][name].append(metric["value"])
    return runs


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def fmt(values) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def verdict(parent, change, spec) -> tuple[str, int, int]:
    sign = -1 if spec["better"] == "higher" else 1  # sign * (change - parent) > 0 is worse
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    if sign * (cm - pm) < 0 and wins >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1:
        return "gain", wins, len(pairs)
    bound = spec.get("bound")
    if bound is None:
        return "-", wins, len(pairs)
    every_run_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not every_run_better:
        return "unresolved", wins, len(pairs)
    if pm and sign * (cm - pm) / abs(pm) > bound:
        return "regression", wins, len(pairs)
    return "within bound", wins, len(pairs)


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(p) for p in argv]
    for workload in sorted(sets[0]):
        print(f"== {workload}")
        for name, spec in METRICS.items():
            sides = [s[workload].get(name) for s in sets]
            if not all(sides):
                continue
            bound = spec.get("bound")
            if len(sets) == 1:
                sp = spread(sides[0])
                mark = "" if bound is None else "!" if sp > bound else "~" if sp > bound / 3 else ""
                print(f"  {name:<38} {fmt(sides[0]):<36} spread {sp:.4f}{mark} "
                      f"(n={len(sides[0])}{'' if bound is None else f', bound {bound}'})")
                continue
            parent, change = sides
            pm, cm = quartiles(parent)[1], quartiles(change)[1]
            delta = f"{100 * (cm - pm) / abs(pm):+.1f}%" if pm else "n/a"
            result, wins, pairs = verdict(parent, change, spec)
            print(f"  {name:<38} {fmt(parent):<34} -> {fmt(change):<34} {delta:>8} "
                  f"won {wins}/{pairs}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
