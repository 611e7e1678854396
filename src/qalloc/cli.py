"""Command-line interface.

Each subcommand returns its exit code and the files it wrote.  `main` writes
one manifest of the resolved flags and those files' hashes next to them, so a
run can be reproduced exactly, and prints every error line.  A command that
fails before it writes leaves nothing behind, not even its `--out` directory.
Data goes to files and stdout; progress goes to stderr.  Exit codes: 0
success, 1 precondition or input error, a malformed command line included
(one line on stderr), 2 verification failures.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__, allocate, harness, modelio, nn, probes, quantize

# the commands that write files only when --out is given
OUT_ONLY = ("margins", "evaluate", "lemma-check", "verify")

# --threads help on the commands that run no threaded forward
NO_THREADS = ("no effect: this command runs no threaded forward, so its output is the same "
              "at every --threads")


def _err(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _progress(msg: str):
    print(msg, file=sys.stderr)


def _out_dir(args) -> Path:
    """The output directory; the writer of the first file creates it."""
    return Path(args.out if args.out else os.environ.get("QALLOC_OUTDIR", "."))


def _write_manifest(args, outputs: list[Path]):
    modelio.write_json(_out_dir(args) / "manifest.json", {
        "tool": f"qalloc {__version__}",
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k not in ("func", "command")},
        "outputs": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(outputs, key=lambda p: p.name)},
    })


def _write_report(args, name: str, payload: dict) -> list[Path]:
    """With --out, write `name` (format_version, then payload) there; the files written."""
    return [modelio.write_json(_out_dir(args) / name, payload)] if args.out else []


def _load_merged_profiles(paths):
    """Load one or more partial profile files (t-only and p-only runs) and merge them."""
    return probes.merge_profiles([modelio.load_profiles(path)[0] for path in paths])


def _check_fc_bits(args):
    """Reject an out-of-range --fc-bits before anything is loaded or run."""
    if args.fc_bits is not None:
        quantize.check_bits(args.fc_bits, "--fc-bits")


def cmd_gen_model(args) -> tuple[int, list[Path]]:
    spec = modelio.default_fixture(seed=args.seed)
    model = modelio.gen_model(spec)
    paths = modelio.save_model(model, _out_dir(args) / args.name)
    sizes = model.layer_sizes()
    print(f"model: {len(model.layers)} layers, d={model.d}, "
          f"weighted layer sizes {list(sizes)}, total params {sum(sizes)}")
    return 0, list(paths)


def cmd_gen_data(args) -> tuple[int, list[Path]]:
    model = modelio.load_model(args.model)
    dataset = modelio.gen_dataset(model, args.n, seed=args.seed)
    paths = modelio.save_dataset(dataset, _out_dir(args) / args.name)
    # the labels are the argmax of the labelling forward, so the model scores 1 on them
    print(f"dataset: {len(dataset)} teacher-labelled samples, baseline accuracy 1.0")
    return 0, list(paths)


def cmd_margins(args) -> tuple[int, list[Path]]:
    model = modelio.load_model(args.model)
    dataset = modelio.load_dataset(args.data)
    stats = probes.margin_stats(nn.forward_batch(model, dataset.inputs, threads=args.threads))
    print(f"mean margin power (z1-z2)^2/2: {stats.mean_r_star!r} over {stats.n} samples")
    return 0, _write_report(args, "margins.json", {
        "mean_r_star": stats.mean_r_star, "n": stats.n, "counts": list(stats.counts),
        "bin_edges": list(stats.bin_edges)})


def cmd_estimate_t(args) -> tuple[int, list[Path]]:
    model = modelio.load_model(args.model)
    dataset = modelio.load_dataset(args.data)
    config = probes.ProbeConfig(delta_acc=args.delta_acc, seed=args.seed,
                                acc_tolerance=args.acc_tolerance, max_iters=args.max_iters,
                                last_n=args.last_n)
    t_probes, _, meta = probes.calibrate(model, dataset, config, threads=args.threads)
    _progress(f"baseline accuracy {meta['baseline_accuracy']}, "
              f"mean margin {meta['mean_r_star']:.6g}")
    iterations = sum(r.iterations for r in t_probes)
    share = sum(r.rows for r in t_probes) / max(iterations * len(dataset), 1)
    _progress(f"t search: {iterations} iterations, {sum(r.early for r in t_probes)} decided "
              f"early, {share:.1%} of full-forward rows")
    profiles = probes.build_profiles(model, t_probes, None, meta["delta_acc"])
    path = modelio.save_profiles(profiles, _out_dir(args) / "profiles_t.json",
                                 meta={**meta, "seed": config.seed})
    csv_path = modelio.save_profiles_csv(profiles, path.with_suffix(".csv"))
    for r in t_probes:
        print(f"layer {r.index}: t={r.t!r} (k={r.noise_scale!r}, drop={r.accuracy_drop}, "
              f"iters={r.iterations}{', copied' if r.copied else ''})")
    return 0, [path, csv_path]


def cmd_estimate_p(args) -> tuple[int, list[Path]]:
    quantize.check_bits(args.b_probe, "b_probe")  # a bad --b-probe fails before any forward
    model = modelio.load_model(args.model)
    dataset = modelio.load_dataset(args.data)
    _, p_probes, _ = probes.calibrate(model, dataset, b_probe=args.b_probe, threads=args.threads)
    profiles = probes.build_profiles(model, None, p_probes, math.nan)
    path = modelio.save_profiles(profiles, _out_dir(args) / "profiles_p.json",
                                 meta={"b_probe": args.b_probe})
    csv_path = modelio.save_profiles_csv(profiles, path.with_suffix(".csv"))
    for r in p_probes:
        flag = " (degenerate)" if r.degenerate else ""
        print(f"layer {r.index}: p={r.p!r} at b={r.b_probe}{flag}")
    return 0, [path, csv_path]


def cmd_allocate(args) -> tuple[int, list[Path]]:
    _check_fc_bits(args)
    profiles = _load_merged_profiles(args.profiles)
    allocation = allocate.by_method(args.method, profiles, args.b1, args.fc_bits)
    path = modelio.save_allocation(allocation, _out_dir(args) / "allocation.json")
    b_real = ", ".join(f"{b:g}" for b in allocation.b_real)
    print(f"method={allocation.method} b=({b_real}) b_int={list(allocation.b_int)} "
          f"size_bits={allocation.size_bits}")
    return 0, [path]


def cmd_quantize(args) -> tuple[int, list[Path]]:
    model = modelio.load_model(args.model)
    allocation = modelio.load_allocation(args.allocation)
    q = quantize.quantize_model(model, allocation)
    paths = modelio.save_model(q, _out_dir(args) / args.name)
    print(f"quantized model written with b={list(allocation.b_int)}, "
          f"size_bits={allocation.size_bits}")
    return 0, list(paths)


def cmd_evaluate(args) -> tuple[int, list[Path]]:
    model = modelio.load_model(args.model)
    dataset = modelio.load_dataset(args.data)
    acc = nn.evaluate_accuracy(model, dataset, threads=args.threads)
    print(f"top1 {acc!r} on {len(dataset)} samples")
    return 0, _write_report(args, "evaluation.json", {"top1": acc, "n": len(dataset)})


def cmd_sweep(args) -> tuple[int, list[Path]]:
    _check_fc_bits(args)
    model = modelio.load_model(args.model)
    dataset = modelio.load_dataset(args.data)
    profiles = _load_merged_profiles(args.profiles)
    anchors = _parse_grid(args.b1_grid)
    methods = tuple(args.methods.split(","))
    curves = harness.sweep(model, dataset, profiles, b1_values=anchors, methods=methods,
                           max_variants=args.max_variants, fc_bits=args.fc_bits,
                           threads=args.threads)
    points = harness.sorted_points(curves)
    vectors = [p.allocation.b_int for p in points]
    segments = "/".join(map(str, harness.prefix_counts(vectors))) or "none"
    _progress(f"{len(points)} points, {len(set(vectors))} distinct vectors, "
              f"segments {segments}")
    path = modelio.save_curve(points, _out_dir(args) / "curve.csv")
    print(f"{len(points)} curve points -> {path}")
    return 0, [path]


def cmd_compare(args) -> tuple[int, list[Path]]:
    curves: dict[str, list[harness.CurvePoint]] = {}
    for path in args.curves:
        for row in modelio.load_curve(path):
            pt = harness.CurvePoint(**row)
            curves.setdefault(pt.method, []).append(pt)
    report = harness.compare(curves, candidate=args.candidate)
    path = modelio.write_json(_out_dir(args) / "comparison.json",
                              harness.comparison_payload(report))
    for e in report.entries:
        if e.disjoint:
            print(f"{report.candidate} vs {e.baseline}: no overlapping accuracy range")
        else:
            print(f"{report.candidate} vs {e.baseline}: dominance {e.dominance_fraction:.2%} "
                  f"over {len(e.accuracies)} matched levels, "
                  f"median size ratio {sorted(e.ratios)[len(e.ratios) // 2]:.3f}")
    return 0, [path]


def cmd_lemma_check(args) -> tuple[int, list[Path]]:
    report = probes.lemma_check(args.d, args.delta, args.trials, seed=args.seed)
    status = "ok" if report.passed else "VIOLATED"
    print(f"d={report.d} delta={report.delta}: flip rate {report.flip_rate} "
          f"<= bound {report.bound}: {status}")
    outputs = _write_report(args, "lemma.json", {**asdict(report), "passed": report.passed})
    return (0 if report.passed else 2), outputs


def cmd_verify(args) -> tuple[int, list[Path]]:
    anchors = None if args.b1_grid is None else tuple(_parse_grid(args.b1_grid))
    if args.model:
        model = modelio.load_model(args.model)
    else:
        _progress("no model given; generating the default fixture")
        model = modelio.gen_model(modelio.default_fixture(seed=args.fixture_seed))
    dataset = (modelio.load_dataset(args.data) if args.data
               else modelio.gen_dataset(model, args.n, seed=args.fixture_seed + 1))
    nn.check_inputs(model, dataset.inputs)  # a dataset the model cannot run is a one-line
    nn.check_labels(dataset.labels, model.d)  # error, not a battery of failed checks
    results = harness.verify(model, dataset, seed=args.seed, quick=args.quick, anchors=anchors,
                             threads=args.threads)
    failures = 0
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
        failures += 0 if r.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    outputs = _write_report(args, "verify.json", {"results": [asdict(r) for r in results]})
    return (0 if failures == 0 else 2), outputs


def _parse_grid(text: str | None):
    """Anchor grid: 'lo:hi:step' or a comma-separated list; None is the default grid."""
    if text is None:
        return harness.default_anchor_grid()
    if ":" in text:
        try:
            lo, hi, step = (float(v) for v in text.split(":"))
        except ValueError:
            raise ValueError(f"--b1-grid {text!r}: expected lo:hi:step") from None
        span = (hi - lo) / step if math.isfinite(step) and step > 0 else math.nan
        if not (math.isfinite(span) and span >= 0):
            raise ValueError(f"--b1-grid {text!r}: need finite lo <= hi and a finite step > 0")
        n = math.floor(span + 1e-9)  # the last anchor never passes hi
        return [lo + i * step for i in range(n + 1)]
    try:
        anchors = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"--b1-grid {text!r}: expected lo:hi:step or a comma list") from None
    if not all(map(math.isfinite, anchors)):
        raise ValueError(f"--b1-grid {text!r}: every anchor must be finite")
    return anchors


class _Parser(argparse.ArgumentParser):
    """A usage error is a ValueError, so `main` prints it as one line and exits 1."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qalloc",
        description="Adaptive per-layer bit-width allocation for network quantization.")
    parser.add_argument("--version", action="version", version=f"qalloc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, threads_help="worker thread cap"):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn, command=name)
        p.add_argument("--out", help="output directory (default: $QALLOC_OUTDIR or .)")
        p.add_argument("--threads", type=int, default=1, help=threads_help)
        return p

    p = add("gen-model", cmd_gen_model, "generate the deterministic fixture model", NO_THREADS)
    p.add_argument("--seed", type=int, default=modelio.DEFAULT_SEED)
    p.add_argument("--name", default="fixture", help="output file prefix")

    p = add("gen-data", cmd_gen_data, "generate a teacher-labelled dataset for a model",
            threads_help=NO_THREADS)
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--seed", type=int, default=modelio.DEFAULT_SEED + 1)
    p.add_argument("--name", default="data", help="output file prefix")

    p = add("margins", cmd_margins, "decision-margin statistics on the last feature map")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)

    p = add("estimate-t", cmd_estimate_t, "per-layer robustness t via noise binary search")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--delta-acc", type=float, default=None,
                   help="target accuracy drop (default: half of baseline)")
    p.add_argument("--acc-tolerance", type=float, default=0.005)
    p.add_argument("--max-iters", type=int, default=40)
    p.add_argument("--last-n", type=int, default=None,
                   help="probe only the last N weighted layers, copy t backward")
    p.add_argument("--seed", type=int, default=0)

    p = add("estimate-p", cmd_estimate_p, "per-layer noise coefficient p at a probe bit-width")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--b-probe", type=int, default=probes.B_PROBE)

    p = add("allocate", cmd_allocate, "closed-form bit-width allocation from profiles", NO_THREADS)
    p.add_argument("--profiles", action="append", required=True,
                   help="profiles JSON (repeat to merge t-only and p-only files)")
    p.add_argument("--method", choices=allocate.METHODS, default="adaptive")
    p.add_argument("--b1", type=float, required=True, help="anchor bit-width")
    p.add_argument("--fc-bits", type=int, default=None, help="pin dense layers to this bit-width")

    p = add("quantize", cmd_quantize, "apply an allocation to a model", NO_THREADS)
    p.add_argument("--model", required=True)
    p.add_argument("--allocation", required=True)
    p.add_argument("--name", default="quantized", help="output file prefix")

    p = add("evaluate", cmd_evaluate, "top-1 accuracy of a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)

    p = add("sweep", cmd_sweep, "size-vs-accuracy curves over an anchor grid")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--profiles", action="append", required=True)
    p.add_argument("--b1-grid", default=None, help="lo:hi:step or comma list (default 4:12:0.5)")
    p.add_argument("--methods", default=",".join(allocate.METHODS))
    p.add_argument("--max-variants", type=int, default=16)
    p.add_argument("--fc-bits", type=int, default=None)

    p = add("compare", cmd_compare, "matched-accuracy size ratios between methods", NO_THREADS)
    p.add_argument("--curves", nargs="+", required=True, help="curve CSV files")
    p.add_argument("--candidate", default=None)

    p = add("lemma-check", cmd_lemma_check, "Monte Carlo check of the noise bound", NO_THREADS)
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)

    p = add("verify", cmd_verify, "run the full verification battery")
    p.add_argument("--model", default=None, help="model prefix (default: generate the fixture)")
    p.add_argument("--data", default=None, help="dataset prefix (default: generate --n samples)")
    p.add_argument("--n", type=int, default=2000, help="dataset size when generating")
    p.add_argument("--seed", type=int, default=0, help="seed for probes and checks")
    p.add_argument("--fixture-seed", type=int, default=modelio.DEFAULT_SEED,
                   help="seed for generating the fixture when no model is given")
    p.add_argument("--b1-grid", default=None)
    p.add_argument("--quick", action="store_true", help="scaled-down battery for smoke tests")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {args.threads}")
        for flag in ("seed", "fixture_seed"):
            value = getattr(args, flag, 0)
            if value < 0:
                raise ValueError(f"--{flag.replace('_', '-')} must be >= 0, got {value}")
        if getattr(args, "n", 1) < 1:  # gen-data and verify
            raise ValueError(f"--n must be >= 1, got {args.n}")
        out = _out_dir(args)
        if args.out or args.command not in OUT_ONLY:
            # the error the first write would raise, before any work rather than after it
            found = next(p for p in (out, *out.absolute().parents) if p.exists())
            if found is out and not out.is_dir():
                raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(out))
            if not found.is_dir():  # a file above the directory to be made
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(out))
        code, outputs = args.func(args)
        if outputs:
            _write_manifest(args, outputs)
        return code
    except (probes.CalibrationError, ValueError, OSError) as e:  # LoadError, ShapeError too
        return _err(str(e))


if __name__ == "__main__":
    sys.exit(main())
