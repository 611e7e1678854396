"""Command-line interface.

Every subcommand resolves its flags into a manifest written next to its
outputs, so a run can be reproduced exactly.  Data goes to files and stdout;
progress goes to stderr.  Exit codes: 0 success, 1 precondition or input
error, 2 verification failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__, allocate, harness, modelio, nn, probes, quantize


def _err(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _progress(msg: str):
    print(msg, file=sys.stderr)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _out_dir(args) -> Path:
    out = Path(args.out if args.out else os.environ.get("QALLOC_OUTDIR", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(args, out: Path, outputs: list[Path]):
    payload = {
        "format_version": modelio.FORMAT_VERSION,
        "tool": f"qalloc {__version__}",
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k not in ("func", "command")},
        "outputs": {p.name: _sha256(p) for p in sorted(outputs, key=lambda p: p.name)},
    }
    modelio.write_json(out / "manifest.json", payload)


def _write_report(args, name: str, payload: dict):
    """With --out, write `name` (format_version, then payload) and the manifest there."""
    if args.out:
        out = _out_dir(args)
        path = modelio.write_json(out / name, {"format_version": modelio.FORMAT_VERSION,
                                               **payload})
        _write_manifest(args, out, [path])


def _merge_profile(a: probes.LayerProfile, b: probes.LayerProfile) -> probes.LayerProfile:
    """One layer's record from a t-only and a p-only run: each side fills the other's NaNs."""
    first = {f: getattr(a, f) if getattr(a, f) == getattr(a, f) else getattr(b, f)
             for f in ("t", "p", "noise_scale", "delta_acc")}
    return replace(b, **first, b_probe=max(a.b_probe, b.b_probe),
                   copied_t=a.copied_t or b.copied_t, degenerate=a.degenerate or b.degenerate)


def _load_merged_profiles(paths):
    """Merge one or more partial profile files (t-only and p-only runs)."""
    merged: dict[int, probes.LayerProfile] = {}
    meta = {}
    for path in paths:
        profiles, m = modelio.load_profiles(path)
        meta.update(m)
        for p in profiles:
            merged[p.index] = _merge_profile(merged[p.index], p) if p.index in merged else p
    out = [merged[i] for i in sorted(merged)]
    for p in out:
        if p.t != p.t or p.p != p.p:
            raise modelio.LoadError(
                f"layer {p.index}: profiles incomplete (t={p.t}, p={p.p}); "
                "supply both an estimate-t and an estimate-p output")
    return out, meta


def _check_fc_bits(args):
    """Reject an out-of-range --fc-bits before anything is loaded or run."""
    if args.fc_bits is not None:
        quantize.check_bits(args.fc_bits, "--fc-bits")


def cmd_gen_model(args) -> int:
    out = _out_dir(args)
    spec = modelio.default_fixture(seed=args.seed)
    model = modelio.gen_model(spec)
    paths = modelio.save_model(model, out / args.name)
    _write_manifest(args, out, list(paths))
    sizes = model.layer_sizes()
    print(f"model: {len(model.layers)} layers, d={model.d}, "
          f"weighted layer sizes {list(sizes)}, total params {sum(sizes)}")
    return 0


def cmd_gen_data(args) -> int:
    out = _out_dir(args)
    model = modelio.load_model(args.model)
    dataset = modelio.gen_dataset(model, args.n, seed=args.seed)
    paths = modelio.save_dataset(dataset, out / args.name)
    _write_manifest(args, out, list(paths))
    # the labels are the argmax of the labelling forward, so the model scores 1 on them
    print(f"dataset: {len(dataset)} teacher-labelled samples, baseline accuracy 1.0")
    return 0


def cmd_margins(args) -> int:
    model = modelio.load_model(args.model)
    dataset = modelio.load_dataset(args.data)
    stats = probes.margin_stats(model, dataset, threads=args.threads)
    print(f"mean margin power (z1-z2)^2/2: {stats.mean_r_star!r} over {stats.n} samples")
    if args.out:
        out = _out_dir(args)
        path = modelio.save_margins(stats, out / "margins.json")
        _write_manifest(args, out, [path])
    return 0


def cmd_estimate_t(args) -> int:
    out = _out_dir(args)
    model = modelio.load_model(args.model)
    dataset = modelio.load_dataset(args.data)
    config = probes.ProbeConfig(delta_acc=args.delta_acc, seed=args.seed,
                                acc_tolerance=args.acc_tolerance, max_iters=args.max_iters,
                                last_n=args.last_n, threads=args.threads)
    _, margins, t_probes, meta = harness.calibrate_t(model, dataset, config)
    _progress(f"baseline accuracy {meta['baseline_accuracy']}, "
              f"mean margin {margins.mean_r_star:.6g}")
    profiles = probes.build_profiles(model, t_probes, None, meta["delta_acc"])
    path = modelio.save_profiles(profiles, out / "profiles_t.json",
                                 meta={**meta, "seed": config.seed})
    csv_path = modelio.save_profiles_csv(profiles, out / "profiles_t.csv")
    _write_manifest(args, out, [path, csv_path])
    for r in t_probes:
        print(f"layer {r.index}: t={r.t!r} (k={r.noise_scale!r}, drop={r.accuracy_drop}, "
              f"iters={r.iterations}{', copied' if r.copied else ''})")
    return 0


def cmd_estimate_p(args) -> int:
    out = _out_dir(args)
    model = modelio.load_model(args.model)
    dataset = modelio.load_dataset(args.data)
    p_probes = probes.estimate_p(model, dataset, b_probe=args.b_probe, threads=args.threads)
    profiles = probes.build_profiles(model, None, p_probes, math.nan)
    path = modelio.save_profiles(profiles, out / "profiles_p.json",
                                 meta={"b_probe": args.b_probe})
    csv_path = modelio.save_profiles_csv(profiles, out / "profiles_p.csv")
    _write_manifest(args, out, [path, csv_path])
    for r in p_probes:
        flag = " (degenerate)" if r.degenerate else ""
        print(f"layer {r.index}: p={r.p!r} at b={r.b_probe}{flag}")
    return 0


def cmd_allocate(args) -> int:
    _check_fc_bits(args)
    out = _out_dir(args)
    profiles, _ = _load_merged_profiles(args.profiles)
    sizes = [p.s for p in profiles]
    pinned = harness.dense_pins(profiles, args.fc_bits)
    if args.method == "adaptive":
        allocation = allocate.allocate_adaptive(profiles, args.b1, pinned=pinned)
    elif args.method == "sqnr":
        allocation = allocate.allocate_sqnr(sizes, args.b1, pinned=pinned)
    else:
        allocation = allocate.allocate_equal(args.b1, sizes, pinned=pinned)
    path = modelio.save_allocation(allocation, out / "allocation.json")
    _write_manifest(args, out, [path])
    b_real = ", ".join(f"{b:g}" for b in allocation.b_real)
    print(f"method={allocation.method} b=({b_real}) b_int={list(allocation.b_int)} "
          f"size_bits={allocation.size_bits}")
    return 0


def cmd_quantize(args) -> int:
    out = _out_dir(args)
    model = modelio.load_model(args.model)
    allocation = modelio.load_allocation(args.allocation)
    q = quantize.quantize_model(model, allocation)
    paths = modelio.save_model(q, out / args.name)
    _write_manifest(args, out, list(paths))
    print(f"quantized model written with b={list(allocation.b_int)}, "
          f"size_bits={allocation.size_bits}")
    return 0


def cmd_evaluate(args) -> int:
    model = modelio.load_model(args.model)
    dataset = modelio.load_dataset(args.data)
    acc = nn.evaluate_accuracy(model, dataset, threads=args.threads)
    print(f"top1 {acc!r} on {len(dataset)} samples")
    _write_report(args, "evaluation.json", {"top1": acc, "n": len(dataset)})
    return 0


def cmd_sweep(args) -> int:
    _check_fc_bits(args)
    out = _out_dir(args)
    model = modelio.load_model(args.model)
    dataset = modelio.load_dataset(args.data)
    profiles, _ = _load_merged_profiles(args.profiles)
    anchors = _parse_grid(args.b1_grid)
    methods = tuple(args.methods.split(","))
    _progress(f"sweeping {len(anchors)} anchors x {methods}")
    curves = harness.sweep(model, dataset, profiles, b1_values=anchors, methods=methods,
                           max_variants=args.max_variants, fc_bits=args.fc_bits,
                           threads=args.threads)
    points = harness.sorted_points(curves)
    vectors = [p.allocation.b_int for p in points]
    segments = "/".join(map(str, harness.prefix_counts(vectors))) or "none"
    _progress(f"{len(points)} points, {len(set(vectors))} distinct vectors, "
              f"segments {segments}")
    path = modelio.save_curve(points, out / "curve.csv")
    _write_manifest(args, out, [path])
    print(f"{len(points)} curve points -> {path}")
    return 0


def cmd_compare(args) -> int:
    out = _out_dir(args)
    curves: dict[str, list[harness.CurvePoint]] = {}
    for path in args.curves:
        for row in modelio.load_curve(path):
            pt = harness.CurvePoint(**row)
            curves.setdefault(pt.method, []).append(pt)
    if len(curves) < 2:
        return _err(f"need curves from at least two methods, found {sorted(curves)}")
    report = harness.compare(curves, candidate=args.candidate)
    path = modelio.write_json(out / "comparison.json", harness.comparison_payload(report))
    _write_manifest(args, out, [path])
    for e in report.entries:
        if e.disjoint:
            print(f"{report.candidate} vs {e.baseline}: no overlapping accuracy range")
        else:
            print(f"{report.candidate} vs {e.baseline}: dominance {e.dominance_fraction:.2%} "
                  f"over {len(e.accuracies)} matched levels, "
                  f"median size ratio {sorted(e.ratios)[len(e.ratios) // 2]:.3f}")
    return 0


def cmd_lemma_check(args) -> int:
    report = probes.lemma_check(args.d, args.delta, args.trials, seed=args.seed)
    status = "ok" if report.passed else "VIOLATED"
    print(f"d={report.d} delta={report.delta}: flip rate {report.flip_rate} "
          f"<= bound {report.bound}: {status}")
    _write_report(args, "lemma.json", {**asdict(report), "passed": report.passed})
    return 0 if report.passed else 2


def cmd_verify(args) -> int:
    if args.model:
        model = modelio.load_model(args.model)
        dataset = modelio.load_dataset(args.data) if args.data else modelio.gen_dataset(
            model, args.n, seed=args.fixture_seed + 1)
    else:
        _progress("no model given; generating the default fixture")
        model = modelio.gen_model(modelio.default_fixture(seed=args.fixture_seed))
        dataset = modelio.gen_dataset(model, args.n, seed=args.fixture_seed + 1)
    config = harness.VerifyConfig(
        seed=args.seed, threads=args.threads,
        quantizer_weights=10_000 if args.quick else 100_000,
        lemma_trials=2000 if args.quick else 10_000,
        kkt_sets=20 if args.quick else 100,
        grid_step=0.05 if args.quick else 0.01,
        anchors=None if args.b1_grid is None else tuple(_parse_grid(args.b1_grid)),
        max_variants=4 if args.quick else 16)
    results = harness.verify(model, dataset, config)
    failures = 0
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
        failures += 0 if r.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    _write_report(args, "verify.json", {"results": [asdict(r) for r in results]})
    return 0 if failures == 0 else 2


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
        n = int(round(span))
        return [lo + i * step for i in range(n + 1)]
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"--b1-grid {text!r}: expected lo:hi:step or a comma list") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qalloc",
        description="Adaptive per-layer bit-width allocation for network quantization.")
    parser.add_argument("--version", action="version", version=f"qalloc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn, command=name)
        p.add_argument("--out", help="output directory (default: $QALLOC_OUTDIR or .)")
        p.add_argument("--threads", type=int, default=1, help="worker thread cap")
        return p

    p = add("gen-model", cmd_gen_model, "generate the deterministic fixture model")
    p.add_argument("--seed", type=int, default=modelio.DEFAULT_SEED)
    p.add_argument("--name", default="fixture", help="output file prefix")

    p = add("gen-data", cmd_gen_data, "generate a teacher-labelled dataset for a model")
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
    p.add_argument("--b-probe", type=int, default=10)

    p = add("allocate", cmd_allocate, "closed-form bit-width allocation from profiles")
    p.add_argument("--profiles", action="append", required=True,
                   help="profiles JSON (repeat to merge t-only and p-only files)")
    p.add_argument("--method", choices=("adaptive", "sqnr", "equal"), default="adaptive")
    p.add_argument("--b1", type=float, required=True, help="anchor bit-width")
    p.add_argument("--fc-bits", type=int, default=None, help="pin dense layers to this bit-width")

    p = add("quantize", cmd_quantize, "apply an allocation to a model")
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
    p.add_argument("--methods", default="adaptive,sqnr,equal")
    p.add_argument("--max-variants", type=int, default=16)
    p.add_argument("--fc-bits", type=int, default=None)

    p = add("compare", cmd_compare, "matched-accuracy size ratios between methods")
    p.add_argument("--curves", nargs="+", required=True, help="curve CSV files")
    p.add_argument("--candidate", default=None)

    p = add("lemma-check", cmd_lemma_check, "Monte Carlo check of the noise bound")
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)

    p = add("verify", cmd_verify, "run the full verification battery")
    p.add_argument("--model", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--n", type=int, default=2000, help="dataset size when generating")
    p.add_argument("--seed", type=int, default=0, help="seed for probes and checks")
    p.add_argument("--fixture-seed", type=int, default=modelio.DEFAULT_SEED,
                   help="seed for generating the fixture when no model is given")
    p.add_argument("--b1-grid", default=None)
    p.add_argument("--quick", action="store_true", help="scaled-down battery for smoke tests")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        return _err(f"--threads must be >= 1, got {args.threads}")
    try:
        return args.func(args)
    except (modelio.LoadError, probes.CalibrationError, nn.ShapeError, ValueError) as e:
        return _err(str(e))
    except OSError as e:
        return _err(str(e))


if __name__ == "__main__":
    sys.exit(main())
