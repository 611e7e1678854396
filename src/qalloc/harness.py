"""End-to-end experiments: calibrate, sweep anchors, compare methods, verify.

A sweep allocates bit-widths for every anchor value and method, quantizes,
evaluates top-1 accuracy, and emits one curve point per rounded variant.
Comparison reads the curves "horizontally": at each accuracy level attained
by both methods it interpolates model size linearly along each curve's
Pareto frontier and reports the size ratio plus a dominance fraction.

`verify` re-runs the whole battery of statistical and algebraic checks the
package is expected to satisfy; individual check functions are exposed so
they can be driven at other scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import allocate as alloc
from . import modelio, nn, probes, quantize


@dataclass(frozen=True)
class CurvePoint:
    method: str
    b1: float
    variant: int
    size_bits: int
    size_mb: float
    top1: float
    allocation: alloc.BitAllocation | None = None


@dataclass(frozen=True)
class MethodComparison:
    baseline: str
    accuracies: tuple[float, ...]
    candidate_sizes: tuple[float, ...]
    baseline_sizes: tuple[float, ...]
    ratios: tuple[float, ...]
    dominance_fraction: float | None
    disjoint: bool = False


@dataclass(frozen=True)
class ComparisonReport:
    candidate: str
    entries: tuple[MethodComparison, ...]


def default_anchor_grid() -> list[float]:
    """b1 from 4 to 12 in half-bit steps."""
    return [4 + 0.5 * i for i in range(17)]


def calibrate_t(model: nn.Model, dataset: nn.Dataset, config: probes.ProbeConfig):
    """Prefix cache -> baseline accuracy -> delta_acc -> margins -> t probes.

    The front `run_pipeline` and `qalloc estimate-t` share.  Returns (cache,
    margins, t_probes, meta); meta holds baseline_accuracy, mean_r_star and
    delta_acc, the first keys of both callers' profiles meta.
    """
    probes.probed_layers(model, config.last_n)  # a bad last_n fails before any forward
    cache = nn.prefix_cache(model, dataset.inputs, threads=config.threads)
    acc_f = nn.accuracy(cache.logits, dataset.labels)
    delta_acc = config.delta_acc if config.delta_acc is not None else 0.5 * acc_f
    margins = probes.margin_stats(model, dataset, threads=config.threads, cache=cache)
    t_probes = probes.estimate_t(model, dataset, replace(config, delta_acc=delta_acc),
                                 margins=margins, cache=cache)
    meta = {"baseline_accuracy": acc_f, "mean_r_star": margins.mean_r_star,
            "delta_acc": delta_acc}
    return cache, margins, t_probes, meta


def run_pipeline(model: nn.Model, dataset: nn.Dataset,
                 config: probes.ProbeConfig = probes.ProbeConfig(),
                 out_dir=None) -> list[probes.LayerProfile]:
    """margins -> t probes -> p probes, merged into per-layer profiles.

    All stages share one prefix cache, so the unmodified model is forwarded
    once.  With out_dir set, margins and the merged profiles are persisted.
    """
    cache, margins, t_probes, meta = calibrate_t(model, dataset, config)
    p_probes = probes.estimate_p(model, dataset, b_probe=config.b_probe,
                                 threads=config.threads, cache=cache)
    profiles = probes.build_profiles(model, t_probes, p_probes, meta["delta_acc"])
    if out_dir is not None:
        meta.update(b_probe=config.b_probe, seed=config.seed,
                    noise_powers_t=[modelio.nan_to_null(p.noise_power) for p in t_probes],
                    noise_powers_p=[modelio.nan_to_null(p.noise_power) for p in p_probes])
        modelio.save_profiles(profiles, f"{out_dir}/profiles.json", meta=meta)
        modelio.save_profiles_csv(profiles, f"{out_dir}/profiles.csv")
        modelio.save_margins(margins, f"{out_dir}/margins.json")
    return profiles


def dense_pins(profiles, fc_bits: int | None) -> dict[int, int] | None:
    """Pins holding every dense layer at fc_bits; None when fc_bits is None."""
    if fc_bits is None:
        return None
    bits = quantize.check_bits(fc_bits, "fc_bits")
    return {pos: bits for pos, p in enumerate(profiles) if p.kind == "dense"}


def _allocations_for(method: str, b1: float, profiles, sizes, max_variants: int,
                     pinned: dict[int, int] | None):
    if method == "adaptive":
        base = alloc.allocate_adaptive(profiles, b1, pinned=pinned)
        weights = [p.p / p.t if not p.degenerate else 0.0 for p in profiles]
        return alloc.round_allocation(base.b_real, sizes, max_variants=max_variants,
                                      weights=weights, b1=b1)
    if method == "sqnr":
        base = alloc.allocate_sqnr(sizes, b1, pinned=pinned)
        return [base]
    if method == "equal":
        bits = round(b1)
        if abs(b1 - bits) > 1e-9 or not quantize.B_MIN <= bits <= quantize.B_MAX:
            return []  # equal points exist only at integer anchors in range
        return [alloc.allocate_equal(bits, sizes, pinned=pinned)]
    raise ValueError(f"unknown method {method!r}")


def sweep(model: nn.Model, dataset: nn.Dataset, profiles, b1_values=None,
          methods=("adaptive", "sqnr", "equal"), max_variants: int = 16,
          fc_bits: int | None = None, threads: int = 1) -> dict[str, list[CurvePoint]]:
    """Quantize and evaluate every (method, anchor, rounding variant).

    Adaptive contributes every enumerated rounding variant; sqnr and equal
    contribute one point per anchor (equal only at integer anchors).
    fc_bits pins all dense layers to a fixed bit-width across methods.

    Every allocation is planned first; then each distinct b_int vector is
    evaluated once, by `_top1_by_vector`'s walk over shared bit prefixes.  A
    point's top1 equals evaluate_accuracy on quantize_model of its
    allocation bit for bit, at the same thread count.
    """
    if b1_values is None:
        b1_values = default_anchor_grid()
    b1_values = [alloc.check_anchor(b) for b in b1_values]
    if not b1_values:
        raise ValueError("need at least one anchor value")
    sizes = [p.s for p in profiles]
    pinned = dense_pins(profiles, fc_bits)
    plan = {method: [(b1, variant, allocation) for b1 in b1_values
                     for variant, allocation in enumerate(
                         _allocations_for(method, b1, profiles, sizes, max_variants, pinned))]
            for method in methods}
    top1 = _top1_by_vector(model, dataset, [a for pts in plan.values() for _, _, a in pts],
                           threads)
    return {method: [CurvePoint(method, b1, variant, a.size_bits, a.size_bits / 8 / 2 ** 20,
                                top1[a.b_int], a) for b1, variant, a in pts]
            for method, pts in plan.items()}


def _top1_by_vector(model, dataset, allocations, threads: int) -> dict[tuple[int, ...], float]:
    """Top-1 accuracy of the quantized model for each distinct b_int among `allocations`.

    The vectors are checked against the model and the labels before any
    forward; `nn.forward_trie` then quantizes each layer once per distinct
    bit prefix, through the one layer quantizer.
    """
    vectors = {quantize.allocation_bits(model, a) for a in allocations}
    if not vectors:
        return {}
    nn.check_labels(dataset.labels, model.d)

    def layer_for(i, bits):
        return quantize._quantize_layer(model.layers[i], bits, i)

    return {v: nn.accuracy(z, dataset.labels)
            for v, z in nn.forward_trie(model, dataset.inputs, vectors, layer_for, threads)}


def prefix_counts(vectors) -> list[int]:
    """Distinct prefixes of each length 1, 2, ... among the distinct `vectors`.

    These are the layer segments a sweep runs per weighted-layer depth: one
    per distinct bit prefix.
    """
    distinct = set(map(tuple, vectors))
    depth = max(map(len, distinct), default=0)
    return [len({v[:k] for v in distinct}) for k in range(1, depth + 1)]


def sorted_points(curves: dict[str, list[CurvePoint]]) -> list[CurvePoint]:
    """Every point of every curve, ordered by (method, b1, variant) as curve files list them."""
    return sorted((p for pts in curves.values() for p in pts),
                  key=lambda p: (p.method, p.b1, p.variant))


def pareto_frontier(points) -> list[tuple[float, float]]:
    """(size_bits, top1) pairs strictly increasing in both coordinates."""
    best: list[tuple[float, float]] = []
    for p in sorted(points, key=lambda p: (p.size_bits, -p.top1)):
        if not best or p.top1 > best[-1][1]:
            best.append((float(p.size_bits), float(p.top1)))
    return best


def _size_at_accuracy(frontier, acc: float) -> float | None:
    """Interpolated size needed to reach accuracy acc; None when unattained."""
    if not frontier or acc > frontier[-1][1]:
        return None
    if acc <= frontier[0][1]:
        return frontier[0][0]
    for (s0, a0), (s1, a1) in zip(frontier, frontier[1:]):
        if a0 < acc <= a1:
            if a1 == a0:
                return s1
            return s0 + (s1 - s0) * (acc - a0) / (a1 - a0)
    return None


def compare(curves: dict[str, list[CurvePoint]], candidate: str | None = None) -> ComparisonReport:
    """Matched-accuracy size ratios of one method against each of the others."""
    if len(curves) < 2:
        raise ValueError("need at least two curves to compare")
    if candidate is None:
        candidate = "adaptive" if "adaptive" in curves else next(iter(curves))
    if candidate not in curves:
        raise ValueError(f"candidate {candidate!r} not among curves")
    cand_front = pareto_frontier(curves[candidate])
    entries = []
    for name, points in curves.items():
        if name == candidate:
            continue
        base_front = pareto_frontier(points)
        if not cand_front or not base_front:
            entries.append(MethodComparison(name, (), (), (), (), None, disjoint=True))
            continue
        lo = max(cand_front[0][1], base_front[0][1])
        hi = min(cand_front[-1][1], base_front[-1][1])
        levels = sorted({a for _, a in cand_front + base_front if lo <= a <= hi})
        if not levels or hi < lo:
            entries.append(MethodComparison(name, (), (), (), (), None, disjoint=True))
            continue
        cs, bs, ratios = [], [], []
        for a in levels:
            sc = _size_at_accuracy(cand_front, a)
            sb = _size_at_accuracy(base_front, a)
            cs.append(sc)
            bs.append(sb)
            ratios.append(sc / sb)
        dominance = sum(1 for c, b in zip(cs, bs) if c <= b) / len(levels)
        entries.append(MethodComparison(name, tuple(levels), tuple(cs), tuple(bs),
                                        tuple(ratios), dominance))
    return ComparisonReport(candidate, tuple(entries))


def comparison_payload(report: ComparisonReport) -> dict:
    return {
        "format_version": modelio.FORMAT_VERSION,
        "candidate": report.candidate,
        "entries": [
            {
                "baseline": e.baseline,
                "disjoint": e.disjoint,
                "dominance_fraction": e.dominance_fraction,
                "levels": [
                    {"accuracy": a, "candidate_size_bits": c, "baseline_size_bits": b, "ratio": r}
                    for a, c, b, r in zip(e.accuracies, e.candidate_sizes,
                                          e.baseline_sizes, e.ratios)
                ],
            }
            for e in report.entries
        ],
    }


# ---------------------------------------------------------------------------
# verification battery


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyConfig:
    """Scales for the verification battery; defaults match the full battery."""

    seed: int = 0
    quantizer_weights: int = 100_000
    lemma_trials: int = 10_000
    kkt_sets: int = 100
    grid_step: float = 0.01
    anchors: tuple[float, ...] | None = None
    max_variants: int = 16
    threads: int = 1


def check_quantizer_law(n: int = 100_000, bits_range=range(4, 11), seed: int = 0,
                        rel_tol: float = 0.05, ratio_band=(3.6, 4.4)) -> CheckResult:
    """Measured residual power vs the analytic law on uniform random weights."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, size=n)
    bits = list(bits_range)
    measured = [quantize.residual_power(w, quantize.QuantSpec(b, -1.0, 1.0)) for b in bits]
    worst_rel = 0.0
    for b, m in zip(bits, measured):
        expected = quantize.expected_noise_power(n, -1.0, 1.0, b)
        worst_rel = max(worst_rel, abs(m / expected - 1.0))
    ratios = [m0 / m1 for m0, m1 in zip(measured, measured[1:])]
    ratio_ok = all(ratio_band[0] <= r <= ratio_band[1] for r in ratios)
    passed = worst_rel <= rel_tol and ratio_ok
    return CheckResult("quantizer_law", passed,
                       f"worst |measured/expected - 1| = {worst_rel:.4f}, "
                       f"per-bit ratios in [{min(ratios):.3f}, {max(ratios):.3f}]")


def check_linearity(model, dataset, seed: int = 0, use_first: int = 3,
                    slope_band=(0.9, 1.1), min_r2: float = 0.99, threads: int = 1) -> CheckResult:
    """Log-log slope ~1 of feature-noise vs weight-noise power on small scales."""
    worst = []
    cache = nn.prefix_cache(model, dataset.inputs, threads=threads)
    for i in model.weighted_indices:
        ladder = probes.default_scale_ladder(model, i)
        pts = probes.linearity_probe(model, dataset, i, ladder, seed=seed, threads=threads,
                                     cache=cache)
        slope, r2 = probes.loglog_fit(pts, use_first=use_first)
        worst.append((i, slope, r2))
    passed = all(slope_band[0] <= s <= slope_band[1] and r2 >= min_r2 for _, s, r2 in worst)
    detail = "; ".join(f"layer {i}: slope={s:.4f}, R2={r2:.5f}" for i, s, r2 in worst)
    return CheckResult("linearity", passed, detail)


def check_additivity(model, dataset, bits: int = 10, max_gap: float = 0.10,
                     threads: int = 1) -> CheckResult:
    n = len(model.weighted_indices)
    result = probes.additivity_probe(model, dataset, [bits] * n, threads=threads)
    return CheckResult("additivity", result.relative_gap <= max_gap,
                       f"|sum_singles - joint|/joint = {result.relative_gap:.4f} at b={bits}")


def _random_profiles(rng, n_layers: int) -> list[probes.LayerProfile]:
    out = []
    for i in range(n_layers):
        out.append(probes.LayerProfile(
            index=i, kind="dense", s=int(rng.integers(10, 100_000)),
            t=float(rng.uniform(0.1, 100.0)), p=float(rng.uniform(0.1, 100.0)),
            noise_scale=1.0, delta_acc=0.5, b_probe=10, weight_range=(-1.0, 1.0)))
    return out


def check_kkt(n_sets: int = 100, seed: int = 0, rel_tol: float = 1e-9) -> CheckResult:
    """Stationarity of the closed form: equal ratios p*exp(-a*b)/(t*s)."""
    rng = np.random.default_rng(seed)
    profile_sets = [_random_profiles(rng, int(rng.integers(2, 7))) for _ in range(n_sets)]
    worst = 0.0
    for profs in profile_sets:
        b1 = float(rng.uniform(4, 12))
        a = alloc.allocate_adaptive(profs, b1)
        worst = max(worst, alloc.stationarity_residual(profs, a.b_real))
    return CheckResult("kkt_stationarity", worst <= rel_tol,
                       f"worst log-ratio spread = {worst:.3e} over {n_sets} profile sets")


def check_optimality(n_sets: int = 20, seed: int = 0, grid_step: float = 0.01,
                     span: float = 3.0, tol: float = 1e-9) -> CheckResult:
    """Closed form beats a brute-force grid at equal total size (3-layer sets)."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(n_sets):
        profs = _random_profiles(rng, 3)
        b1 = float(rng.uniform(6, 10))
        a = alloc.allocate_adaptive(profs, b1)
        weights = [p.p / p.t for p in profs]
        sizes = [p.s for p in profs]
        total = sum(s * b for s, b in zip(sizes, a.b_real))
        m_opt = alloc.predicted_m_all(a.b_real, weights)
        b2 = np.arange(a.b_real[1] - span, a.b_real[1] + span + grid_step / 2, grid_step)
        b3 = np.arange(a.b_real[2] - span, a.b_real[2] + span + grid_step / 2, grid_step)
        g2, g3 = np.meshgrid(b2, b3, indexing="ij")
        g1 = (total - sizes[1] * g2 - sizes[2] * g3) / sizes[0]
        m_grid = (weights[0] * np.exp(-quantize.ALPHA * g1)
                  + weights[1] * np.exp(-quantize.ALPHA * g2)
                  + weights[2] * np.exp(-quantize.ALPHA * g3))
        worst = max(worst, m_opt - float(m_grid.min()))
    return CheckResult("optimality_vs_grid", worst <= tol,
                       f"worst (closed form - grid minimum) = {worst:.3e}")


def check_sqnr_special_case(n_sets: int = 50, seed: int = 0, tol: float = 1e-12) -> CheckResult:
    """With p/t constant the adaptive rule reduces to the SQNR rule."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_sets):
        n = int(rng.integers(2, 7))
        c = float(rng.uniform(0.5, 5.0))
        profs = []
        for i in range(n):
            t = float(rng.uniform(0.1, 10.0))
            profs.append(probes.LayerProfile(
                index=i, kind="dense", s=int(rng.integers(10, 100_000)), t=t, p=c * t,
                noise_scale=1.0, delta_acc=0.5, b_probe=10, weight_range=(-1.0, 1.0)))
        b1 = float(rng.uniform(4, 12))
        a = alloc.allocate_adaptive(profs, b1)
        q = alloc.allocate_sqnr([p.s for p in profs], b1)
        worst = max(worst, max(abs(x - y) for x, y in zip(a.b_real, q.b_real)))
    return CheckResult("sqnr_special_case", worst <= tol,
                       f"worst per-layer |adaptive - sqnr| = {worst:.3e}")


def check_lemma(ds=(10, 100), deltas=(0.1, 0.3), trials: int = 10_000, seed: int = 0) -> CheckResult:
    reports = [probes.lemma_check(d, delta, trials, seed=seed) for d in ds for delta in deltas]
    passed = all(r.passed for r in reports)
    detail = "; ".join(f"d={r.d}, delta={r.delta}: rate={r.flip_rate:.4f} <= {r.bound}"
                       for r in reports)
    return CheckResult("lemma_bound", passed, detail)


def check_t_ratio_stability(model, dataset, seed: int = 0, rel_tol: float = 0.25,
                            fractions=(0.25, 0.5), threads: int = 1) -> CheckResult:
    """t_i/t_j should barely move when the accuracy-drop target changes."""
    cache = nn.prefix_cache(model, dataset.inputs, threads=threads)
    acc_f = nn.accuracy(cache.logits, dataset.labels)
    results = []
    for frac in fractions:
        cfg = probes.ProbeConfig(delta_acc=frac * acc_f, seed=seed, threads=threads)
        results.append([r.t for r in probes.estimate_t(model, dataset, cfg, cache=cache)])
    ta, tb = results
    worst = 0.0
    for i in range(len(ta)):
        for j in range(len(ta)):
            if i == j:
                continue
            worst = max(worst, abs((ta[i] / ta[j]) / (tb[i] / tb[j]) - 1.0))
    return CheckResult("t_ratio_stability", worst <= rel_tol,
                       f"worst pairwise ratio change = {worst:.4f} "
                       f"between targets {fractions[0]} and {fractions[1]} of baseline")


def check_dominance(model, dataset, profiles, anchors=None, min_fraction: float = 0.7,
                    max_variants: int = 16, threads: int = 1):
    """Adaptive should need no more bits than equal at most matched accuracies.

    Returns (CheckResult, curves, report) so callers can persist the sweep.
    """
    curves = sweep(model, dataset, profiles, b1_values=anchors,
                   methods=("adaptive", "equal"), max_variants=max_variants, threads=threads)
    report = compare(curves, candidate="adaptive")
    entry = next(e for e in report.entries if e.baseline == "equal")
    if entry.disjoint or entry.dominance_fraction is None:
        return CheckResult("dominance", False, "no matched accuracy levels"), curves, report
    passed = entry.dominance_fraction >= min_fraction
    return (CheckResult("dominance", passed,
                        f"adaptive <= equal at {entry.dominance_fraction:.2%} "
                        f"of {len(entry.accuracies)} matched levels"),
            curves, report)


def check_equal_envelope(points) -> CheckResult:
    """Equal-method accuracy should be non-decreasing in b: one drop beyond 0.01 is allowed."""
    pts = sorted((p for p in points if p.method == "equal"), key=lambda p: p.b1)
    violations = [(a.b1, b.b1) for a, b in zip(pts, pts[1:]) if b.top1 < a.top1 - 0.01]
    return CheckResult("equal_envelope", len(violations) <= 1,
                       f"{len(violations)} drop(s) beyond 0.01 along the equal curve")


def check_roundtrips(model, dataset, profiles, tmp_dir) -> CheckResult:
    """Bit-exact persistence for every artifact type."""
    problems = []
    m2 = modelio.load_model(modelio.save_model(model, f"{tmp_dir}/rt")[0])
    for i, (a, b) in enumerate(zip(model.layers, m2.layers)):
        if a.kind in nn.WEIGHTED_KINDS:
            if not np.array_equal(np.asarray(a.weights, np.float32), b.weights):
                problems.append(f"layer {i} weights differ")
            if a.bias is not None and not np.array_equal(np.asarray(a.bias, np.float32), b.bias):
                problems.append(f"layer {i} bias differs")
    d2 = modelio.load_dataset(modelio.save_dataset(dataset, f"{tmp_dir}/rt")[0])
    if not np.array_equal(np.asarray(dataset.inputs, np.float32), d2.inputs):
        problems.append("dataset inputs differ")
    if not np.array_equal(dataset.labels, d2.labels):
        problems.append("dataset labels differ")
    p2, _ = modelio.load_profiles(modelio.save_profiles(profiles, f"{tmp_dir}/rt_profiles.json"))
    if p2 != list(profiles):
        problems.append("profiles differ")
    a = alloc.allocate_adaptive(profiles, 8.0)
    a2 = modelio.load_allocation(modelio.save_allocation(a, f"{tmp_dir}/rt_alloc.json"))
    if a2 != a:
        problems.append("allocation differs")
    return CheckResult("roundtrips", not problems, "; ".join(problems) or "all artifacts bit-exact")


def verify(model, dataset, config: VerifyConfig = VerifyConfig(), tmp_dir=None) -> list[CheckResult]:
    """Run the full battery; failures are collected, never raised."""
    import tempfile

    results = []

    def run(fn, *args, **kwargs):
        try:
            results.append(fn(*args, **kwargs))
        except Exception as e:  # a crash is a failed check, not a crashed battery
            results.append(CheckResult(fn.__name__, False, f"raised {type(e).__name__}: {e}"))

    run(check_quantizer_law, n=config.quantizer_weights, seed=config.seed)
    run(check_linearity, model, dataset, seed=config.seed, threads=config.threads)
    run(check_additivity, model, dataset, threads=config.threads)
    run(check_kkt, n_sets=config.kkt_sets, seed=config.seed)
    run(check_optimality, seed=config.seed, grid_step=config.grid_step)
    run(check_sqnr_special_case, seed=config.seed)
    run(check_lemma, trials=config.lemma_trials, seed=config.seed)
    run(check_t_ratio_stability, model, dataset, seed=config.seed, threads=config.threads)

    try:
        cfg = probes.ProbeConfig(seed=config.seed, threads=config.threads)
        profiles = run_pipeline(model, dataset, cfg)
        dom, curves, _ = check_dominance(model, dataset, profiles, anchors=config.anchors,
                                         max_variants=config.max_variants,
                                         threads=config.threads)
        results.append(dom)
        results.append(check_equal_envelope(curves["equal"]))
        csv_a = modelio.curve_csv_text(sorted_points(curves))
        curves_b = sweep(model, dataset, profiles, b1_values=config.anchors,
                         methods=("adaptive", "equal"), max_variants=config.max_variants,
                         threads=config.threads)
        csv_b = modelio.curve_csv_text(sorted_points(curves_b))
        results.append(CheckResult("sweep_reproducible", csv_a == csv_b,
                                   "identical curve CSV across two sweeps"
                                   if csv_a == csv_b else "curve CSV differs between sweeps"))
        profiles_b = run_pipeline(model, dataset, cfg)
        results.append(CheckResult("pipeline_deterministic", profiles_b == profiles,
                                   "identical profiles across two pipeline runs"
                                   if profiles_b == profiles else "profiles differ between runs"))
        if tmp_dir is None:
            with tempfile.TemporaryDirectory() as td:
                results.append(check_roundtrips(model, dataset, profiles, td))
        else:
            results.append(check_roundtrips(model, dataset, profiles, tmp_dir))
    except Exception as e:
        results.append(CheckResult("pipeline", False, f"raised {type(e).__name__}: {e}"))

    return results
