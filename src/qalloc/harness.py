"""End-to-end experiments: calibrate, sweep anchors, compare methods, verify.

A sweep allocates bit-widths for every anchor value and method, quantizes,
evaluates top-1 accuracy, and emits one curve point per rounded variant.
Comparison reads the curves "horizontally": at each accuracy level attained
by both methods it interpolates model size linearly along each curve's
Pareto frontier and reports the size ratio plus a dominance fraction.

`verify` runs the battery of statistical and algebraic checks the package is
expected to satisfy: a table of 13 named checks.  Each check takes the data
it checks (a prefix cache, a sweep's curves, or the scale of a synthetic
test), so it can be driven at other scales; `verify` builds that data.
"""

from __future__ import annotations

import functools
import math
import tempfile
from dataclasses import dataclass

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

    @property
    def disjoint(self) -> bool:
        """True when the two curves share no accuracy level."""
        return not self.accuracies


@dataclass(frozen=True)
class ComparisonReport:
    candidate: str
    entries: tuple[MethodComparison, ...]


def default_anchor_grid() -> list[float]:
    """b1 from 4 to 12 in half-bit steps."""
    return [4 + 0.5 * i for i in range(17)]


def run_pipeline(model: nn.Model, dataset: nn.Dataset,
                 config: probes.ProbeConfig = probes.ProbeConfig()) -> list[probes.LayerProfile]:
    """margins -> per layer, last first: p probe, then t search; merged into profiles.

    `config` drives the t probes; the p probes run at `probes.B_PROBE`.  Both
    run in `probes.calibrate`, from one prefix cache at `config.threads`, so
    the unmodified model is forwarded once, and the layers below its last conv
    layer once more (layers 0-2 on the default fixture), to rebuild the conv
    inputs above layer 0 when their probes come; each layer's cached input is
    dropped once its two probes are done.  Writes nothing: a caller that keeps
    the profiles saves them with `modelio.save_profiles`.
    """
    t_probes, p_probes, meta = probes.calibrate(model, dataset, config, b_probe=probes.B_PROBE,
                                                threads=config.threads)
    return probes.build_profiles(model, t_probes, p_probes, meta["delta_acc"])


def _allocations_for(method: str, b1: float, profiles, max_variants: int,
                     fc_bits: int | None) -> list[alloc.BitAllocation]:
    """`alloc.by_method`'s allocation at b1 as the sweep takes it: adaptive's rounding
    variants, and equal only at integer anchors in [B_MIN, B_MAX]."""
    if method == "equal":
        bits = round(b1)
        if abs(b1 - bits) > 1e-9 or not quantize.B_MIN <= bits <= quantize.B_MAX:
            return []  # equal points exist only at integer anchors in range
        b1 = bits
    base = alloc.by_method(method, profiles, b1, fc_bits)
    if method != "adaptive":
        return [base]
    weights = [p.p / p.t if not p.degenerate else 0.0 for p in profiles]
    return alloc.round_allocation(base.b_real, [p.s for p in profiles], weights, b1,
                                  max_variants=max_variants)


def sweep(model: nn.Model, dataset: nn.Dataset, profiles, b1_values=None,
          methods=alloc.METHODS, max_variants: int = 16,
          fc_bits: int | None = None, threads: int = 1) -> dict[str, list[CurvePoint]]:
    """Quantize and evaluate every (method, anchor, rounding variant).

    Adaptive contributes every enumerated rounding variant; sqnr and equal
    contribute one point per anchor (equal only at integer anchors).
    fc_bits pins all dense layers to a fixed bit-width across methods.

    Every allocation is planned first; then each distinct b_int vector is
    evaluated once, by `_top1_by_vector`'s walk over shared bit prefixes.  A
    point's top1 equals evaluate_accuracy on quantize_model of its
    allocation bit for bit, at the same thread count.  Profiles made for
    another model are rejected before any forward (`_check_profiles`).
    """
    if b1_values is None:
        b1_values = default_anchor_grid()
    b1_values = [alloc.check_anchor(b) for b in b1_values]
    if not b1_values:
        raise ValueError("need at least one anchor value")
    alloc.check_max_variants(max_variants)
    _check_profiles(model, profiles)
    if fc_bits is not None:  # checked even when no allocation takes it
        quantize.check_bits(fc_bits, "fc_bits")
    plan = {method: [(b1, variant, allocation) for b1 in b1_values
                     for variant, allocation in enumerate(
                         _allocations_for(method, b1, profiles, max_variants, fc_bits))]
            for method in methods}
    top1 = _top1_by_vector(model, dataset, [a for pts in plan.values() for _, _, a in pts],
                           threads)
    return {method: [CurvePoint(method, b1, variant, a.size_bits, a.size_bits / 8 / 2 ** 20,
                                top1[a.b_int], a) for b1, variant, a in pts]
            for method, pts in plan.items()}


def _check_profiles(model: nn.Model, profiles):
    """ValueError unless the k-th profile is the model's k-th weighted layer's.

    A profile's (index, kind, s) must equal that layer's (index, kind,
    param_count); the message names the first that differs.  A profile count
    that differs from the weighted layer count is left to `allocation_bits`.
    """
    for k, (p, i) in enumerate(zip(profiles, model.weighted_indices)):
        layer = model.layers[i]
        if (p.index, p.kind, p.s) != (i, layer.kind, layer.param_count):
            raise ValueError(f"profile {k} is layer {p.index} ({p.kind}, s={p.s}), but the "
                             f"model's weighted layer {k} is layer {i} "
                             f"({layer.kind}, s={layer.param_count})")


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


def _size_at_accuracy(frontier, acc: float) -> float:
    """Interpolated size needed to reach accuracy acc, a level within the frontier's range."""
    if acc <= frontier[0][1]:
        return frontier[0][0]
    for (s0, a0), (s1, a1) in zip(frontier, frontier[1:]):
        if a0 < acc <= a1:
            return s0 + (s1 - s0) * (acc - a0) / (a1 - a0)


def compare(curves: dict[str, list[CurvePoint]], candidate: str | None = None) -> ComparisonReport:
    """Matched-accuracy size ratios of one method against each of the others (size_bits >= 1)."""
    if len(curves) < 2:
        raise ValueError(f"need curves from at least two methods, found {sorted(curves)}")
    for name, points in curves.items():
        for p in points:
            if not p.size_bits >= 1:  # a size ratio needs positive sizes
                raise ValueError(f"{name} curve: size_bits must be >= 1, got {p.size_bits}")
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
        levels = []
        if cand_front and base_front:
            lo = max(cand_front[0][1], base_front[0][1])
            hi = min(cand_front[-1][1], base_front[-1][1])
            levels = sorted({a for _, a in cand_front + base_front if lo <= a <= hi})
        if not levels:
            entries.append(MethodComparison(name, (), (), (), (), None))
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


def check_quantizer_law(n: int, seed: int) -> CheckResult:
    """Residual power at b = 4..10 within 5% of the law; adjacent-bit ratios in [3.6, 4.4]."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, size=n)
    bits = list(range(4, 11))
    measured = [quantize.residual_power(w, quantize.QuantSpec(b, -1.0, 1.0)) for b in bits]
    worst_rel = 0.0
    for b, m in zip(bits, measured):
        expected = quantize.expected_noise_power(n, -1.0, 1.0, b)
        worst_rel = max(worst_rel, abs(m / expected - 1.0))
    ratios = [m0 / m1 for m0, m1 in zip(measured, measured[1:])]
    passed = worst_rel <= 0.05 and all(3.6 <= r <= 4.4 for r in ratios)
    return CheckResult("quantizer_law", passed,
                       f"worst |measured/expected - 1| = {worst_rel:.4f}, "
                       f"per-bit ratios in [{min(ratios):.3f}, {max(ratios):.3f}]")


def check_linearity(cache: nn.PrefixCache, seed: int) -> CheckResult:
    """Feature- vs weight-noise log-log slope in [0.9, 1.1], R^2 >= 0.99, on 3 smallest scales.

    Every weighted layer of the cached model is probed from `cache`.
    """
    worst = []
    for i in cache.model.weighted_indices:
        ladder = probes.default_scale_ladder(cache.model, i)
        pts = probes.linearity_probe(cache, i, ladder, seed=seed)
        slope, r2 = probes.loglog_fit(pts[:3])
        worst.append((i, slope, r2))
    passed = all(0.9 <= s <= 1.1 and r2 >= 0.99 for _, s, r2 in worst)
    detail = "; ".join(f"layer {i}: slope={s:.4f}, R2={r2:.5f}" for i, s, r2 in worst)
    return CheckResult("linearity", passed, detail)


def check_additivity(cache: nn.PrefixCache) -> CheckResult:
    """Single-layer noise powers at b = 10 sum to the joint power within 10%, from `cache`."""
    result = probes.additivity_probe(cache, [10] * len(cache.model.weighted_indices))
    return CheckResult("additivity", result.relative_gap <= 0.10,
                       f"|sum_singles - joint|/joint = {result.relative_gap:.4f} at b=10")


def _random_profiles(rng, n_layers: int) -> list[probes.LayerProfile]:
    out = []
    for i in range(n_layers):
        out.append(probes.LayerProfile(
            index=i, kind="dense", s=int(rng.integers(10, 100_000)),
            t=float(rng.uniform(0.1, 100.0)), p=float(rng.uniform(0.1, 100.0)),
            noise_scale=1.0, delta_acc=0.5, b_probe=10, weight_range=(-1.0, 1.0)))
    return out


def check_kkt(n_sets: int, seed: int) -> CheckResult:
    """Stationarity of the closed form: ratios p*exp(-a*b)/(t*s) equal within 1e-9 (log)."""
    rng = np.random.default_rng(seed)
    profile_sets = [_random_profiles(rng, int(rng.integers(2, 7))) for _ in range(n_sets)]
    worst = 0.0
    for profs in profile_sets:
        b1 = float(rng.uniform(4, 12))
        a = alloc.allocate_adaptive(profs, b1)
        worst = max(worst, alloc.stationarity_residual(profs, a.b_real))
    return CheckResult("kkt_stationarity", worst <= 1e-9,
                       f"worst log-ratio spread = {worst:.3e} over {n_sets} profile sets")


def check_optimality(grid_step: float, seed: int) -> CheckResult:
    """Closed form within 1e-9 of a grid minimum at equal size (20 3-layer sets, +-3 bits)."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(20):
        profs = _random_profiles(rng, 3)
        b1 = float(rng.uniform(6, 10))
        a = alloc.allocate_adaptive(profs, b1)
        weights = [p.p / p.t for p in profs]
        sizes = [p.s for p in profs]
        total = sum(s * b for s, b in zip(sizes, a.b_real))
        m_opt = alloc.predicted_m_all(a.b_real, weights)
        b2 = np.arange(a.b_real[1] - 3.0, a.b_real[1] + 3.0 + grid_step / 2, grid_step)
        b3 = np.arange(a.b_real[2] - 3.0, a.b_real[2] + 3.0 + grid_step / 2, grid_step)
        g2, g3 = np.meshgrid(b2, b3, indexing="ij")
        g1 = (total - sizes[1] * g2 - sizes[2] * g3) / sizes[0]
        m_grid = (weights[0] * np.exp(-quantize.ALPHA * g1)
                  + weights[1] * np.exp(-quantize.ALPHA * g2)
                  + weights[2] * np.exp(-quantize.ALPHA * g3))
        worst = max(worst, m_opt - float(m_grid.min()))
    return CheckResult("optimality_vs_grid", worst <= 1e-9,
                       f"worst (closed form - grid minimum) = {worst:.3e}")


def check_sqnr_special_case(seed: int) -> CheckResult:
    """With p/t constant the adaptive rule reduces to the SQNR rule, within 1e-12 bits (50 sets)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
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
    return CheckResult("sqnr_special_case", worst <= 1e-12,
                       f"worst per-layer |adaptive - sqnr| = {worst:.3e}")


def check_lemma(trials: int, seed: int) -> CheckResult:
    reports = [probes.lemma_check(d, delta, trials, seed=seed)
               for d in (10, 100) for delta in (0.1, 0.3)]
    passed = all(r.passed for r in reports)
    detail = "; ".join(f"d={r.d}, delta={r.delta}: rate={r.flip_rate:.4f} <= {r.bound}"
                       for r in reports)
    return CheckResult("lemma_bound", passed, detail)


def check_t_ratio_stability(cache: nn.PrefixCache, labels, seed: int) -> CheckResult:
    """t_i/t_j moves by at most 25% between drop targets of 0.25 and 0.5 of baseline.

    The baseline is the accuracy of the cache's logits on `labels`.
    """
    acc_f = nn.accuracy(cache.logits, labels)
    results = []
    for frac in (0.25, 0.5):
        cfg = probes.ProbeConfig(delta_acc=frac * acc_f, seed=seed)
        results.append([r.t for r in probes.estimate_t(cache, labels, cfg)])
    ta, tb = results
    worst = 0.0
    for i in range(len(ta)):
        for j in range(len(ta)):
            if i == j:
                continue
            worst = max(worst, abs((ta[i] / ta[j]) / (tb[i] / tb[j]) - 1.0))
    return CheckResult("t_ratio_stability", worst <= 0.25,
                       f"worst pairwise ratio change = {worst:.4f} "
                       "between targets 0.25 and 0.5 of baseline")


def check_dominance(curves: dict[str, list[CurvePoint]]) -> CheckResult:
    """Adaptive needs no more bits than equal at >= 70% of matched accuracy levels.

    `curves` are a sweep's, with at least the "adaptive" and "equal" methods.
    """
    report = compare(curves, candidate="adaptive")
    entry = next(e for e in report.entries if e.baseline == "equal")
    if entry.disjoint:
        return CheckResult("dominance", False, "no matched accuracy levels")
    return CheckResult("dominance", entry.dominance_fraction >= 0.7,
                       f"adaptive <= equal at {entry.dominance_fraction:.2%} "
                       f"of {len(entry.accuracies)} matched levels")


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


def verify(model, dataset, seed: int = 0, quick: bool = False, anchors=None,
           threads: int = 1) -> list[CheckResult]:
    """Run the battery's 13 checks in order; a check that raises fails under its own name.

    `seed` seeds every check, `quick` runs the battery scaled down (for smoke
    tests), `anchors` are the sweeps' b1 values (None: the default grid) and
    `threads` the forwards' thread count.  The shared data (one prefix cache
    for the three model-bound checks, the pipeline's profiles, a pair of
    adaptive/equal sweeps) is built when a check first needs it; a build
    that raises is retried by the next one.
    """
    pipeline_config = probes.ProbeConfig(seed=seed, threads=threads)
    cache = functools.cache(lambda: nn.prefix_cache(model, dataset.inputs, threads=threads))
    profiles = functools.cache(lambda: run_pipeline(model, dataset, pipeline_config))
    sweeps = functools.cache(lambda: [
        sweep(model, dataset, profiles(), b1_values=anchors, methods=("adaptive", "equal"),
              max_variants=4 if quick else 16, threads=threads) for _ in range(2)])

    def t_ratio_stability():
        try:
            return check_t_ratio_stability(cache(), dataset.labels, seed)
        finally:
            cache.cache_clear()  # freed before the pipeline builds its own

    def sweep_reproducible():
        csv_a, csv_b = (modelio.curve_csv_text(sorted_points(c)) for c in sweeps())
        return CheckResult("sweep_reproducible", csv_a == csv_b,
                           "identical curve CSV across two sweeps"
                           if csv_a == csv_b else "curve CSV differs between sweeps")

    def pipeline_deterministic():
        same = run_pipeline(model, dataset, pipeline_config) == profiles()
        return CheckResult("pipeline_deterministic", same,
                           "identical profiles across two pipeline runs"
                           if same else "profiles differ between runs")

    checks = [
        ("quantizer_law", lambda: check_quantizer_law(10_000 if quick else 100_000, seed)),
        ("linearity", lambda: check_linearity(cache(), seed)),
        ("additivity", lambda: check_additivity(cache())),
        ("kkt_stationarity", lambda: check_kkt(20 if quick else 100, seed)),
        ("optimality_vs_grid", lambda: check_optimality(0.05 if quick else 0.01, seed)),
        ("sqnr_special_case", lambda: check_sqnr_special_case(seed)),
        ("lemma_bound", lambda: check_lemma(2000 if quick else 10_000, seed)),
        ("t_ratio_stability", t_ratio_stability),
        ("dominance", lambda: check_dominance(sweeps()[0])),
        ("equal_envelope", lambda: check_equal_envelope(sweeps()[0]["equal"])),
        ("sweep_reproducible", sweep_reproducible),
        ("pipeline_deterministic", pipeline_deterministic),
        ("roundtrips", lambda: check_roundtrips(model, dataset, profiles(), tmp_dir)),
    ]
    results = []
    with tempfile.TemporaryDirectory() as tmp_dir:
        for name, check in checks:
            try:
                results.append(check())
            except Exception as e:  # a crash is a failed check, not a crashed battery
                results.append(CheckResult(name, False, f"raised {type(e).__name__}: {e}"))
    return results
