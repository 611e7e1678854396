"""Calibration probes: margins, per-layer robustness t and noise coefficient p.

The two calibration quantities drive the allocator:

* t_i — robustness of layer i: a fixed random direction is added to the
  layer's weights and geometrically bisected in scale until the accuracy
  drop hits a target; t_i is the resulting mean feature-noise power divided
  by the mean decision margin power (z1 - z2)^2 / 2.
* p_i — noise transfer coefficient: quantize layer i alone at a probe
  bit-width b and divide the measured mean feature-noise power by
  exp(-ln4 * b).

Both are deterministic under a fixed seed; the per-layer noise direction is
drawn from a generator seeded with (seed XOR layer_index), so layers can be
probed concurrently without sharing RNG state.

Every probe changes one layer i at a time, so layers before i compute what
the unmodified model computes.  The probes therefore share an
`nn.PrefixCache`: one baseline forward gives the baseline logits (accuracy,
margins, the baseline side of every feature-noise difference) and each
probed copy runs only from layer i on.  Each probe takes the cache as an
optional `cache=` argument and builds its own when none is given.

Also here: linearity and additivity diagnostics for the small-noise
assumptions behind p and t, and a Monte Carlo check of the random-versus-
adversarial noise bound used to justify the margin normalization.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import nn
from .nn import Dataset, Model
from .quantize import ALPHA, check_bits, quantize_model, quantize_single_layer


class CalibrationError(RuntimeError):
    """A probe failed; .partial holds per-layer results gathered so far."""

    def __init__(self, message, partial=()):
        super().__init__(message)
        self.partial = tuple(partial)


@dataclass(frozen=True)
class ProbeConfig:
    """Settings for the t-probe binary search and the p-probe bit-width."""

    delta_acc: float | None = None  # absolute accuracy drop target; None = half of baseline
    k_min: float = 1e-5
    k_max: float = 1e3
    acc_tolerance: float = 0.005
    max_iters: int = 40
    seed: int = 0
    b_probe: int = 10
    last_n: int | None = None  # probe only the last n weighted layers, copy t backward
    threads: int = 1

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.acc_tolerance >= 0:
            raise ValueError(f"acc_tolerance must be >= 0, got {self.acc_tolerance}")


@dataclass(frozen=True)
class MarginStats:
    """Mean and histogram of per-sample decision margins (z1 - z2)^2 / 2."""

    mean_r_star: float
    counts: tuple[int, ...]
    bin_edges: tuple[float, ...]
    n: int


@dataclass(frozen=True)
class TProbe:
    index: int
    t: float
    noise_scale: float
    noise_power: float
    accuracy_drop: float
    iterations: int
    converged: bool
    copied: bool = False


@dataclass(frozen=True)
class PProbe:
    index: int
    p: float
    noise_power: float
    b_probe: int
    degenerate: bool = False


@dataclass(frozen=True)
class LayerProfile:
    """Merged calibration record for one weighted layer."""

    index: int
    kind: str
    s: int
    t: float
    p: float
    noise_scale: float
    delta_acc: float
    b_probe: int
    weight_range: tuple[float, float]
    copied_t: bool = False
    degenerate: bool = False


def _cache_for(model: Model, dataset: Dataset, threads: int,
               cache: nn.PrefixCache | None) -> nn.PrefixCache:
    """The caller's cache, checked against the probe's arguments, or a new one."""
    if cache is None:
        return nn.prefix_cache(model, dataset.inputs, threads=threads)
    if cache.model is not model or cache.inputs is not dataset.inputs or cache.threads != threads:
        raise ValueError("prefix cache was built for a different model, dataset or thread count")
    return cache


def margin_stats(model: Model, dataset: Dataset, threads: int = 1, *,
                 cache: nn.PrefixCache | None = None) -> MarginStats:
    """Per-sample margins (z1 - z2)^2 / 2 over the dataset, in a 50-bin histogram.

    One forward, or none when a prefix cache supplies the baseline logits.
    """
    if model.d < 2:
        raise ValueError("margins need at least two classes")
    if cache is None:
        z = nn.forward_batch(model, dataset.inputs, threads=threads)
    else:
        z = _cache_for(model, dataset, threads, cache).logits
    top2 = np.partition(z, z.shape[1] - 2, axis=1)[:, -2:]
    margins = (top2[:, 1] - top2[:, 0]) ** 2 / 2.0
    counts, edges = np.histogram(margins, bins=50)
    return MarginStats(float(margins.mean()), tuple(int(c) for c in counts),
                       tuple(float(e) for e in edges), len(dataset))


# Salt for probe noise streams.  Layers own independent generators keyed by
# seed XOR layer_index; the salt keeps a probe stream from ever coinciding
# with a model-generation stream seeded with the same small integer (a
# colliding stream would draw noise proportional to the weights themselves,
# which a ReLU network simply rescales).
_PROBE_SALT = 0x9E3779B97F4A7C15


def _layer_rng(seed: int, layer_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((_PROBE_SALT, seed ^ layer_index)))


def _probe_direction(model: Model, layer_index: int, seed: int) -> np.ndarray:
    """The fixed uniform(-0.5, 0.5) noise direction the probes scale onto one layer's weights."""
    shape = model.layers[layer_index].weights.shape
    return _layer_rng(seed, layer_index).uniform(-0.5, 0.5, size=shape)


def probed_layers(model: Model, last_n: int | None = None) -> tuple[int, ...]:
    """The weighted layers estimate_t probes: all of them, or the last last_n."""
    weighted = model.weighted_indices
    if last_n is None:
        return weighted
    if not 1 <= last_n <= len(weighted):
        raise ValueError(f"last_n must lie in 1..{len(weighted)} (the weighted layer count), "
                         f"got {last_n}")
    return weighted[-last_n:]


def estimate_t(model: Model, dataset: Dataset, config: ProbeConfig = ProbeConfig(),
               margins: MarginStats | None = None, *,
               cache: nn.PrefixCache | None = None) -> list[TProbe]:
    """Robustness parameter t for each weighted layer (binary search on noise scale).

    For each probed layer a fixed uniform(-0.5, 0.5) direction is scaled by k,
    with k bisected geometrically in [k_min, k_max] until the accuracy drop is
    within acc_tolerance of the target.  A layer that cannot be brought into
    tolerance aborts the run with CalibrationError carrying partial results.

    Cost: one baseline forward to build the prefix cache (none when `cache`
    is given), then one forward of layers[i:] per bisection iteration on
    layer i.  The accepted iterate's logits give its feature-noise power, so
    that costs no further forward.
    """
    probe_set = probed_layers(model, config.last_n)
    cache = _cache_for(model, dataset, config.threads, cache)
    acc_f = nn.accuracy(cache.logits, dataset.labels)
    target = config.delta_acc if config.delta_acc is not None else 0.5 * acc_f
    if not (0 < target < acc_f):
        raise ValueError(f"delta_acc must lie in (0, baseline accuracy={acc_f}), got {target}")
    if margins is None:
        margins = margin_stats(model, dataset, threads=config.threads, cache=cache)
    if margins.mean_r_star <= 0:
        raise ValueError("mean margin is zero; cannot normalize t")

    results: list[TProbe] = []
    for i in probe_set:
        direction = _probe_direction(model, i, config.seed)
        k_lo, k_hi = config.k_min, config.k_max
        found = None
        iters = 0
        drop = math.nan
        while iters < config.max_iters:
            iters += 1
            k = math.sqrt(k_lo * k_hi)
            z = nn.forward_from(cache, nn.perturb_layer(model, i, k * direction), i)
            drop = acc_f - nn.accuracy(z, dataset.labels)
            if abs(drop - target) <= config.acc_tolerance:
                found = (k, z)
                break
            if drop < target:
                k_lo = k
            else:
                k_hi = k
            if k_hi / k_lo < 1 + 1e-12:  # interval collapsed without hitting tolerance
                break
        if found is None:
            raise CalibrationError(
                f"layer {i}: accuracy drop {drop:.4f} never reached target {target:.4f} "
                f"+/- {config.acc_tolerance} within bounds [{config.k_min}, {config.k_max}] "
                f"({iters} iterations)", partial=results)
        k, z = found
        power = nn.mean_power(cache.logits - z)
        results.append(TProbe(i, power / margins.mean_r_star, k, power, drop, iters, True))

    if config.last_n is not None and probe_set:
        earliest = results[0]
        pre = [TProbe(i, earliest.t, math.nan, math.nan, math.nan, 0, True, copied=True)
               for i in model.weighted_indices if i not in probe_set]
        results = pre + results
    return results


def estimate_p(model: Model, dataset: Dataset, b_probe: int = 10, threads: int = 1, *,
               cache: nn.PrefixCache | None = None) -> list[PProbe]:
    """Noise coefficient p for each weighted layer via single-layer quantization.

    Cost: one baseline forward to build the prefix cache (none when `cache`
    is given), then one forward of layers[i:] per weighted layer i.
    """
    b_probe = check_bits(b_probe, "b_probe")
    cache = _cache_for(model, dataset, threads, cache)
    scale = math.exp(-ALPHA * b_probe)
    results = []
    for i in model.weighted_indices:
        quantized = quantize_single_layer(model, i, b_probe)
        power = nn.mean_power(cache.logits - nn.forward_from(cache, quantized, i))
        if power == 0.0:
            warnings.warn(f"layer {i}: zero noise response at b={b_probe}; "
                          "flagged degenerate and excluded from allocation")
            results.append(PProbe(i, 0.0, 0.0, b_probe, degenerate=True))
        else:
            results.append(PProbe(i, power / scale, power, b_probe))
    return results


def measurement(profiles, noise_powers) -> tuple[list[float], float]:
    """Accuracy measurements m_i = power_i / t_i and their sum m_all."""
    m = []
    for prof, power in zip(profiles, noise_powers, strict=True):
        t = float(prof.t) if hasattr(prof, "t") else float(prof)
        if t <= 0:
            raise ValueError("t must be positive")
        m.append(float(power) / t)
    return m, sum(m)


def default_scale_ladder(model: Model, layer_index: int) -> list[float]:
    """Six noise scales, geometric in the layer's weight spread.

    A scale k adds uniform(-k/2, k/2) noise; k = rel * std(W) * sqrt(12) makes
    the noise std equal to rel times the weight std, for rel = 1e-3 * 4**j.
    """
    sigma = float(np.std(model.layers[layer_index].weights))
    base = sigma * math.sqrt(12.0)
    return [1e-3 * 4.0 ** j * base for j in range(6)]


def linearity_probe(model: Model, dataset: Dataset, layer_index: int, scales,
                    seed: int = 0, threads: int = 1, *,
                    cache: nn.PrefixCache | None = None) -> list[tuple[float, float]]:
    """(weight-noise power, feature-noise power) for one direction at several scales."""
    scales = [float(s) for s in scales]
    if len(scales) < 5:
        raise ValueError("need a ladder of at least 5 scales")
    cache = _cache_for(model, dataset, threads, cache)
    direction = _probe_direction(model, layer_index, seed)
    dir_power = float(np.sum(direction * direction))
    points = []
    for k in sorted(scales):
        perturbed = nn.perturb_layer(model, layer_index, k * direction)
        rz2 = nn.mean_power(cache.logits - nn.forward_from(cache, perturbed, layer_index))
        points.append((k * k * dir_power, rz2))
    return points


def loglog_fit(points, use_first: int | None = None) -> tuple[float, float]:
    """Least-squares slope and R^2 of log(y) against log(x)."""
    pts = list(points)[:use_first] if use_first else list(points)
    if len(pts) < 2:
        raise ValueError("need at least two points to fit")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    ss_tot = float(np.sum(total * total))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid * resid)) / ss_tot
    return float(slope), r2


@dataclass(frozen=True)
class AdditivityResult:
    singles: tuple[float, ...]  # mean feature-noise power with only layer i quantized
    sum_singles: float
    joint: float  # all layers quantized at once

    @property
    def relative_gap(self) -> float:
        return abs(self.sum_singles - self.joint) / self.joint if self.joint else 0.0


def additivity_probe(model: Model, dataset: Dataset, allocation, threads: int = 1, *,
                     cache: nn.PrefixCache | None = None) -> AdditivityResult:
    """Compare per-layer quantization noise powers against joint quantization."""
    bits = list(getattr(allocation, "b_int", allocation))
    weighted = model.weighted_indices
    cache = _cache_for(model, dataset, threads, cache)
    singles = []
    for i, b in zip(weighted, bits, strict=True):
        q = quantize_single_layer(model, i, int(b))
        singles.append(nn.mean_power(cache.logits - nn.forward_from(cache, q, i)))
    joint_model = quantize_model(model, bits)
    joint = nn.mean_power(cache.logits - nn.forward_batch(joint_model, dataset.inputs,
                                                          threads=threads))
    return AdditivityResult(tuple(singles), float(sum(singles)), joint)


def gamma(delta: float) -> float:
    """gamma(delta) = 5 + 4 ln(1/delta); decreasing, gamma(1) = 5."""
    if not (0 < delta <= 1):
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    return 5.0 + 4.0 * math.log(1.0 / delta)


def theta(delta_acc: float, acc_baseline: float, d: float) -> float:
    """Noise-budget factor d / (gamma(delta_acc / (2 acc)) * ln d).

    Diagnostic only: relates an accuracy-drop budget to a feature-noise
    budget via the random-noise bound; never asserted against measurements.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if not (0 < delta_acc < 2 * acc_baseline):
        raise ValueError("need 0 < delta_acc < 2 * baseline accuracy")
    return d / (gamma(delta_acc / (2.0 * acc_baseline)) * math.log(d))


@dataclass(frozen=True)
class LemmaReport:
    d: int
    delta: float
    trials: int
    flip_rate: float
    bound: float  # 2 * delta

    @property
    def passed(self) -> bool:
        return self.flip_rate <= self.bound


def lemma_check(d: int, delta: float, trials: int, seed: int = 0) -> LemmaReport:
    """Monte Carlo check of the random-noise misclassification bound.

    Draws standard-normal feature vectors and isotropic noise scaled so that
    (ln d / d) * gamma(delta) * |r|^2 equals the margin power (z1 - z2)^2 / 2;
    at that noise level the argmax should flip with probability at most
    2*delta.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((trials, d))
    top2 = np.partition(z, d - 2, axis=1)[:, -2:]
    margin_power = (top2[:, 1] - top2[:, 0]) ** 2 / 2.0
    target_norm2 = margin_power * d / (math.log(d) * gamma(delta))
    noise = rng.standard_normal((trials, d))
    noise *= (np.sqrt(target_norm2) / np.linalg.norm(noise, axis=1))[:, None]
    flips = np.argmax(z + noise, axis=1) != np.argmax(z, axis=1)
    return LemmaReport(d, delta, trials, float(np.mean(flips)), 2.0 * delta)


def rank_diagnostic(model: Model, dataset: Dataset, layer_index: int,
                    scale: float | None = None, seed: int = 0, threads: int = 1, *,
                    cache: nn.PrefixCache | None = None) -> int:
    """Numerical rank of the per-sample feature-noise matrix for one layer.

    Noise injected into earlier layers tends to reach the feature vector with
    lower rank.  Model-dependent; reported but never asserted.
    """
    if scale is None:
        scale = default_scale_ladder(model, layer_index)[1]
    direction = _probe_direction(model, layer_index, seed)
    perturbed = nn.perturb_layer(model, layer_index, scale * direction)
    cache = _cache_for(model, dataset, threads, cache)
    diffs = cache.logits - nn.forward_from(cache, perturbed, layer_index)
    return int(np.linalg.matrix_rank(diffs))


# what build_profiles records for a side that was not measured
_NO_T = TProbe(-1, math.nan, math.nan, math.nan, math.nan, 0, False)
_NO_P = PProbe(-1, math.nan, math.nan, 0)


def build_profiles(model: Model, t_probes, p_probes, delta_acc: float) -> list[LayerProfile]:
    """Merge t and p probe results into per-layer profiles.

    Either side may be None when it was not measured: without t probes, t and
    noise_scale are NaN and copied_t is False; without p probes, p is NaN,
    b_probe is 0 and degenerate is False.  A side that is given must cover
    every weighted layer.
    """
    weighted = model.weighted_indices
    t_by_index = (dict.fromkeys(weighted, _NO_T) if t_probes is None
                  else {r.index: r for r in t_probes})
    p_by_index = (dict.fromkeys(weighted, _NO_P) if p_probes is None
                  else {r.index: r for r in p_probes})
    profiles = []
    for i in weighted:
        if i not in t_by_index or i not in p_by_index:
            raise ValueError(f"missing probe results for layer {i}")
        tr, pr = t_by_index[i], p_by_index[i]
        w = model.layers[i].weights
        profiles.append(LayerProfile(
            index=i, kind=model.layers[i].kind, s=model.layers[i].param_count,
            t=tr.t, p=pr.p, noise_scale=tr.noise_scale, delta_acc=delta_acc,
            b_probe=pr.b_probe, weight_range=(float(w.min()), float(w.max())),
            copied_t=tr.copied, degenerate=pr.degenerate))
    return profiles
