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
probed copy runs only from layer i on.  Every probe takes the cache as its
first argument and reads the model, the inputs and the thread count from it.
Every function that takes a cache reads it and leaves it as it was, and
`estimate_t` and `estimate_p` probe the layers they are given.  The one
calibration front, `calibrate`, takes the model and the dataset instead: it
chooses the layers the t search probes (`ProbeConfig.last_n`) and copies t
to the layers below them, builds its own cache, probes the layers last
first, and drops each layer's input once that layer's probes are done.

The t search's cost is described once, in `estimate_t`'s docstring.

Also here: linearity and additivity diagnostics for the small-noise
assumptions behind p and t, and a Monte Carlo check of the random-versus-
adversarial noise bound used to justify the margin normalization.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import nn
from .nn import Model
from .quantize import ALPHA, check_bits, quantize_model, quantize_single_layer


class CalibrationError(RuntimeError):
    """A probe failed; the message names the layer and what it never reached."""


# the p probes' default bit-width: `estimate_p`'s, `run_pipeline`'s and `qalloc estimate-p`'s
B_PROBE = 10


@dataclass(frozen=True)
class ProbeConfig:
    """Settings for the t-probe binary search.

    `estimate_t` reads the search's fields (`delta_acc`, `acc_tolerance`,
    `max_iters`, `seed`).  Each other field has one reader: `last_n`,
    `calibrate`; `threads`, `harness.run_pipeline`, which passes it to
    `calibrate` (the probes run at their cache's thread count).
    """

    delta_acc: float | None = None  # absolute accuracy drop target; None = half of baseline
    acc_tolerance: float = 0.005
    max_iters: int = 40
    seed: int = 0
    last_n: int | None = None  # calibrate: t search on the last n weighted layers, copy t below
    threads: int = 1

    def __post_init__(self):
        if self.delta_acc is not None and not self.delta_acc > 0:
            raise ValueError(f"delta_acc must be > 0, got {self.delta_acc}")
        if self.delta_acc == math.inf:
            raise ValueError("delta_acc must be > 0 and finite, got inf")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.acc_tolerance >= 0:
            raise ValueError(f"acc_tolerance must be >= 0, got {self.acc_tolerance}")
        if self.acc_tolerance == math.inf:  # every drop would be within it
            raise ValueError("acc_tolerance must be >= 0 and finite, got inf")

    def target_drop(self, baseline: float) -> float:
        """The accuracy-drop target: delta_acc, or half the baseline accuracy when None."""
        return self.delta_acc if self.delta_acc is not None else 0.5 * baseline


@dataclass(frozen=True)
class MarginStats:
    """Mean and histogram of per-sample decision margins (z1 - z2)^2 / 2."""

    mean_r_star: float
    counts: tuple[int, ...]
    bin_edges: tuple[float, ...]
    n: int


@dataclass(frozen=True)
class TProbe:
    """One layer's t.  `rows` (forwarded from the layer on) and `early` (iterates stopped
    before their last row) are its search's work, 0 on a copied t; equality ignores them,
    since the work is the measurement's cost, not part of it."""

    index: int
    t: float
    noise_scale: float
    noise_power: float
    accuracy_drop: float
    iterations: int
    converged: bool
    copied: bool = False
    rows: int = field(default=0, compare=False)
    early: int = field(default=0, compare=False)


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


def margin_stats(logits: np.ndarray) -> MarginStats:
    """Per-sample margins (z1 - z2)^2 / 2 of an (n, d) logit batch, in a 50-bin histogram."""
    z = np.asarray(logits)
    if z.shape[1] < 2:
        raise ValueError("margins need at least two classes")
    if len(z) == 0:
        raise ValueError("margins need at least one sample")
    margins = _margin_power(z)
    counts, edges = np.histogram(margins, bins=50)
    return MarginStats(float(margins.mean()), tuple(int(c) for c in counts),
                       tuple(float(e) for e in edges), len(z))


def _margin_power(z: np.ndarray) -> np.ndarray:
    """(z1 - z2)^2 / 2 per row of `z`, z1 and z2 its two largest entries."""
    top2 = np.partition(z, z.shape[1] - 2, axis=1)[:, -2:]
    return (top2[:, 1] - top2[:, 0]) ** 2 / 2.0


# Salt for probe noise streams.  Layers own independent generators keyed by
# seed XOR layer_index; the salt keeps a probe stream from ever coinciding
# with a model-generation stream seeded with the same small integer (a
# colliding stream would draw noise proportional to the weights themselves,
# which a ReLU network simply rescales).
_PROBE_SALT = 0x9E3779B97F4A7C15

# the t search brackets the noise scale k in [_K_MIN, _K_MAX]
_K_MIN = 1e-5
_K_MAX = 1e3


def _layer_rng(seed: int, layer_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((_PROBE_SALT, seed ^ layer_index)))


def _probe_direction(model: Model, layer_index: int, seed: int) -> np.ndarray:
    """The fixed uniform(-0.5, 0.5) noise direction the probes scale onto one layer's weights."""
    shape = model.layers[layer_index].weights.shape
    return _layer_rng(seed, layer_index).uniform(-0.5, 0.5, size=shape)


def probed_layers(model: Model, last_n: int | None) -> tuple[int, ...]:
    """The weighted layers `calibrate`'s t search probes: all of them, or the last last_n."""
    weighted = model.weighted_indices
    if last_n is None:
        return weighted
    if not 1 <= last_n <= len(weighted):
        raise ValueError(f"last_n must lie in 1..{len(weighted)} (the weighted layer count), "
                         f"got {last_n}")
    return weighted[-last_n:]


@dataclass(frozen=True)
class _Rule:
    """The bisection's rule, on the accuracy drop of an iterate with c of n rows correct."""

    n: int
    acc_f: float
    target: float
    tol: float

    def drop(self, correct: int) -> float:
        return self.acc_f - correct / self.n

    def step(self, drop: float) -> int:
        """0 accepts k, +1 raises k_lo (drop too small), -1 lowers k_hi (too large)."""
        if abs(drop - self.target) <= self.tol:
            return 0
        return 1 if drop < self.target else -1

    def certain(self, right: int, wrong: int) -> int:
        """+1 or -1 when every count of correct rows in [right, n - wrong] takes that step, else 0.

        `right` rows are known correct and `wrong` known wrong.  The drop
        falls as the count rises (in floating point too: each operation is
        monotone), and the steps come in the order -1, 0, +1 as it falls;
        so the rule at the two extreme counts settles every count between.
        """
        if self.step(self.drop(right)) > 0:
            return 1
        if self.step(self.drop(self.n - wrong)) < 0:
            return -1
        return 0


def _signed_margin(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per row, the label's logit minus the largest other one; positive only on a correct row."""
    rows = np.arange(len(logits))
    others = logits.copy()
    others[rows, labels] = -np.inf
    return logits[rows, labels] - others.max(axis=1)


def _settled(margin: np.ndarray, slack: np.ndarray) -> tuple[int, int]:
    """(right, wrong): how many rows' provisional signed margins settle their final class.

    Each logit lies within `slack` of its final value, so a margin above
    2 * slack stays positive and one below -2 * slack negative; rounding is
    monotone and 2 * slack exact, so the computed margin settles no row the
    exact one does not.
    """
    return int(np.count_nonzero(margin > 2 * slack)), int(np.count_nonzero(margin < -2 * slack))


def _bisect(side_at, max_iters: int) -> tuple[float, int, bool]:
    """Geometric bisection of the noise scale k in [_K_MIN, _K_MAX]: (k, iterations, accepted).

    `side_at(k)` returns 0 to accept k, +1 to raise k_lo (k is too small) or
    -1 to lower k_hi.  The search ends at the iteration cap, or once the
    interval collapses (k_hi / k_lo < 1 + 1e-12); an unaccepted search
    returns its last k.
    """
    k_lo, k_hi = _K_MIN, _K_MAX
    for iters in range(1, max_iters + 1):
        k = math.sqrt(k_lo * k_hi)
        side = side_at(k)
        if side == 0:
            return k, iters, True
        k_lo, k_hi = (k, k_hi) if side > 0 else (k_lo, k)
        if k_hi / k_lo < 1 + 1e-12:
            break
    return k, iters, False


class _LayerSearch:
    """The t search's side oracle for one layer: `_bisect`'s `side_at`, counting its work.

    An iterate at scale k perturbs the layer by k * direction and only needs
    the side of target +/- tolerance its accuracy drop lies on.  So it hands
    `nn.forward_stages` a row order; where that runs its rows in stages, the
    iterate counts the rows whose class its signed margins settle
    (`_settled`) and stops once they make the side certain.  An iterate that
    runs every row leaves its exact logits in `z`.

    Row order: every earlier iterate lies at or below the bracket's k_lo or
    at or above its k_hi, and the next scale k lies between them.  So a
    row's signed margin at k is predicted by interpolating, in log k,
    between its margin at the largest scale it was seen at below k and the
    smallest above (the baseline counts as scale _K_MIN; a row seen only
    below keeps that margin).  An iterate predicted to raise k_lo visits the
    rows predicted most correct first, since its certainty comes from
    correct rows; one predicted to lower k_hi visits the least correct
    first.  Until an iterate has stopped early, which is what records, rows
    go in order.  The order changes how many rows an iterate runs, never its
    side.  It counts its work in `rows` and `early`, as a `TProbe` reports it.
    """

    def __init__(self, cache: nn.PrefixCache, labels: np.ndarray, i: int, direction: np.ndarray,
                 rule: _Rule):
        self.cache, self.labels, self.i, self.direction = cache, labels, i, direction
        self.rule, self.rows, self.early, self.z = rule, 0, 0, None
        # per row, (scale, margin) seen nearest above and nearest below; made by the first
        # iterate that stops early
        self.seen = None

    def __call__(self, k: float) -> int:
        rule, labels = self.rule, self.labels
        model = nn.perturb_layer(self.cache.model, self.i, k * self.direction)
        right = wrong = 0
        seen, margins = [], []
        for rows, z, slack in nn.forward_stages(self.cache, model, self.i, self._order(k)):
            if slack is None:
                self.rows += len(z)
                self.z = z
                return rule.step(rule.acc_f - nn.accuracy(z, labels))
            margins.append(_signed_margin(z, labels[rows]))
            hits, misses = _settled(margins[-1], slack)
            right, wrong = right + hits, wrong + misses
            seen.append(rows)
            del z, slack  # before the next stage runs
            side = rule.certain(right, wrong)
            if side:
                rows = np.concatenate(seen)
                self._record(k, side, rows, np.concatenate(margins))
                self.early += 1
                self.rows += len(rows)
                return side
        raise AssertionError("forward_stages ended without its exact logits")

    def _record(self, k: float, side: int, rows: np.ndarray, margins: np.ndarray):
        """An iterate at scale k took `side`, with these signed margins on these rows."""
        if self.seen is None:
            n = self.rule.n
            # scales in float64, where the bisection's scales stay apart until it collapses
            self.seen = ((np.full(n, np.inf), np.zeros(n)),
                         (np.full(n, _K_MIN), _signed_margin(self.cache.logits, self.labels)))
        # k is the new k_hi, below every scale seen above, or the new k_lo, above every one below
        scales, seen_margins = self.seen[side > 0]
        scales[rows], seen_margins[rows] = k, margins

    def _order(self, k: float):
        """The row order for an iterate at scale k; row order before any record."""
        if self.seen is None:
            return range(self.rule.n)  # a permutation that allocates no array
        (hi_k, hi_m), (lo_k, lo_m) = self.seen
        above = np.isfinite(hi_k)
        log_lo = np.log(lo_k[above])
        at = (math.log(k) - log_lo) / (np.log(hi_k[above]) - log_lo)
        predicted = lo_m.copy()
        predicted[above] += (hi_m[above] - predicted[above]) * at
        if self.rule.drop(int(np.count_nonzero(predicted > 0))) < self.rule.target:
            return np.argsort(-predicted, kind="stable")  # expected to raise k_lo
        return np.argsort(predicted, kind="stable")


def _t_rule(cache: nn.PrefixCache, labels: np.ndarray, config: ProbeConfig) -> tuple[_Rule, float]:
    """The t search's rule on the cache's baseline, and its mean margin power.

    ValueError for a target outside (0, baseline accuracy), a zero mean
    margin, and a tolerance band that holds every drop or none the rows can
    reach (`estimate_t`).
    """
    acc_f = nn.accuracy(cache.logits, labels)
    target = config.target_drop(acc_f)
    if not (0 < target < acc_f):
        raise ValueError(f"delta_acc must lie in (0, baseline accuracy={acc_f}), got {target}")
    margins = margin_stats(cache.logits)
    if margins.mean_r_star <= 0:
        raise ValueError("mean margin is zero; cannot normalize t")
    rule = _Rule(len(labels), acc_f, target, config.acc_tolerance)
    if rule.step(rule.drop(0)) == rule.step(rule.drop(rule.n)) == 0:  # drops are monotone
        raise ValueError(f"acc_tolerance {config.acc_tolerance} accepts every accuracy drop "
                         f"around target {target} (baseline accuracy {acc_f})")
    near = min(max(rule.n * (acc_f - target), 0), rule.n)  # the count whose drop is the target
    if all(rule.step(rule.drop(c)) for c in (math.floor(near), math.ceil(near))):
        raise ValueError(f"acc_tolerance {config.acc_tolerance} holds no reachable accuracy drop "
                         f"around target {target:.4f}: the drop moves in steps of 1/{rule.n}")
    return rule, margins.mean_r_star


def _copy_t_backward(model: Model, t_probes: list[TProbe]) -> list[TProbe]:
    """`t_probes`, after a copy of the lowest one's t for each weighted layer below it."""
    if not t_probes:
        return t_probes
    low = t_probes[0]
    return [TProbe(i, low.t, math.nan, math.nan, math.nan, 0, True, copied=True)
            for i in model.weighted_indices if i < low.index] + t_probes


def estimate_t(cache: nn.PrefixCache, labels, config: ProbeConfig = ProbeConfig(),
               layers=None) -> list[TProbe]:
    """Robustness parameter t for weighted layers of `cache.model` (bisection on noise scale).

    For each searched layer a fixed uniform(-0.5, 0.5) direction is scaled by
    k, with k bisected geometrically in [_K_MIN, _K_MAX] until the accuracy
    drop on `labels` is within acc_tolerance of `config.target_drop`:
    `_bisect` over the layer's side oracle, a `_LayerSearch`.  The searched
    layers are the weighted layers in `layers`, in the order given, by
    default every weighted layer; `config.last_n` is `calibrate`'s, never read
    here.  The first layer that cannot be brought into tolerance raises
    CalibrationError.  `cache` is read, never changed.  Each layer's TProbe
    carries its search's work: its iterations, the rows they forwarded and
    how many stopped early.

    Cost: at most one forward of layers[i:] per bisection iteration on layer i,
    from the cache; the baseline logits and margins come from the cache too.
    An iterate only needs to know which side of target +/- tolerance its drop
    lies on, so it runs its rows in stages (`nn.forward_stages`), 128 rows at a
    time in the order `_LayerSearch` predicts from the layer's earlier
    iterates, and stops once the rows its signed margins settle make that side
    certain: on the default fixture that takes 1010 of 2000 rows, so it stops
    after 1024 at the earliest, and at one thread it forwards 70-73% of the
    time-weighted rows (`gen_dataset` seeds 191, 192 and 195, probe seed 0).
    The k sequence, the iteration count and every result
    are those of a search that forwards every row.  The accepted iterate runs
    to the end, so its exact logits give its drop and feature-noise power at
    no further forward; a failed search runs one more, at its last k, for the
    exact drop its message prints.  On a cache whose forwards run in
    evaluation chunks (more than one thread on more than 512 rows), every
    iterate runs whole: `nn.forward_stages` decides.  An acc_tolerance whose
    band around the target holds every possible drop, so that any k would
    pass, is a ValueError before any iterate, and so is one whose band holds
    none: the drop moves in steps of 1/n, and since it falls as the count of
    correct rows rises, the two counts next to n * (baseline - target) are
    the only ones to check.  That covers an acc_tolerance of 0, the target
    itself, at a count that is not a whole number.  A search whose band some
    count reaches runs; it fails at the cap, or when the interval collapses
    because no k gives such a count (rows that flip together can skip it).
    """
    model = cache.model
    labels = np.asarray(labels)
    rule, mean_r_star = _t_rule(cache, labels, config)
    results = []
    for i in model.weighted_indices if layers is None else layers:
        search = _LayerSearch(cache, labels, i, _probe_direction(model, i, config.seed), rule)
        k, iters, accepted = _bisect(search, config.max_iters)
        if not accepted:  # its last iterate may have stopped early
            z = nn.forward_from(cache, nn.perturb_layer(model, i, k * search.direction), i)
            raise CalibrationError(
                f"layer {i}: accuracy drop {rule.acc_f - nn.accuracy(z, labels):.4f} never "
                f"reached target {rule.target:.4f} +/- {rule.tol} within bounds "
                f"[{_K_MIN}, {_K_MAX}] ({iters} iterations)")
        power = nn.mean_power(cache.logits - search.z)
        results.append(TProbe(i, power / mean_r_star, k, power,
                              rule.acc_f - nn.accuracy(search.z, labels), iters, True,
                              rows=search.rows, early=search.early))
    return results


def estimate_p(cache: nn.PrefixCache, b_probe: int = B_PROBE, layers=None) -> list[PProbe]:
    """Noise coefficient p for each weighted layer of `cache.model` via single-layer quantization.

    Given `layers`, only the weighted layers listed there, in the order given.
    `cache` is read, never changed.

    Cost: one forward of layers[i:] per weighted layer i, from the cache.
    """
    b_probe = check_bits(b_probe, "b_probe")
    model = cache.model
    scale = math.exp(-ALPHA * b_probe)
    results = []
    for i in model.weighted_indices if layers is None else layers:
        quantized = quantize_single_layer(model, i, b_probe)
        power = nn.mean_power(cache.logits - nn.forward_from(cache, quantized, i))
        if power == 0.0:
            warnings.warn(f"layer {i}: zero noise response at b={b_probe}; "
                          "flagged degenerate and excluded from allocation")
            results.append(PProbe(i, 0.0, 0.0, b_probe, degenerate=True))
        else:
            results.append(PProbe(i, power / scale, power, b_probe))
    return results


def calibrate(model: Model, dataset: nn.Dataset, config: ProbeConfig | None = None,
              b_probe: int | None = None, threads: int = 1):
    """The one calibration front: (t probes, p probes, meta) of `model` on `dataset`.

    The t probes run when `config` is given, and the p probes when `b_probe`
    is; each list is None when its probe does not run.  The t search runs on
    `probed_layers(model, config.last_n)`, and each weighted layer below the
    lowest of them gets a copy of its t (`TProbe.copied`); this is the one
    code that applies `last_n`.  meta holds the t search's baseline_accuracy,
    mean_r_star and delta_acc (None without `config`).  A `last_n` out of
    range is a ValueError before any forward, and a target or tolerance
    `estimate_t` rejects is one before any probe.

    It builds its own prefix cache at `threads` and consumes it.  The weighted
    layers run last first: for each, its p probe and then its t search, each
    one call of `estimate_p` or `estimate_t` on that layer alone, and then its
    input leaves the cache (`nn.PrefixCache.drop`).  A probe of layer i reads
    only the cache's input of layer i and its logits, so every result is what
    `estimate_t` and `estimate_p` give on a cache that keeps every input,
    while the cache holds only the logits and the inputs of the layers still
    to come: the first layer's iterates, the costliest, run next to the logits
    alone.  A failed t search stops no layer: the layers below it are still
    searched, and the lowest failing layer's CalibrationError is raised once
    they have.  The results come in layer order; degenerate-layer warnings
    come last layer first.
    """
    searched = () if config is None else probed_layers(model, config.last_n)
    cache = nn.prefix_cache(model, dataset.inputs, threads=threads)
    labels, meta = dataset.labels, None
    if config is not None:
        rule, mean_r_star = _t_rule(cache, labels, config)
        meta = {"baseline_accuracy": rule.acc_f, "mean_r_star": mean_r_star,
                "delta_acc": rule.target}
    t_probes, p_probes, failure = [], [], None
    for i in reversed(model.weighted_indices):
        if b_probe is not None:
            p_probes += estimate_p(cache, b_probe, layers=(i,))
        if i in searched:
            try:
                t_probes += estimate_t(cache, labels, config, layers=(i,))
            except CalibrationError as e:
                failure = e  # the loop runs downward, so the last one kept is the lowest
        cache.drop(i)
    if failure is not None:
        raise failure
    return (None if config is None else _copy_t_backward(model, t_probes[::-1]),
            None if b_probe is None else p_probes[::-1], meta)


def default_scale_ladder(model: Model, layer_index: int) -> list[float]:
    """Six noise scales, geometric in the layer's weight spread.

    A scale k adds uniform(-k/2, k/2) noise; k = rel * std(W) * sqrt(12) makes
    the noise std equal to rel times the weight std, for rel = 1e-3 * 4**j.
    """
    sigma = float(np.std(model.layers[layer_index].weights))
    base = sigma * math.sqrt(12.0)
    return [1e-3 * 4.0 ** j * base for j in range(6)]


def linearity_probe(cache: nn.PrefixCache, layer_index: int, scales,
                    seed: int = 0) -> list[tuple[float, float]]:
    """(weight-noise power, feature-noise power) for one direction at several scales."""
    scales = [float(s) for s in scales]
    if len(scales) < 5:
        raise ValueError("need a ladder of at least 5 scales")
    model = cache.model
    direction = _probe_direction(model, layer_index, seed)
    dir_power = float(np.sum(direction * direction))
    points = []
    for k in sorted(scales):
        perturbed = nn.perturb_layer(model, layer_index, k * direction)
        rz2 = nn.mean_power(cache.logits - nn.forward_from(cache, perturbed, layer_index))
        points.append((k * k * dir_power, rz2))
    return points


def loglog_fit(points) -> tuple[float, float]:
    """Least-squares slope and R^2 of log(y) against log(x)."""
    pts = list(points)
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


def additivity_probe(cache: nn.PrefixCache, bits) -> AdditivityResult:
    """Per-layer quantization noise powers against joint quantization, one of `bits` per layer."""
    model = cache.model
    singles = []
    for i, b in zip(model.weighted_indices, bits, strict=True):
        q = quantize_single_layer(model, i, int(b))
        singles.append(nn.mean_power(cache.logits - nn.forward_from(cache, q, i)))
    joint_model = quantize_model(model, bits)
    joint = nn.mean_power(cache.logits - nn.forward_batch(joint_model, cache.layer_inputs[0],
                                                          threads=cache.threads))
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
    target_norm2 = _margin_power(z) * d / (math.log(d) * gamma(delta))
    noise = rng.standard_normal((trials, d))
    noise *= (np.sqrt(target_norm2) / np.linalg.norm(noise, axis=1))[:, None]
    flips = np.argmax(z + noise, axis=1) != np.argmax(z, axis=1)
    return LemmaReport(d, delta, trials, float(np.mean(flips)), 2.0 * delta)


def rank_diagnostic(cache: nn.PrefixCache, layer_index: int, seed: int = 0) -> int:
    """Numerical rank of the per-sample feature-noise matrix for one layer.

    The probe direction is scaled by the layer's second ladder scale.  Noise
    injected into earlier layers tends to reach the feature vector with
    lower rank.  Model-dependent; reported but never asserted.
    """
    model = cache.model
    scale = default_scale_ladder(model, layer_index)[1]
    direction = _probe_direction(model, layer_index, seed)
    perturbed = nn.perturb_layer(model, layer_index, scale * direction)
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


def merge_profiles(profile_lists) -> list[LayerProfile]:
    """One profile per layer from partial lists, such as a t-only and a p-only run.

    A later record fills the earlier one's NaN (unmeasured) fields.  ValueError
    names a layer whose records differ in kind or size `s` (partial profiles
    of two models), and the first layer still missing t or p.
    """
    merged: dict[int, LayerProfile] = {}
    for b in (p for profiles in profile_lists for p in profiles):
        a = merged.get(b.index, b)
        if (a.kind, a.s) != (b.kind, b.s):
            raise ValueError(f"layer {b.index}: profiles of different models "
                             f"({a.kind}, s={a.s} and {b.kind}, s={b.s})")
        first = {f: getattr(a, f) if getattr(a, f) == getattr(a, f) else getattr(b, f)
                 for f in ("t", "p", "noise_scale", "delta_acc")}
        merged[b.index] = replace(b, **first, b_probe=max(a.b_probe, b.b_probe),
                                  copied_t=a.copied_t or b.copied_t,
                                  degenerate=a.degenerate or b.degenerate)
    out = [merged[i] for i in sorted(merged)]
    for p in out:
        if p.t != p.t or p.p != p.p:
            raise ValueError(f"layer {p.index}: profiles incomplete (t={p.t}, p={p.p}); "
                             "supply both an estimate-t and an estimate-p output")
    return out
