"""Calibrating per-layer sensitivity: robustness t and noise coefficient p.

For every weighted layer the t-probe binary-searches the scale of a fixed
random weight perturbation until accuracy drops by the target, then divides
the resulting feature-noise power by the mean decision margin.  The p-probe
quantizes one layer at a time and fits the noise-transfer coefficient.
All probes share one prefix cache: the unmodified model is forwarded once,
and every probe of layer i runs only the layers from i on.

Uses a 800-sample dataset to stay quick.
"""

import numpy as np

from qalloc import modelio, nn, probes

spec = modelio.default_fixture()
model = modelio.gen_model(spec)
dataset = modelio.gen_dataset(model, 800, seed=spec.seed + 1)

config = probes.ProbeConfig(delta_acc=0.4, acc_tolerance=0.01, seed=0)
cache = nn.prefix_cache(model, dataset.inputs)
margins = probes.margin_stats(model, dataset, cache=cache)
print(f"baseline accuracy 1.0, target drop {config.delta_acc}, "
      f"mean margin {margins.mean_r_star:.5g}\n")

print("t probes (binary search on noise scale):")
t_probes = probes.estimate_t(model, dataset, config, margins=margins, cache=cache)
for r in t_probes:
    print(f"  layer {r.index}: t={r.t:10.4g}  k={r.noise_scale:.4g}  "
          f"drop={r.accuracy_drop:.3f} in {r.iterations} steps")

print("\np probes (single-layer quantization at b=10):")
p_probes = probes.estimate_p(model, dataset, b_probe=10, cache=cache)
for r in p_probes:
    print(f"  layer {r.index}: p={r.p:10.4g}  measured power {r.noise_power:.4g}")

print("\nlinearity of feature noise vs weight noise (log-log slope ~ 1):")
for i in model.weighted_indices:
    ladder = probes.default_scale_ladder(model, i)
    points = probes.linearity_probe(model, dataset, i, ladder, seed=0, cache=cache)
    slope, r2 = probes.loglog_fit(points, use_first=3)
    bend_slope, _ = probes.loglog_fit(points[-3:])
    print(f"  layer {i}: small-noise slope {slope:.4f} (R2={r2:.5f}); "
          f"largest scales bend to {bend_slope:.3f}")

print("\nadditivity: quantize layers one at a time vs all at once (b=10):")
result = probes.additivity_probe(model, dataset, [10] * len(model.weighted_indices), cache=cache)
print(f"  sum of singles {result.sum_singles:.5g} vs joint {result.joint:.5g} "
      f"-> relative gap {result.relative_gap:.3f}")
coarse = probes.additivity_probe(model, dataset, [3] * len(model.weighted_indices), cache=cache)
print(f"  at b=3 the small-noise assumption is no longer guaranteed: gap "
      f"{coarse.relative_gap:.3f} (diagnostic, not asserted)")

print("\nrank of the per-sample feature-noise matrix (model-dependent diagnostic;")
print("noise through more layers can lose rank, though a small d may stay full):")
for i in model.weighted_indices:
    rank = probes.rank_diagnostic(model, dataset, i, seed=0, cache=cache)
    print(f"  layer {i}: rank {rank} of d={model.d}")
