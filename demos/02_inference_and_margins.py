"""The fixture network, teacher labelling, and decision margins.

Builds the default conv/dense fixture, labels a dataset with the model's own
predictions (so baseline accuracy is exactly 1), and looks at the decision
margins on the last feature map that normalize all later sensitivity
measurements.
"""

import numpy as np

from qalloc import modelio, nn, probes

spec = modelio.default_fixture()
model = modelio.gen_model(spec)
print("architecture:")
for i, (layer, shape) in enumerate(zip(model.layers, model.shapes[1:])):
    params = f", {layer.param_count} params" if layer.param_count else ""
    print(f"  layer {i}: {layer.kind:<10} -> {shape}{params}")
print(f"classes d={model.d}, weighted layer sizes {list(model.layer_sizes())}")

dataset = modelio.gen_dataset(model, 2000, seed=spec.seed + 1)
print(f"\nteacher-labelled dataset: {len(dataset)} samples, "
      f"baseline accuracy {nn.evaluate_accuracy(model, dataset)}")
counts = np.bincount(dataset.labels, minlength=model.d)
print(f"label counts: {[int(c) for c in counts]}")

stats = probes.margin_stats(nn.forward_batch(model, dataset.inputs))
print(f"\nmean margin power (z1 - z2)^2 / 2: {stats.mean_r_star:.6g}")
peak = max(stats.counts)
print("margin histogram:")
for count, lo, hi in zip(stats.counts[:12], stats.bin_edges, stats.bin_edges[1:]):
    bar = "#" * int(40 * count / peak)
    print(f"  [{lo:.4f}, {hi:.4f}) {bar} {count}")

# the noise budget a 10% accuracy drop would allow, per the random-noise bound
budget = probes.theta(0.10, 1.0, model.d)
print(f"\nnoise-budget factor theta(drop=0.10): {budget:.3f} "
      f"(diagnostic only; x mean margin power = {budget * stats.mean_r_star:.4g})")
