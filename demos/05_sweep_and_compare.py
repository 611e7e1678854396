"""End to end: calibrate, sweep anchors, and compare methods.

Runs the full pipeline on a reduced dataset and anchor grid, quantizes and
evaluates every allocation variant, and reads the size-vs-accuracy curves
horizontally: at each accuracy level both methods attain, how much smaller is
the adaptive model?

Writes curve.csv and comparison.json into ./demo_out/; expect a few minutes.
"""

from pathlib import Path

from qalloc import harness, modelio, probes

out = Path("demo_out")
spec = modelio.default_fixture()
model = modelio.gen_model(spec)
dataset = modelio.gen_dataset(model, 1000, seed=spec.seed + 1)

print("calibrating (margins -> t probes -> p probes)...")
profiles = harness.run_pipeline(model, dataset, probes.ProbeConfig(seed=0))
for p in profiles:
    print(f"  layer {p.index} ({p.kind}): s={p.s} t={p.t:.4g} p={p.p:.4g}")

anchors = harness.default_anchor_grid()
print(f"\nsweeping {len(anchors)} anchors x (adaptive, sqnr, equal)...")
curves = harness.sweep(model, dataset, profiles, b1_values=anchors,
                       methods=("adaptive", "sqnr", "equal"), max_variants=8)
modelio.save_curve(harness.sorted_points(curves), out / "curve.csv")
for method, pts in curves.items():
    front = harness.pareto_frontier(pts)
    print(f"  {method}: {len(pts)} points, {len(front)} on the Pareto frontier")

report = harness.compare(curves, candidate="adaptive")
modelio.write_json(out / "comparison.json", harness.comparison_payload(report))
print("\nmatched-accuracy size ratios (adaptive / baseline):")
for entry in report.entries:
    if entry.disjoint:
        print(f"  vs {entry.baseline}: no overlapping accuracy range")
        continue
    ratios = sorted(entry.ratios)
    print(f"  vs {entry.baseline}: dominance {entry.dominance_fraction:.1%} "
          f"over {len(entry.ratios)} levels, "
          f"median ratio {ratios[len(ratios) // 2]:.3f}")

print(f"\nwrote {out / 'curve.csv'} and {out / 'comparison.json'}")
