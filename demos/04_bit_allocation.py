"""Closed-form bit-width allocation and its baselines.

Given per-layer profiles (size s, robustness t, noise coefficient p), the
water-filling solution equalizes p_i * 4^-b_i / (t_i * s_i) across layers.
Compare against the SQNR rule (p, t dropped) and equal bit-widths, then
enumerate integer roundings.
"""

from qalloc import allocate
from qalloc.probes import LayerProfile

# profiles in the shape the calibration pipeline produces (values measured on
# the default fixture; see demo 03)
profiles = [
    LayerProfile(index=0, kind="conv2d", s=296, t=18.84, p=0.02237, noise_scale=0.17,
                 delta_acc=0.5, b_probe=10, weight_range=(-0.167, 0.167)),
    LayerProfile(index=3, kind="conv2d", s=584, t=21.72, p=0.04602, noise_scale=0.15,
                 delta_acc=0.5, b_probe=10, weight_range=(-0.118, 0.118)),
    LayerProfile(index=5, kind="dense", s=32832, t=21.31, p=0.01488, noise_scale=0.06,
                 delta_acc=0.5, b_probe=10, weight_range=(-0.044, 0.044)),
    LayerProfile(index=7, kind="dense", s=650, t=20.71, p=0.02704, noise_scale=0.09,
                 delta_acc=0.5, b_probe=10, weight_range=(-0.125, 0.125)),
]
sizes = [p.s for p in profiles]

for b1 in (6.0, 8.0, 10.0):
    a = allocate.allocate_adaptive(profiles, b1)
    q = allocate.allocate_sqnr(sizes, b1)
    print(f"anchor b1={b1}:")
    print(f"  adaptive b_real: {[round(b, 3) for b in a.b_real]}  "
          f"(stationarity residual {allocate.stationarity_residual(profiles, a.b_real):.2e})")
    print(f"  sqnr     b_real: {[round(b, 3) for b in q.b_real]}")

print("\nthe big dense layer (32832 params) always gets the fewest bits;")
print("equal bit-width ignores that entirely:")
e = allocate.allocate_equal(8, sizes)
print(f"  equal b=8: size {e.size_bits} bits "
      f"vs adaptive at the same anchor {allocate.allocate_adaptive(profiles, 8.0).size_bits}")

print("\ninteger roundings of the b1=8 adaptive solution, best predicted first:")
a = allocate.allocate_adaptive(profiles, 8.0)
weights = [p.p / p.t for p in profiles]
for v in allocate.round_allocation(a.b_real, sizes, weights, b1=8.0, max_variants=6):
    m = allocate.predicted_m_all(v.b_int, weights)
    print(f"  b={list(v.b_int)}  size={v.size_bits:7d} bits  predicted m_all={m:.3e}")
