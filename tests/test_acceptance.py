"""Acceptance battery: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The statistical criteria
run at full scale (default fixture, 2000-sample teacher-labelled dataset),
so this module takes a few minutes; everything is deterministic under the
seeds fixed here.
"""

from qalloc import allocate, harness, modelio
from qalloc.probes import ProbeConfig


def report(name: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_quantizer_noise_law():
    # 1e5 uniform(-1,1) weights, b in 4..10: measured residual power within
    # +/-5% of N*(range^2/12)*4^-b; adjacent-bit ratios within [3.6, 4.4]
    r = harness.check_quantizer_law(n=100_000, bits_range=range(4, 11), seed=12345,
                                    rel_tol=0.05, ratio_band=(3.6, 4.4))
    report("criterion 1 (quantizer law)", r.passed, r.detail)


def test_criterion_2_linearity(fixture_model, fixture_dataset):
    # per weighted layer: log-log slope over the 3 smallest probe scales in
    # [0.9, 1.1] with R^2 >= 0.99
    r = harness.check_linearity(fixture_model, fixture_dataset, seed=0, use_first=3,
                                slope_band=(0.9, 1.1), min_r2=0.99)
    report("criterion 2 (linearity)", r.passed, r.detail)


def test_criterion_3_additivity(fixture_model, fixture_dataset):
    r = harness.check_additivity(fixture_model, fixture_dataset, bits=10, max_gap=0.10)
    report("criterion 3 (additivity at b=10)", r.passed, r.detail)


def test_criterion_4_kkt_stationarity():
    r = harness.check_kkt(n_sets=100, seed=7, rel_tol=1e-9)
    report("criterion 4 (KKT stationarity)", r.passed, r.detail)


def test_criterion_5_allocator_optimality():
    result = harness.check_optimality(n_sets=20, seed=11, grid_step=0.01, span=3.0)
    report("criterion 5 (optimality vs 0.01-bit grid)", result.passed, result.detail)


def test_criterion_6_sqnr_special_case():
    r = harness.check_sqnr_special_case(n_sets=50, seed=13, tol=1e-12)
    report("criterion 6 (SQNR special case)", r.passed, r.detail)


def test_criterion_7_lemma_monte_carlo():
    r = harness.check_lemma(ds=(10, 100), deltas=(0.1, 0.3), trials=10_000, seed=0)
    report("criterion 7 (noise-bound Monte Carlo)", r.passed, r.detail)


def test_criterion_8_t_ratio_stability(fixture_model, fixture_dataset):
    # t_i/t_j measured at accuracy drops of 25% and 50% of baseline (which is
    # 1 on the teacher-labelled fixture) agree within 25% for every pair
    r = harness.check_t_ratio_stability(fixture_model, fixture_dataset, seed=0, rel_tol=0.25,
                                        fractions=(0.25, 0.5))
    report("criterion 8 (t-ratio stability)", r.passed, r.detail)


def test_criterion_9_end_to_end_dominance(fixture_model, fixture_dataset, fixture_profiles):
    # adaptive needs no more bits than equal at >= 70% of matched accuracy
    # levels on the full anchor grid, and the outputs reproduce bit-identically
    def run_once():
        r, curves, rep = harness.check_dominance(fixture_model, fixture_dataset,
                                                 fixture_profiles, min_fraction=0.70)
        csv = modelio.curve_csv_text(harness.sorted_points(curves))
        return r, csv, harness.comparison_payload(rep)

    r, csv_a, payload_a = run_once()
    _, csv_b, payload_b = run_once()
    reproducible = csv_a == csv_b and payload_a == payload_b
    report("criterion 9 (end-to-end dominance)", r.passed and reproducible,
           f"{r.detail}; bit-identical reruns: {reproducible}")


def test_criterion_10_roundtrips_and_determinism(fixture_model, fixture_dataset,
                                                 fixture_profiles, tmp_path):
    roundtrips = harness.check_roundtrips(fixture_model, fixture_dataset, fixture_profiles,
                                          tmp_path)
    problems = [] if roundtrips.passed else [roundtrips.detail]

    alloc = allocate.allocate_adaptive(fixture_profiles, 8.0)
    variants = allocate.round_allocation(alloc.b_real, [p.s for p in fixture_profiles])
    pts = [harness.CurvePoint("adaptive", 8.0, i, v.size_bits, v.size_bits / 8 / 2 ** 20, 0.5)
           for i, v in enumerate(variants)]
    rows = modelio.load_curve(modelio.save_curve(pts, tmp_path / "c.csv"))
    if [r["size_bits"] for r in rows] != [p.size_bits for p in pts]:
        problems.append("curve")

    cfg = ProbeConfig(seed=0)
    harness.run_pipeline(fixture_model, fixture_dataset, cfg, out_dir=tmp_path / "r1")
    harness.run_pipeline(fixture_model, fixture_dataset, cfg, out_dir=tmp_path / "r2")
    for name in ("profiles.json", "margins.json"):
        if (tmp_path / "r1" / name).read_bytes() != (tmp_path / "r2" / name).read_bytes():
            problems.append(f"pipeline output {name}")

    report("criterion 10 (round trips + determinism)", not problems,
           "all artifacts bit-exact; pipeline reruns identical" if not problems
           else "; ".join(problems))
