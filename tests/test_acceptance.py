"""Acceptance battery: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The statistical criteria
run at full scale (default fixture, 2000-sample teacher-labelled dataset),
yet this module takes about 12 s; everything is deterministic under the
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
    r = harness.check_quantizer_law(n=100_000, seed=12345)
    report("criterion 1 (quantizer law)", r.passed, r.detail)


def test_criterion_2_linearity(fixture_cache):
    # per weighted layer: log-log slope over the 3 smallest probe scales in
    # [0.9, 1.1] with R^2 >= 0.99
    r = harness.check_linearity(fixture_cache, seed=0)
    report("criterion 2 (linearity)", r.passed, r.detail)


def test_criterion_3_additivity(fixture_cache):
    # |sum of single-layer noise powers - joint| / joint <= 0.10 at b = 10
    r = harness.check_additivity(fixture_cache)
    report("criterion 3 (additivity at b=10)", r.passed, r.detail)


def test_criterion_4_kkt_stationarity():
    # worst log-ratio spread <= 1e-9
    r = harness.check_kkt(n_sets=100, seed=7)
    report("criterion 4 (KKT stationarity)", r.passed, r.detail)


def test_criterion_5_allocator_optimality():
    # closed form within 1e-9 of the grid minimum
    result = harness.check_optimality(grid_step=0.01, seed=11)
    report("criterion 5 (optimality vs 0.01-bit grid)", result.passed, result.detail)


def test_criterion_6_sqnr_special_case():
    # adaptive and sqnr bit-widths agree within 1e-12
    r = harness.check_sqnr_special_case(seed=13)
    report("criterion 6 (SQNR special case)", r.passed, r.detail)


def test_criterion_7_lemma_monte_carlo():
    r = harness.check_lemma(trials=10_000, seed=0)
    report("criterion 7 (noise-bound Monte Carlo)", r.passed, r.detail)


def test_criterion_8_t_ratio_stability(fixture_cache, fixture_dataset):
    # t_i/t_j measured at accuracy drops of 25% and 50% of baseline (which is
    # 1 on the teacher-labelled fixture) agree within 25% for every pair
    r = harness.check_t_ratio_stability(fixture_cache, fixture_dataset.labels, seed=0)
    report("criterion 8 (t-ratio stability)", r.passed, r.detail)


def test_criterion_9_end_to_end_dominance(fixture_model, fixture_dataset, fixture_profiles):
    # adaptive needs no more bits than equal at >= 70% of matched accuracy
    # levels on the full anchor grid, and the outputs reproduce bit-identically
    def run_once():
        curves = harness.sweep(fixture_model, fixture_dataset, fixture_profiles,
                               methods=("adaptive", "equal"))
        csv = modelio.curve_csv_text(harness.sorted_points(curves))
        report = harness.compare(curves, candidate="adaptive")
        return harness.check_dominance(curves), csv, harness.comparison_payload(report)

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
    weights = [p.p / p.t if not p.degenerate else 0.0 for p in fixture_profiles]
    variants = allocate.round_allocation(alloc.b_real, [p.s for p in fixture_profiles], weights,
                                         8.0)
    pts = [harness.CurvePoint("adaptive", 8.0, i, v.size_bits, v.size_bits / 8 / 2 ** 20, 0.5)
           for i, v in enumerate(variants)]
    rows = modelio.load_curve(modelio.save_curve(pts, tmp_path / "c.csv"))
    if [r["size_bits"] for r in rows] != [p.size_bits for p in pts]:
        problems.append("curve")

    cfg = ProbeConfig(seed=0)
    saved = [modelio.save_profiles(harness.run_pipeline(fixture_model, fixture_dataset, cfg),
                                   tmp_path / f"r{run}.json").read_bytes() for run in (1, 2)]
    if saved[0] != saved[1]:
        problems.append("pipeline output profiles.json")

    report("criterion 10 (round trips + determinism)", not problems,
           "all artifacts bit-exact; pipeline reruns identical" if not problems
           else "; ".join(problems))
