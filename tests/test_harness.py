import numpy as np
import pytest

from qalloc import allocate, harness, modelio, nn, probes, quantize
from qalloc.harness import CurvePoint
from qalloc.nn import Dataset, Layer, Model
from qalloc.probes import LayerProfile, ProbeConfig

BATTERY = ["quantizer_law", "linearity", "additivity", "kkt_stationarity", "optimality_vs_grid",
           "sqnr_special_case", "lemma_bound", "t_ratio_stability", "dominance", "equal_envelope",
           "sweep_reproducible", "pipeline_deterministic", "roundtrips"]

@pytest.fixture(scope="module")
def small_rig():
    """Two-layer dense fixture small enough for fast sweeps."""
    rng = np.random.default_rng(0)
    w1 = rng.uniform(-0.3, 0.3, size=(12, 16)).astype(np.float32)
    w2 = rng.uniform(-0.3, 0.3, size=(16, 5)).astype(np.float32)
    model = Model((Layer("dense", w1), Layer("relu"), Layer("dense", w2)), (12,))
    inputs = rng.standard_normal((400, 12)).astype(np.float32)
    labels = nn.classify_batch(nn.forward_batch(model, inputs))
    return model, Dataset(inputs, labels)


@pytest.fixture(scope="module")
def small_profiles(small_rig):
    model, ds = small_rig
    cfg = ProbeConfig(delta_acc=0.3, acc_tolerance=0.02, seed=1)
    return harness.run_pipeline(model, ds, cfg)


class TestPipeline:
    def test_one_record_per_weighted_layer(self, small_rig, small_profiles):
        model, _ = small_rig
        assert [p.index for p in small_profiles] == list(model.weighted_indices)

    def test_rerun_same_seed_identical(self, small_rig, small_profiles):
        model, ds = small_rig
        cfg = ProbeConfig(delta_acc=0.3, acc_tolerance=0.02, seed=1)
        assert harness.run_pipeline(model, ds, cfg) == small_profiles

    def test_profiles_identical_at_any_thread_count(self, fixture_model):
        # 1100 rows: one chunk at threads=1, three chunks (512/512/76) otherwise
        ds = modelio.gen_dataset(fixture_model, 1100, seed=modelio.DEFAULT_SEED + 1)
        runs = [harness.run_pipeline(fixture_model, ds, ProbeConfig(seed=0, threads=t))
                for t in (1, 2, 4)]
        assert runs[0] == runs[1] == runs[2]

    def test_single_layer_t_recomputable_from_persisted_parts(self):
        # t is the probe's feature-noise power over the margin power estimate-t persists
        rng = np.random.default_rng(8)
        w = rng.uniform(-0.5, 0.5, size=(10, 4)).astype(np.float32)
        model = Model((Layer("dense", w),), (10,))
        inputs = rng.standard_normal((300, 10)).astype(np.float32)
        ds = Dataset(inputs, nn.classify_batch(nn.forward_batch(model, inputs)))
        cfg = ProbeConfig(delta_acc=0.3, acc_tolerance=0.02, seed=2)
        t_probes, _, meta = harness.calibrate_t(model, ds, cfg)
        profiles = harness.run_pipeline(model, ds, cfg)
        assert profiles[0].t == t_probes[0].t == t_probes[0].noise_power / meta["mean_r_star"]

    def test_profiles_json_is_strict_with_copied_layers(self, small_rig, tmp_path):
        # --last-n 1 copies t onto layer 0, whose noise scale is NaN (never measured)
        import json

        from qalloc.cli import main

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        model, ds = small_rig
        modelio.save_model(model, tmp_path / "m")
        modelio.save_dataset(ds, tmp_path / "d")
        assert main(["estimate-t", "--model", str(tmp_path / "m"), "--data", str(tmp_path / "d"),
                     "--delta-acc", "0.3", "--acc-tolerance", "0.02", "--seed", "1",
                     "--last-n", "1", "--out", str(tmp_path / "cal")]) == 0
        path = tmp_path / "cal" / "profiles_t.json"
        doc = json.loads(path.read_text(), parse_constant=reject)
        assert [(rec["copied_t"], rec["noise_scale"] is None) for rec in doc["layers"]] == \
            [(True, True), (False, False)]
        assert doc["layers"][1]["noise_scale"] > 0
        cfg = ProbeConfig(delta_acc=0.3, acc_tolerance=0.02, seed=1, last_n=1)
        t_probes, _, meta = harness.calibrate_t(model, ds, cfg)
        loaded, loaded_meta = modelio.load_profiles(path)
        assert loaded == probes.build_profiles(model, t_probes, None, meta["delta_acc"])
        assert loaded_meta == {**meta, "seed": 1}


class TestSweep:
    def test_empty_anchor_list_rejected(self, small_rig, small_profiles):
        model, ds = small_rig
        with pytest.raises(ValueError, match="need at least one anchor value"):
            harness.sweep(model, ds, small_profiles, b1_values=[])

    def test_equal_at_16_bits_matches_float_baseline(self, small_rig, small_profiles):
        model, ds = small_rig
        curves = harness.sweep(model, ds, small_profiles, b1_values=[16.0],
                               methods=("equal",))
        assert abs(curves["equal"][0].top1 - 1.0) <= 0.001

    def test_equal_curve_sizes_strictly_increase(self, small_rig, small_profiles):
        model, ds = small_rig
        curves = harness.sweep(model, ds, small_profiles, b1_values=[4, 6, 8, 10],
                               methods=("equal",))
        sizes = [p.size_bits for p in curves["equal"]]
        assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)

    def test_adaptive_emits_at_least_as_many_points_as_sqnr(self, small_rig, small_profiles):
        model, ds = small_rig
        curves = harness.sweep(model, ds, small_profiles, b1_values=[5, 6.5, 8],
                               methods=("adaptive", "sqnr"))
        assert len(curves["adaptive"]) >= len(curves["sqnr"])

    def test_size_bits_equals_allocation_total(self, small_rig, small_profiles):
        model, ds = small_rig
        curves = harness.sweep(model, ds, small_profiles, b1_values=[6],
                               methods=("adaptive",))
        sizes = [p.s for p in small_profiles]
        for pt in curves["adaptive"]:
            assert pt.size_bits == allocate.size_bits(sizes, pt.allocation.b_int)

    def test_equal_skips_fractional_anchors(self, small_rig, small_profiles):
        model, ds = small_rig
        curves = harness.sweep(model, ds, small_profiles, b1_values=[6.5],
                               methods=("equal",))
        assert curves["equal"] == []

    def test_fc_bits_pins_dense_layers(self, small_rig, small_profiles):
        model, ds = small_rig
        curves = harness.sweep(model, ds, small_profiles, b1_values=[6],
                               methods=("sqnr",), fc_bits=16)
        for pt in curves["sqnr"]:
            assert all(b == 16 for b in pt.allocation.b_int)  # both layers are dense


def curve(method, pts):
    return [CurvePoint(method, float(b), 0, s, s / 8 / 2 ** 20, a) for b, s, a in pts]


class TestCompare:
    def test_self_comparison_is_unit(self):
        pts = curve("adaptive", [(4, 100, 0.5), (6, 200, 0.7), (8, 300, 0.9)])
        report = harness.compare({"adaptive": pts, "equal": list(pts)})
        entry = report.entries[0]
        assert entry.dominance_fraction == 1.0 and not entry.disjoint
        assert all(r == 1.0 for r in entry.ratios)

    def test_disjoint_ranges_flagged(self):
        a = curve("adaptive", [(4, 100, 0.2), (6, 200, 0.3)])
        b = curve("equal", [(4, 150, 0.8), (6, 250, 0.9)])
        report = harness.compare({"adaptive": a, "equal": b})
        assert report.entries[0].disjoint
        assert report.entries[0].dominance_fraction is None
        assert harness.comparison_payload(report)["entries"][0]["disjoint"] is True

    def test_interpolates_on_size(self):
        a = curve("adaptive", [(4, 100, 0.5), (8, 300, 0.9)])
        b = curve("equal", [(4, 200, 0.5), (8, 400, 0.9)])
        report = harness.compare({"adaptive": a, "equal": b})
        entry = report.entries[0]
        assert entry.accuracies == (0.5, 0.9)
        assert entry.ratios == (pytest.approx(100 / 200), pytest.approx(300 / 400))
        assert entry.dominance_fraction == 1.0

    @pytest.mark.parametrize("size", [0, -5])
    def test_size_below_one_bit_rejected_naming_the_method(self, size):
        a = curve("adaptive", [(4, 100, 0.5), (8, 300, 0.9)])
        b = curve("equal", [(4, size, 0.5), (8, 400, 0.9)])
        with pytest.raises(ValueError, match=f"^equal curve: size_bits must be >= 1, got {size}$"):
            harness.compare({"adaptive": a, "equal": b})

    def test_needs_two_curves(self):
        with pytest.raises(ValueError):
            harness.compare({"adaptive": curve("adaptive", [(4, 1, 0.1)])})

    def test_pareto_frontier_drops_dominated_points(self):
        pts = curve("equal", [(4, 100, 0.5), (5, 150, 0.4), (6, 200, 0.7)])
        front = harness.pareto_frontier(pts)
        assert front == [(100.0, 0.5), (200.0, 0.7)]


class TestChecks:
    def test_quantizer_law_check_passes(self):
        assert harness.check_quantizer_law(n=20_000, seed=0).passed

    def test_kkt_check_passes(self):
        assert harness.check_kkt(n_sets=20, seed=0).passed

    def test_kkt_check_fails_with_corrupted_t(self):
        profs = [LayerProfile(index=i, kind="dense", s=s, t=t, p=p, noise_scale=1.0,
                              delta_acc=0.5, b_probe=10, weight_range=(-1, 1))
                 for i, (s, t, p) in enumerate([(100, 2.0, 1.0), (5000, 0.5, 3.0), (70, 4.0, 0.3)])]
        a = allocate.allocate_adaptive(profs, 8.0)
        corrupted = [profs[0],
                     LayerProfile(index=1, kind="dense", s=5000, t=5.0, p=3.0, noise_scale=1.0,
                                  delta_acc=0.5, b_probe=10, weight_range=(-1, 1)),
                     profs[2]]
        assert allocate.stationarity_residual(profs, a.b_real) <= 1e-9
        assert allocate.stationarity_residual(corrupted, a.b_real) > 1e-3

    def test_optimality_check_passes(self):
        assert harness.check_optimality(grid_step=0.02, seed=0).passed

    def test_sqnr_special_case_check_passes(self):
        assert harness.check_sqnr_special_case(seed=0).passed

    def test_lemma_check_passes(self):
        assert harness.check_lemma(trials=2000, seed=0).passed

    def test_equal_envelope_allows_one_dip(self):
        pts = curve("equal", [(4, 100, 0.5), (5, 150, 0.47), (6, 200, 0.7)])
        assert harness.check_equal_envelope(pts).passed
        pts_bad = curve("equal", [(4, 100, 0.5), (5, 150, 0.3), (6, 200, 0.25)])
        assert not harness.check_equal_envelope(pts_bad).passed

    def test_verify_battery_on_small_rig(self, small_rig):
        model, ds = small_rig
        results = harness.verify(model, ds, seed=1, quick=True,
                                 anchors=(5.0, 6.0, 7.0, 8.0, 9.0, 10.0))
        assert [r.name for r in results] == BATTERY
        # structural checks must pass even on the throwaway rig
        for required in ("quantizer_law", "kkt_stationarity", "optimality_vs_grid",
                         "sqnr_special_case", "lemma_bound", "sweep_reproducible",
                         "pipeline_deterministic", "roundtrips"):
            r = next(r for r in results if r.name == required)
            assert r.passed, f"{required}: {r.detail}"

    def test_verify_handles_empty_dataset_as_failure_not_crash(self, small_rig):
        model, _ = small_rig
        empty = Dataset(np.zeros((0, 12), dtype=np.float32), [])
        results = harness.verify(model, empty, quick=True, anchors=(6.0,))
        assert [r.name for r in results] == BATTERY  # no check is lost to a shared build
        data_bound = ["linearity", "additivity", "t_ratio_stability", "dominance",
                      "equal_envelope", "sweep_reproducible", "pipeline_deterministic",
                      "roundtrips"]
        error = "raised ValueError: cannot cache a forward over an empty input stack"
        failed = {r.name: r.detail for r in results if not r.passed}
        assert failed == dict.fromkeys(data_bound, error)

    def test_crashed_check_is_reported_under_its_result_name(self, small_rig, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(probes, "additivity_probe", fail)
        model, ds = small_rig
        results = harness.verify(model, ds, quick=True, anchors=(6.0,))
        crashed = [r for r in results if r.detail == "raised RuntimeError: boom"]
        assert [r.name for r in crashed] == ["additivity"]

    def test_verify_builds_one_cache_for_its_checks(self, small_rig, monkeypatch):
        # one for linearity, additivity and the t-ratio; one per run_pipeline run
        built = []
        real = nn.prefix_cache

        def spy(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(nn, "prefix_cache", spy)
        model, ds = small_rig
        harness.verify(model, ds, quick=True, anchors=(6.0,))
        assert len(built) == 3

    def test_checks_take_what_they_check(self, small_rig, small_profiles, monkeypatch):
        model, ds = small_rig
        cache = nn.prefix_cache(model, ds.inputs)
        curves = harness.sweep(model, ds, small_profiles, b1_values=[5, 6, 7, 8],
                               methods=("adaptive", "equal"), max_variants=4)

        def fail(*args, **kwargs):
            raise AssertionError("a check built its own data")

        monkeypatch.setattr(nn, "prefix_cache", fail)
        monkeypatch.setattr(harness, "sweep", fail)
        names = [harness.check_linearity(cache, 1).name, harness.check_additivity(cache).name,
                 harness.check_t_ratio_stability(cache, ds.labels, 1).name,
                 harness.check_dominance(curves).name]
        assert names == ["linearity", "additivity", "t_ratio_stability", "dominance"]

    def test_dominance_without_matched_levels_fails(self):
        a = curve("adaptive", [(4, 100, 0.2), (6, 200, 0.3)])
        b = curve("equal", [(4, 150, 0.8), (6, 250, 0.9)])
        r = harness.check_dominance({"adaptive": a, "equal": b})
        assert not r.passed and r.detail == "no matched accuracy levels"


# ---------------------------------------------------------------------------
# the sweep evaluates each distinct bit vector once, walking shared prefixes


@pytest.fixture(scope="module")
def tiny_conv():
    """The default fixture's layer sequence at a fraction of its cost per forward."""
    return modelio.gen_model(modelio.FixtureSpec(input_shape=(6, 6, 2), layers=(
        {"kind": "conv2d", "kernel": [3, 3], "out_channels": 4, "padding": "same"},
        {"kind": "relu"}, {"kind": "maxpool2d", "pool_size": 2},
        {"kind": "conv2d", "kernel": [3, 3], "out_channels": 4, "padding": "same"},
        {"kind": "relu"}, {"kind": "dense", "out_features": 16}, {"kind": "relu"},
        {"kind": "dense", "out_features": 5}), seed=3))


def made_up_profiles(model, t=(3.0, 1.5, 6.0, 2.0)):
    """Profiles for every weighted layer of `model` with p = 2t.

    A constant p/t makes adaptive's real allocation equal sqnr's, so sqnr's
    rounding is also one of adaptive's variants: the two curves share vectors.
    """
    return [LayerProfile(index=i, kind=model.layers[i].kind, s=model.layers[i].param_count,
                         t=t[j % len(t)], p=2 * t[j % len(t)], noise_scale=0.1,
                         delta_acc=0.5, b_probe=10, weight_range=(-1.0, 1.0))
            for j, i in enumerate(model.weighted_indices)]


def per_point_reference(model, ds, curves, threads):
    """Each point's top1 recomputed the old way: quantize_model then a full forward."""
    return {m: [nn.evaluate_accuracy(quantize.quantize_model(model, p.allocation), ds,
                                     threads=threads) for p in pts]
            for m, pts in curves.items()}


def top1s(curves):
    return {m: [p.top1 for p in pts] for m, pts in curves.items()}


def vectors_of(curves):
    return [p.allocation.b_int for pts in curves.values() for p in pts]


@pytest.fixture()
def no_forward(monkeypatch):
    """Fail the test if any layer runs."""
    def fail(*args, **kwargs):
        raise AssertionError("forward ran")

    monkeypatch.setattr(nn, "_forward", fail)


class TestSweepTrie:
    # 7.5 is not an integer, so equal has no point there
    ANCHORS = (6.0, 7.5)

    @pytest.mark.parametrize("n", [1, 511, 513, 1100])
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_top1_equals_per_point_quantize_and_evaluate(self, tiny_conv, n, threads):
        ds = modelio.gen_dataset(tiny_conv, n, seed=5)
        curves = harness.sweep(tiny_conv, ds, made_up_profiles(tiny_conv),
                               b1_values=self.ANCHORS, threads=threads)
        vectors = vectors_of(curves)
        assert len(set(vectors)) < len(vectors)  # sqnr's vectors are adaptive variants too
        assert [p.b1 for p in curves["equal"]] == [6.0]
        assert top1s(curves) == per_point_reference(tiny_conv, ds, curves, threads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_fc_bits_pins_match_the_reference(self, tiny_conv, threads):
        ds = modelio.gen_dataset(tiny_conv, 1100, seed=6)
        curves = harness.sweep(tiny_conv, ds, made_up_profiles(tiny_conv),
                               b1_values=(3.0, 5.0, 9.0), fc_bits=4, threads=threads)
        assert all(p.allocation.b_int[2:] == (4, 4) for pts in curves.values() for p in pts)
        assert top1s(curves) == per_point_reference(tiny_conv, ds, curves, threads)

    def test_one_weighted_layer_after_a_weightless_one(self):
        rng = np.random.default_rng(4)
        model = Model((Layer("relu"),
                       Layer("dense", rng.uniform(-0.5, 0.5, (6, 4)).astype(np.float32))), (6,))
        inputs = rng.standard_normal((700, 6)).astype(np.float32)
        ds = Dataset(inputs, nn.classify_batch(nn.forward_batch(model, inputs)))
        for threads in (1, 2):
            curves = harness.sweep(model, ds, made_up_profiles(model), b1_values=(2, 3, 4.5),
                                   threads=threads)
            assert top1s(curves) == per_point_reference(model, ds, curves, threads)

    def test_each_segment_runs_once_per_distinct_prefix(self, fixture_model, monkeypatch):
        ds = modelio.gen_dataset(fixture_model, 40, seed=modelio.DEFAULT_SEED + 1)
        quantized, segments = [], []
        real_layer, real_forward = quantize._quantize_layer, nn._forward

        def counting_layer(layer, bits, index):
            quantized.append(index)
            return real_layer(layer, bits, index)

        def counting_forward(layers, x, start, stop, threads):
            segments.append((start, stop))
            return real_forward(layers, x, start, stop, threads)

        monkeypatch.setattr(quantize, "_quantize_layer", counting_layer)
        monkeypatch.setattr(nn, "_forward", counting_forward)
        curves = harness.sweep(fixture_model, ds, made_up_profiles(fixture_model),
                               b1_values=(6, 7, 8, 9, 10))
        vectors = vectors_of(curves)
        counts = harness.prefix_counts(vectors)
        weighted = fixture_model.weighted_indices
        assert [quantized.count(i) for i in weighted] == counts
        assert counts[-1] == len(set(vectors)) < len(vectors)
        # one run of the weightless prefix (empty here), then one segment per distinct prefix
        assert segments[0] == (0, 0) and len(segments) == 1 + sum(counts)
        ends = dict(zip(weighted, (*weighted[1:], len(fixture_model.layers))))
        assert all(stop == ends[start] for start, stop in segments[1:])

    def test_prefix_counts(self):
        assert harness.prefix_counts([(8, 7, 5), (8, 7, 6), (8, 6, 6), (8, 7, 5), (9, 6, 6)]) \
            == [2, 3, 4]
        assert harness.prefix_counts([]) == []

    def test_wrong_profile_count_is_rejected_before_any_forward(self, fixture_model,
                                                                fixture_dataset, no_forward):
        profiles = made_up_profiles(fixture_model)[:3]
        with pytest.raises(ValueError, match="^allocation has 3 bit-widths for 4 weighted layers$"):
            harness.sweep(fixture_model, fixture_dataset, profiles, b1_values=[8])

    def test_bad_labels_are_rejected_before_any_forward(self, fixture_model, fixture_dataset,
                                                       no_forward):
        labels = fixture_dataset.labels.copy()
        labels[5] = fixture_model.d
        ds = Dataset(fixture_dataset.inputs, labels)
        with pytest.raises(ValueError, match=f"label {fixture_model.d} out of range"):
            harness.sweep(fixture_model, ds, made_up_profiles(fixture_model), b1_values=[8])

    @pytest.mark.parametrize("max_variants", [0, -1])
    def test_max_variants_below_one_is_rejected_before_any_forward(self, fixture_model,
                                                                   fixture_dataset, no_forward,
                                                                   max_variants):
        with pytest.raises(ValueError, match=f"^max_variants must be >= 1, got {max_variants}$"):
            harness.sweep(fixture_model, fixture_dataset, made_up_profiles(fixture_model),
                          b1_values=[6, 7], max_variants=max_variants)

    @pytest.mark.parametrize("methods", [("sqnr",), ("equal",), ("sqnr", "equal")])
    def test_max_variants_below_one_is_rejected_without_adaptive(self, fixture_model,
                                                                 fixture_dataset, no_forward,
                                                                 methods):
        with pytest.raises(ValueError, match="^max_variants must be >= 1, got 0$"):
            harness.sweep(fixture_model, fixture_dataset, made_up_profiles(fixture_model),
                          b1_values=[6, 7], methods=methods, max_variants=0)

    @pytest.mark.parametrize("b1", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("methods", [("adaptive", "sqnr", "equal"), ("equal",)])
    def test_non_finite_anchor_is_rejected_before_any_forward(self, fixture_model,
                                                              fixture_dataset, no_forward,
                                                              b1, methods):
        with pytest.raises(ValueError, match=r"anchor b1 must be finite"):
            harness.sweep(fixture_model, fixture_dataset, made_up_profiles(fixture_model),
                          b1_values=[8, b1], methods=methods)
