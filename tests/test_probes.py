import math

import numpy as np
import pytest

from qalloc import nn, probes
from qalloc.nn import Dataset, Layer, Model
from qalloc.probes import CalibrationError, ProbeConfig


def logit_model(d=3):
    """Identity model: feeding it logits directly makes margins easy to stage."""
    return Model((Layer("dense", np.eye(d, dtype=np.float32)),), (d,))


def small_fixture(seed=0, n=400):
    """Two-layer dense net with teacher labels; fast enough for search tests."""
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(-0.3, 0.3, size=(12, 16)).astype(np.float32)
    w2 = rng.uniform(-0.3, 0.3, size=(16, 5)).astype(np.float32)
    model = Model((Layer("dense", w1), Layer("relu"), Layer("dense", w2)), (12,))
    inputs = rng.standard_normal((n, 12)).astype(np.float32)
    labels = nn.classify_batch(nn.forward_batch(model, inputs))
    return model, Dataset(inputs, labels)


class TestMarginStats:
    def test_single_vector_hand_value(self):
        ds = Dataset(np.array([[3.0, 1.0, 0.0]], dtype=np.float32), [0])
        stats = probes.margin_stats(logit_model(), ds)
        assert stats.mean_r_star == pytest.approx(2.0, rel=1e-12)  # (3-1)^2/2

    def test_equal_logits_give_zero(self):
        ds = Dataset(np.array([[1.0, 1.0, 1.0]], dtype=np.float32), [0])
        assert probes.margin_stats(logit_model(), ds).mean_r_star == 0.0

    def test_batch_mean(self):
        # margins 2.0 and 0.0 -> mean 1.0
        ds = Dataset(np.array([[3.0, 1.0, 0.0], [1.0, 1.0, 0.0]], dtype=np.float32), [0, 0])
        stats = probes.margin_stats(logit_model(), ds)
        assert stats.mean_r_star == pytest.approx(1.0, rel=1e-12)
        assert sum(stats.counts) == 2

    def test_needs_two_classes(self):
        model = Model((Layer("dense", np.ones((2, 1), dtype=np.float32)),), (2,))
        with pytest.raises(ValueError):
            probes.margin_stats(model, Dataset(np.ones((1, 2), dtype=np.float32), [0]))


class TestGammaTheta:
    def test_gamma_at_one(self):
        assert probes.gamma(1.0) == 5.0

    def test_gamma_at_half(self):
        assert probes.gamma(0.5) == pytest.approx(5 + 4 * math.log(2), rel=1e-12)

    def test_theta_monotone_in_delta_acc(self):
        assert probes.theta(0.2, 1.0, 10) > probes.theta(0.1, 1.0, 10)

    def test_theta_spot_value_against_hand_formula(self):
        d, delta_acc, acc = 10, 0.3, 0.9
        want = d / ((5 + 4 * math.log(2 * acc / delta_acc)) * math.log(d))
        assert probes.theta(delta_acc, acc, d) == pytest.approx(want, rel=1e-12)

    def test_theta_at_d_equals_e(self):
        # ln(e) = 1, so the denominator is gamma alone
        got = probes.theta(0.5, 1.0, math.e)
        assert got == pytest.approx(math.e / probes.gamma(0.25), rel=1e-12)

    def test_small_d_rejected(self):
        with pytest.raises(ValueError):
            probes.theta(0.1, 1.0, 1)


class TestEstimateT:
    def test_stopping_rule_holds_for_every_layer(self):
        model, ds = small_fixture()
        cfg = ProbeConfig(delta_acc=0.4, acc_tolerance=0.02, seed=0)
        for r in probes.estimate_t(model, ds, cfg):
            assert r.converged
            assert abs(r.accuracy_drop - 0.4) <= 0.02

    def test_same_seed_is_bit_identical(self):
        model, ds = small_fixture()
        cfg = ProbeConfig(delta_acc=0.4, acc_tolerance=0.02, seed=7)
        a = probes.estimate_t(model, ds, cfg)
        b = probes.estimate_t(model, ds, cfg)
        assert a == b

    def test_quadrupled_margins_quarter_t_at_fixed_response(self):
        # doubling the last layer doubles every logit, so margins scale by 4
        # while the accuracy-vs-noise behaviour of earlier layers is unchanged
        # (the decision boundary is scale-invariant); with the same converged
        # noise the response through the doubled layer also scales by 4, so t
        # quartering must come from the margin term in the denominator.
        model, ds = small_fixture()
        m1 = probes.margin_stats(model, ds)
        doubled = model.replace_layer(2, Layer("dense", 2.0 * model.layers[2].weights))
        m2 = probes.margin_stats(doubled, ds)
        assert m2.mean_r_star == pytest.approx(4.0 * m1.mean_r_star, rel=1e-6)

        cfg = ProbeConfig(delta_acc=0.4, acc_tolerance=0.02, seed=0)
        r1 = probes.estimate_t(model, ds, cfg, margins=m1)[0]
        # same fixture, same probe: recomputing t against the 4x margin
        # normalizer divides it by 4
        t_rescaled = r1.noise_power / m2.mean_r_star
        assert t_rescaled == pytest.approx(r1.t / 4.0, rel=1e-9)

    def test_failure_flags_layer_and_carries_partials(self):
        model, ds = small_fixture()
        # k_max too small to reach a 40% drop -> bracketing must fail
        cfg = ProbeConfig(delta_acc=0.4, acc_tolerance=0.001, seed=0,
                          k_min=1e-7, k_max=1e-6, max_iters=12)
        with pytest.raises(CalibrationError, match="layer 0"):
            probes.estimate_t(model, ds, cfg)

    def test_last_n_copies_t_backward(self):
        model, ds = small_fixture()
        cfg = ProbeConfig(delta_acc=0.4, acc_tolerance=0.02, seed=0, last_n=1)
        res = probes.estimate_t(model, ds, cfg)
        assert [r.index for r in res] == [0, 2]
        assert res[0].copied and not res[1].copied
        assert res[0].t == res[1].t

    def test_delta_beyond_baseline_rejected(self):
        model, ds = small_fixture()
        with pytest.raises(ValueError, match="delta_acc"):
            probes.estimate_t(model, ds, ProbeConfig(delta_acc=1.5))

    @pytest.mark.parametrize("last_n", [0, -1, 3])
    def test_last_n_outside_weighted_count_rejected(self, last_n):
        model, ds = small_fixture()  # two weighted layers
        with pytest.raises(ValueError, match="last_n must lie in 1..2"):
            probes.estimate_t(model, ds, ProbeConfig(delta_acc=0.4, last_n=last_n))

    @pytest.mark.parametrize("field,value", [("max_iters", 0), ("max_iters", -3),
                                             ("acc_tolerance", -0.1),
                                             ("acc_tolerance", float("nan"))])
    def test_config_rejects_settings_no_search_can_meet(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be >= "):
            ProbeConfig(**{field: value})


class TestSharedCache:
    def test_probes_with_a_shared_cache_equal_their_own(self):
        model, ds = small_fixture(n=1100)
        for threads in (1, 2):
            cache = nn.prefix_cache(model, ds.inputs, threads)
            cfg = ProbeConfig(delta_acc=0.4, acc_tolerance=0.02, seed=3, threads=threads)
            assert (probes.estimate_t(model, ds, cfg, cache=cache)
                    == probes.estimate_t(model, ds, cfg))
            assert (probes.estimate_p(model, ds, b_probe=8, threads=threads, cache=cache)
                    == probes.estimate_p(model, ds, b_probe=8, threads=threads))
            assert (probes.margin_stats(model, ds, threads=threads, cache=cache)
                    == probes.margin_stats(model, ds, threads=threads))

    def test_cache_for_other_arguments_rejected(self):
        model, ds = small_fixture()
        cache = nn.prefix_cache(model, ds.inputs, threads=1)
        other, _ = small_fixture(seed=1)
        with pytest.raises(ValueError, match="prefix cache"):
            probes.estimate_p(other, ds, cache=cache)
        with pytest.raises(ValueError, match="prefix cache"):
            probes.estimate_p(model, ds, threads=2, cache=cache)
        with pytest.raises(ValueError, match="prefix cache"):
            probes.estimate_p(model, Dataset(ds.inputs.copy(), ds.labels), cache=cache)


class TestEstimateP:
    def test_duplicating_dataset_leaves_p_unchanged(self):
        model, ds = small_fixture()
        doubled = Dataset(np.concatenate([ds.inputs, ds.inputs]),
                          np.concatenate([ds.labels, ds.labels]))
        a = probes.estimate_p(model, ds, b_probe=8)
        b = probes.estimate_p(model, doubled, b_probe=8)
        for x, y in zip(a, b):
            assert x.p == pytest.approx(y.p, rel=1e-12)

    def test_extrapolates_across_bitwidths(self):
        # p fitted at b=10 predicts the measured response at b=8 within 25%
        # (single dense layer z = Wx, so the only error is the residual-power
        # fluctuation around the 4x-per-bit law)
        rng = np.random.default_rng(3)
        w = rng.uniform(-0.5, 0.5, size=(50, 20)).astype(np.float32)
        model = Model((Layer("dense", w),), (50,))
        inputs = rng.standard_normal((60, 50)).astype(np.float32)
        ds = Dataset(inputs, np.zeros(60, dtype=int))
        p10 = probes.estimate_p(model, ds, b_probe=10)[0]
        p8 = probes.estimate_p(model, ds, b_probe=8)[0]
        predicted = p10.p * math.exp(-probes.ALPHA * 8)
        assert predicted == pytest.approx(p8.noise_power, rel=0.25)

    def test_doubled_feature_noise_quadruples_p(self):
        # z = W x with no bias: scaling W and its range by 2 doubles every
        # quantization residual exactly, so the feature noise power and hence
        # p quadruple; verified against a fresh feature_delta computation
        rng = np.random.default_rng(11)
        w = rng.uniform(-0.5, 0.5, size=(6, 4)).astype(np.float32)
        inputs = rng.standard_normal((40, 6)).astype(np.float32)
        m1 = Model((Layer("dense", w),), (6,))
        m2 = Model((Layer("dense", (2.0 * w).astype(np.float32)),), (6,))
        labels = np.zeros(40, dtype=int)
        ds = Dataset(inputs, labels)
        p1 = probes.estimate_p(m1, ds, b_probe=6)[0]
        p2 = probes.estimate_p(m2, ds, b_probe=6)[0]
        assert p2.p == pytest.approx(4.0 * p1.p, rel=1e-6)

        from qalloc.quantize import quantize_single_layer
        direct = nn.feature_delta(m2, quantize_single_layer(m2, 0, 6), ds)
        assert direct == pytest.approx(p2.noise_power, rel=1e-12)

    def test_degenerate_layer_flagged(self):
        w = np.zeros((3, 2), dtype=np.float32)
        model = Model((Layer("dense", w),), (3,))
        ds = Dataset(np.ones((4, 3), dtype=np.float32), [0, 0, 0, 0])
        with pytest.warns(UserWarning, match="degenerate"):
            res = probes.estimate_p(model, ds, b_probe=10)
        assert res[0].degenerate and res[0].p == 0.0

    def test_b_probe_validated(self):
        model, ds = small_fixture()
        with pytest.raises(ValueError):
            probes.estimate_p(model, ds, b_probe=1)


class TestBuildProfiles:
    def test_missing_sides_are_nan_with_neutral_flags(self):
        model, ds = small_fixture()
        t = probes.estimate_t(model, ds, ProbeConfig(delta_acc=0.3, acc_tolerance=0.02))
        p = probes.estimate_p(model, ds)
        both = probes.build_profiles(model, t, p, 0.3)
        t_only = probes.build_profiles(model, t, None, 0.3)
        p_only = probes.build_profiles(model, None, p, math.nan)
        for full, a, b in zip(both, t_only, p_only):
            assert (a.t, a.noise_scale, a.copied_t) == (full.t, full.noise_scale, full.copied_t)
            assert math.isnan(a.p) and a.b_probe == 0 and not a.degenerate
            assert (b.p, b.b_probe, b.degenerate) == (full.p, full.b_probe, full.degenerate)
            assert math.isnan(b.t) and math.isnan(b.noise_scale) and not b.copied_t
            assert (a.index, a.kind, a.s, a.weight_range) == (b.index, b.kind, b.s, b.weight_range)

    def test_given_side_must_cover_every_layer(self):
        model, ds = small_fixture()
        p = probes.estimate_p(model, ds)
        with pytest.raises(ValueError, match="missing probe results for layer 0"):
            probes.build_profiles(model, None, p[1:], math.nan)


class TestMeasurement:
    def test_single_layer_hand_value(self):
        m, m_all = probes.measurement([4.0], [8.0])  # bare t values accepted
        assert m == [2.0] and m_all == 2.0

    def test_zero_noise_gives_zero(self):
        _, m_all = probes.measurement([2.0, 3.0], [0.0, 0.0])
        assert m_all == 0.0

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(5)
        ts = rng.uniform(0.5, 5.0, size=6)
        powers = rng.uniform(0.0, 2.0, size=6)
        m, m_all = probes.measurement(list(ts), list(powers))
        assert m_all == pytest.approx(sum(p / t for p, t in zip(powers, ts)), rel=1e-12)


class TestLinearityProbe:
    def test_dense_only_slope_is_one(self):
        rng = np.random.default_rng(2)
        model = Model((Layer("dense", rng.uniform(-1, 1, size=(8, 4)).astype(np.float32)),), (8,))
        ds = Dataset(rng.standard_normal((30, 8)).astype(np.float32), np.zeros(30, dtype=int))
        ladder = probes.default_scale_ladder(model, 0)
        pts = probes.linearity_probe(model, ds, 0, ladder, seed=1)
        slope, r2 = probes.loglog_fit(pts)
        assert slope == pytest.approx(1.0, abs=1e-6)
        assert r2 >= 1 - 1e-9

    def test_needs_five_scales(self):
        model, ds = small_fixture()
        with pytest.raises(ValueError):
            probes.linearity_probe(model, ds, 0, [0.1, 0.2])


class TestAdditivityProbe:
    def test_single_layer_sum_equals_joint(self):
        rng = np.random.default_rng(3)
        model = Model((Layer("dense", rng.uniform(-1, 1, size=(5, 3)).astype(np.float32)),), (5,))
        ds = Dataset(rng.standard_normal((20, 5)).astype(np.float32), np.zeros(20, dtype=int))
        res = probes.additivity_probe(model, ds, [6])
        assert res.sum_singles == res.joint

    def test_small_noise_gap_is_small(self):
        model, ds = small_fixture(seed=3)
        res = probes.additivity_probe(model, ds, [10, 10])
        assert res.relative_gap <= 0.10

    def test_large_noise_runs_as_diagnostic(self):
        model, ds = small_fixture(seed=3)
        res = probes.additivity_probe(model, ds, [3, 3])
        assert res.joint > 0  # no assertion on the gap; the regime is nonlinear


class TestLemma:
    def test_flip_rate_within_bound(self):
        report = probes.lemma_check(10, 0.1, 10_000, seed=0)
        assert report.flip_rate <= 0.2
        assert report.passed

    def test_deterministic(self):
        assert probes.lemma_check(10, 0.2, 2000, seed=3) == probes.lemma_check(10, 0.2, 2000, seed=3)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            probes.lemma_check(1, 0.1, 2000)
        with pytest.raises(ValueError):
            probes.lemma_check(10, 0.0, 2000)
        with pytest.raises(ValueError):
            probes.lemma_check(10, 0.1, 10)


class TestRankDiagnostic:
    def test_reports_an_integer_rank(self):
        model, ds = small_fixture()
        rank = probes.rank_diagnostic(model, ds, 0, seed=0)
        assert 1 <= rank <= model.d
