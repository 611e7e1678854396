import json
import math
import tracemalloc
from dataclasses import asdict, fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qalloc import harness, modelio, nn, probes
from qalloc.cli import main
from qalloc.nn import Dataset, Layer, Model
from qalloc.probes import CalibrationError, ProbeConfig, TProbe


def small_fixture(seed=0, n=400):
    """Two-layer dense net with teacher labels; fast enough for search tests."""
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(-0.3, 0.3, size=(12, 16)).astype(np.float32)
    w2 = rng.uniform(-0.3, 0.3, size=(16, 5)).astype(np.float32)
    model = Model((Layer("dense", w1), Layer("relu"), Layer("dense", w2)), (12,))
    inputs = rng.standard_normal((n, 12)).astype(np.float32)
    labels = nn.classify_batch(nn.forward_batch(model, inputs))
    return model, Dataset(inputs, labels)


def small_conv_fixture(seed=2, n=1101):
    """conv -> relu -> maxpool -> dense -> relu -> dense on 8x8x2 inputs, with teacher labels.

    Its conv stretch is what a staged t search cuts short; n is odd, so no
    count of correct rows meets half the baseline accuracy exactly.
    """
    rng = np.random.default_rng(seed)

    def u(*shape):
        return rng.uniform(-0.5, 0.5, size=shape).astype(np.float32)

    model = Model((Layer("conv2d", u(3, 3, 2, 4), u(4), padding="same"), Layer("relu"),
                   Layer("maxpool2d", pool_size=2, stride=2), Layer("dense", u(64, 16), u(16)),
                   Layer("relu"), Layer("dense", u(16, 5), u(5))), (8, 8, 2))
    inputs = rng.standard_normal((n, 8, 8, 2)).astype(np.float32)
    return model, Dataset(inputs, nn.classify_batch(nn.forward_batch(model, inputs)))


def cached(model, ds, threads=1):
    """The prefix cache every probe runs on: one baseline forward of `ds`."""
    return nn.prefix_cache(model, ds.inputs, threads)


class TestMarginStats:
    def test_single_vector_hand_value(self):
        stats = probes.margin_stats(np.array([[3.0, 1.0, 0.0]]))
        assert stats.mean_r_star == pytest.approx(2.0, rel=1e-12)  # (3-1)^2/2

    def test_equal_logits_give_zero(self):
        assert probes.margin_stats(np.array([[1.0, 1.0, 1.0]])).mean_r_star == 0.0

    def test_batch_mean(self):
        # margins 2.0 and 0.0 -> mean 1.0
        stats = probes.margin_stats(np.array([[3.0, 1.0, 0.0], [1.0, 1.0, 0.0]]))
        assert stats.mean_r_star == pytest.approx(1.0, rel=1e-12)
        assert sum(stats.counts) == 2

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            probes.margin_stats(np.ones((1, 1)))

    def test_needs_one_sample(self):
        with pytest.raises(ValueError, match="^margins need at least one sample$"):
            probes.margin_stats(np.zeros((0, 3)))

    def test_margins_of_the_cache_equal_margins_of_a_forward(self):
        model, ds = small_fixture(n=1100)
        for threads in (1, 2):
            assert (probes.margin_stats(cached(model, ds, threads).logits)
                    == probes.margin_stats(nn.forward_batch(model, ds.inputs, threads)))


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
        for r in probes.estimate_t(cached(model, ds), ds.labels, cfg):
            assert r.converged
            assert abs(r.accuracy_drop - 0.4) <= 0.02

    def test_same_seed_is_bit_identical(self):
        model, ds = small_fixture()
        cfg = ProbeConfig(delta_acc=0.4, acc_tolerance=0.02, seed=7)
        a = probes.estimate_t(cached(model, ds), ds.labels, cfg)
        b = probes.estimate_t(cached(model, ds), ds.labels, cfg)
        assert a == b

    def test_quadrupled_margins_quarter_t_at_fixed_response(self):
        # doubling the last layer doubles every logit, so margins scale by 4
        # while the accuracy-vs-noise behaviour of earlier layers is unchanged
        # (the decision boundary is scale-invariant); with the same converged
        # noise the response through the doubled layer also scales by 4, so t
        # quartering must come from the margin term in the denominator.
        model, ds = small_fixture()
        m1 = probes.margin_stats(nn.forward_batch(model, ds.inputs))
        doubled = model.replace_layer(2, Layer("dense", 2.0 * model.layers[2].weights))
        m2 = probes.margin_stats(nn.forward_batch(doubled, ds.inputs))
        assert m2.mean_r_star == pytest.approx(4.0 * m1.mean_r_star, rel=1e-6)

        cfg = ProbeConfig(delta_acc=0.4, acc_tolerance=0.02, seed=0)
        r1 = probes.estimate_t(cached(model, ds), ds.labels, cfg)[0]
        # same fixture, same probe: recomputing t against the 4x margin
        # normalizer divides it by 4
        t_rescaled = r1.noise_power / m2.mean_r_star
        assert t_rescaled == pytest.approx(r1.t / 4.0, rel=1e-9)

    def test_failure_flags_layer(self):
        model, ds = small_fixture()
        # an exact drop target and two bisection steps cannot be met
        cfg = ProbeConfig(delta_acc=0.4, acc_tolerance=0.0, seed=0, max_iters=2)
        with pytest.raises(CalibrationError, match="layer 0"):
            probes.estimate_t(cached(model, ds), ds.labels, cfg)

    def test_last_n_copies_t_backward(self):
        # `calibrate` is the one code that applies last_n
        model, ds = small_fixture()
        cfg = ProbeConfig(delta_acc=0.4, acc_tolerance=0.02, seed=0, last_n=1)
        res, _, _ = probes.calibrate(model, ds, cfg)
        assert [r.index for r in res] == [0, 2]
        assert res[0].copied and not res[1].copied
        assert res[0].t == res[1].t

    def test_a_model_without_weighted_layers_searches_nothing(self):
        # no layer to probe, so no t to copy backward: an empty list, not an IndexError
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((200, 3)).astype(np.float32), rng.integers(0, 3, 200))
        res, p_probes, _ = probes.calibrate(Model((Layer("relu"),), (3,)), ds, ProbeConfig(), 8)
        assert res == [] and p_probes == []

    @pytest.mark.parametrize("delta_acc,tol,holds_every_drop", [
        (None, 0.5, True), (None, 1.0, True), (0.25, 0.75, True), (None, 0.49, False),
        (0.25, 0.74, False)])
    def test_a_band_that_holds_every_drop_is_rejected_before_any_iterate(
            self, monkeypatch, delta_acc, tol, holds_every_drop):
        # drops run from acc_f - 1 (every row right) to acc_f (every row wrong); the baseline is 1
        def fail(*args, **kwargs):
            raise AssertionError("an iterate ran")

        model, ds = small_fixture()
        cache = cached(model, ds)
        monkeypatch.setattr(probes, "_bisect", fail)
        cfg = ProbeConfig(delta_acc=delta_acc, acc_tolerance=tol)
        if not holds_every_drop:
            with pytest.raises(AssertionError, match="an iterate ran"):
                probes.estimate_t(cache, ds.labels, cfg)
            return
        target = 0.5 if delta_acc is None else delta_acc
        with pytest.raises(ValueError) as err:
            probes.estimate_t(cache, ds.labels, cfg)
        assert str(err.value) == (f"acc_tolerance {tol} accepts every accuracy drop around "
                                  f"target {target} (baseline accuracy 1.0)")

    @pytest.mark.parametrize("n,tol,reachable", [
        (51, 0.005, False), (50, 0.005, True), (1101, 0.0004, False), (1101, 0.0005, True),
        (51, 0.0, False), (1101, 0.0, False), (50, 0.0, True)])
    def test_a_band_that_holds_no_reachable_drop_is_rejected_before_any_iterate(
            self, monkeypatch, n, tol, reachable):
        # the labels are the model's own classes, so the baseline is 1 and the target 0.5; the
        # drop moves in steps of 1/n, and at odd n the nearest drops lie 1/(2n) from the target
        def fail(*args, **kwargs):
            raise AssertionError("an iterate ran")

        model, ds = small_conv_fixture(n=n)
        cache = cached(model, ds)
        monkeypatch.setattr(probes, "_bisect", fail)
        cfg = ProbeConfig(acc_tolerance=tol)
        if reachable:
            with pytest.raises(AssertionError, match="an iterate ran"):
                probes.estimate_t(cache, ds.labels, cfg)
            return
        with pytest.raises(ValueError) as err:
            probes.estimate_t(cache, ds.labels, cfg)
        assert str(err.value) == (f"acc_tolerance {tol} holds no reachable accuracy drop around "
                                  f"target 0.5000: the drop moves in steps of 1/{n}")

    def test_delta_beyond_baseline_rejected(self):
        model, ds = small_fixture()
        with pytest.raises(ValueError, match="delta_acc"):
            probes.estimate_t(cached(model, ds), ds.labels, ProbeConfig(delta_acc=1.5))

    def test_label_count_must_match_the_rows(self):
        model, ds = small_fixture()
        with pytest.raises(ValueError, match="^399 labels for 400 rows$"):
            probes.estimate_t(cached(model, ds), ds.labels[:-1], ProbeConfig(delta_acc=0.4))
        with pytest.raises(ValueError, match="^399 labels for 400 rows$"):
            nn.accuracy(nn.forward_batch(model, ds.inputs), ds.labels[:-1])

    @pytest.mark.parametrize("last_n", [0, -1, 3])
    def test_last_n_outside_weighted_count_rejected(self, last_n):
        model, ds = small_fixture()  # two weighted layers
        with pytest.raises(ValueError, match="last_n must lie in 1..2"):
            probes.calibrate(model, ds, ProbeConfig(delta_acc=0.4, last_n=last_n))

    @pytest.mark.parametrize("field,value", [("max_iters", 0), ("max_iters", -3),
                                             ("acc_tolerance", -0.1),
                                             ("acc_tolerance", float("nan")),
                                             ("acc_tolerance", math.inf),
                                             ("delta_acc", -0.1), ("delta_acc", 0.0),
                                             ("delta_acc", float("nan")), ("delta_acc", math.inf)])
    def test_config_rejects_settings_no_search_can_meet(self, field, value):
        rule = "be > 0" if field == "delta_acc" else "be >= "
        with pytest.raises(ValueError, match=f"^{field} must {rule}"):
            ProbeConfig(**{field: value})


def recording(side):
    """A side oracle for `probes._bisect` from side(k), and the list of the k it was called at."""
    calls = []

    def side_at(k):
        calls.append(k)
        return side(k)

    return side_at, calls


def step_at(k_star, band=0.0):
    """The side of a monotone drop that meets its target on |ln(k / k_star)| < band."""
    return lambda k: 0 if abs(math.log(k / k_star)) < band else (1 if k < k_star else -1)


class TestBisect:
    """The solver alone, on synthetic side oracles: no forward runs."""

    def test_accept_on_the_first_call(self):
        side_at, calls = recording(lambda k: 0)
        assert probes._bisect(side_at, 40) == (0.1, 1, True)
        assert calls == [0.1]

    @pytest.mark.parametrize("max_iters,iters", [(40, 40), (60, 45)])
    def test_a_plateau_below_the_target_ends_at_the_cap_or_the_collapse(self, max_iters, iters):
        # the drop never reaches the target, so every call raises k_lo: forty iterations end at
        # the cap, sixty at the interval's collapse onto _K_MAX
        side_at, calls = recording(lambda k: 1)
        k, got, accepted = probes._bisect(side_at, max_iters)
        assert (got, accepted, k) == (iters, False, calls[-1])
        assert k == pytest.approx(probes._K_MAX, rel=1e-10)

    def test_a_step_with_no_accept_band_collapses_onto_it(self):
        side_at, calls = recording(step_at(0.37))
        k, iters, accepted = probes._bisect(side_at, 60)
        assert (iters, accepted) == (45, False)
        assert abs(k / 0.37 - 1) < 1e-12

    def test_a_step_with_an_accept_band_is_accepted_early(self):
        side_at, calls = recording(step_at(0.37, 0.01))
        k, iters, accepted = probes._bisect(side_at, 40)
        assert accepted and iters == len(calls) <= 10
        assert abs(math.log(k / 0.37)) < 0.01

    @given(log_k=st.floats(math.log(probes._K_MIN), math.log(probes._K_MAX)),
           band=st.sampled_from([0.0, 1e-9, 1e-4, 0.01, 0.5]), max_iters=st.integers(1, 60))
    @settings(max_examples=200, deadline=None)
    def test_the_search_ends_only_on_accept_cap_or_collapse(self, log_k, band, max_iters):
        side = step_at(math.exp(log_k), band)
        side_at, calls = recording(side)
        k, iters, accepted = probes._bisect(side_at, max_iters)
        assert iters == len(calls) <= max_iters and k == calls[-1]
        assert all(probes._K_MIN < c < probes._K_MAX for c in calls)
        # replay the bracket: each call lies inside it, and only the last may accept
        k_lo, k_hi = probes._K_MIN, probes._K_MAX
        for c in calls:
            assert k_lo < c < k_hi
            if side(c):
                k_lo, k_hi = (c, k_hi) if side(c) > 0 else (k_lo, c)
            else:
                assert c == calls[-1] and accepted
        if not accepted:
            assert iters == max_iters or k_hi / k_lo < 1 + 1e-12


def reference_estimate_t(cache, labels, config):
    """The t search that forwards every row of every iterate, frozen as it was before staging."""
    model = cache.model
    probe_set = probes.probed_layers(model, config.last_n)
    acc_f = nn.accuracy(cache.logits, labels)
    target = config.target_drop(acc_f)
    margins = probes.margin_stats(cache.logits)
    results = []
    for i in probe_set:
        direction = probes._probe_direction(model, i, config.seed)
        k_lo, k_hi = probes._K_MIN, probes._K_MAX
        found = None
        iters = 0
        drop = math.nan
        while iters < config.max_iters:
            iters += 1
            k = math.sqrt(k_lo * k_hi)
            z = nn.forward_from(cache, nn.perturb_layer(model, i, k * direction), i)
            drop = acc_f - nn.accuracy(z, labels)
            if abs(drop - target) <= config.acc_tolerance:
                found = (k, z)
                break
            if drop < target:
                k_lo = k
            else:
                k_hi = k
            if k_hi / k_lo < 1 + 1e-12:
                break
        if found is None:
            raise CalibrationError(
                f"layer {i}: accuracy drop {drop:.4f} never reached target {target:.4f} "
                f"+/- {config.acc_tolerance} within bounds [{probes._K_MIN}, {probes._K_MAX}] "
                f"({iters} iterations)")
        k, z = found
        power = nn.mean_power(cache.logits - z)
        results.append(TProbe(i, power / margins.mean_r_star, k, power, drop, iters, True))
    if config.last_n is not None and probe_set:
        pre = [TProbe(i, results[0].t, math.nan, math.nan, math.nan, 0, True, copied=True)
               for i in model.weighted_indices if i not in probe_set]
        results = pre + results
    return results


def same_probes(a, b):
    """Equal TProbe lists, NaN fields (the copied layers') matching NaN."""
    compared = [f.name for f in fields(TProbe) if f.compare]
    return len(a) == len(b) and all(
        all(x == y or (x != x and y != y)
            for x, y in ((getattr(p, f), getattr(q, f)) for f in compared))
        for p, q in zip(a, b))


class TestStagedSearch:
    """The early-stopped search returns what the search that forwards every row returns."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_default_fixture_equals_the_full_search(self, fixture_model, fixture_dataset, threads):
        cache = nn.prefix_cache(fixture_model, fixture_dataset.inputs, threads)
        n = len(fixture_dataset)
        for seed in range(3):
            cfg = ProbeConfig(seed=seed)
            got = probes.estimate_t(cache, fixture_dataset.labels, cfg)
            assert got == reference_estimate_t(cache, fixture_dataset.labels, cfg)
            iterations, early, rows = (sum(getattr(r, f) for r in got)
                                       for f in ("iterations", "early", "rows"))
            if seed == 0:  # what `qalloc estimate-t` reports on the default fixture
                assert (iterations, early, rows) == {1: (33, 12, 57872), 2: (33, 0, 66000)}[threads]
            # a stack that runs in chunks (threads 2 on 2000 rows) runs every iterate whole, and
            # so does a dense layer's search, which has no row-local stretch to stage: its rows
            # count every iterate's whole forward
            assert (early > 0) == (rows < iterations * n) == (threads == 1)
            for r in got:
                if threads > 1 or fixture_model.layers[r.index].kind == "dense":
                    assert (r.rows, r.early) == (r.iterations * n, 0)
            assert all(r.rows <= r.iterations * n and r.early <= r.iterations for r in got)

    def test_last_n_and_small_fixture_equal_the_full_search(self, fixture_model, fixture_dataset):
        cache = nn.prefix_cache(fixture_model, fixture_dataset.inputs)  # keeps every input
        cfg = ProbeConfig(last_n=2)
        got, _, _ = probes.calibrate(fixture_model, fixture_dataset, cfg)
        assert same_probes(got, reference_estimate_t(cache, fixture_dataset.labels, cfg))
        # a copied t carries no work; a probed one forwarded rows
        assert all((r.rows, r.early) == (0, 0) if r.copied else r.rows > 0 for r in got)
        model, ds = small_conv_fixture()
        for threads in (1, 2):
            for cfg in (ProbeConfig(delta_acc=0.4, acc_tolerance=0.02, seed=3),
                        ProbeConfig(acc_tolerance=0.001, seed=1)):
                small = cached(model, ds, threads)
                got = probes.estimate_t(small, ds.labels, cfg)
                assert got == reference_estimate_t(small, ds.labels, cfg)
                assert (sum(r.early for r in got) > 0) == (threads == 1)

    @pytest.mark.parametrize("which,max_iters", [("default", 2), ("small", 2), ("small", 60)])
    def test_failure_message_is_the_full_search_one(self, fixture_model, fixture_dataset, which,
                                                    max_iters, monkeypatch):
        # the message's drop is the exact one at the failing k, even when the last iterate
        # stopped early: two iterations end at the cap, sixty at an interval that collapses first.
        # "small" holds each of 551 rows twice: its exact target, 551 of 1102 rows correct,
        # passes the reachability check, but a row and its twin flip at the same k, so the
        # count of correct rows is always even and no k meets the target
        model, ds = fixture_model, fixture_dataset
        if which == "small":
            model, ds = small_conv_fixture(n=551)
            ds = Dataset(np.concatenate([ds.inputs] * 2), np.concatenate([ds.labels] * 2))
        cache = cached(model, ds)
        cfg = ProbeConfig(acc_tolerance=0.0, max_iters=max_iters)
        with pytest.raises(CalibrationError) as want:
            reference_estimate_t(cache, ds.labels, cfg)
        searches = []

        class Spy(probes._LayerSearch):
            def __init__(self, *args):
                super().__init__(*args)
                self.stopped = []  # per iterate, whether it stopped early
                searches.append(self)

            def __call__(self, k):
                early = self.early
                side = super().__call__(k)
                self.stopped.append(self.early > early)
                return side

        monkeypatch.setattr(probes, "_LayerSearch", Spy)
        with pytest.raises(CalibrationError) as got:
            probes.estimate_t(cache, ds.labels, cfg)
        assert str(got.value) == str(want.value)
        assert searches[-1].early > 0  # the failing layer stopped an iterate early
        if max_iters == 2:  # its last one too, so the drop came from estimate_t's own forward
            assert searches[-1].stopped[-1]
        else:  # the interval collapsed before the cap
            assert str(got.value).endswith("(45 iterations)")

    def test_the_work_is_not_part_of_a_tprobe_s_value(self):
        a = TProbe(0, 1.5, 0.1, 0.2, 0.25, 5, True, rows=4000, early=2)
        assert a == replace(a, rows=0, early=0)
        assert hash(a) == hash(replace(a, rows=0, early=0))
        assert a != replace(a, iterations=6)

    @given(n=st.integers(1, 300), base=st.floats(0.02, 1.0), frac=st.floats(0.01, 0.99),
           tol=st.sampled_from([0.0, 1e-3, 0.005, 0.02, 0.1]), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_certain_step_holds_for_every_completion(self, n, base, frac, tol, data):
        acc_f = max(1, round(base * n)) / n
        rule = probes._Rule(n, acc_f, frac * acc_f, tol)
        right = data.draw(st.integers(0, n))
        wrong = data.draw(st.integers(0, n - right))
        step = rule.certain(right, wrong)
        outcomes = {rule.step(rule.drop(c)) for c in range(right, n - wrong + 1)}
        if step:
            assert outcomes == {step}
        else:
            assert len(outcomes) > 1 or outcomes == {0}


def profile_text(profiles) -> str:
    """Profiles as comparable text: NaN fields (never measured) match NaN."""
    return json.dumps([asdict(p) for p in profiles])


class TestCalibrationFronts:
    """The fronts probe the last layer first and drop each layer's input once it is done.

    Each probe reads only its layer's cached input and the logits, so every
    result is the forward-order one on a cache that keeps every input.
    """

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_pipeline_equals_the_forward_order_probes(self, threads):
        model, ds = small_conv_fixture()  # 1101 rows: three evaluation chunks past one thread
        keep = cached(model, ds, threads)  # a cache that keeps every input
        for last_n in (None, 2):
            cfg = ProbeConfig(delta_acc=0.4, acc_tolerance=0.02, seed=3, last_n=last_n,
                              threads=threads)
            want = probes.build_profiles(model, reference_estimate_t(keep, ds.labels, cfg),
                                         probes.estimate_p(keep), cfg.delta_acc)
            assert profile_text(harness.run_pipeline(model, ds, cfg)) == profile_text(want)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_estimate_files_equal_the_forward_order_probes(self, tmp_path, threads):
        model, ds = small_conv_fixture()
        modelio.save_model(model, tmp_path / "m")
        modelio.save_dataset(ds, tmp_path / "d")
        args = ["--model", str(tmp_path / "m"), "--data", str(tmp_path / "d"),
                "--threads", str(threads), "--out", str(tmp_path / "run")]
        for flags, cfg in (([], ProbeConfig(threads=threads)),
                           (["--last-n", "2"], ProbeConfig(last_n=2, threads=threads))):
            assert main(["estimate-t", *args, *flags]) == 0
            got, _ = modelio.load_profiles(tmp_path / "run" / "profiles_t.json")
            t_probes = reference_estimate_t(cached(model, ds, threads), ds.labels, cfg)
            want = probes.build_profiles(model, t_probes, None, 0.5)
            assert profile_text(got) == profile_text(want)
        for b_probe in (10, 8):
            assert main(["estimate-p", *args, "--b-probe", str(b_probe)]) == 0
            got, _ = modelio.load_profiles(tmp_path / "run" / "profiles_p.json")
            p_probes = probes.estimate_p(cached(model, ds, threads), b_probe)
            want = probes.build_profiles(model, None, p_probes, math.nan)
            assert profile_text(got) == profile_text(want)

    def test_probes_leave_a_caller_s_cache_as_it_was(self):
        model, ds = small_conv_fixture(n=600)
        cache = cached(model, ds)
        before = dict(cache.layer_inputs)

        def unchanged():
            return (cache.layer_inputs.keys() == before.keys()
                    and all(cache.layer_inputs[i] is a for i, a in before.items()))

        probes.estimate_t(cache, ds.labels, ProbeConfig(delta_acc=0.4, acc_tolerance=0.02))
        probes.estimate_p(cache, b_probe=8)
        assert unchanged()
        for i in model.weighted_indices:
            probes.linearity_probe(cache, i, probes.default_scale_ladder(model, i))
            probes.rank_diagnostic(cache, i)
        probes.additivity_probe(cache, [8] * len(model.weighted_indices))
        harness.check_t_ratio_stability(cache, ds.labels, seed=0)
        assert unchanged()
        with pytest.raises(CalibrationError):
            probes.estimate_t(cache, ds.labels, ProbeConfig(acc_tolerance=0.0, max_iters=2))
        assert unchanged()

    def test_a_front_s_own_cache_keeps_no_input_past_layer_0(self, tmp_path, monkeypatch):
        model, ds = small_conv_fixture(n=600)
        modelio.save_model(model, tmp_path / "m")
        modelio.save_dataset(ds, tmp_path / "d")
        made = []
        build = nn.prefix_cache
        monkeypatch.setattr(nn, "prefix_cache",
                            lambda *args, **kwargs: made.append(build(*args, **kwargs)) or made[-1])
        harness.run_pipeline(model, ds, ProbeConfig(delta_acc=0.4, acc_tolerance=0.02))
        for command in ("estimate-t", "estimate-p"):
            assert main([command, "--model", str(tmp_path / "m"), "--data", str(tmp_path / "d"),
                         "--out", str(tmp_path / "run")]) == 0
        assert len(made) == 3
        for cache in made:
            assert set(cache.layer_inputs) <= {0}
            with pytest.raises(ValueError, match="no cached input for layer 3"):
                probes.estimate_p(cache, layers=(3,))

    def test_calibrate_holds_only_the_inputs_of_the_layers_still_to_probe(
            self, fixture_model, monkeypatch):
        # the build keeps layers 0, 5 and 7; layer 3's input comes back when its turn comes
        ds = modelio.gen_dataset(fixture_model, 600, seed=modelio.DEFAULT_SEED + 1)
        calls = []

        def spy(name, probe):
            def run(cache, *args, layers, **kwargs):
                calls.append((name, *layers, sorted(cache.layer_inputs)))
                return probe(cache, *args, layers=layers, **kwargs)
            return run

        monkeypatch.setattr(probes, "estimate_p", spy("p", probes.estimate_p))
        monkeypatch.setattr(probes, "estimate_t", spy("t", probes.estimate_t))
        probes.calibrate(fixture_model, ds, ProbeConfig(), b_probe=10)
        held = {7: [0, 5, 7], 5: [0, 5], 3: [0, 3], 0: [0]}
        assert calls == [(name, i, held[i]) for i in (7, 5, 3, 0) for name in "pt"]
        calls.clear()

        def no_fill(*args):
            raise AssertionError("layer 3's input was built")

        monkeypatch.setattr(nn.PrefixCache, "fill", no_fill)
        probes.calibrate(fixture_model, ds, ProbeConfig(last_n=2))
        assert calls == [("t", 7, [0, 5, 7]), ("t", 5, [0, 5])]

    def test_a_threaded_calibration_peaks_below_two_conv_inputs(self, fixture_model,
                                                                 fixture_dataset):
        # layer 3's input is built only for its own probes, after layer 5's has gone: 14.1 MB
        # at n = 2000, where a cache that keeps it from the start read 18.1 MB
        one = 8 * len(fixture_dataset) * math.prod(fixture_model.shapes[3])
        tracemalloc.start()
        try:
            probes.calibrate(fixture_model, fixture_dataset, ProbeConfig(), b_probe=10,
                             threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * one

    def test_a_failed_run_searches_every_layer_and_names_the_lowest_failure(
            self, fixture_model, monkeypatch):
        ds = modelio.gen_dataset(fixture_model, 600, seed=modelio.DEFAULT_SEED + 1)
        searched = []
        bisect = probes._bisect

        def failing_at_3_and_7(search, max_iters):
            searched.append(search.i)
            return (1.0, 1, False) if search.i in (3, 7) else bisect(search, max_iters)

        monkeypatch.setattr(probes, "_bisect", failing_at_3_and_7)
        # a front searches last first and every layer; estimate_t stops at its first failure
        for run, order in ((lambda: harness.run_pipeline(fixture_model, ds), [7, 5, 3, 0]),
                           (lambda: probes.estimate_t(cached(fixture_model, ds), ds.labels),
                            [0, 3])):
            searched.clear()
            with pytest.raises(CalibrationError, match="^layer 3: accuracy drop "):
                run()
            assert searched == order

    def test_pipeline_peaks_below_three_cached_layer_inputs(self, fixture_model):
        # layer 3's input is never held next to layer 5's, so the peak is layer 3's search:
        # its input and an iterate's stretch output, as large, next to the logits and the
        # workspaces.  It reads 2.37 inputs of layer 3 here, and 2.20 at n = 2000.
        ds = modelio.gen_dataset(fixture_model, 1000, seed=modelio.DEFAULT_SEED + 1)
        one = 8 * len(ds) * math.prod(fixture_model.shapes[3])  # layer 3's input, the largest
        tracemalloc.start()
        try:
            harness.run_pipeline(fixture_model, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * one


def within(provisional: float, slack: float, u: float) -> float:
    """A final value at provisional + u * slack, moved toward provisional until it is within slack."""
    final = provisional + u * slack
    while abs(Fraction(final) - Fraction(provisional)) > Fraction(slack):
        final = np.nextafter(final, provisional)
    return float(final)


class TestSettled:
    """A row `_settled` counts keeps its class for any final logits within its slack."""

    @given(d=st.integers(1, 5), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_counted_row_keeps_its_side_for_any_completion(self, d, data):
        n = data.draw(st.integers(1, 8))
        # near ties too: steps of 2^-42 around 1, against a slack of 2^-41
        value = st.one_of(st.floats(-10, 10),
                          st.integers(-8, 8).map(lambda j: 1.0 + j * 2.0 ** -42))
        logits = np.array(data.draw(st.lists(st.lists(value, min_size=d, max_size=d),
                                             min_size=n, max_size=n)))
        labels = np.array(data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)))
        slack = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 2.0 ** -41, 1e-12, 1e-3, 0.25, 1.0]), min_size=n, max_size=n)))
        # a drawn completion within the slack, +/- slack included, and the two extremes: the
        # label's logit down by the slack and every other up, and the reverse
        drawn = data.draw(st.lists(st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1, 1)),
                                   min_size=n * d, max_size=n * d))
        up = np.where(np.arange(d) == labels[:, None], 1.0, -1.0)
        margin = probes._signed_margin(logits, labels)
        counts = [probes._settled(margin[r:r + 1], slack[r:r + 1]) for r in range(n)]
        assert probes._settled(margin, slack) == tuple(map(sum, zip(*counts)))
        for r, (right, wrong) in enumerate(counts):
            for u in (drawn[r * d:(r + 1) * d], up[r], -up[r]):
                top = np.argmax([within(logits[r, c], slack[r], u[c]) for c in range(d)])
                assert not right or top == labels[r]
                assert not wrong or top != labels[r]

    def test_a_label_far_below_a_near_tie_is_wrong(self):
        # the top two are within the slack of each other, but both lie far above the label
        margin = probes._signed_margin(np.array([[0.0, 5.0, 5.0 + 1e-13]]), np.array([0]))
        assert probes._settled(margin, np.array([1e-12])) == (0, 1)

    def test_a_margin_at_twice_the_slack_is_unsettled(self):
        slack = np.array([2.0 ** -41, 2.0 ** -41, 0.0])
        margin = np.array([2.0 ** -40, -(2.0 ** -40), 0.0])  # at the bound, and a tie
        assert probes._settled(margin, slack) == (0, 0)


class TestEstimateP:
    def test_duplicating_dataset_leaves_p_unchanged(self):
        model, ds = small_fixture()
        doubled = Dataset(np.concatenate([ds.inputs, ds.inputs]),
                          np.concatenate([ds.labels, ds.labels]))
        a = probes.estimate_p(cached(model, ds), b_probe=8)
        b = probes.estimate_p(cached(model, doubled), b_probe=8)
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
        p10 = probes.estimate_p(cached(model, ds), b_probe=10)[0]
        p8 = probes.estimate_p(cached(model, ds), b_probe=8)[0]
        predicted = p10.p * math.exp(-probes.ALPHA * 8)
        assert predicted == pytest.approx(p8.noise_power, rel=0.25)

    def test_doubled_feature_noise_quadruples_p(self):
        # z = W x with no bias: scaling W and its range by 2 doubles every
        # quantization residual exactly, so the feature noise power and hence
        # p quadruple; verified against a fresh forward of the quantized copy
        rng = np.random.default_rng(11)
        w = rng.uniform(-0.5, 0.5, size=(6, 4)).astype(np.float32)
        inputs = rng.standard_normal((40, 6)).astype(np.float32)
        m1 = Model((Layer("dense", w),), (6,))
        m2 = Model((Layer("dense", (2.0 * w).astype(np.float32)),), (6,))
        labels = np.zeros(40, dtype=int)
        ds = Dataset(inputs, labels)
        p1 = probes.estimate_p(cached(m1, ds), b_probe=6)[0]
        p2 = probes.estimate_p(cached(m2, ds), b_probe=6)[0]
        assert p2.p == pytest.approx(4.0 * p1.p, rel=1e-6)

        from qalloc.quantize import quantize_single_layer
        direct = nn.mean_power(nn.forward_batch(m2, inputs)
                               - nn.forward_batch(quantize_single_layer(m2, 0, 6), inputs))
        assert direct == pytest.approx(p2.noise_power, rel=1e-12)

    def test_degenerate_layer_flagged(self):
        w = np.zeros((3, 2), dtype=np.float32)
        model = Model((Layer("dense", w),), (3,))
        ds = Dataset(np.ones((4, 3), dtype=np.float32), [0, 0, 0, 0])
        with pytest.warns(UserWarning, match="degenerate"):
            res = probes.estimate_p(cached(model, ds), b_probe=10)
        assert res[0].degenerate and res[0].p == 0.0

    def test_calibrate_warns_of_degenerate_layers_last_first(self):
        zeros = np.zeros((3, 3), dtype=np.float32)
        model = Model((Layer("dense", zeros), Layer("relu"), Layer("dense", zeros)), (3,))
        ds = Dataset(np.ones((4, 3), dtype=np.float32), [0, 0, 0, 0])
        with pytest.warns(UserWarning, match="degenerate") as record:
            _, res, _ = probes.calibrate(model, ds, b_probe=10)
        assert [str(w.message).split(":")[0] for w in record] == ["layer 2", "layer 0"]
        assert [(r.index, r.degenerate) for r in res] == [(0, True), (2, True)]

    def test_b_probe_validated(self):
        model, ds = small_fixture()
        with pytest.raises(ValueError):
            probes.estimate_p(cached(model, ds), b_probe=1)


class TestBuildProfiles:
    def test_missing_sides_are_nan_with_neutral_flags(self):
        model, ds = small_fixture()
        t = probes.estimate_t(cached(model, ds), ds.labels,
                              ProbeConfig(delta_acc=0.3, acc_tolerance=0.02))
        p = probes.estimate_p(cached(model, ds))
        both = probes.build_profiles(model, t, p, 0.3)
        t_only = probes.build_profiles(model, t, None, 0.3)
        p_only = probes.build_profiles(model, None, p, math.nan)
        for full, a, b in zip(both, t_only, p_only):
            assert (a.t, a.noise_scale, a.copied_t) == (full.t, full.noise_scale, full.copied_t)
            assert math.isnan(a.p) and a.b_probe == 0 and not a.degenerate
            assert (b.p, b.b_probe, b.degenerate) == (full.p, full.b_probe, full.degenerate)
            assert math.isnan(b.t) and math.isnan(b.noise_scale) and not b.copied_t
            assert (a.index, a.kind, a.s, a.weight_range) == (b.index, b.kind, b.s, b.weight_range)

    def test_merging_t_only_and_p_only_equals_both_sides(self):
        model, ds = small_fixture()
        t = probes.estimate_t(cached(model, ds), ds.labels,
                              ProbeConfig(delta_acc=0.3, acc_tolerance=0.02))
        p = probes.estimate_p(cached(model, ds))
        t_only = probes.build_profiles(model, t, None, 0.3)
        p_only = probes.build_profiles(model, None, p, math.nan)
        both = probes.build_profiles(model, t, p, 0.3)
        assert probes.merge_profiles([t_only, p_only]) == both
        assert probes.merge_profiles([p_only, t_only]) == both

    def test_incomplete_merge_names_the_layer(self):
        model, ds = small_fixture()
        t = probes.estimate_t(cached(model, ds), ds.labels,
                              ProbeConfig(delta_acc=0.3, acc_tolerance=0.02))
        t_only = probes.build_profiles(model, t, None, 0.3)
        with pytest.raises(ValueError, match="^layer 0: profiles incomplete"):
            probes.merge_profiles([t_only])
        p_only = probes.build_profiles(model, None, probes.estimate_p(cached(model, ds)), math.nan)
        with pytest.raises(ValueError, match="^layer 2: profiles incomplete"):
            probes.merge_profiles([t_only[:1], p_only])

    def test_merging_records_of_two_models_names_the_layer(self):
        model, ds = small_fixture()
        t = probes.estimate_t(cached(model, ds), ds.labels,
                              ProbeConfig(delta_acc=0.3, acc_tolerance=0.02))
        t_only = probes.build_profiles(model, t, None, 0.3)
        p_only = probes.build_profiles(model, None, probes.estimate_p(cached(model, ds)), math.nan)
        k = p_only[1]
        for other in (replace(k, s=k.s + 1), replace(k, kind="conv2d")):
            for lists in ([t_only, [p_only[0], other]], [[t_only[0], other], p_only]):
                with pytest.raises(ValueError,
                                   match=f"^layer {k.index}: profiles of different models"):
                    probes.merge_profiles(lists)

    def test_given_side_must_cover_every_layer(self):
        model, ds = small_fixture()
        p = probes.estimate_p(cached(model, ds))
        with pytest.raises(ValueError, match="missing probe results for layer 0"):
            probes.build_profiles(model, None, p[1:], math.nan)


class TestLinearityProbe:
    def test_dense_only_slope_is_one(self):
        rng = np.random.default_rng(2)
        model = Model((Layer("dense", rng.uniform(-1, 1, size=(8, 4)).astype(np.float32)),), (8,))
        ds = Dataset(rng.standard_normal((30, 8)).astype(np.float32), np.zeros(30, dtype=int))
        ladder = probes.default_scale_ladder(model, 0)
        pts = probes.linearity_probe(cached(model, ds), 0, ladder, seed=1)
        slope, r2 = probes.loglog_fit(pts)
        assert slope == pytest.approx(1.0, abs=1e-6)
        assert r2 >= 1 - 1e-9

    def test_needs_five_scales(self):
        model, ds = small_fixture()
        with pytest.raises(ValueError):
            probes.linearity_probe(cached(model, ds), 0, [0.1, 0.2])


class TestAdditivityProbe:
    def test_single_layer_sum_equals_joint(self):
        rng = np.random.default_rng(3)
        model = Model((Layer("dense", rng.uniform(-1, 1, size=(5, 3)).astype(np.float32)),), (5,))
        ds = Dataset(rng.standard_normal((20, 5)).astype(np.float32), np.zeros(20, dtype=int))
        res = probes.additivity_probe(cached(model, ds), [6])
        assert res.sum_singles == res.joint

    def test_small_noise_gap_is_small(self):
        model, ds = small_fixture(seed=3)
        res = probes.additivity_probe(cached(model, ds), [10, 10])
        assert res.relative_gap <= 0.10

    def test_large_noise_runs_as_diagnostic(self):
        model, ds = small_fixture(seed=3)
        res = probes.additivity_probe(cached(model, ds), [3, 3])
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
        rank = probes.rank_diagnostic(cached(model, ds), 0, seed=0)
        assert 1 <= rank <= model.d
