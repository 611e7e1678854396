import itertools
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qalloc import nn
from qalloc.nn import Dataset, Layer, Model, ShapeError


def single_dense(weights, bias=None, input_shape=None):
    w = np.asarray(weights, dtype=np.float32)
    b = None if bias is None else np.asarray(bias, dtype=np.float32)
    return Model((Layer("dense", w, b),), input_shape or (w.shape[0],))


def noise_power(model, other, ds):
    """Mean over the dataset of the squared feature-vector difference norm."""
    return nn.mean_power(nn.forward_batch(model, ds.inputs) - nn.forward_batch(other, ds.inputs))


class TestForward:
    def test_identity_dense(self):
        model = single_dense(np.eye(3), np.zeros(3))
        out = nn.forward_batch(model, np.array([[1.0, 2.0, 3.0]], dtype=np.float32))[0]
        assert np.array_equal(out, [1.0, 2.0, 3.0])

    def test_relu(self):
        model = Model((Layer("dense", np.eye(3, dtype=np.float32)), Layer("relu")), (3,))
        out = nn.forward_batch(model, np.array([[-2.0, 0.0, 3.0]], dtype=np.float32))[0]
        assert np.array_equal(out, [0.0, 0.0, 3.0])

    def test_conv_1x1_hand_value(self):
        # 1x1 input, 1x1 kernel of 2.0, bias 0.5: z = 2*x + 0.5 -> 6.5 at x=3
        w = np.full((1, 1, 1, 1), 2.0, dtype=np.float32)
        model = Model((Layer("conv2d", w, np.array([0.5], dtype=np.float32)),
                       Layer("dense", np.eye(1, dtype=np.float32))), (1, 1, 1))
        out = nn.forward_batch(model, np.full((1, 1, 1, 1), 3.0, dtype=np.float32))[0]
        assert out[0] == pytest.approx(6.5, abs=0)

    def test_conv_same_padding_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(-1, 1, size=(3, 3, 2, 4)).astype(np.float32)
        b = rng.uniform(-1, 1, size=4).astype(np.float32)
        x = rng.standard_normal((5, 5, 2)).astype(np.float32)
        model = Model((Layer("conv2d", w, b, padding="same"),
                       Layer("dense", np.eye(100, dtype=np.float32))), (5, 5, 2))
        got = nn.forward_batch(model, x[None])[0].reshape(5, 5, 4)

        xp = np.pad(x.astype(np.float64), ((1, 1), (1, 1), (0, 0)))
        want = np.zeros((5, 5, 4))
        for i in range(5):
            for j in range(5):
                for d in range(4):
                    want[i, j, d] = np.sum(xp[i:i + 3, j:j + 3, :] * w[:, :, :, d]) + b[d]
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_maxpool_stride_equals_window(self):
        x = np.arange(16, dtype=np.float32).reshape(4, 4, 1)
        model = Model((Layer("maxpool2d", pool_size=2, stride=2),
                       Layer("dense", np.eye(4, dtype=np.float32))), (4, 4, 1))
        assert np.array_equal(nn.forward_batch(model, x[None])[0], [5.0, 7.0, 13.0, 15.0])

    @pytest.mark.parametrize("k,s", [(3, 2), (2, 1), (3, 3), (2, 2)])
    def test_maxpool_untiled_windows_match_loop_oracle(self, k, s):
        # odd heights and widths: the windows leave rows and columns uncovered or overlap
        x = np.random.default_rng(k * 10 + s).standard_normal((4, 7, 9, 3)).astype(np.float32)
        oh, ow = (7 - k) // s + 1, (9 - k) // s + 1
        model = Model((Layer("maxpool2d", pool_size=k, stride=s),
                       Layer("dense", np.eye(oh * ow * 3, dtype=np.float32))), (7, 9, 3))
        want = np.empty((4, oh, ow, 3))
        for r in range(4):
            for i in range(oh):
                for j in range(ow):
                    for c in range(3):
                        want[r, i, j, c] = x[r, i * s:i * s + k, j * s:j * s + k, c].max()
        assert np.array_equal(nn.forward_batch(model, x).reshape(4, oh, ow, 3), want)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_empty_input_stack_gives_empty_logits(self, fixture_model, threads):
        dense_only = single_dense(np.eye(3), np.zeros(3))
        for model in (fixture_model, dense_only):
            z = nn.forward_batch(model, np.zeros((0, *model.input_shape), dtype=np.float32),
                                 threads)
            assert z.shape == (0, model.d) and z.dtype == np.float64

    def test_shape_mismatch_names_layer(self):
        model = single_dense(np.eye(3))
        with pytest.raises(ShapeError, match="input shape"):
            nn.forward_batch(model, np.zeros((1, 4), dtype=np.float32))
        with pytest.raises(ShapeError, match="layer 1"):
            Model((Layer("relu"), Layer("dense", np.eye(5, dtype=np.float32))), (3,))

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(3)
        model = single_dense(rng.uniform(-1, 1, size=(8, 4)).astype(np.float32))
        x = rng.standard_normal((50, 8)).astype(np.float32)
        a = nn.forward_batch(model, x)
        b = nn.forward_batch(model, x)
        assert np.array_equal(a, b)

    def test_threads_do_not_change_bits(self):
        rng = np.random.default_rng(4)
        model = single_dense(rng.uniform(-1, 1, size=(6, 3)).astype(np.float32))
        x = rng.standard_normal((1500, 6)).astype(np.float32)
        assert np.array_equal(nn.forward_batch(model, x, threads=1),
                              nn.forward_batch(model, x, threads=4))


class TestClassify:
    def test_argmax(self):
        assert np.array_equal(nn.classify_batch(np.array([[3.0, 1.0, 0.0]])), [0])
        zs = np.array([[3.0, 1.0, 0.0], [0.0, 1.0, 3.0], [1.0, 5.0, 2.0]])
        assert np.array_equal(nn.classify_batch(zs), [0, 2, 1])

    def test_tie_breaks_to_lowest_index(self):
        assert np.array_equal(nn.classify_batch(np.array([[1.0, 1.0]])), [0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nn.classify_batch(np.zeros((1, 0)))

    def test_softmax_never_changes_argmax(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            z = rng.standard_normal(rng.integers(2, 12))
            soft = np.exp(z - z.max())
            soft /= soft.sum()
            assert nn.classify_batch(z[None])[0] == int(np.argmax(soft))


class TestAccuracy:
    def test_teacher_labels_score_one(self):
        rng = np.random.default_rng(11)
        model = single_dense(rng.uniform(-1, 1, size=(5, 4)).astype(np.float32))
        inputs = rng.standard_normal((40, 5)).astype(np.float32)
        labels = nn.classify_batch(nn.forward_batch(model, inputs))
        assert nn.evaluate_accuracy(model, Dataset(inputs, labels)) == 1.0

    def test_zero_weights_all_ties_resolve_to_class_zero(self):
        # all-zero model: every prediction is class 0, so accuracy equals the
        # empirical frequency of label 0, which is ~0.25 for uniform labels
        model = single_dense(np.zeros((3, 4), dtype=np.float32))
        rng = np.random.default_rng(13)
        n = 10_000
        inputs = rng.standard_normal((n, 3)).astype(np.float32)
        labels = rng.integers(0, 4, size=n)
        acc = nn.evaluate_accuracy(model, Dataset(inputs, labels))
        assert acc == np.count_nonzero(labels == 0) / n
        assert 0.22 <= acc <= 0.28

    def test_single_correct_sample(self):
        model = single_dense(np.eye(2))
        ds = Dataset(np.array([[2.0, 1.0]], dtype=np.float32), [0])
        assert nn.evaluate_accuracy(model, ds) == 1.0

    def test_empty_dataset_rejected(self):
        model = single_dense(np.eye(2))
        with pytest.raises(ValueError, match="empty"):
            nn.evaluate_accuracy(model, Dataset(np.zeros((0, 2), dtype=np.float32), []))

    def test_out_of_range_label_rejected(self):
        model = single_dense(np.eye(2))
        with pytest.raises(ValueError, match="label"):
            nn.evaluate_accuracy(model, Dataset(np.zeros((1, 2), dtype=np.float32), [5]))


class TestPerturb:
    def test_zero_noise_is_bit_identical(self):
        rng = np.random.default_rng(17)
        model = single_dense(rng.uniform(-1, 1, size=(6, 3)).astype(np.float32))
        x = rng.standard_normal((20, 6)).astype(np.float32)
        perturbed = nn.perturb_layer(model, 0, np.zeros((6, 3)))
        assert np.array_equal(nn.forward_batch(model, x), nn.forward_batch(perturbed, x))

    def test_dense_delta_is_exactly_rx(self):
        rng = np.random.default_rng(19)
        w = rng.uniform(-1, 1, size=(4, 3)).astype(np.float32)
        noise = rng.uniform(-0.1, 0.1, size=(4, 3))
        model = single_dense(w)
        x = rng.standard_normal(4).astype(np.float32)
        delta = (nn.forward_batch(nn.perturb_layer(model, 0, noise), x[None])[0]
                 - nn.forward_batch(model, x[None])[0])
        assert np.allclose(delta, x.astype(np.float64) @ noise, rtol=1e-12, atol=1e-15)

    def test_scaling_noise_by_two_doubles_delta_norm(self):
        rng = np.random.default_rng(23)
        model = single_dense(rng.uniform(-1, 1, size=(5, 3)).astype(np.float32))
        inputs = rng.standard_normal((30, 5)).astype(np.float32)
        ds = Dataset(inputs, np.zeros(30, dtype=int))
        noise = rng.uniform(-0.01, 0.01, size=(5, 3))
        d1 = noise_power(model, nn.perturb_layer(model, 0, noise), ds)
        d2 = noise_power(model, nn.perturb_layer(model, 0, 2.0 * noise), ds)
        assert d2 == pytest.approx(4.0 * d1, rel=1e-12)

    def test_weightless_layer_rejected(self):
        model = Model((Layer("dense", np.eye(3, dtype=np.float32)), Layer("relu")), (3,))
        with pytest.raises(ValueError, match="relu"):
            nn.perturb_layer(model, 1, np.zeros(3))

    def test_original_model_unmodified(self):
        w = np.eye(3, dtype=np.float32)
        model = single_dense(w.copy())
        nn.perturb_layer(model, 0, np.ones((3, 3)))
        assert np.array_equal(model.layers[0].weights, w)


class TestFeatureDelta:
    def test_same_model_gives_zero(self):
        model = single_dense(np.eye(3))
        ds = Dataset(np.ones((4, 3), dtype=np.float32), [0, 0, 0, 0])
        assert noise_power(model, model, ds) == 0.0

    def test_hand_value(self):
        # identity model vs model shifted so deltas are (0.3, -0.4): norm^2 = 0.25
        eye = np.eye(2, dtype=np.float32)
        base = Model((Layer("dense", eye, np.zeros(2)),), (2,))
        shifted = Model((Layer("dense", eye, np.array([-0.3, 0.4])),), (2,))
        ds = Dataset(np.zeros((1, 2), dtype=np.float32), [0])
        assert noise_power(base, shifted, ds) == pytest.approx(0.25, rel=1e-12)

    def test_matches_per_sample_loop_oracle(self):
        rng = np.random.default_rng(29)
        model = single_dense(rng.uniform(-1, 1, size=(5, 4)).astype(np.float32))
        other = nn.perturb_layer(model, 0, rng.uniform(-0.1, 0.1, size=(5, 4)))
        inputs = rng.standard_normal((25, 5)).astype(np.float32)
        ds = Dataset(inputs, np.zeros(25, dtype=int))

        total = 0.0
        for x in inputs:
            diff = nn.forward_batch(model, x[None])[0] - nn.forward_batch(other, x[None])[0]
            total += float(np.dot(diff, diff))
        assert noise_power(model, other, ds) == pytest.approx(total / 25, rel=1e-12)


class TestLinearityInvariants:
    @given(alpha=st.sampled_from([0.5, 2.0, 3.0, 8.0]), seed=st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_dense_conv_exact_alpha_squared_scaling(self, alpha, seed):
        rng = np.random.default_rng(seed)
        w1 = rng.uniform(-1, 1, size=(3, 3, 2, 3)).astype(np.float32)
        w2 = rng.uniform(-1, 1, size=(12, 4)).astype(np.float32)
        model = Model((Layer("conv2d", w1, padding="same"), Layer("dense", w2)), (2, 2, 2))
        inputs = rng.standard_normal((10, 2, 2, 2)).astype(np.float32)
        ds = Dataset(inputs, np.zeros(10, dtype=int))
        noise = rng.uniform(-0.05, 0.05, size=w1.shape)
        base = noise_power(model, nn.perturb_layer(model, 0, noise), ds)
        scaled = noise_power(model, nn.perturb_layer(model, 0, alpha * noise), ds)
        assert scaled == pytest.approx(alpha ** 2 * base, rel=1e-6)

    def test_relu_local_linearity_for_small_noise(self):
        rng = np.random.default_rng(31)
        w = rng.uniform(-1, 1, size=(6, 5)).astype(np.float32)
        model = Model((Layer("dense", w), Layer("relu"),
                       Layer("dense", rng.uniform(-1, 1, size=(5, 3)).astype(np.float32))), (6,))
        inputs = rng.standard_normal((50, 6)).astype(np.float32)
        ds = Dataset(inputs, np.zeros(50, dtype=int))
        noise = rng.uniform(-0.5, 0.5, size=(6, 5)) * 1e-4
        base = noise_power(model, nn.perturb_layer(model, 0, noise), ds)
        scaled = noise_power(model, nn.perturb_layer(model, 0, 2.0 * noise), ds)
        assert scaled == pytest.approx(4.0 * base, rel=1e-2)

    def test_maxpool_delta_tracks_selected_elements_when_argmax_fixed(self):
        # pool windows with clear winners: small noise on the selected element
        # passes through exactly
        x = np.array([[1.0, 0.0], [0.0, 0.5]], dtype=np.float32).reshape(2, 2, 1)
        w = np.eye(1, dtype=np.float32).reshape(1, 1, 1, 1)
        model = Model((Layer("conv2d", w), Layer("maxpool2d", pool_size=2, stride=2),
                       Layer("dense", np.eye(1, dtype=np.float32))), (2, 2, 1))
        ds = Dataset(x[None], [0])
        noise = np.full((1, 1, 1, 1), 1e-3)
        delta = noise_power(model, nn.perturb_layer(model, 0, noise), ds)
        # conv scales every pixel by (1 + 1e-3); the pooled max is 1.0, so the
        # output moves by exactly 1e-3 * 1.0
        assert delta == pytest.approx((1e-3) ** 2, rel=1e-9)


def conv_net(padding, seed=0):
    """conv -> relu -> maxpool -> conv -> relu -> dense -> relu -> dense on 8x8x2 inputs."""
    rng = np.random.default_rng(seed)

    def u(*shape):
        return rng.uniform(-0.5, 0.5, size=shape).astype(np.float32)

    front = (Layer("conv2d", u(3, 3, 2, 3), u(3), padding=padding), Layer("relu"),
             Layer("maxpool2d", pool_size=2, stride=2),
             Layer("conv2d", u(3, 3, 3, 4), u(4), padding=padding), Layer("relu"))
    flat = 4 * 4 * 4 if padding == "same" else 1 * 1 * 4  # 8 -> 4 -> 4, or 8 -> 6 -> 3 -> 1
    return Model(front + (Layer("dense", u(flat, 6), u(6)), Layer("relu"),
                          Layer("dense", u(6, 5), u(5))), (8, 8, 2))


class TestPrefixCache:
    @given(padding=st.sampled_from(["same", "valid"]), n=st.sampled_from([1, 511, 512, 513, 1100]),
           threads=st.sampled_from([1, 2, 4]), dtype=st.sampled_from([np.float32, np.float64]),
           quantized=st.booleans(), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_forward_from_equals_forward_batch(self, padding, n, threads, dtype, quantized, seed):
        from qalloc.quantize import quantize_single_layer

        model = conv_net(padding, seed)
        rng = np.random.default_rng(seed + 1)
        x32 = rng.standard_normal((n,) + model.input_shape).astype(np.float32)
        x = x32.astype(dtype)
        # the engine's float64 cast is exact, wherever it happens
        assert np.array_equal(nn.forward_batch(model, x32, threads),
                              nn.forward_batch(model, x32.astype(np.float64), threads))
        cache = nn.prefix_cache(model, x, threads)
        assert np.array_equal(cache.logits, nn.forward_batch(model, x, threads))
        for i in model.weighted_indices:
            if quantized:
                changed = quantize_single_layer(model, i, 4)
            else:
                noise = rng.uniform(-0.5, 0.5, size=model.layers[i].weights.shape) * 1e-3
                changed = nn.perturb_layer(model, i, noise)
            assert np.array_equal(nn.forward_from(cache, changed, i),
                                  nn.forward_batch(changed, x, threads))

    def test_rejects_changed_prefix_uncached_layer_and_writes(self):
        model = conv_net("same")
        x = np.random.default_rng(0).standard_normal((20, 8, 8, 2)).astype(np.float32)
        cache = nn.prefix_cache(model, x)
        noise = np.full(model.layers[0].weights.shape, 1e-3)
        other = nn.perturb_layer(nn.perturb_layer(model, 0, noise), 3,
                                 np.zeros(model.layers[3].weights.shape))
        with pytest.raises(ValueError, match="layers before 3"):
            nn.forward_from(cache, other, 3)
        with pytest.raises(ValueError, match="no cached input for layer 1"):
            nn.forward_from(cache, model, 1)
        dense = model.replace_layer(3, Layer("dense", np.zeros((48, 64), np.float32)))
        with pytest.raises(ValueError, match="layer kinds differ"):
            nn.forward_from(cache, dense, 3)
        with pytest.raises(ValueError):
            cache.logits[0, 0] = 1.0
        with pytest.raises(ValueError):
            cache.layer_inputs[3][0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cached_layers_of_models_without_a_later_weighted_layer(self, threads):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((600, 6)).astype(np.float32)
        dense = Layer("dense", rng.uniform(-0.5, 0.5, (6, 3)))
        for layers in ((), (Layer("relu"),), (dense,), (Layer("relu"), dense, Layer("relu"))):
            model = Model(layers, (6,))
            cache = nn.prefix_cache(model, x.copy(), threads)
            assert set(cache.layer_inputs) == {0, *model.weighted_indices}
            assert np.array_equal(cache.logits, nn.forward_batch(model, x, threads))


    def test_a_threaded_cache_holds_each_segment_once(self, fixture_model, fixture_dataset):
        # each chunk's thread writes straight into its rows of a segment's one output, so a
        # threaded build peaks as one thread's does, on the same kept arrays, plus the
        # second running chunk's workspaces (0.3 MB; a copy of each chunk's output would add 4)
        x = fixture_dataset.inputs  # four evaluation chunks
        peaks = []
        for t in (1, 2):
            tracemalloc.start()
            try:
                nn.prefix_cache(fixture_model, x, t)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 0.5e6

    def test_drop_forgets_one_input(self):
        model = conv_net("same")
        x = np.random.default_rng(0).standard_normal((20, 8, 8, 2)).astype(np.float32)
        cache = nn.prefix_cache(model, x)
        kept = {i: a for i, a in cache.layer_inputs.items() if i != 3}
        cache.drop(3)
        assert cache.layer_inputs == kept
        with pytest.raises(ValueError, match="no cached input for layer 3"):
            nn.forward_from(cache, model, 3)
        assert np.array_equal(nn.forward_from(cache, model, 0), cache.logits)

    @pytest.mark.parametrize("n", [1, 511, 513, 1100])
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_a_cache_of_some_layers_filled_equals_a_full_cache(
            self, fixture_model, fixture_dataset, monkeypatch, n, threads):
        from test_probes import small_conv_fixture

        conv_model, conv_ds = small_conv_fixture(n=n)
        for model, x in ((fixture_model, fixture_dataset.inputs[:n]), (conv_model, conv_ds.inputs)):
            full = nn.prefix_cache(model, x, threads)
            above_0 = model.weighted_indices[1:]
            for kept in itertools.chain.from_iterable(
                    itertools.combinations(above_0, k) for k in range(len(above_0) + 1)):
                cache = nn.prefix_cache(model, x, threads, layers=kept)
                assert set(cache.layer_inputs) == {0, *kept}
                assert cache.layer_inputs[0] is x and same_bits(cache.logits, full.logits)
                with monkeypatch.context() as m:  # a fill is no second cache build
                    m.setattr(nn, "prefix_cache", None)
                    cache.fill(set(above_0) - set(kept))
                assert cache.layer_inputs.keys() == full.layer_inputs.keys()
                for i, a in full.layer_inputs.items():
                    assert same_bits(cache.layer_inputs[i], a)
                    assert cache.layer_inputs[i].flags.writeable == (i == 0)
                assert same_bits(cache.logits, full.logits)


class TestForwardTrie:
    @given(padding=st.sampled_from(["same", "valid"]), n=st.sampled_from([1, 511, 513, 1100]),
           threads=st.sampled_from([1, 2, 4]), seed=st.integers(0, 1000),
           paths=st.lists(st.tuples(*[st.integers(2, 4)] * 4), min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_logits_equal_forward_batch_and_segments_run_once_per_prefix(
            self, padding, n, threads, seed, paths):
        from qalloc.quantize import quantize_model, quantize_single_layer

        model = conv_net(padding, seed)
        x = np.random.default_rng(seed + 1).standard_normal(
            (n,) + model.input_shape).astype(np.float32)
        calls = []

        def layer_for(i, bits):
            calls.append(i)
            return quantize_single_layer(model, i, bits).layers[i]

        got = list(nn.forward_trie(model, x, paths, layer_for, threads))
        assert [p for p, _ in got] == sorted(set(paths))
        for path, z in got:
            assert np.array_equal(z, nn.forward_batch(quantize_model(model, path), x, threads))
        for depth, i in enumerate(model.weighted_indices):
            assert calls.count(i) == len({p[:depth + 1] for p in paths})

    def test_weightless_prefix_and_no_weighted_layers(self):
        rng = np.random.default_rng(2)
        w = rng.uniform(-1, 1, (5, 3)).astype(np.float32)
        x = rng.standard_normal((600, 5)).astype(np.float32)
        model = Model((Layer("relu"), Layer("dense", w)), (5,))
        scaled = Layer("dense", 2 * w)
        (path, z), = nn.forward_trie(model, x, [(1,), (1,)], lambda i, v: scaled, threads=2)
        assert path == (1,)
        assert np.array_equal(z, nn.forward_batch(model.replace_layer(1, scaled), x, threads=2))
        relu_only = Model((Layer("relu"),), (5,))
        (path, z), = nn.forward_trie(relu_only, x, [()], None)
        assert path == () and np.array_equal(z, np.maximum(x, 0))

    # three first-layer subtrees, one of them a single path, and a duplicate, out of order
    SUBTREE_PATHS = [(4, 2, 3, 3), (2, 4, 4, 2), (3, 2, 4, 4), (2, 3, 4, 4), (3, 2, 2, 2),
                     (2, 4, 3, 4), (2, 4, 4, 2), (2, 3, 2, 4)]

    @pytest.mark.parametrize("n", [511, 512, 513, 1100, 2000])
    @pytest.mark.parametrize("threads", [2, 4])
    def test_chunk_major_walk_equals_forward_batch(self, threads, n):
        # above 512 rows each chunk's task walks a whole subtree; at most, the stack is one chunk
        from qalloc.quantize import quantize_model, quantize_single_layer

        model = conv_net("same", seed=n)
        x = np.random.default_rng(n).standard_normal((n, *model.input_shape)).astype(np.float32)
        calls = []

        def layer_for(i, bits):
            calls.append((i, threading.get_ident()))
            return quantize_single_layer(model, i, bits).layers[i]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # chunk threads interleave often: a lost row write shows
        try:
            got = list(nn.forward_trie(model, x, self.SUBTREE_PATHS, layer_for, threads))
        finally:
            sys.setswitchinterval(interval)
        assert [p for p, _ in got] == sorted(set(self.SUBTREE_PATHS))
        for path, z in got:
            assert same_bits(z, nn.forward_batch(quantize_model(model, path), x, threads))
        assert {t for _, t in calls} == {threading.get_ident()}
        for depth, i in enumerate(model.weighted_indices):
            assert [j for j, _ in calls].count(i) == len({p[:depth + 1]
                                                          for p in self.SUBTREE_PATHS})

    def test_no_pool_thread_outlives_a_closed_or_failed_walk(self):
        from qalloc.quantize import quantize_single_layer

        model = conv_net("same")
        x = np.random.default_rng(7).standard_normal((1100, *model.input_shape)).astype(np.float32)

        def layer_for(i, bits):
            if bits == 3 and i == model.weighted_indices[0]:  # the second subtree's first layer
                raise RuntimeError("no layer")
            return quantize_single_layer(model, i, bits).layers[i]

        before = threading.active_count()
        trie = nn.forward_trie(model, x, self.SUBTREE_PATHS, layer_for, threads=4)
        next(trie)
        assert threading.active_count() > before  # one pool serves the whole walk
        trie.close()
        assert threading.active_count() == before
        with pytest.raises(RuntimeError, match="^no layer$"):
            list(nn.forward_trie(model, x, self.SUBTREE_PATHS, layer_for, threads=4))
        assert threading.active_count() == before

    def test_a_one_chunk_walk_frees_what_a_path_recomputes_before_building_its_layers(
            self, fixture_model, fixture_dataset, fixture_profiles, monkeypatch):
        # the benchmark sweep's 45 vectors (adaptive, sqnr and equal at anchors 6..10), and
        # hand-made paths with a duplicate, on stacks that run as one chunk
        from qalloc import allocate, harness, quantize

        grid = {quantize.allocation_bits(fixture_model, a) for method in allocate.METHODS
                for b1 in (6.0, 7.0, 8.0, 9.0, 10.0)
                for a in harness._allocations_for(method, b1, fixture_profiles, 16, None)}
        assert len(grid) == 45
        model = conv_net("same")
        x = np.random.default_rng(8).standard_normal((nn._CHUNK, *model.input_shape))
        for net, rows, paths, threads in ((fixture_model, fixture_dataset.inputs[:300], grid, 1),
                                          (model, x, self.SUBTREE_PATHS, 1),
                                          (model, x, self.SUBTREE_PATHS, 2)):
            check_walk_frees_before_building(net, rows, paths, threads, monkeypatch)

    def test_rejects_paths_of_the_wrong_length_before_any_forward(self):
        model = conv_net("same")
        x = np.zeros((3, 8, 8, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="3 values for 4 weighted layers"):
            next(nn.forward_trie(model, x, [(4, 4, 4, 4), (4, 4, 4)], None))
        assert list(nn.forward_trie(model, x, [], None)) == []


def check_walk_frees_before_building(model, x, paths, threads, monkeypatch):
    """Walk `paths` with forward_trie, and each time layer_for builds weighted layer j,
    assert that no segment output deeper than j, an earlier path's, is still alive."""
    from qalloc.harness import prefix_counts
    from qalloc.quantize import _quantize_layer

    weighted = model.weighted_indices
    ends = (*weighted[1:], len(model.layers))
    depth = {(w, e): j + 1 for j, (w, e) in enumerate(zip(weighted, ends))}
    outputs = []  # (depth, weak reference) per segment output: weighted layer j's is depth j + 1
    forward = nn._forward

    def spy(layers, x, start, stop, threads, out=None):
        y = forward(layers, x, start, stop, threads, out)
        if (start, stop) in depth:
            outputs.append((depth[start, stop], weakref.ref(y)))
        return y

    shared = []  # per layer_for call, how many activations of the shared prefix are alive

    def layer_for(i, bits):
        j = weighted.index(i)
        alive = [d for d, ref in outputs if ref() is not None]
        assert all(d <= j for d in alive), f"building layer {i}: depths {alive} alive"
        shared.append(len(alive))
        return _quantize_layer(model.layers[i], bits, i)

    monkeypatch.setattr(nn, "_forward", spy)
    walked = []
    for path, z in nn.forward_trie(model, x, paths, layer_for, threads):
        walked.append(path)
        del z  # the caller's logits die too, so every depth is checked
    monkeypatch.undo()
    assert walked == sorted(set(map(tuple, paths)))
    # every segment ran once per distinct prefix, and layer_for saw shared prefixes alive
    assert len(outputs) == sum(prefix_counts(paths)) and max(shared) > 0


def engine_net(padding, stride, first=None, seed=0):
    """[first ->] conv -> relu -> maxpool -> conv -> relu -> dense -> relu -> dense, 13x13x2 inputs.

    `first` is None or a weightless kind put in front of the first conv.
    """
    rng = np.random.default_rng(seed)

    def u(*shape):
        return rng.uniform(-0.5, 0.5, size=shape).astype(np.float32)

    head = {None: (), "relu": (Layer("relu"),),
            "maxpool2d": (Layer("maxpool2d", pool_size=2, stride=1),)}[first]
    front = head + (Layer("conv2d", u(3, 3, 2, 3), u(3), stride=stride, padding=padding),
                    Layer("relu"), Layer("maxpool2d", pool_size=2, stride=2),
                    Layer("conv2d", u(3, 3, 3, 4), u(4), padding=padding), Layer("relu"))
    shape = (13, 13, 2)
    for i, layer in enumerate(front):
        shape = nn._layer_out_shape(layer, shape, i)
    flat = int(np.prod(shape))
    return Model(front + (Layer("dense", u(flat, 6), u(6)), Layer("relu"),
                          Layer("dense", u(6, 5), u(5))), (13, 13, 2))


def _ref_conv2d(x, layer):
    """conv2d with the engine's arithmetic, frozen: pad, cast, zeros, += xs @ w per offset, bias."""
    w = layer.weights.astype(np.float64, copy=False)
    kh, kw, _, cout = w.shape
    s = layer.stride
    n, h, wd, _ = x.shape
    oh, ow = nn._conv_out_hw(h, wd, kh, kw, s, layer.padding)
    if layer.padding == "same":
        ph = max((oh - 1) * s + kh - h, 0)
        pw = max((ow - 1) * s + kw - wd, 0)
        x = np.pad(x, ((0, 0), (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2), (0, 0)))
    x = x.astype(np.float64, copy=False)
    out = np.zeros((n, oh, ow, cout), dtype=np.float64)
    for dy in range(kh):
        for dx in range(kw):
            out += x[:, dy:dy + (oh - 1) * s + 1:s, dx:dx + (ow - 1) * s + 1:s, :] @ w[dy, dx]
    if layer.bias is not None:
        out += layer.bias.astype(np.float64, copy=False)
    return out


def _ref_maxpool2d(x, layer):
    k, s = layer.pool_size, layer.stride
    h, w = x.shape[1:3]
    oh, ow = (h - k) // s + 1, (w - k) // s + 1
    views = (x[:, dy:dy + (oh - 1) * s + 1:s, dx:dx + (ow - 1) * s + 1:s, :]
             for dy in range(k) for dx in range(k))
    out = next(views).astype(np.float64)
    for view in views:
        np.maximum(out, view, out=out)
    return out


def _ref_dense(x, layer):
    x = x.reshape(len(x), layer.weights.shape[0]).astype(np.float64, copy=False)
    out = x @ layer.weights.astype(np.float64, copy=False)
    if layer.bias is not None:
        out += layer.bias.astype(np.float64, copy=False)
    return out


def reference_forward(model, x, threads):
    """The engine's arithmetic with no row blocks: every layer on each whole evaluation chunk.

    The layer functions are a frozen copy of the arithmetic, not the engine's
    own.  Returns the logits and, per chunk, the input of every layer (and
    the chunk's logits).
    """
    n = len(x)
    chunks = ([x] if threads <= 1 or n <= nn._CHUNK
              else [x[i:i + nn._CHUNK] for i in range(0, n, nn._CHUNK)])
    apply = {"dense": _ref_dense, "conv2d": _ref_conv2d, "maxpool2d": _ref_maxpool2d,
             "relu": lambda a, _: np.maximum(a.astype(np.float64), 0.0)}
    per_chunk = []
    for a in chunks:
        seen = [a]
        for layer in model.layers:
            seen.append(apply[layer.kind](seen[-1], layer))
        per_chunk.append(seen)
    return np.concatenate([seen[-1] for seen in per_chunk]), per_chunk


def same_bits(a, b):
    """Equal dtype, shape and bit patterns; unlike np.array_equal, -0.0 differs from +0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    bits = np.dtype(f"u{a.itemsize}")
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(bits), b.view(bits))


ENGINE_NETS = [("same", 1, None), ("same", 2, None), ("valid", 1, None), ("valid", 2, None),
               ("valid", 1, "relu"), ("same", 2, "maxpool2d")]
# Around one and two blocks of the current block size, plus fixed counts.
ENGINE_ROWS = sorted({1, 63, 64, 65, 130, 513,
                      nn._BLOCK - 1, nn._BLOCK, nn._BLOCK + 1, 2 * nn._BLOCK + 1})


def bias_free_net(padding, seed=0):
    """conv 1x1 -> conv 3x3 -> relu -> maxpool -> dense, no biases, 9x9x2 inputs.

    No bias is added after the products, and the two convs share one stretch.
    The 1x1 conv's output channel 0 has zero weights, so all its products are
    zeros: the sum must start from 0.0 as the reference's does, whatever the
    sign of a zero product.
    """
    rng = np.random.default_rng(seed)

    def u(*shape):
        return rng.uniform(-0.5, 0.5, size=shape).astype(np.float32)

    w0 = u(1, 1, 2, 3)
    w0[..., 0] = 0.0
    front = (Layer("conv2d", w0), Layer("conv2d", u(3, 3, 3, 4), padding=padding),
             Layer("relu"), Layer("maxpool2d", pool_size=2, stride=2))
    shape = (9, 9, 2)
    for i, layer in enumerate(front):
        shape = nn._layer_out_shape(layer, shape, i)
    return Model(front + (Layer("dense", u(int(np.prod(shape)), 5)),), (9, 9, 2))


def check_engine_against_reference(model, x32, rng, thread_counts=(1, 2)):
    """Every entry point against reference_forward, bit for bit, at `thread_counts`, float32/64."""
    from qalloc.quantize import quantize_model, quantize_single_layer

    paths = [(4, 4, 4, 4), (4, 4, 8, 3), (4, 6, 8, 3), (8, 4, 4, 4)]
    paths = sorted({p[:len(model.weighted_indices)] for p in paths})

    def layer_for(i, bits):
        return quantize_single_layer(model, i, bits).layers[i]

    for threads in thread_counts:
        for x in (x32, x32.astype(np.float64)):
            want, per_chunk = reference_forward(model, x, threads)
            assert same_bits(nn.forward_batch(model, x, threads), want)
            cache = nn.prefix_cache(model, x, threads)
            assert same_bits(cache.logits, want)
            assert set(cache.layer_inputs) == {0, *model.weighted_indices}
            for i, a in cache.layer_inputs.items():
                # one array: the reference's per-chunk activations, joined in chunk order
                assert same_bits(a, np.concatenate([seen[i] for seen in per_chunk]))
            for i in model.weighted_indices:
                noise = rng.uniform(-0.5, 0.5, size=model.layers[i].weights.shape) * 1e-3
                changed = nn.perturb_layer(model, i, noise)
                assert same_bits(nn.forward_from(cache, changed, i),
                                 reference_forward(changed, x, threads)[0])
            trie = list(nn.forward_trie(model, x, paths, layer_for, threads))
            assert [p for p, _ in trie] == paths
            for path, z in trie:
                assert same_bits(z, reference_forward(quantize_model(model, path), x, threads)[0])


def grid_net(name, seed=0):
    """A net whose convs stress the grid conv's shapes; each ends in one dense layer.

    wide: 32 in and out channels on 16x16, where BLAS may choose another kernel for
    a whole image's product than for an output row's.  one-channel: a conv with one
    output channel feeding one with one input channel.  1x1: 1x1 convs at strides 1
    and 2.  stride-3: "same" padding at stride 3.  7x7: a "valid" 7x7 kernel.
    one-column-1 and one-column-2: convs with one output column (ow == 1), at
    stride 1 and 2, each followed by a "same" conv on the one-column map.
    leftovers: 16 input and 2 output channels on 3 output columns, where
    OpenBLAS's SkylakeX kernels sum the leftover rows and columns of a product
    in another order than whole blocks, so the engine must keep one product per
    output row there (its Haswell kernels do so for the 1x1 net's second conv).

    The pool nets put a maxpool after a conv, which then runs the conv's bias
    and relu on the pooled block: pool-no-relu has no relu between them,
    pool-3-2 overlapping 3x3 windows at stride 2, pool-2-1 2x2 windows at
    stride 1.  Two more put a "same" conv whose zero borders differ from
    3x3's before a pool: kernel-4 (3x4, one zero column on the left, two on
    the right) and kernel-1x3 (no top or bottom border, so its last row's
    right edge reads the zero tail).  Their convs' biases have negative
    entries and one -0.0.
    """
    rng = np.random.default_rng(seed)

    def u(*shape):
        return rng.uniform(-0.5, 0.5, size=shape).astype(np.float32)

    def conv(kh, kw, cin, cout, **kw_args):
        return Layer("conv2d", u(kh, kw, cin, cout), u(cout), **kw_args)

    def pooled(kh, kw, cin, cout, relu, pool, stride, **kw_args):
        bias = u(cout)
        bias[::2] = -np.abs(bias[::2])  # negative: a relu run before the bias would show
        bias[0] = -0.0
        return (Layer("conv2d", u(kh, kw, cin, cout), bias, **kw_args),
                *((Layer("relu"),) if relu else ()),
                Layer("maxpool2d", pool_size=pool, stride=stride))

    shape, front = {
        "wide": ((16, 16, 32), (conv(3, 3, 32, 32, padding="same"), Layer("relu"),
                                Layer("maxpool2d", pool_size=2, stride=2))),
        "one-channel": ((9, 9, 3), (conv(3, 3, 3, 1, padding="same"), Layer("relu"),
                                    conv(3, 3, 1, 4))),
        "1x1": ((9, 9, 6), (conv(1, 1, 6, 16), Layer("relu"), conv(1, 1, 16, 4, stride=2))),
        "stride-3": ((13, 13, 2), (conv(3, 3, 2, 4, stride=3, padding="same"), Layer("relu"))),
        "7x7": ((13, 13, 2), (conv(7, 7, 2, 4), Layer("relu"),
                              Layer("maxpool2d", pool_size=2, stride=2))),
        "one-column-1": ((7, 3, 2), (conv(3, 3, 2, 4), Layer("relu"),
                                     conv(3, 3, 4, 3, padding="same"))),
        "one-column-2": ((9, 4, 2), (conv(3, 3, 2, 4, stride=2), Layer("relu"),
                                     conv(3, 3, 4, 3, padding="same"))),
        "leftovers": ((5, 5, 16), (conv(3, 3, 16, 2), Layer("relu"))),
        "pool-no-relu": ((10, 10, 3), pooled(3, 3, 3, 4, False, 2, 2, padding="same")),
        "pool-3-2": ((11, 11, 3), pooled(3, 3, 3, 4, True, 3, 2, padding="same")),
        "pool-2-1": ((9, 9, 3), pooled(3, 3, 3, 4, True, 2, 1, padding="same")),
        "kernel-4": ((10, 10, 3), pooled(3, 4, 3, 4, True, 2, 2, padding="same")),
        "kernel-1x3": ((6, 7, 3), pooled(1, 3, 3, 4, True, 2, 2, padding="same")),
    }[name]
    out = shape
    for i, layer in enumerate(front):
        out = nn._layer_out_shape(layer, out, i)
    return Model(front + (Layer("dense", u(int(np.prod(out)), 5), u(5)),), shape)


GRID_NETS = ["wide", "one-channel", "1x1", "stride-3", "7x7", "one-column-1", "one-column-2",
             "leftovers", "pool-no-relu", "pool-3-2", "pool-2-1", "kernel-4", "kernel-1x3"]


class TestEngineOracle:
    """Row-blocked stretches against reference_forward, bit for bit, at every entry point."""

    @pytest.mark.parametrize("n", ENGINE_ROWS)
    @pytest.mark.parametrize("padding,stride,first", ENGINE_NETS)
    def test_engine_equals_unblocked_reference(self, padding, stride, first, n):
        model = engine_net(padding, stride, first, seed=n)
        rng = np.random.default_rng(n)
        x32 = rng.standard_normal((n, *model.input_shape)).astype(np.float32)
        check_engine_against_reference(model, x32, rng)

    @pytest.mark.parametrize("n", ENGINE_ROWS)
    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_bias_free_convs_equal_unblocked_reference(self, padding, n):
        model = bias_free_net(padding, seed=n)
        rng = np.random.default_rng(n)
        x32 = rng.standard_normal((n, *model.input_shape)).astype(np.float32)
        x32[::3, ::2] = -0.0
        check_engine_against_reference(model, x32, rng)

    @pytest.mark.parametrize("name,n", [(name, n) for name in GRID_NETS
                                        for n in (1, nn._BLOCK + 1, 513)
                                        if name != "wide" or n < 513])  # wide: seconds a run
    def test_grid_shapes_equal_unblocked_reference(self, name, n):
        model = grid_net(name, seed=n)
        rng = np.random.default_rng(n)
        x32 = rng.standard_normal((n, *model.input_shape)).astype(np.float32)
        check_engine_against_reference(model, x32, rng)

    @pytest.mark.parametrize("n", [513, 1100])
    @pytest.mark.parametrize("net", ["bias-free", "relu-first"])
    def test_every_range_end_writes_its_chunk_rows(self, net, n):
        # Each chunk's last layer writes straight into its rows of the one output.  The
        # bias-free net's first segment ends in a conv; the relu-first net's first segment
        # is a lone relu, and its first dense layer's ends in dense+relu.  Every range of
        # layers is checked, at 2 and 3 chunks, with 2 and 4 threads.
        model = bias_free_net("same", seed=n) if net == "bias-free" else \
            engine_net("valid", 1, "relu", seed=n)
        rng = np.random.default_rng(n)
        x32 = rng.standard_normal((n, *model.input_shape)).astype(np.float32)
        check_engine_against_reference(model, x32, rng, thread_counts=(2, 4))
        layers = model.layers
        _, per_chunk = reference_forward(model, x32, 2)  # the chunks of any thread count above 1
        for start in range(len(layers)):
            x = np.concatenate([seen[start] for seen in per_chunk])
            for stop in range(start + 1, len(layers) + 1):
                want = np.concatenate([seen[stop] for seen in per_chunk])
                for threads in (2, 4):
                    assert same_bits(nn._forward(layers, x, start, stop, threads), want)


class TestConvLayout:
    """How the default fixture's convs run: the speed of every forward rests on it."""

    def test_the_fixture_s_convs_share_a_zero_column_and_multiply_whole_images(
            self, fixture_model):
        # Row strides 17 and 9 (16 and 8 columns, plus the column neighbouring rows share), one
        # product per image.  A BLAS kernel whose sums make _conv_per_row pick per-row products
        # here gives the same bits several times slower; CI runs this under forced kernels.
        layers, got = fixture_model.layers, []
        for start, stop in ((0, 3), (3, 5)):
            _, steps = nn._stretch(layers, fixture_model.shapes[start], start, stop, nn._BLOCK)
            (_, _, conv), = [step for step in steps if step[0].kind == "conv2d"]
            grid, per_row = conv[-2], conv[4]
            got.append((grid.shape[2], per_row))
        assert got == [(17, False), (9, False)]

    def test_a_conv_s_bias_and_relu_run_after_its_maxpool(self, fixture_model):
        # conv0 -> relu -> maxpool: the conv runs no bias and the relu has no step; the pool
        # adds the bias as a tile of one pooled image, then applies the relu
        layers = fixture_model.layers
        _, steps = nn._stretch(layers, fixture_model.input_shape, 0, 3, nn._BLOCK)
        assert [layer.kind for layer, _, _ in steps] == ["conv2d", "maxpool2d"]
        (_, _, conv), (_, _, (bias, relu)) = steps
        assert conv[1] is None and relu is True
        assert same_bits(bias, np.broadcast_to(layers[0].bias.astype(np.float64), (8, 8, 8)))
        # conv3 ends its stretch after its relu: the conv adds its bias, and the relu is a step
        _, steps = nn._stretch(layers, fixture_model.shapes[3], 3, 5, nn._BLOCK)
        (_, _, conv), (relu_layer, _, _) = steps
        assert conv[1].shape == (8, 9, 8) and relu_layer.kind == "relu"

    def test_a_relu_between_two_convs_is_a_step_of_its_own(self):
        # one-channel: conv -> relu -> conv.  The relu runs in place on the first conv's grid
        # view, so no step has a workspace, and no conv applies a relu: per_row is the one
        # flag among a conv's arguments
        model = grid_net("one-channel")
        _, steps = nn._stretch(model.layers, model.input_shape, 0, 3, nn._BLOCK)
        assert [(layer.kind, ws is None) for layer, ws, _ in steps] == [
            ("conv2d", True), ("relu", True), ("conv2d", True)]
        for layer, _, args in steps:
            if layer.kind == "conv2d":
                assert [a for a in args if isinstance(a, bool)] == [args[4]]


class TestOwnership:
    """The engine writes only arrays it made: never a caller's input or a cached activation."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_engine_writes_no_array_it_does_not_own(self, dtype, threads):
        from qalloc.quantize import quantize_single_layer

        model = engine_net("same", 1, "relu")  # relu reads the caller's input first
        x = np.random.default_rng(3).standard_normal((600, *model.input_shape)).astype(dtype)
        x_before = x.copy()

        def unchanged():
            return same_bits(x, x_before) and x.flags.writeable

        nn.forward_batch(model, x, threads)
        assert unchanged()
        cache = nn.prefix_cache(model, x, threads)
        assert unchanged()
        cached = {i: (a.copy(), a.flags.writeable) for i, a in cache.layer_inputs.items()}
        order = np.random.default_rng(5).permutation(len(x))
        for i in cache.layer_inputs:  # layer 0, a relu, reads the caller's input
            changed = model if i == 0 else quantize_single_layer(model, i, 4)
            nn.forward_from(cache, changed, i)
            *stages, _ = nn.forward_stages(cache, changed, i, order)
            # 600 rows are one chunk only at one thread, and a dense layer has no stretch
            assert bool(stages) == (threads == 1 and model.layers[i].kind != "dense")
            stages = nn.forward_stages(cache, changed, i, order)
            next(stages)
            stages.close()
        list(nn.forward_trie(model, x, [(4, 4, 4, 4), (4, 8, 4, 4)],
                             lambda i, bits: quantize_single_layer(model, i, bits).layers[i],
                             threads))
        assert unchanged()
        for i, a in cache.layer_inputs.items():
            copy, writeable = cached[i]
            assert same_bits(a, copy) and a.flags.writeable == writeable
            assert writeable == (i == 0)  # read-only, but for the caller's own input

    @pytest.mark.parametrize("threads", [1, 2])
    def test_an_empty_layer_range_returns_its_input_itself(self, threads):
        model = engine_net("same", 1, "relu")
        x = np.random.default_rng(6).standard_normal((600, *model.input_shape)).astype(np.float32)
        for i in range(len(model.layers)):
            assert nn._forward(model.layers, x, i, i, threads) is x

    @pytest.mark.parametrize("n,threads", [(5, 1), (600, 2)])
    def test_layerless_model_returns_a_new_float64_array(self, n, threads):
        model = Model((), (3,))
        x = np.random.default_rng(4).standard_normal((n, 3)).astype(np.float32)
        z = nn.forward_batch(model, x, threads)
        assert z.dtype == np.float64 and not np.shares_memory(z, x)
        assert np.array_equal(z, x)
        cache = nn.prefix_cache(model, x, threads)
        assert x.flags.writeable and not np.shares_memory(cache.logits, x)
        assert same_bits(cache.logits, z)
        assert same_bits(nn.forward_from(cache, model, 0), z)
        (_, t), = nn.forward_trie(model, x, [()], None, threads)
        assert same_bits(t, z) and not np.shares_memory(t, x)


    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_relu_after_a_dense_layer_allocates_nothing(self, threads):
        # it runs in place on the dense layer's output, so a forward holds one (n, 256)
        # array at its peak, not two: threaded, each chunk's product lands in its rows of
        # the one output, with no array of the chunk's own
        rng = np.random.default_rng(7)
        model = Model((Layer("dense", rng.uniform(-0.5, 0.5, (8, 256))), Layer("relu")), (8,))
        x = rng.standard_normal((600, 8))
        step = nn._CHUNK if threads > 1 else len(x)
        want = np.concatenate([np.maximum(x[a:a + step] @ model.layers[0].weights, 0.0)
                               for a in range(0, len(x), step)])
        tracemalloc.start()
        try:
            z = nn.forward_batch(model, x, threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert same_bits(z, want)
        assert peak < 1.5 * z.nbytes


class TestForwardStages:
    """A staged evaluation run to its end is forward_from, whatever its stages and row order."""

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 513, 2000])
    @pytest.mark.parametrize("padding,stride,first", ENGINE_NETS)
    def test_run_to_the_end_equals_forward_from(self, padding, stride, first, n):
        model = engine_net(padding, stride, first, seed=n)
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, *model.input_shape)).astype(np.float32)
        for threads in (1, 2, 4):
            cache = nn.prefix_cache(model, x, threads)
            for i in model.weighted_indices:
                noise = rng.uniform(-0.5, 0.5, size=model.layers[i].weights.shape) * 1e-3
                changed = nn.perturb_layer(model, i, noise)
                want = nn.forward_from(cache, changed, i)
                # a layer stages on a stack that runs as one chunk, from a stretch
                staged = (threads == 1 or n <= nn._CHUNK) and model.layers[i].kind != "dense"
                for order in (None, np.arange(n), rng.permutation(n)):
                    *stages, (rows, z, slack) = nn.forward_stages(cache, changed, i, order)
                    assert rows is None and slack is None and same_bits(z, want)
                    # stages run given an order, when the layer stages
                    assert bool(stages) == (order is not None and staged)
                    if not stages:
                        continue
                    # each stage is the next _STAGE rows of the order, and each logit lies
                    # within its row's slack of the final
                    assert len(stages) == -(-n // nn._STAGE)
                    for lo, (r, provisional, s) in zip(range(0, n, nn._STAGE), stages):
                        assert list(r) == sorted(order[lo:lo + nn._STAGE])
                        assert np.all(np.abs(provisional - want[r]).max(axis=1) <= s)

    @pytest.mark.parametrize("count", [1, 31, 32, 33, 128, 129])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_stretch_on_rows_equals_the_stretch_on_their_copy(self, fixture_model, dtype, count):
        # a stage's stretch gathers its rows a block at a time; unsorted rows, both stretches
        # of the default fixture and the bias-free net's, with its own and a shared stretch
        rng = np.random.default_rng(count)
        bias_free = bias_free_net("same", seed=count)
        for model, start, stop in ((fixture_model, 0, 5), (fixture_model, 3, 5), (bias_free, 0, 4)):
            layers = model.layers
            x = rng.standard_normal((300, *model.shapes[start])).astype(dtype)
            rows = rng.choice(len(x), count, replace=False)
            want = nn._run_blocked(layers, x[rows], start, stop)
            stretch = nn._stretch(layers, x.shape[1:], start, stop, nn._BLOCK)
            for shared in (None, stretch, stretch):
                assert same_bits(nn._run_blocked(layers, x, start, stop, shared, rows=rows), want)

    def test_closing_early_runs_no_further_stage(self, fixture_model, fixture_cache):
        noise = np.full(fixture_model.layers[0].weights.shape, 1e-3)
        changed = nn.perturb_layer(fixture_model, 0, noise)
        stages = nn.forward_stages(fixture_cache, changed, 0, np.arange(len(fixture_cache.logits)))
        rows, _, slack = next(stages)
        assert list(rows) == list(range(0, 128)) and slack is not None
        rows, _, _ = next(stages)
        assert list(rows) == list(range(128, 256))
        stages.close()

    def test_the_exact_tail_holds_no_stretch_output_at_its_second_dense_layer(
            self, fixture_model, fixture_dataset, monkeypatch):
        # a staged iterate from conv3 run to its end: each stage's stretch output dies with
        # its stage, and the whole stack's once dense 5 has read it, so dense 7 of the exact
        # tail runs next to none.  300 rows: stages of 128, 128 and 44, none a whole stack.
        n = 300
        cache = nn.prefix_cache(fixture_model, fixture_dataset.inputs[:n], layers=(3,))
        changed = nn.perturb_layer(fixture_model, 3,
                                   np.full(fixture_model.layers[3].weights.shape, 1e-3))
        outputs, alive_at_dense_7 = [], []
        run_blocked, dense_at = nn._run_blocked, nn._dense_at

        def blocked(*args, **kwargs):
            y = run_blocked(*args, **kwargs)
            outputs.append(weakref.ref(y))
            return y

        def dense(layers, x, i, *args):
            if len(x) == n and i == 5:
                outputs.append(weakref.ref(x))
            if len(x) == n and i == 7:
                alive_at_dense_7.append(sum(ref() is not None for ref in outputs))
            return dense_at(layers, x, i, *args)

        monkeypatch.setattr(nn, "_run_blocked", blocked)
        monkeypatch.setattr(nn, "_dense_at", dense)
        *stages, (_, z, _) = nn.forward_stages(cache, changed, 3, np.arange(n))
        monkeypatch.undo()
        assert len(stages) == 3 and len(outputs) == 4 and alive_at_dense_7 == [0]
        assert same_bits(z, nn.forward_batch(changed, fixture_dataset.inputs[:n]))

    def test_slack_bounds_the_tail_at_every_row_count(self, fixture_model, fixture_cache):
        # OpenBLAS sums a dense layer's products in an order that depends on the row count
        layers, x = fixture_model.layers, fixture_cache.layer_inputs[5]
        want = nn._forward(layers, x, 5, len(layers), 1)
        sums = nn._tail_sums(layers, 5)
        for rows in (1, 2, 7, 30, 31, 128, 1563):
            got, slack = nn._tail_with_slack(layers, x[:rows], 5, sums)
            assert np.all(np.abs(got - want[:rows]).max(axis=1) <= slack)
            assert np.all(slack < 1e-9)
