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


class TestForward:
    def test_identity_dense(self):
        model = single_dense(np.eye(3), np.zeros(3))
        out = nn.forward(model, np.array([1.0, 2.0, 3.0], dtype=np.float32))
        assert np.array_equal(out, [1.0, 2.0, 3.0])

    def test_relu(self):
        model = Model((Layer("dense", np.eye(3, dtype=np.float32)), Layer("relu")), (3,))
        out = nn.forward(model, np.array([-2.0, 0.0, 3.0], dtype=np.float32))
        assert np.array_equal(out, [0.0, 0.0, 3.0])

    def test_conv_1x1_hand_value(self):
        # 1x1 input, 1x1 kernel of 2.0, bias 0.5: z = 2*x + 0.5 -> 6.5 at x=3
        w = np.full((1, 1, 1, 1), 2.0, dtype=np.float32)
        model = Model((Layer("conv2d", w, np.array([0.5], dtype=np.float32)),
                       Layer("dense", np.eye(1, dtype=np.float32))), (1, 1, 1))
        out = nn.forward(model, np.full((1, 1, 1), 3.0, dtype=np.float32))
        assert out[0] == pytest.approx(6.5, abs=0)

    def test_conv_same_padding_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(-1, 1, size=(3, 3, 2, 4)).astype(np.float32)
        b = rng.uniform(-1, 1, size=4).astype(np.float32)
        x = rng.standard_normal((5, 5, 2)).astype(np.float32)
        model = Model((Layer("conv2d", w, b, padding="same"),
                       Layer("dense", np.eye(100, dtype=np.float32))), (5, 5, 2))
        got = nn.forward(model, x).reshape(5, 5, 4)

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
        assert np.array_equal(nn.forward(model, x), [5.0, 7.0, 13.0, 15.0])

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
            nn.forward(model, np.zeros((4,), dtype=np.float32))
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
        assert nn.classify(np.array([3.0, 1.0, 0.0])) == 0

    def test_tie_breaks_to_lowest_index(self):
        assert nn.classify(np.array([1.0, 1.0])) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nn.classify(np.array([]))

    def test_softmax_never_changes_argmax(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            z = rng.standard_normal(rng.integers(2, 12))
            soft = np.exp(z - z.max())
            soft /= soft.sum()
            assert nn.classify(z) == int(np.argmax(soft))


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
        delta = nn.forward(nn.perturb_layer(model, 0, noise), x) - nn.forward(model, x)
        assert np.allclose(delta, x.astype(np.float64) @ noise, rtol=1e-12, atol=1e-15)

    def test_scaling_noise_by_two_doubles_delta_norm(self):
        rng = np.random.default_rng(23)
        model = single_dense(rng.uniform(-1, 1, size=(5, 3)).astype(np.float32))
        inputs = rng.standard_normal((30, 5)).astype(np.float32)
        ds = Dataset(inputs, np.zeros(30, dtype=int))
        noise = rng.uniform(-0.01, 0.01, size=(5, 3))
        d1 = nn.feature_delta(model, nn.perturb_layer(model, 0, noise), ds)
        d2 = nn.feature_delta(model, nn.perturb_layer(model, 0, 2.0 * noise), ds)
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
        assert nn.feature_delta(model, model, ds) == 0.0

    def test_hand_value(self):
        # identity model vs model shifted so deltas are (0.3, -0.4): norm^2 = 0.25
        eye = np.eye(2, dtype=np.float32)
        base = Model((Layer("dense", eye, np.zeros(2)),), (2,))
        shifted = Model((Layer("dense", eye, np.array([-0.3, 0.4])),), (2,))
        ds = Dataset(np.zeros((1, 2), dtype=np.float32), [0])
        assert nn.feature_delta(base, shifted, ds) == pytest.approx(0.25, rel=1e-12)

    def test_matches_per_sample_loop_oracle(self):
        rng = np.random.default_rng(29)
        model = single_dense(rng.uniform(-1, 1, size=(5, 4)).astype(np.float32))
        other = nn.perturb_layer(model, 0, rng.uniform(-0.1, 0.1, size=(5, 4)))
        inputs = rng.standard_normal((25, 5)).astype(np.float32)
        ds = Dataset(inputs, np.zeros(25, dtype=int))

        total = 0.0
        for x in inputs:
            diff = nn.forward(model, x) - nn.forward(other, x)
            total += float(np.dot(diff, diff))
        assert nn.feature_delta(model, other, ds) == pytest.approx(total / 25, rel=1e-12)


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
        base = nn.feature_delta(model, nn.perturb_layer(model, 0, noise), ds)
        scaled = nn.feature_delta(model, nn.perturb_layer(model, 0, alpha * noise), ds)
        assert scaled == pytest.approx(alpha ** 2 * base, rel=1e-6)

    def test_relu_local_linearity_for_small_noise(self):
        rng = np.random.default_rng(31)
        w = rng.uniform(-1, 1, size=(6, 5)).astype(np.float32)
        model = Model((Layer("dense", w), Layer("relu"),
                       Layer("dense", rng.uniform(-1, 1, size=(5, 3)).astype(np.float32))), (6,))
        inputs = rng.standard_normal((50, 6)).astype(np.float32)
        ds = Dataset(inputs, np.zeros(50, dtype=int))
        noise = rng.uniform(-0.5, 0.5, size=(6, 5)) * 1e-4
        base = nn.feature_delta(model, nn.perturb_layer(model, 0, noise), ds)
        scaled = nn.feature_delta(model, nn.perturb_layer(model, 0, 2.0 * noise), ds)
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
        delta = nn.feature_delta(model, nn.perturb_layer(model, 0, noise), ds)
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
        with pytest.raises(ValueError):
            cache.logits[0, 0] = 1.0
        with pytest.raises(ValueError):
            cache.chunks[3][0][0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cached_layers_of_models_without_a_later_weighted_layer(self, threads):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((600, 6)).astype(np.float32)
        dense = Layer("dense", rng.uniform(-0.5, 0.5, (6, 3)))
        for layers in ((), (Layer("relu"),), (dense,), (Layer("relu"), dense, Layer("relu"))):
            model = Model(layers, (6,))
            cache = nn.prefix_cache(model, x.copy(), threads)
            assert set(cache.chunks) == {0, *model.weighted_indices}
            assert np.array_equal(cache.logits, nn.forward_batch(model, x, threads))


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

    def test_rejects_paths_of_the_wrong_length_before_any_forward(self):
        model = conv_net("same")
        x = np.zeros((3, 8, 8, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="3 values for 4 weighted layers"):
            next(nn.forward_trie(model, x, [(4, 4, 4, 4), (4, 4, 4)], None))
        assert list(nn.forward_trie(model, x, [], None)) == []


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


def reference_forward(model, x, threads):
    """The engine's arithmetic with no row blocks: every layer on each whole evaluation chunk.

    Returns the logits and, per chunk, the input of every layer (and the chunk's logits).
    """
    n = len(x)
    chunks = ([x] if threads <= 1 or n <= nn._CHUNK
              else [x[i:i + nn._CHUNK] for i in range(0, n, nn._CHUNK)])
    apply = {"dense": nn._apply_dense, "conv2d": nn._apply_conv2d,
             "maxpool2d": nn._apply_maxpool2d,
             "relu": lambda a, _: np.maximum(a.astype(np.float64), 0.0)}
    per_chunk = []
    for a in chunks:
        seen = [a]
        for layer in model.layers:
            seen.append(apply[layer.kind](seen[-1], layer))
        per_chunk.append(seen)
    return np.concatenate([seen[-1] for seen in per_chunk]), per_chunk


ENGINE_NETS = [("same", 1, None), ("same", 2, None), ("valid", 1, None), ("valid", 2, None),
               ("valid", 1, "relu"), ("same", 2, "maxpool2d")]


class TestEngineOracle:
    """Row-blocked stretches against reference_forward, bit for bit, at every entry point."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 513])
    @pytest.mark.parametrize("padding,stride,first", ENGINE_NETS)
    def test_engine_equals_unblocked_reference(self, padding, stride, first, n):
        from qalloc.quantize import quantize_model, quantize_single_layer

        model = engine_net(padding, stride, first, seed=n)
        rng = np.random.default_rng(n)
        x32 = rng.standard_normal((n, *model.input_shape)).astype(np.float32)
        paths = [(4, 4, 4, 4), (4, 4, 8, 3), (4, 6, 8, 3), (8, 4, 4, 4)]

        def layer_for(i, bits):
            return quantize_single_layer(model, i, bits).layers[i]

        for threads in (1, 2):
            for x in (x32, x32.astype(np.float64)):
                want, per_chunk = reference_forward(model, x, threads)
                got = nn.forward_batch(model, x, threads)
                assert got.dtype == np.float64 and np.array_equal(got, want)
                cache = nn.prefix_cache(model, x, threads)
                assert np.array_equal(cache.logits, want)
                assert set(cache.chunks) == {0, *model.weighted_indices}
                for i, parts in cache.chunks.items():
                    assert len(parts) == len(per_chunk)
                    for part, seen in zip(parts, per_chunk):
                        assert np.array_equal(part, seen[i])
                for i in model.weighted_indices:
                    noise = rng.uniform(-0.5, 0.5, size=model.layers[i].weights.shape) * 1e-3
                    changed = nn.perturb_layer(model, i, noise)
                    assert np.array_equal(nn.forward_from(cache, changed, i),
                                          reference_forward(changed, x, threads)[0])
                trie = list(nn.forward_trie(model, x, paths, layer_for, threads))
                assert [p for p, _ in trie] == sorted(paths)
                for path, z in trie:
                    assert np.array_equal(
                        z, reference_forward(quantize_model(model, path), x, threads)[0])
