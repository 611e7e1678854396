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
