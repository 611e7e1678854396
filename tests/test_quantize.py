import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qalloc import quantize
from qalloc.nn import Layer, Model
from qalloc.quantize import QuantSpec


class TestQuantizeUniform:
    def test_hand_value_midrise(self):
        # range (-1, 1), b=2: step 0.5, cells at -0.75, -0.25, 0.25, 0.75
        q = quantize.quantize_uniform([0.3], QuantSpec(2, -1.0, 1.0))
        assert q[0] == pytest.approx(0.25, abs=0)
        assert q[0] - 0.3 == pytest.approx(-0.05, rel=1e-12)

    def test_w_min_maps_to_lowest_cell_midpoint(self):
        spec = QuantSpec(3, -2.0, 2.0)
        q = quantize.quantize_uniform([-2.0], spec)
        assert q[0] == pytest.approx(-2.0 + spec.step / 2, abs=0)

    def test_w_max_maps_to_top_cell_midpoint(self):
        spec = QuantSpec(3, -2.0, 2.0)
        q = quantize.quantize_uniform([2.0], spec)
        assert q[0] == pytest.approx(2.0 - spec.step / 2, rel=1e-12)

    def test_high_bitwidth_residual_bound(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(-1, 1, size=1000)
        q = quantize.quantize_uniform(w, QuantSpec(24, -1.0, 1.0))
        assert np.max(np.abs(q - w)) <= 2 / 2 ** 24

    @given(st.floats(-1, 1), st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_residual_bound_property(self, w, bits):
        spec = QuantSpec(bits, -1.0, 1.0)
        q = quantize.quantize_uniform([w], spec)[0]
        assert abs(q - w) <= spec.step / 2 + 1e-15

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=50), st.integers(2, 12))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_at_fixed_spec(self, values, bits):
        spec = QuantSpec(bits, -5.0, 5.0)
        once = quantize.quantize_uniform(values, spec)
        twice = quantize.quantize_uniform(once, spec)
        assert np.array_equal(once, twice)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            QuantSpec(0.5, -1.0, 1.0)
        with pytest.raises(ValueError):
            QuantSpec(4, 1.0, 1.0)
        with pytest.raises(ValueError):
            quantize.quantize_uniform([np.inf], QuantSpec(4, -1.0, 1.0))


class TestNoisePower:
    def test_direct_formula(self):
        # 1200 weights, range width 2, b=4: 1200 * 4/12 * 4^-4 = 1.5625
        assert quantize.expected_noise_power(1200, -1.0, 1.0, 4) == pytest.approx(1.5625, rel=1e-12)

    @pytest.mark.parametrize("count,w_min,w_max,bits,message", [
        (100, -1.0, 1.0, 0.5, "^bits must be >= 1, got 0.5$"),
        (100, 1.0, 1.0, 4, r"^empty quantization range \(1.0, 1.0\)$"),
        (0, -1.0, 1.0, 4, "^count must be >= 1$")])
    def test_bad_arguments_rejected(self, count, w_min, w_max, bits, message):
        with pytest.raises(ValueError, match=message):
            quantize.expected_noise_power(count, w_min, w_max, bits)

    def test_one_bit_quadruples_noise(self):
        for b in range(2, 12):
            ratio = (quantize.expected_noise_power(100, -1.0, 1.0, b)
                     / quantize.expected_noise_power(100, -1.0, 1.0, b + 1))
            assert ratio == pytest.approx(4.0, rel=1e-12)

    def test_monte_carlo_residual_power(self):
        rng = np.random.default_rng(42)
        n = 100_000
        w = rng.uniform(-1, 1, size=n)
        measured = quantize.residual_power(w, QuantSpec(8, -1.0, 1.0))
        predicted = quantize.expected_noise_power(n, -1.0, 1.0, 8)
        assert 0.95 <= measured / predicted <= 1.05

    def test_measured_power_strictly_decreases_with_bits(self):
        rng = np.random.default_rng(9)
        w = rng.uniform(-1, 1, size=5000)
        powers = [quantize.residual_power(w, QuantSpec(b, -1.0, 1.0)) for b in range(2, 13)]
        assert all(a > b for a, b in zip(powers, powers[1:]))

    def test_empirical_alpha_near_ln4(self):
        rng = np.random.default_rng(5)
        w = rng.uniform(-1, 1, size=50_000)
        a = quantize.empirical_alpha(w, 5, 9)
        assert a == pytest.approx(math.log(4), rel=0.05)


def tiny_model(seed=0):
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(-0.5, 0.5, size=(6, 8)).astype(np.float32)
    b1 = rng.uniform(-0.5, 0.5, size=8).astype(np.float32)
    w2 = rng.uniform(-0.5, 0.5, size=(8, 4)).astype(np.float32)
    b2 = rng.uniform(-0.5, 0.5, size=4).astype(np.float32)
    return Model((Layer("dense", w1, b1), Layer("relu"), Layer("dense", w2, b2)), (6,))


class TestQuantizeModel:
    def test_sixteen_bits_barely_moves_accuracy(self):
        from qalloc import modelio, nn
        model = modelio.gen_model(modelio.default_fixture())
        ds = modelio.gen_dataset(model, 500, seed=1)
        q = quantize.quantize_model(model, [16, 16, 16, 16])
        base = nn.evaluate_accuracy(model, ds)
        assert abs(nn.evaluate_accuracy(q, ds) - base) <= 0.001

    def test_two_bits_collapses_to_four_values(self):
        model = tiny_model()
        q = quantize.quantize_model(model, [2, 2])
        for i in (0, 2):
            assert len(np.unique(q.layers[i].weights)) <= 4

    def test_allocation_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="weighted layers"):
            quantize.quantize_model(tiny_model(), [8])

    def test_non_integer_bits_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            quantize.quantize_model(tiny_model(), [8.5, 8])

    def test_original_model_unmodified(self):
        model = tiny_model()
        before = model.layers[0].weights.copy()
        quantize.quantize_model(model, [3, 3])
        assert np.array_equal(model.layers[0].weights, before)

    def test_constant_tensor_passes_through(self):
        w = np.ones((3, 2), dtype=np.float32)
        model = Model((Layer("dense", w, np.zeros(2, dtype=np.float32)),), (3,))
        q = quantize.quantize_model(model, [4])
        assert np.array_equal(q.layers[0].weights, w)
        assert np.array_equal(q.layers[0].bias, np.zeros(2, dtype=np.float32))

    def test_weightless_layers_untouched(self):
        model = tiny_model()
        q = quantize.quantize_model(model, [5, 5])
        assert q.layers[1].kind == "relu"

    def test_single_layer_matches_the_same_layer_of_a_whole_model_pass(self):
        model = tiny_model()
        whole = quantize.quantize_model(model, [5, 7])
        for i, b in ((0, 5), (2, 7)):
            single = quantize.quantize_single_layer(model, i, b)
            assert np.array_equal(single.layers[i].weights, whole.layers[i].weights)
            assert np.array_equal(single.layers[i].bias, whole.layers[i].bias)
            other = 2 - i
            assert single.layers[other] is model.layers[other]

    def test_single_layer_rejects_weightless_layers_and_bad_bits(self):
        with pytest.raises(ValueError, match="no weights"):
            quantize.quantize_single_layer(tiny_model(), 1, 8)
        with pytest.raises(ValueError, match="integer"):
            quantize.quantize_single_layer(tiny_model(), 0, 17)
