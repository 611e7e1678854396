import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qalloc import allocate
from qalloc.probes import LayerProfile
from qalloc.quantize import ALPHA


def profile(index, s, t, p, degenerate=False):
    return LayerProfile(index=index, kind="dense", s=s, t=t, p=p, noise_scale=1.0,
                        delta_acc=0.5, b_probe=10, weight_range=(-1.0, 1.0),
                        degenerate=degenerate)


positive = st.floats(min_value=0.01, max_value=1000.0, allow_nan=False)


class TestAdaptive:
    def test_double_size_costs_half_a_bit(self):
        profs = [profile(0, 100, 2.0, 3.0), profile(1, 200, 2.0, 3.0)]
        a = allocate.allocate_adaptive(profs, 8.0)
        assert a.b_real[0] == pytest.approx(8.0, abs=0)
        assert a.b_real[1] == pytest.approx(7.5, rel=1e-12)

    def test_identical_layers_share_the_anchor(self):
        profs = [profile(i, 500, 1.5, 0.7) for i in range(4)]
        a = allocate.allocate_adaptive(profs, 6.0)
        assert all(b == pytest.approx(6.0, abs=1e-12) for b in a.b_real)

    def test_nonpositive_profiles_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            allocate.allocate_adaptive([profile(0, 10, -1.0, 1.0)], 8.0)

    def test_degenerate_layer_gets_clamp_minimum(self):
        profs = [profile(0, 100, 2.0, 3.0), profile(1, 100, 1.0, 0.0, degenerate=True)]
        a = allocate.allocate_adaptive(profs, 8.0)
        assert a.b_int[1] == allocate.B_MIN

    @given(st.lists(st.tuples(positive, positive, st.integers(10, 100_000)),
                    min_size=2, max_size=6),
           st.floats(min_value=4.0, max_value=12.0))
    @settings(max_examples=100, deadline=None)
    def test_stationarity_ratios_equal(self, rows, b1):
        profs = [profile(i, s, t, p) for i, (t, p, s) in enumerate(rows)]
        a = allocate.allocate_adaptive(profs, b1)
        assert allocate.stationarity_residual(profs, a.b_real) <= 1e-9

    @given(st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=50, deadline=None)
    def test_anchor_shift_moves_every_layer_equally(self, shift):
        profs = [profile(0, 100, 2.0, 3.0), profile(1, 5000, 0.4, 9.0), profile(2, 70, 8.0, 0.2)]
        a = allocate.allocate_adaptive(profs, 8.0)
        b = allocate.allocate_adaptive(profs, 8.0 + shift)
        for x, y in zip(a.b_real, b.b_real):
            assert y - x == pytest.approx(shift, abs=1e-12)


class TestSqnr:
    def test_equal_sizes_give_equal_bits(self):
        a = allocate.allocate_sqnr([300, 300, 300], 7.0)
        assert all(b == 7.0 for b in a.b_real)

    def test_four_times_size_costs_one_bit(self):
        a = allocate.allocate_sqnr([100, 400], 8.0)
        assert a.b_real[1] == pytest.approx(7.0, rel=1e-12)

    def test_reduces_to_adaptive_when_p_over_t_constant(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            c = float(rng.uniform(0.2, 8.0))
            ts = rng.uniform(0.1, 10.0, size=n)
            sizes = rng.integers(10, 100_000, size=n)
            profs = [profile(i, int(sizes[i]), float(ts[i]), c * float(ts[i])) for i in range(n)]
            b1 = float(rng.uniform(4, 12))
            a = allocate.allocate_adaptive(profs, b1)
            q = allocate.allocate_sqnr([int(s) for s in sizes], b1)
            assert max(abs(x - y) for x, y in zip(a.b_real, q.b_real)) <= 1e-12


class TestEqual:
    def test_constant_vector(self):
        a = allocate.allocate_equal(8, [10, 20, 30])
        assert a.b_int == (8, 8, 8)
        assert a.size_bits == 8 * 60

    def test_adaptive_with_identical_profiles_rounds_to_equal(self):
        profs = [profile(i, 640, 2.0, 1.0) for i in range(3)]
        a = allocate.allocate_adaptive(profs, 8.0)
        e = allocate.allocate_equal(8, [640] * 3)
        assert a.b_int == e.b_int

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            allocate.allocate_equal(1, [10])
        with pytest.raises(ValueError):
            allocate.allocate_equal(17, [10])

    def test_non_integer_bits_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            allocate.allocate_equal(8.4, [10])

    def test_pins_show_in_b_real_like_the_other_allocators(self):
        sizes = [10, 20, 30]
        e = allocate.allocate_equal(8, sizes, pinned={1: 12})
        assert e.b_real == (8.0, 12.0, 8.0) and e.b_int == (8, 12, 8)
        assert e.size_bits == allocate.size_bits(sizes, (8, 12, 8))
        q = allocate.allocate_sqnr(sizes, 8.0, pinned={1: 12})
        assert q.b_real[1] == e.b_real[1] and q.b_int[1] == e.b_int[1]


class TestRounding:
    def test_integer_input_passes_through(self):
        variants = allocate.round_allocation([8.0, 6.0], [100, 200])
        assert len(variants) == 1
        assert variants[0].b_int == (8, 6)

    def test_two_fractional_layers_give_at_most_four_variants(self):
        variants = allocate.round_allocation([7.3, 5.8], [100, 200])
        assert 1 <= len(variants) <= 4
        assert len({v.b_int for v in variants}) == len(variants)

    def test_ranked_by_independently_recomputed_m_all(self):
        weights = [0.5, 2.0, 1.0]
        variants = allocate.round_allocation([7.2, 5.7, 9.4], [10, 20, 30], weights=weights)
        scores = [sum(w * math.exp(-ALPHA * b) for w, b in zip(weights, v.b_int))
                  for v in variants]
        assert scores == sorted(scores)

    def test_clamped_to_valid_range(self):
        variants = allocate.round_allocation([1.2, 18.9], [10, 10])
        for v in variants:
            assert all(allocate.B_MIN <= b <= allocate.B_MAX for b in v.b_int)
        assert variants[0].saturated == (0, 1)

    @pytest.mark.parametrize("b", [1.7, 1.4, 16.3, 16.5])
    def test_saturated_agrees_with_the_allocators(self, b):
        # one rule: b_real outside [B_MIN, B_MAX], whether or not rounding moves it
        profs = [profile(0, 100, 2.0, 3.0), profile(1, 100, 2.0, 3.0)]
        a = allocate.allocate_adaptive(profs, b)
        variants = allocate.round_allocation(a.b_real, [100, 100])
        assert a.b_real == (b, b)
        assert a.saturated == variants[0].saturated == (0, 1)

    def test_max_variants_cap(self):
        variants = allocate.round_allocation([4.5, 5.5, 6.5, 7.5, 8.5], [1] * 5, max_variants=3)
        assert len(variants) == 3


class TestSizeBits:
    def test_budget_identity_exact(self):
        sizes = [296, 584, 32832, 650]
        bits = [8, 7, 5, 9]
        a = allocate.BitAllocation("equal", 8.0, tuple(map(float, bits)), tuple(bits),
                                   allocate.size_bits(sizes, bits))
        assert a.size_bits == sum(s * b for s, b in zip(sizes, bits))

    def test_strict_zip(self):
        with pytest.raises(ValueError):
            allocate.size_bits([1, 2], [3])
