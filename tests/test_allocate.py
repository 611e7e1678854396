import math
from dataclasses import replace

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


@pytest.mark.parametrize("b1", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("pinned", [None, {0: 8, 1: 8}])
def test_non_finite_anchor_rejected_by_adaptive_and_sqnr(b1, pinned):
    profs = [profile(0, 100, 2.0, 3.0), profile(1, 200, 2.0, 3.0)]
    with pytest.raises(ValueError, match=f"^anchor b1 must be finite, got {b1}$"):
        allocate.allocate_adaptive(profs, b1, pinned=pinned)
    with pytest.raises(ValueError, match=f"^anchor b1 must be finite, got {b1}$"):
        allocate.allocate_sqnr([100, 200], b1, pinned=pinned)


class TestSqnr:
    def test_equal_sizes_give_equal_bits(self):
        a = allocate.allocate_sqnr([300, 300, 300], 7.0)
        assert all(b == 7.0 for b in a.b_real)

    def test_nonpositive_sizes_rejected_unless_pinned(self):
        with pytest.raises(ValueError, match=r"^profile 1: s, t, p must all be positive \(s=0,"):
            allocate.allocate_sqnr([100, 0], 8.0)
        assert allocate.allocate_sqnr([100, 0], 8.0, pinned={1: 4}).b_int == (8, 4)

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

    @given(st.lists(st.integers(1, 10**9), min_size=1, max_size=7),
           st.floats(min_value=-30.0, max_value=40.0), st.data())
    @settings(max_examples=300, deadline=None)
    def test_is_adaptive_with_unit_profiles_bit_for_bit(self, sizes, b1, data):
        # anchors from -30 to 40 saturate layers at both ends of [B_MIN, B_MAX]
        pinned = data.draw(st.dictionaries(st.integers(0, len(sizes) - 1),
                                           st.integers(allocate.B_MIN, allocate.B_MAX)))
        q = allocate.allocate_sqnr(sizes, b1, pinned=pinned)
        a = allocate.allocate_adaptive([profile(i, s, 1.0, 1.0) for i, s in enumerate(sizes)],
                                       b1, pinned=pinned)
        assert (q.method, a.method) == ("sqnr", "adaptive")
        assert [b.hex() for b in (q.b1, *q.b_real)] == [b.hex() for b in (a.b1, *a.b_real)]
        assert (q.b_int, q.size_bits, q.saturated) == (a.b_int, a.size_bits, a.saturated)


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


class TestByMethod:
    # conv 0, dense 1, conv 2, dense 3
    PROFILES = [replace(profile(0, 296, 18.8, 0.022), kind="conv2d"),
                profile(1, 32832, 21.3, 0.015),
                replace(profile(2, 584, 21.7, 0.046), kind="conv2d"),
                profile(3, 650, 20.7, 0.027)]

    @pytest.mark.parametrize("fc_bits", [None, 6])
    def test_equals_the_direct_allocator_call(self, fc_bits):
        profs, sizes = self.PROFILES, [p.s for p in self.PROFILES]
        pinned = None if fc_bits is None else {1: fc_bits, 3: fc_bits}
        direct = {"adaptive": allocate.allocate_adaptive(profs, 8.5, pinned=pinned),
                  "sqnr": allocate.allocate_sqnr(sizes, 8.5, pinned=pinned),
                  "equal": allocate.allocate_equal(8, sizes, pinned=pinned)}
        assert tuple(direct) == allocate.METHODS
        for method, want in direct.items():
            b1 = 8 if method == "equal" else 8.5
            assert allocate.by_method(method, profs, b1, fc_bits) == want
        if fc_bits is not None:
            assert all(want.b_int[1] == want.b_int[3] == fc_bits for want in direct.values())

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="^unknown method 'nope'$"):
            allocate.by_method("nope", self.PROFILES, 8.0)

    def test_fc_bits_outside_range_raises(self):
        with pytest.raises(ValueError, match=r"^fc_bits must be an integer in \[2, 16\]"):
            allocate.by_method("adaptive", self.PROFILES, 8.0, fc_bits=1)


class TestRounding:
    def test_integer_input_passes_through(self):
        variants = allocate.round_allocation([8.0, 6.0], [100, 200], [1.0, 1.0], 8.0)
        assert len(variants) == 1
        assert variants[0].b_int == (8, 6)
        assert variants[0].b1 == 8.0 and variants[0].method == "adaptive"

    def test_two_fractional_layers_give_at_most_four_variants(self):
        variants = allocate.round_allocation([7.3, 5.8], [100, 200], [1.0, 1.0], 7.3)
        assert 1 <= len(variants) <= 4
        assert len({v.b_int for v in variants}) == len(variants)

    def test_ranked_by_independently_recomputed_m_all(self):
        weights = [0.5, 2.0, 1.0]
        variants = allocate.round_allocation([7.2, 5.7, 9.4], [10, 20, 30], weights, 7.2)
        scores = [sum(w * math.exp(-ALPHA * b) for w, b in zip(weights, v.b_int))
                  for v in variants]
        assert scores == sorted(scores)

    def test_clamped_to_valid_range(self):
        variants = allocate.round_allocation([1.2, 18.9], [10, 10], [1.0, 1.0], 1.2)
        for v in variants:
            assert all(allocate.B_MIN <= b <= allocate.B_MAX for b in v.b_int)
        assert variants[0].saturated == (0, 1)

    @pytest.mark.parametrize("b", [1.7, 1.4, 16.3, 16.5])
    def test_saturated_agrees_with_the_allocators(self, b):
        # one rule: b_real outside [B_MIN, B_MAX], whether or not rounding moves it
        profs = [profile(0, 100, 2.0, 3.0), profile(1, 100, 2.0, 3.0)]
        a = allocate.allocate_adaptive(profs, b)
        variants = allocate.round_allocation(a.b_real, [100, 100], [1.5, 1.5], b)
        assert a.b_real == (b, b)
        assert a.saturated == variants[0].saturated == (0, 1)

    def test_max_variants_cap(self):
        variants = allocate.round_allocation([4.5, 5.5, 6.5, 7.5, 8.5], [1] * 5, [1.0] * 5, 4.5,
                                             max_variants=3)
        assert len(variants) == 3

    @given(st.lists(st.floats(-1.0, 20.0), min_size=1, max_size=8), st.integers(1, 300))
    @settings(max_examples=200, deadline=None)
    def test_variants_are_distinct_and_as_many_as_the_roundings(self, b_real, max_variants):
        # a layer rounds to its clamped floor and ceil, one bit-width when they meet
        roundings = math.prod(len({min(max(f(b), allocate.B_MIN), allocate.B_MAX)
                                   for f in (math.floor, math.ceil)}) for b in b_real)
        variants = allocate.round_allocation(b_real, [1] * len(b_real), [1.0] * len(b_real),
                                             b_real[0], max_variants=max_variants)
        assert len({v.b_int for v in variants}) == len(variants) == min(max_variants, roundings)


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
