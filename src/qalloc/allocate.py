"""Closed-form per-layer bit-width allocation and baselines.

Minimizing the predicted accuracy measurement sum_i (p_i/t_i) * exp(-a*b_i)
at a fixed total size sum_i s_i*b_i is a water-filling problem; the KKT
stationarity condition makes the ratios

    p_i * exp(-a * b_i) / (t_i * s_i)

equal across layers, which pins every b_i once an anchor b_1 is chosen:

    b_i = b_1 + ln(p_i * t_1 * s_1 / (p_1 * t_i * s_i)) / a,   a = ln 4.

Dropping p and t (all layers assumed equally sensitive) gives the SQNR
baseline b_i = b_1 + ln(s_1/s_i)/a; a constant vector gives the equal
bit-width baseline.  Real-valued solutions are bridged to integers by
enumerating floor/ceil roundings per layer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .quantize import ALPHA, B_MAX, B_MIN, check_bits

# the allocation rules, in the order a sweep runs them
METHODS = ("adaptive", "sqnr", "equal")


@dataclass(frozen=True)
class BitAllocation:
    """Real and rounded per-layer bit-widths for the weighted layers."""

    method: str
    b1: float
    b_real: tuple[float, ...]
    b_int: tuple[int, ...]
    size_bits: int
    saturated: tuple[int, ...] = ()  # positions whose b_real lies outside [B_MIN, B_MAX]


def size_bits(sizes, bits) -> int:
    """Total model size sum s_i * b_i in exact integer arithmetic."""
    return sum(int(s) * int(b) for s, b in zip(sizes, bits, strict=True))


def check_anchor(b1) -> float:
    """`b1` as a float, or ValueError unless it is finite."""
    b1 = float(b1)
    if not math.isfinite(b1):
        raise ValueError(f"anchor b1 must be finite, got {b1}")
    return b1


def check_max_variants(max_variants: int):
    """ValueError unless `max_variants` is at least 1."""
    if max_variants < 1:
        raise ValueError(f"max_variants must be >= 1, got {max_variants}")


def _clamp_int(b: float) -> int:
    rounded = math.floor(b + 0.5)  # half rounds up, deterministically
    return min(max(rounded, B_MIN), B_MAX)


def _saturated(b_real) -> tuple[int, ...]:
    """Positions whose real bit-width lies outside [B_MIN, B_MAX], so rounding clamps them."""
    return tuple(i for i, r in enumerate(b_real) if not B_MIN <= r <= B_MAX)


def _finish(method, b1, b_real, sizes) -> BitAllocation:
    b_int = tuple(_clamp_int(b) for b in b_real)
    return BitAllocation(method, float(b1), tuple(float(b) for b in b_real), b_int,
                         size_bits(sizes, b_int), _saturated(b_real))


def _profile_fields(profiles):
    s = [int(p.s) for p in profiles]
    t = [float(p.t) for p in profiles]
    pw = [float(p.p) for p in profiles]
    degenerate = [bool(p.degenerate) for p in profiles]
    return s, t, pw, degenerate


def _closed_form(method: str, b1: float, s, t, pw, degenerate, pinned) -> BitAllocation:
    """The water-filling solution anchored at b1 on the first free layer.

    Pinned positions take their pin and degenerate ones B_MIN; every other
    layer i gets b1 + ln(p_i*t_a*s_a / (p_a*t_i*s_i)) / a, with a the first
    free layer.  The one copy of the closed form, for adaptive and SQNR.
    """
    b1 = check_anchor(b1)
    pinned = pinned or {}
    free = [i for i in range(len(s)) if i not in pinned and not degenerate[i]]
    for i in free:
        if s[i] <= 0 or t[i] <= 0 or pw[i] <= 0:
            raise ValueError(f"profile {i}: s, t, p must all be positive (s={s[i]}, t={t[i]}, p={pw[i]})")
    a = free[0] if free else None
    b_real = [float(pinned[i]) if i in pinned
              else float(B_MIN) if degenerate[i]
              else b1 + math.log(pw[i] * t[a] * s[a] / (pw[a] * t[i] * s[i])) / ALPHA
              for i in range(len(s))]
    return _finish(method, b1, b_real, s)


def allocate_adaptive(profiles, b1: float, pinned: dict[int, int] | None = None) -> BitAllocation:
    """Water-filling allocation anchored at b1 on the first free layer.

    Degenerate layers (flagged p == 0) are excluded from the closed form and
    assigned the minimum bit-width; `pinned` maps profile positions to fixed
    bit-widths that bypass the optimization entirely.
    """
    return _closed_form("adaptive", b1, *_profile_fields(profiles), pinned)


def allocate_sqnr(sizes, b1: float, pinned: dict[int, int] | None = None) -> BitAllocation:
    """Allocation equalizing exp(-a*b_i)/s_i: the adaptive rule with p = t = 1 on every layer."""
    s = [int(v) for v in sizes]
    ones = [1.0] * len(s)
    return _closed_form("sqnr", b1, s, ones, ones, [False] * len(s), pinned)


def allocate_equal(bits: int, sizes, pinned: dict[int, int] | None = None) -> BitAllocation:
    """Constant bit-width vector; `pinned` positions take their pin instead."""
    bits = check_bits(bits, "equal allocation bit-width")
    pinned = pinned or {}
    s = [int(v) for v in sizes]
    return _finish("equal", bits, [float(pinned.get(i, bits)) for i in range(len(s))], s)


def by_method(method: str, profiles, b1: float, fc_bits: int | None = None) -> BitAllocation:
    """The allocation of one of METHODS at anchor b1 (equal's bit-width) from `profiles`.

    `fc_bits` pins every dense layer to that bit-width.  The one method
    dispatch: `qalloc allocate` and the sweep both allocate through it.
    """
    pinned = None
    if fc_bits is not None:
        bits = check_bits(fc_bits, "fc_bits")
        pinned = {pos: bits for pos, p in enumerate(profiles) if p.kind == "dense"}
    sizes = [p.s for p in profiles]
    if method == "adaptive":
        return allocate_adaptive(profiles, b1, pinned=pinned)
    if method == "sqnr":
        return allocate_sqnr(sizes, b1, pinned=pinned)
    if method == "equal":
        return allocate_equal(b1, sizes, pinned=pinned)
    raise ValueError(f"unknown method {method!r}")


def predicted_m_all(bits, weights) -> float:
    """Predicted accuracy measurement sum w_i * exp(-a*b_i), w_i = p_i/t_i."""
    return sum(w * math.exp(-ALPHA * b) for w, b in zip(weights, bits, strict=True))


def round_allocation(b_real, sizes, weights, b1: float,
                     max_variants: int = 16) -> list[BitAllocation]:
    """Enumerate floor/ceil roundings of a real adaptive allocation anchored at b1.

    Variants are clamped to [B_MIN, B_MAX] and ranked by predicted m_all
    under `weights` ascending, then by total size; at most max_variants (at
    least 1) are returned.  A layer's choices (its clamped floor and ceil,
    one value when they meet) differ, so no two variants are equal.
    """
    check_max_variants(max_variants)
    b_real = [float(b) for b in b_real]
    if not all(math.isfinite(b) for b in b_real):
        raise ValueError("b_real must be finite")
    s = [int(v) for v in sizes]
    if len(s) != len(b_real):
        raise ValueError("sizes and b_real length mismatch")
    choices = []
    for b in b_real:
        lo = min(max(math.floor(b), B_MIN), B_MAX)
        hi = min(max(math.ceil(b), B_MIN), B_MAX)
        choices.append((lo,) if lo == hi else (lo, hi))
    n_combos = math.prod(map(len, choices))
    if n_combos > 65536:
        raise ValueError(f"rounding enumeration too large ({n_combos} combinations)")
    ranked = sorted((predicted_m_all(combo, weights), size_bits(s, combo), combo)
                    for combo in itertools.product(*choices))
    saturated = _saturated(b_real)
    return [BitAllocation("adaptive", float(b1), tuple(b_real), combo, sz, saturated)
            for _, sz, combo in ranked[:max_variants]]


def stationarity_residual(profiles, b_real) -> float:
    """Max spread of log(p_i*exp(-a*b_i)/(t_i*s_i)) across non-degenerate layers.

    Zero (up to float noise) iff the allocation satisfies the KKT condition.
    """
    s, t, pw, degenerate = _profile_fields(profiles)
    logs = [math.log(pw[i]) - ALPHA * b - math.log(t[i] * s[i])
            for i, b in enumerate(b_real) if not degenerate[i]]
    if len(logs) < 2:
        return 0.0
    return max(logs) - min(logs)
