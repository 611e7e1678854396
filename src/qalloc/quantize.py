"""Uniform mid-rise weight quantizer and its analytic noise-power model.

A b-bit mid-rise quantizer splits [w_min, w_max] into 2**b equal cells and
reconstructs every value at its cell midpoint, so the residual w - q(w) is
bounded by half a step and is well modelled as uniform over one cell.  Under
that model the expected total residual power over N values is

    N * (w_max - w_min)**2 / 12 * exp(-b * ln 4)

i.e. it quadruples for every bit removed (the classic 6 dB/bit rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .nn import Layer, Model, WEIGHTED_KINDS

ALPHA = math.log(4.0)  # per-bit noise-power decay rate

B_MIN = 2
B_MAX = 16


def check_bits(bits, what: str = "bit-width") -> int:
    """`bits` as an int, or ValueError unless it is an integer in [B_MIN, B_MAX]."""
    if not (float(bits).is_integer() and B_MIN <= bits <= B_MAX):
        raise ValueError(f"{what} must be an integer in [{B_MIN}, {B_MAX}], got {bits}")
    return int(bits)


@dataclass(frozen=True)
class QuantSpec:
    """Bit count plus the value range the quantizer covers."""

    bits: float
    w_min: float
    w_max: float

    def __post_init__(self):
        if not (self.bits >= 1):
            raise ValueError(f"bits must be >= 1, got {self.bits}")
        if not (math.isfinite(self.w_min) and math.isfinite(self.w_max)):
            raise ValueError("quantization range must be finite")
        if not self.w_min < self.w_max:
            raise ValueError(f"empty quantization range ({self.w_min}, {self.w_max})")

    @property
    def cells(self) -> float:
        return 2.0 ** self.bits

    @property
    def step(self) -> float:
        return (self.w_max - self.w_min) / self.cells


def expected_noise_power(count: int, w_min: float, w_max: float, bits: float) -> float:
    """Expected total squared residual for count values quantized at `bits`.

    The values uniformly cover (w_min, w_max): count * range**2 / 12, scaled by
    exp(-ALPHA * bits).
    """
    spec = QuantSpec(bits, w_min, w_max)  # validates bits and the range
    if count < 1:
        raise ValueError("count must be >= 1")
    return count * (spec.w_max - spec.w_min) ** 2 / 12.0 * math.exp(-ALPHA * bits)


def quantize_uniform(values, spec: QuantSpec) -> np.ndarray:
    """Quantize values to cell midpoints of the mid-rise grid given by spec.

    Out-of-range values are clamped; w == w_max maps to the top cell.
    Returns float64; every in-range residual satisfies |w - q(w)| <= step/2.
    """
    v = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot quantize non-finite values")
    step = spec.step
    idx = np.floor((np.clip(v, spec.w_min, spec.w_max) - spec.w_min) / step)
    idx = np.minimum(idx, math.ceil(spec.cells) - 1)
    return spec.w_min + (idx + 0.5) * step


def residual_power(values, spec: QuantSpec) -> float:
    """Total squared quantization residual, the measured side of the noise law."""
    v = np.asarray(values, dtype=np.float64)
    r = quantize_uniform(v, spec) - v
    return float(np.sum(r * r))


def quantize_tensor(values: np.ndarray, bits: float) -> np.ndarray:
    """Quantize one tensor at its own min/max range; float32 result.

    A constant tensor has no range to split and comes back as a float32 copy.
    """
    v = np.asarray(values)
    lo, hi = float(v.min()), float(v.max())
    if lo == hi:
        return v.astype(np.float32)
    return quantize_uniform(v, QuantSpec(bits, lo, hi)).astype(np.float32)


def _quantize_layer(layer: Layer, bits, index: int) -> Layer:
    """Layer `index` with its weights and bias quantized at `bits`, each at its own range."""
    if layer.kind not in WEIGHTED_KINDS:
        raise ValueError(f"layer {index} ({layer.kind}) has no weights to quantize")
    bits = check_bits(bits, f"layer {index}: bit-width")
    bias = None if layer.bias is None else quantize_tensor(layer.bias, bits)
    return replace(layer, weights=quantize_tensor(layer.weights, bits), bias=bias)


def allocation_bits(model: Model, allocation) -> tuple:
    """An allocation's bit-widths, or ValueError unless there is one per weighted layer.

    `allocation` is a BitAllocation or a plain sequence of bit-widths.
    """
    bits = tuple(getattr(allocation, "b_int", allocation))
    weighted = model.weighted_indices
    if len(bits) != len(weighted):
        raise ValueError(f"allocation has {len(bits)} bit-widths "
                         f"for {len(weighted)} weighted layers")
    return bits


def quantize_model(model: Model, allocation) -> Model:
    """Quantize every weighted layer's weights and bias at its allocated bits.

    `allocation` is a BitAllocation or a plain sequence with one integer
    bit-width per weighted layer.  Weightless layers pass through; the input
    model is left unmodified.
    """
    layers = list(model.layers)
    for i, b in zip(model.weighted_indices, allocation_bits(model, allocation)):
        layers[i] = _quantize_layer(layers[i], b, i)
    return Model(tuple(layers), model.input_shape)


def quantize_single_layer(model: Model, index: int, bits: int) -> Model:
    """Quantize just one weighted layer, leaving the rest exact."""
    return model.replace_layer(index, _quantize_layer(model.layers[index], bits, index))


def empirical_alpha(values, b_lo: int, b_hi: int) -> float:
    """Measured per-bit decay rate ln(P(b_lo)/P(b_hi)) / (b_hi - b_lo).

    Both powers are measured at the tensor's own min/max range.  Diagnostic
    for how closely a weight tensor follows the ln(4)/bit law; the allocator
    always uses the analytic ALPHA.
    """
    if b_hi <= b_lo:
        raise ValueError("need b_hi > b_lo")
    v = np.asarray(values, dtype=np.float64)
    w_min, w_max = float(v.min()), float(v.max())
    p_lo = residual_power(v, QuantSpec(b_lo, w_min, w_max))
    p_hi = residual_power(v, QuantSpec(b_hi, w_min, w_max))
    if p_lo <= 0 or p_hi <= 0:
        raise ValueError("residual power vanished; tensor too coarse for this diagnostic")
    return math.log(p_lo / p_hi) / (b_hi - b_lo)
