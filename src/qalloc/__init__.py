"""qalloc: adaptive per-layer bit-width allocation for network quantization.

Measure how sensitive each layer of a small feed-forward network is to
weight-quantization noise, fit the noise-power law, solve the closed-form
water-filling allocation, and compare the result against SQNR-based and
equal bit-width baselines on size-versus-accuracy curves.
"""

from .allocate import (BitAllocation, allocate_adaptive, allocate_equal, allocate_sqnr,
                       predicted_m_all, round_allocation, size_bits, stationarity_residual)
from .harness import (ComparisonReport, CurvePoint, compare, default_anchor_grid, pareto_frontier,
                      run_pipeline, sweep, verify)
from .modelio import (FixtureSpec, LoadError, default_fixture, gen_dataset, gen_model,
                      load_allocation, load_curve, load_dataset, load_model, load_profiles,
                      save_allocation, save_curve, save_dataset, save_model, save_profiles)
from .nn import (Dataset, Layer, Model, PrefixCache, ShapeError, classify_batch,
                 evaluate_accuracy, forward_batch, forward_from, perturb_layer, prefix_cache)
from .probes import (AdditivityResult, CalibrationError, LayerProfile, LemmaReport, MarginStats,
                     ProbeConfig, additivity_probe, estimate_p, estimate_t, gamma, lemma_check,
                     linearity_probe, margin_stats, rank_diagnostic, theta)
from .quantize import (ALPHA, B_MAX, B_MIN, QuantSpec, expected_noise_power, quantize_model,
                       quantize_uniform, residual_power)

__version__ = "0.1.0"
