"""Portable model/dataset files, synthetic fixtures, and report serialization.

Models and datasets are stored as a JSON manifest plus a binary sidecar of
little-endian float32 values: `<prefix>.model.json` + `<prefix>.model.bin`
and `<prefix>.dataset.json` + `<prefix>.dataset.bin`.  Tensor byte offsets
are declared in the manifest; the loader validates version, shapes, bounds,
overlap and total size before touching the data.  All round trips are
bit-exact.

Fixture models are generated deterministically from a seed: weights and
biases are uniform(-r, r) with r = 1/sqrt(fan_in), and datasets draw
standard-normal inputs labelled by the model's own argmax (teacher
labelling), which makes baseline accuracy exactly 1 so accuracy-drop
probes have a clean reference.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .allocate import BitAllocation
from .nn import Dataset, Layer, Model, _layer_out_shape, classify_batch, forward_batch
from .probes import LayerProfile

FORMAT_VERSION = 1

# Chosen so the teacher-labelled default fixture populates all 10 classes
# with no class dominating (largest share ~22%).
DEFAULT_SEED = 190

_DRAW_ROWS = 128  # rows per standard-normal draw of gen_dataset

CURVE_HEADER = ["method", "b1", "variant", "size_bits", "size_mb", "top1"]


class LoadError(ValueError):
    """A persisted artifact is unreadable, inconsistent, or the wrong version."""


@contextlib.contextmanager
def _loading(path):
    """Report any failure to read or parse the artifact at `path` as one LoadError.

    A missing field, a wrong type or an unparsable value deep in a document
    surfaces as KeyError, IndexError, TypeError, ValueError (and so on), a
    document nested too deep as RecursionError, and an oversize CSV field as
    csv.Error; all of them become a LoadError that names the file.
    """
    try:
        yield
    except LoadError:
        raise
    except OSError as e:
        raise LoadError(f"{path}: {e}") from e
    except (AttributeError, KeyError, IndexError, OverflowError, RecursionError, TypeError,
            ValueError, csv.Error) as e:
        raise LoadError(f"{path}: malformed ({type(e).__name__}: {e})") from e


_JSON_TYPES = {int: int, float: (int, float), str: str, bool: bool}


def _as(kind, v):
    """A JSON value as `kind`; TypeError when the document holds another type there.

    A float must be finite: strict JSON has no NaN or Infinity, and the
    writers store a missing measurement as null.
    """
    if not isinstance(v, _JSON_TYPES[kind]) or (isinstance(v, bool) and kind is not bool):
        raise TypeError(f"expected {kind.__name__}, got {type(v).__name__}")
    return _finite(float(v)) if kind is float else kind(v)


def _finite(v: float) -> float:
    """`v`, or ValueError when it is NaN or infinite."""
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {v}")
    return v


def _read_doc(path: Path) -> dict:
    """The JSON document at `path`, checked for the supported format_version."""
    doc = json.loads(path.read_text())
    _check_version(doc, path)
    return doc


def _write_text(path, text: str) -> Path:
    """Write `text` to `path`, creating its directory (sidecars go in the same one)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _write_doc(path, doc: dict) -> Path:
    """Write format_version, then `doc`, to `path` as indented JSON plus a newline.

    The save_* functions call this, not the public write_json, so code that
    wraps the public writers (perfbench's tracer) sees one call per save.
    """
    doc = {"format_version": FORMAT_VERSION, **doc}
    return _write_text(path, json.dumps(doc, indent=1) + "\n")


def _csv_text(header: list[str], rows) -> str:
    """CSV text of `header` then `rows`, each line ending in a newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# fixtures


@dataclass(frozen=True)
class FixtureSpec:
    """Deterministic recipe for a synthetic model."""

    input_shape: tuple[int, ...]
    layers: tuple[dict, ...]
    seed: int = 0


def default_fixture(seed: int = DEFAULT_SEED) -> FixtureSpec:
    """Two conv blocks feeding two dense layers; 10 classes on 16x16x4 inputs.

    Weighted-layer parameter counts: 296, 584, 32832, 650 (biases included).
    """
    return FixtureSpec(
        input_shape=(16, 16, 4),
        layers=(
            {"kind": "conv2d", "kernel": [3, 3], "out_channels": 8, "stride": 1, "padding": "same"},
            {"kind": "relu"},
            {"kind": "maxpool2d", "pool_size": 2},
            {"kind": "conv2d", "kernel": [3, 3], "out_channels": 8, "stride": 1, "padding": "same"},
            {"kind": "relu"},
            {"kind": "dense", "out_features": 64},
            {"kind": "relu"},
            {"kind": "dense", "out_features": 10},
        ),
        seed=seed,
    )


def gen_model(spec: FixtureSpec) -> Model:
    """Instantiate a fixture: uniform(-r, r) weights with r = 1/sqrt(fan_in).

    Biases start at zero; biased logits would let one class dominate the
    teacher labelling regardless of the input.
    """
    rng = np.random.default_rng(spec.seed)
    shape = tuple(spec.input_shape)
    layers = []
    for pos, desc in enumerate(spec.layers):
        kind = desc["kind"]
        if kind == "conv2d":
            if len(shape) != 3:
                raise ValueError(f"layer {pos} (conv2d): needs 3-d input, has {shape}")
            kh, kw = desc["kernel"]
            cin = shape[2]
            cout = desc["out_channels"]
            r = 1.0 / np.sqrt(kh * kw * cin)
            w = rng.uniform(-r, r, size=(kh, kw, cin, cout)).astype(np.float32)
            layer = Layer("conv2d", w, np.zeros(cout, dtype=np.float32),
                          stride=desc.get("stride", 1), padding=desc.get("padding", "same"))
        elif kind == "dense":
            fan_in = int(np.prod(shape))
            out = desc["out_features"]
            r = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(-r, r, size=(fan_in, out)).astype(np.float32)
            layer = Layer("dense", w, np.zeros(out, dtype=np.float32))
        elif kind == "relu":
            layer = Layer("relu")
        elif kind == "maxpool2d":
            k = desc.get("pool_size", 2)
            layer = Layer("maxpool2d", pool_size=k, stride=desc.get("stride", k))
        else:
            raise ValueError(f"layer {pos}: unknown kind {kind!r}")
        layers.append(layer)
        shape = _layer_out_shape(layer, shape, pos)
    return Model(tuple(layers), tuple(spec.input_shape))


def gen_dataset(model: Model, n: int, seed: int = 0) -> Dataset:
    """Standard-normal inputs labelled by the model itself (accuracy 1 by construction).

    The inputs are the float32 casts of one standard-normal float64 stream
    from `seed`, drawn `_DRAW_ROWS` rows at a time straight into the one
    float32 array: consecutive draws continue the same stream, so the
    inputs equal one whole draw's, and no float64 copy of them exists.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    inputs = np.empty((n, *model.input_shape), dtype=np.float32)
    for a in range(0, n, _DRAW_ROWS):
        rows = inputs[a:a + _DRAW_ROWS]
        rows[...] = rng.standard_normal(rows.shape)  # cast as astype casts
    labels = classify_batch(forward_batch(model, inputs))
    return Dataset(inputs, labels)


# ---------------------------------------------------------------------------
# model + dataset files


def _check_version(doc, path):
    v = doc.get("format_version")
    if v != FORMAT_VERSION or isinstance(v, bool):
        raise LoadError(f"{path}: format_version {v!r} not supported (expected {FORMAT_VERSION})")


def _tensor_entry(arr: np.ndarray, offset: int) -> tuple[dict, bytes, int]:
    data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
    entry = {"shape": [int(v) for v in arr.shape], "offset": offset}
    return entry, data, offset + len(data)


def _shape(path, name: str, dims) -> tuple[int, ...]:
    """Shape `dims` of `name` in the manifest at `path`; a negative dimension is a LoadError."""
    shape = tuple(_as(int, v) for v in dims)
    if any(v < 0 for v in shape):
        raise LoadError(f"{path}: {name}: negative dimension in shape {list(shape)}")
    return shape


def _read_tensor(path, blob: bytes, entry: dict, name: str, spans: list) -> np.ndarray:
    """Tensor `name` of the manifest at `path`, read from its sidecar bytes `blob`."""
    shape = _shape(path, name, entry["shape"])
    count = int(np.prod(shape)) if shape else 1
    start = _as(int, entry["offset"])
    end = start + 4 * count
    if start < 0 or end > len(blob):
        raise LoadError(f"{path}: {name}: offset range [{start}, {end}) "
                        f"outside sidecar of {len(blob)} bytes")
    for other_name, a, b in spans:
        if start < b and a < end:
            raise LoadError(f"{path}: {name}: offset range overlaps {other_name}")
    spans.append((name, start, end))
    return np.frombuffer(blob[start:end], dtype="<f4").reshape(shape).copy()


def _files(prefix, suffix: str) -> tuple[Path, Path]:
    """Manifest and sidecar named by a prefix `p`, `p<suffix>` or `p<suffix>.json`."""
    path = Path(prefix)
    name = path.name.removesuffix(".json") if path.name.endswith(suffix + ".json") else path.name
    name = name if name.endswith(suffix) else name + suffix
    return path.with_name(name + ".json"), path.with_name(name + ".bin")


def save_model(model: Model, prefix) -> tuple[Path, Path]:
    json_path, bin_path = _files(prefix, ".model")
    blob = bytearray()
    offset = 0
    layers_doc = []
    for layer in model.layers:
        entry = {"kind": layer.kind}
        if layer.kind == "conv2d":
            entry["stride"] = layer.stride
            entry["padding"] = layer.padding
        if layer.kind == "maxpool2d":
            entry["pool_size"] = layer.pool_size
            entry["stride"] = layer.stride
        if layer.weights is not None:
            tensor, data, offset = _tensor_entry(layer.weights, offset)
            entry["weights"] = tensor
            blob += data
        if layer.bias is not None:
            tensor, data, offset = _tensor_entry(layer.bias, offset)
            entry["bias"] = tensor
            blob += data
        layers_doc.append(entry)
    doc = {
        "input_shape": [int(v) for v in model.input_shape],
        "d": model.d,
        "layers": layers_doc,
    }
    _write_doc(json_path, doc)
    bin_path.write_bytes(bytes(blob))
    return json_path, bin_path


def load_model(prefix) -> Model:
    json_path, bin_path = _files(prefix, ".model")
    with _loading(json_path):
        doc = _read_doc(json_path)
        with _loading(bin_path):
            blob = bin_path.read_bytes()
        spans: list = []
        layers = []
        total_elems = 0
        for i, entry in enumerate(doc["layers"]):
            weights = bias = None
            if "weights" in entry:
                weights = _read_tensor(json_path, blob, entry["weights"], f"layer {i} weights",
                                       spans)
                total_elems += weights.size
            if "bias" in entry:
                bias = _read_tensor(json_path, blob, entry["bias"], f"layer {i} bias", spans)
                total_elems += bias.size
            layers.append(Layer(entry["kind"], weights, bias,
                                stride=_as(int, entry.get("stride", 1)),
                                padding=entry.get("padding", "valid"),
                                pool_size=_as(int, entry.get("pool_size", 2))))
        if 4 * total_elems != len(blob):
            raise LoadError(f"{bin_path}: sidecar holds {len(blob)} bytes, "
                            f"manifest declares {4 * total_elems}")
        return Model(tuple(layers), _shape(json_path, "input_shape", doc["input_shape"]))


def save_dataset(dataset: Dataset, prefix) -> tuple[Path, Path]:
    json_path, bin_path = _files(prefix, ".dataset")
    inputs = np.ascontiguousarray(dataset.inputs, dtype="<f4")
    doc = {
        "input_shape": [int(v) for v in inputs.shape[1:]],
        "n": len(dataset),
        "labels": [int(v) for v in dataset.labels],
        "inputs_offset": 0,
    }
    _write_doc(json_path, doc)
    bin_path.write_bytes(inputs.tobytes())
    return json_path, bin_path


def load_dataset(prefix) -> Dataset:
    json_path, bin_path = _files(prefix, ".dataset")
    with _loading(json_path):
        doc = _read_doc(json_path)
        n = _as(int, doc["n"])
        shape = _shape(json_path, "input_shape", doc["input_shape"])
        expected = 4 * n * int(np.prod(shape))
        start = _as(int, doc.get("inputs_offset", 0))
        with _loading(bin_path):
            size = bin_path.stat().st_size
            # the size is checked first, so the inputs are read once, straight into their array
            if min(start, expected) < 0 or start + expected != size:
                raise LoadError(f"{bin_path}: inputs need {expected} bytes at offset {start}, "
                                f"sidecar has {size}")
            inputs = np.fromfile(bin_path, dtype="<f4", count=expected // 4, offset=start)
        labels = np.array([_as(int, v) for v in doc["labels"]], dtype=np.int64)
        if len(labels) != n:
            raise LoadError(f"{json_path}: {len(labels)} labels for n={n}")
        return Dataset(inputs.reshape((n, *shape)), labels)


# ---------------------------------------------------------------------------
# profiles, allocations, curves, reports


def _nan_to_null(v: float):
    """JSON value of a float that may be NaN (unmeasured): null for NaN."""
    return None if v != v else float(v)


def save_profiles(profiles, path, meta: dict | None = None) -> Path:
    return _write_doc(path, {
        "meta": dict(meta or {}),
        "layers": [
            {
                "index": p.index, "kind": p.kind, "s": p.s,
                "t": _nan_to_null(p.t), "p": _nan_to_null(p.p),
                "noise_scale": _nan_to_null(p.noise_scale),
                "delta_acc": _nan_to_null(p.delta_acc),
                "b_probe": p.b_probe,
                "weight_range": list(p.weight_range),
                "copied_t": p.copied_t, "degenerate": p.degenerate,
            }
            for p in profiles
        ],
    })


def load_profiles(path) -> tuple[list[LayerProfile], dict]:
    path = Path(path)
    with _loading(path):
        doc = _read_doc(path)
        profiles = []
        for rec in doc["layers"]:
            w_min, w_max = rec["weight_range"]
            profiles.append(LayerProfile(
                index=_as(int, rec["index"]), kind=_as(str, rec["kind"]), s=_as(int, rec["s"]),
                t=_maybe_nan(rec["t"]), p=_maybe_nan(rec["p"]),
                noise_scale=_maybe_nan(rec["noise_scale"]),
                delta_acc=_maybe_nan(rec["delta_acc"]), b_probe=_as(int, rec["b_probe"]),
                weight_range=(_as(float, w_min), _as(float, w_max)),
                copied_t=_as(bool, rec.get("copied_t", False)),
                degenerate=_as(bool, rec.get("degenerate", False))))
        return profiles, dict(doc.get("meta", {}))


def _maybe_nan(v) -> float:
    return math.nan if v is None else _as(float, v)


PROFILE_CSV_HEADER = ["index", "kind", "s", "t", "p", "noise_scale", "delta_acc",
                      "b_probe", "w_min", "w_max", "copied_t", "degenerate"]


def save_profiles_csv(profiles, path) -> Path:
    """Tabular twin of profiles.json for spreadsheet-side inspection."""
    return _write_text(path, _csv_text(PROFILE_CSV_HEADER, (
        [p.index, p.kind, p.s, repr(p.t), repr(p.p), repr(p.noise_scale), repr(p.delta_acc),
         p.b_probe, repr(p.weight_range[0]), repr(p.weight_range[1]), int(p.copied_t),
         int(p.degenerate)]
        for p in profiles)))


def save_allocation(allocation: BitAllocation, path) -> Path:
    return _write_doc(path, {
        "method": allocation.method,
        "b1": allocation.b1,
        "b_real": list(allocation.b_real),
        "b_int": list(allocation.b_int),
        "size_bits": allocation.size_bits,
        "saturated": list(allocation.saturated),
    })


def load_allocation(path) -> BitAllocation:
    path = Path(path)
    with _loading(path):
        doc = _read_doc(path)
        return BitAllocation(_as(str, doc["method"]), _as(float, doc["b1"]),
                             tuple(_as(float, v) for v in doc["b_real"]),
                             tuple(_as(int, v) for v in doc["b_int"]),
                             _as(int, doc["size_bits"]),
                             tuple(_as(int, v) for v in doc.get("saturated", [])))


def curve_csv_text(points) -> str:
    """CSV with one row per sweep point; floats written via repr (round-trip exact)."""
    return _csv_text(CURVE_HEADER, (
        [p.method, repr(float(p.b1)), p.variant, p.size_bits, repr(float(p.size_mb)),
         repr(float(p.top1))]
        for p in points))


def save_curve(points, path) -> Path:
    return _write_text(path, curve_csv_text(points))


def load_curve(path) -> list[dict]:
    path = Path(path)
    with _loading(path):
        rows = list(csv.reader(path.read_text().splitlines()))
        if not rows or rows[0] != CURVE_HEADER:
            raise LoadError(f"{path}: missing or unexpected curve header")
        return [{"method": method, "b1": _finite(float(b1)), "variant": int(variant),
                 "size_bits": int(size_bits), "size_mb": _finite(float(size_mb)),
                 "top1": _finite(float(top1))}
                for method, b1, variant, size_bits, size_mb, top1 in rows[1:]]


def write_json(path, payload: dict) -> Path:
    """Write format_version, then `payload`, to `path` as indented JSON plus a newline."""
    return _write_doc(path, payload)
