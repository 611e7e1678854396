"""Minimal deterministic feed-forward inference engine.

Tensors are numpy arrays in row-major layout; persisted weights and inputs
are float32.  All layer arithmetic runs in float64 so that results are
bit-reproducible across runs and so that tiny weight perturbations are not
swallowed by rounding at layer boundaries; each layer casts its input up
(exactly) where it first reads it.  The engine knows four layer
kinds: dense, conv2d, relu and maxpool2d.  Feature maps for conv/pool
layers have shape (height, width, channels); conv kernels have shape
(kernel_h, kernel_w, in_channels, out_channels).

The final layer output is the pre-softmax feature vector; classification
picks its argmax (softmax never changes the argmax, so it is not applied).

A `PrefixCache` holds a model's baseline logits on an input stack plus the
input of every weighted layer.  `forward_from` evaluates a copy of that model
with one layer changed by running only the layers from the changed one on,
and its result equals `forward_batch` on the copy bit for bit.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

WEIGHTED_KINDS = ("dense", "conv2d")
LAYER_KINDS = ("dense", "conv2d", "relu", "maxpool2d")

_CHUNK = 512  # fixed evaluation chunk; reduction order never depends on thread count


class ShapeError(ValueError):
    """Raised when shapes do not compose; message names the offending layer."""


@dataclass(frozen=True)
class Layer:
    """One network layer.  Weightless kinds (relu, maxpool2d) carry no tensors."""

    kind: str
    weights: np.ndarray | None = None
    bias: np.ndarray | None = None
    stride: int = 1
    padding: str = "valid"
    pool_size: int = 2

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind in WEIGHTED_KINDS:
            if self.weights is None:
                raise ValueError(f"{self.kind} layer requires weights")
            if not np.all(np.isfinite(self.weights)):
                raise ValueError(f"{self.kind} weights contain non-finite values")
            if self.bias is not None and not np.all(np.isfinite(self.bias)):
                raise ValueError(f"{self.kind} bias contains non-finite values")
            if self.kind == "dense" and self.weights.ndim != 2:
                raise ValueError("dense weights must be 2-d (in_features, out_features)")
            if self.kind == "conv2d":
                if self.weights.ndim != 4:
                    raise ValueError("conv2d kernel must be 4-d (kh, kw, in_c, out_c)")
                if self.padding not in ("valid", "same"):
                    raise ValueError(f"conv2d padding must be valid|same, got {self.padding!r}")
        else:
            if self.weights is not None or (self.bias is not None and self.bias.size):
                raise ValueError(f"{self.kind} layer must not carry weights")
        if self.stride < 1:
            raise ValueError("stride must be a positive integer")
        if self.kind == "maxpool2d" and self.pool_size < 1:
            raise ValueError("pool_size must be a positive integer")

    @property
    def param_count(self) -> int:
        """Number of stored parameters (weights plus bias)."""
        if self.kind not in WEIGHTED_KINDS:
            return 0
        n = self.weights.size
        if self.bias is not None:
            n += self.bias.size
        return n


def dense(weights, bias=None) -> Layer:
    return Layer("dense", np.asarray(weights), None if bias is None else np.asarray(bias))


def conv2d(weights, bias=None, stride=1, padding="valid") -> Layer:
    return Layer("conv2d", np.asarray(weights), None if bias is None else np.asarray(bias),
                 stride=stride, padding=padding)


def relu() -> Layer:
    return Layer("relu")


def maxpool2d(pool_size=2, stride=None) -> Layer:
    return Layer("maxpool2d", pool_size=pool_size,
                 stride=pool_size if stride is None else stride)


def _conv_out_hw(h, w, kh, kw, stride, padding):
    if padding == "same":
        return -(-h // stride), -(-w // stride)
    return (h - kh) // stride + 1, (w - kw) // stride + 1


def _layer_out_shape(layer: Layer, in_shape: tuple[int, ...], index: int) -> tuple[int, ...]:
    kind = layer.kind
    if kind == "dense":
        n_in = int(np.prod(in_shape))
        if n_in != layer.weights.shape[0]:
            raise ShapeError(
                f"layer {index} (dense): expects {layer.weights.shape[0]} input features, "
                f"got shape {in_shape} with {n_in}")
        return (layer.weights.shape[1],)
    if kind == "conv2d":
        if len(in_shape) != 3:
            raise ShapeError(f"layer {index} (conv2d): expects 3-d input (h, w, c), got {in_shape}")
        h, w, c = in_shape
        kh, kw, cin, cout = layer.weights.shape
        if c != cin:
            raise ShapeError(f"layer {index} (conv2d): kernel expects {cin} channels, input has {c}")
        if layer.padding == "valid" and (h < kh or w < kw):
            raise ShapeError(f"layer {index} (conv2d): kernel {kh}x{kw} larger than input {h}x{w}")
        oh, ow = _conv_out_hw(h, w, kh, kw, layer.stride, layer.padding)
        return (oh, ow, cout)
    if kind == "maxpool2d":
        if len(in_shape) != 3:
            raise ShapeError(f"layer {index} (maxpool2d): expects 3-d input, got {in_shape}")
        h, w, c = in_shape
        k, s = layer.pool_size, layer.stride
        if h < k or w < k:
            raise ShapeError(f"layer {index} (maxpool2d): window {k} larger than input {h}x{w}")
        return ((h - k) // s + 1, (w - k) // s + 1, c)
    return in_shape  # relu


@dataclass(frozen=True)
class Model:
    """Ordered layer sequence; immutable.  The last layer must emit a vector."""

    layers: tuple[Layer, ...]
    input_shape: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(int(v) for v in self.input_shape))
        shapes = [self.input_shape]
        for i, layer in enumerate(self.layers):
            shapes.append(_layer_out_shape(layer, shapes[-1], i))
        if len(shapes[-1]) != 1:
            raise ShapeError(f"final layer output must be a vector, got shape {shapes[-1]}")
        object.__setattr__(self, "_shapes", tuple(shapes))

    @property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        """Input shape followed by each layer's output shape."""
        return self._shapes

    @property
    def d(self) -> int:
        """Class count: dimension of the final feature vector."""
        return self._shapes[-1][0]

    @property
    def weighted_indices(self) -> tuple[int, ...]:
        return tuple(i for i, l in enumerate(self.layers) if l.kind in WEIGHTED_KINDS)

    def layer_sizes(self) -> tuple[int, ...]:
        """Parameter counts of the weighted layers, in layer order."""
        return tuple(self.layers[i].param_count for i in self.weighted_indices)

    def replace_layer(self, index: int, layer: Layer) -> "Model":
        layers = list(self.layers)
        layers[index] = layer
        return Model(tuple(layers), self.input_shape)


@dataclass(frozen=True)
class Dataset:
    """Inputs stacked along axis 0 plus integer class labels."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", np.asarray(self.inputs))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if len(self.inputs) != len(self.labels):
            raise ValueError(f"{len(self.inputs)} inputs but {len(self.labels)} labels")
        if len(self.labels) and self.labels.min() < 0:
            raise ValueError("labels must be non-negative class indices")
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("dataset inputs contain non-finite values")

    def __len__(self) -> int:
        return len(self.labels)


def _apply_conv2d(x, layer: Layer):
    # x: (n, h, w, c), float32 or float64
    w = layer.weights.astype(np.float64, copy=False)
    kh, kw, cin, cout = w.shape
    s = layer.stride
    n, h, wd, _ = x.shape
    oh, ow = _conv_out_hw(h, wd, kh, kw, s, layer.padding)
    if layer.padding == "same":
        ph = max((oh - 1) * s + kh - h, 0)
        pw = max((ow - 1) * s + kw - wd, 0)
        x = np.pad(x, ((0, 0), (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2), (0, 0)))
    # Cast after padding: the cast is exact, and a float64 copy of an unpadded
    # float32 input would otherwise be alive beside the padded one here, where
    # the engine's peak memory is set.
    x = x.astype(np.float64, copy=False)
    out = np.zeros((n, oh, ow, cout), dtype=np.float64)
    for dy in range(kh):
        for dx in range(kw):
            xs = x[:, dy:dy + (oh - 1) * s + 1:s, dx:dx + (ow - 1) * s + 1:s, :]
            out += xs @ w[dy, dx]
    if layer.bias is not None:
        out += layer.bias.astype(np.float64, copy=False)
    return out


def _apply_maxpool2d(x, layer: Layer):
    x = x.astype(np.float64, copy=False)
    n, h, w, c = x.shape
    k, s = layer.pool_size, layer.stride
    oh, ow = (h - k) // s + 1, (w - k) // s + 1
    if s == k and h % k == 0 and w % k == 0:
        return x.reshape(n, oh, k, ow, k, c).max(axis=(2, 4))
    out = np.empty((n, oh, ow, c), dtype=x.dtype)
    for i in range(oh):
        for j in range(ow):
            out[:, i, j, :] = x[:, i * s:i * s + k, j * s:j * s + k, :].max(axis=(1, 2))
    return out


def _apply_dense(x, layer: Layer):
    x = x.reshape(x.shape[0], -1).astype(np.float64, copy=False)
    out = x @ layer.weights.astype(np.float64, copy=False)
    if layer.bias is not None:
        out += layer.bias.astype(np.float64, copy=False)
    return out


def _forward_chunk(model: Model, x: np.ndarray, start: int, keep) -> tuple[np.ndarray, list]:
    """Run layers[start:] on one chunk; also return the inputs of the layers in keep."""
    kept = []
    for i in range(start, len(model.layers)):
        if i in keep:
            kept.append(x)
        layer = model.layers[i]
        if layer.kind == "dense":
            x = _apply_dense(x, layer)
        elif layer.kind == "conv2d":
            x = _apply_conv2d(x, layer)
        elif layer.kind == "relu":
            x = np.maximum(x.astype(np.float64, copy=False), 0.0)
        else:
            x = _apply_maxpool2d(x, layer)
    return x, kept


def _split(rows: np.ndarray, threads: int) -> list[np.ndarray]:
    """The evaluation chunks of a row stack: one, or fixed-size ones when threaded."""
    n = len(rows)
    if threads <= 1 or n <= _CHUNK:
        return [rows]
    return [rows[i:i + _CHUNK] for i in range(0, n, _CHUNK)]


def _forward_chunks(model: Model, start: int, chunks, threads: int, keep=()):
    """Run layers[start:] on each chunk: (logits in chunk order, kept inputs per chunk)."""
    def run(x):
        return _forward_chunk(model, x, start, keep)

    if len(chunks) == 1:
        results = [run(chunks[0])]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, chunks))
    outs = [r[0] for r in results]
    return (outs[0] if len(outs) == 1 else np.concatenate(outs, axis=0)), [r[1] for r in results]


def _check_inputs(model: Model, inputs) -> np.ndarray:
    inputs = np.asarray(inputs)
    if inputs.shape[1:] != tuple(model.input_shape):
        raise ShapeError(
            f"model expects input shape {tuple(model.input_shape)}, got {inputs.shape[1:]}")
    return inputs


def forward_batch(model: Model, inputs: np.ndarray, threads: int = 1) -> np.ndarray:
    """Map a stack of inputs to pre-softmax feature vectors, shape (n, d).

    Deterministic for any thread count: inputs are split into fixed-size
    chunks and results concatenated in chunk order.
    """
    inputs = _check_inputs(model, inputs)
    return _forward_chunks(model, 0, _split(inputs, threads), threads)[0]


@dataclass(frozen=True, eq=False)
class PrefixCache:
    """A model's baseline logits on an input stack, plus every weighted layer's input.

    Made by `prefix_cache`; read by `forward_from`.  Activations are held per
    evaluation chunk, split exactly as `forward_batch` splits the same
    (n, threads), so a forward resumed from them repeats its arithmetic.
    Layer 0 resumes from the caller's inputs, which are referenced, not
    copied.  The cached arrays are read-only.
    """

    model: Model
    inputs: np.ndarray
    threads: int
    logits: np.ndarray
    chunks: dict[int, tuple[np.ndarray, ...]]  # layer index -> that layer's input, per chunk


def prefix_cache(model: Model, inputs: np.ndarray, threads: int = 1) -> PrefixCache:
    """One baseline forward, keeping the logits and the input of each weighted layer."""
    inputs = _check_inputs(model, inputs)
    if len(inputs) == 0:
        raise ValueError("cannot cache a forward over an empty input stack")
    keep = tuple(i for i in model.weighted_indices if i > 0)
    parts = _split(inputs, threads)
    logits, kept = _forward_chunks(model, 0, parts, threads, keep)
    chunks = {0: tuple(parts)}
    for j, i in enumerate(keep):
        chunks[i] = tuple(k[j] for k in kept)
        for a in chunks[i]:
            a.flags.writeable = False
    logits.flags.writeable = False
    return PrefixCache(model, inputs, threads, logits, chunks)


def forward_from(cache: PrefixCache, model: Model, index: int) -> np.ndarray:
    """Logits of `model`, a copy of the cached model with layer `index` changed.

    Runs only layers[index:], from the cached input of layer `index`; the
    result equals forward_batch(model, cache.inputs, cache.threads) bit for
    bit.  Every layer before `index` must be the cached model's own layer
    object, as perturb_layer and quantize_single_layer leave them.
    """
    if index not in cache.chunks:
        raise ValueError(f"no cached input for layer {index}; "
                         f"cached layers are {sorted(cache.chunks)}")
    if model.input_shape != cache.model.input_shape or any(
            a is not b for a, b in zip(model.layers[:index], cache.model.layers)):
        raise ValueError(f"layers before {index} differ from the cached model's")
    return _forward_chunks(model, index, cache.chunks[index], cache.threads)[0]


def forward(model: Model, x: np.ndarray) -> np.ndarray:
    """Pre-softmax feature vector z for a single input."""
    return forward_batch(model, np.asarray(x)[None])[0]


def classify(z: np.ndarray) -> int:
    """Argmax class index; ties break to the lowest index."""
    z = np.asarray(z)
    if z.size == 0:
        raise ValueError("cannot classify an empty feature vector")
    return int(np.argmax(z))


def classify_batch(zs: np.ndarray) -> np.ndarray:
    zs = np.asarray(zs)
    if zs.ndim != 2 or zs.shape[1] == 0:
        raise ValueError("expected a (n, d) batch of feature vectors with d >= 1")
    return np.argmax(zs, axis=1)


def _check_labels(labels: np.ndarray, d: int):
    if len(labels) == 0:
        raise ValueError("cannot evaluate accuracy on an empty dataset")
    if labels.max() >= d:
        raise ValueError(f"label {labels.max()} out of range for d={d}")


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows of an (n, d) logit batch whose argmax matches the label."""
    labels = np.asarray(labels)
    _check_labels(labels, logits.shape[1])
    return int(np.count_nonzero(classify_batch(logits) == labels)) / len(labels)


def evaluate_accuracy(model: Model, dataset: Dataset, threads: int = 1) -> float:
    """Fraction of samples whose argmax matches the label."""
    _check_labels(dataset.labels, model.d)  # before the forward, which needs a row
    return accuracy(forward_batch(model, dataset.inputs, threads=threads), dataset.labels)


def perturb_layer(model: Model, index: int, noise: np.ndarray,
                  bias_noise: np.ndarray | None = None) -> Model:
    """Return a copy of the model with noise added to the weights of one layer.

    The perturbed weights are kept in float64 so the injected noise is exact
    even when it is orders of magnitude below the weight scale.  The bias is
    left untouched unless bias_noise is supplied.
    """
    layer = model.layers[index]
    if layer.kind not in WEIGHTED_KINDS:
        raise ValueError(f"layer {index} ({layer.kind}) has no weights to perturb")
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != layer.weights.shape:
        raise ShapeError(
            f"layer {index} ({layer.kind}): noise shape {noise.shape} "
            f"!= weights shape {layer.weights.shape}")
    new_w = layer.weights.astype(np.float64) + noise
    new_b = layer.bias
    if bias_noise is not None:
        bias_noise = np.asarray(bias_noise, dtype=np.float64)
        if layer.bias is None or bias_noise.shape != layer.bias.shape:
            raise ShapeError(f"layer {index} ({layer.kind}): bias noise shape mismatch")
        new_b = layer.bias.astype(np.float64) + bias_noise
    return model.replace_layer(index, replace(layer, weights=new_w, bias=new_b))


def mean_power(diff: np.ndarray) -> float:
    """Mean over rows of the squared norm of an (n, d) feature difference."""
    return float(np.mean(np.sum(diff * diff, axis=1)))


def feature_delta(model: Model, other: Model, dataset: Dataset, threads: int = 1) -> float:
    """Mean over the dataset of the squared feature-vector difference norm."""
    return mean_power(forward_batch(model, dataset.inputs, threads=threads)
                      - forward_batch(other, dataset.inputs, threads=threads))
