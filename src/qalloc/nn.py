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

A forward splits its input stack into evaluation chunks (`_CHUNK` rows when
threaded).  Within a chunk, each maximal stretch of row-local layers (conv2d,
relu, maxpool2d) runs in `_BLOCK`-row blocks: a block passes through the whole
stretch while its temporaries are still in cache, and its result is written
into one output array for the chunk.  Each output row of these layers depends
on its input row alone, and numpy computes it with the same products whatever
the number of rows, so blocking changes no bit.  Dense layers run on the whole
chunk, because OpenBLAS dense results depend on the row count of the call.

A `PrefixCache` holds a model's baseline logits on an input stack plus the
input of every weighted layer: `prefix_cache` runs the forward one
weighted-layer segment at a time and keeps each segment's output.
`forward_from` evaluates a copy of that model with one layer changed by
running only the layers from the changed one on, and its result equals
`forward_batch` on the copy bit for bit.  `forward_trie` evaluates many
copies that differ only in their weighted layers, running each layer segment
once per distinct prefix of changes.  A segment boundary only splits a
row-local stretch in two, which changes no bit either.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

WEIGHTED_KINDS = ("dense", "conv2d")
LAYER_KINDS = ("dense", "conv2d", "relu", "maxpool2d")

_CHUNK = 512  # fixed evaluation chunk; reduction order never depends on thread count
_BLOCK = 64  # rows per block of a conv/relu/maxpool stretch: its temporaries stay in cache
_ROW_LOCAL = ("conv2d", "relu", "maxpool2d")  # kinds whose output row depends only on its input row


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
    # float32 input would otherwise be alive beside the padded one.
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
    # A running maximum over the k*k strided window views: exact in any order.
    k, s = layer.pool_size, layer.stride
    h, w = x.shape[1:3]
    oh, ow = (h - k) // s + 1, (w - k) // s + 1
    views = (x[:, dy:dy + (oh - 1) * s + 1:s, dx:dx + (ow - 1) * s + 1:s, :]
             for dy in range(k) for dx in range(k))
    out = next(views).astype(np.float64)
    for view in views:
        np.maximum(out, view, out=out)
    return out


def _apply_dense(x, layer: Layer):
    x = x.reshape(len(x), layer.weights.shape[0]).astype(np.float64, copy=False)
    out = x @ layer.weights.astype(np.float64, copy=False)
    if layer.bias is not None:
        out += layer.bias.astype(np.float64, copy=False)
    return out


def _apply_row_local(layer: Layer, x):
    if layer.kind == "conv2d":
        return _apply_conv2d(x, layer)
    if layer.kind == "relu":
        return np.maximum(x.astype(np.float64, copy=False), 0.0)
    return _apply_maxpool2d(x, layer)


def _run_blocked(layers, x: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Run the row-local layers[start:stop] on x in _BLOCK-row blocks, into one output."""
    shape = x.shape[1:]
    for i in range(start, stop):
        shape = _layer_out_shape(layers[i], shape, i)
    out = np.empty((len(x), *shape), dtype=np.float64)
    for b in range(0, len(x), _BLOCK):
        y = x[b:b + _BLOCK]
        for i in range(start, stop):
            y = _apply_row_local(layers[i], y)
        out[b:b + _BLOCK] = y
    return out


def _forward_chunk(layers, x: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Run layers[start:stop] on one chunk.

    A dense layer runs on the whole chunk, since OpenBLAS dense results
    depend on the row count of the call.  Each maximal stretch of row-local
    layers runs in row blocks (`_run_blocked`); a stretch ends at `stop`.
    """
    i = start
    while i < stop:
        end = i + 1
        if layers[i].kind in _ROW_LOCAL:
            while end < stop and layers[end].kind in _ROW_LOCAL:
                end += 1
            x = _run_blocked(layers, x, i, end)
        else:
            x = _apply_dense(x, layers[i])
        i = end
    return x


def _split(rows: np.ndarray, threads: int) -> list[np.ndarray]:
    """The evaluation chunks of a row stack: one, or fixed-size ones when threaded."""
    n = len(rows)
    if threads <= 1 or n <= _CHUNK:
        return [rows]
    return [rows[i:i + _CHUNK] for i in range(0, n, _CHUNK)]


def _forward_chunks(layers, start: int, chunks, threads: int, stop: int | None = None):
    """Run layers[start:stop] on each chunk; the outputs, one per chunk."""
    stop = len(layers) if stop is None else stop

    def run(x):
        return _forward_chunk(layers, x, start, stop)

    if len(chunks) == 1:
        return [run(chunks[0])]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run, chunks))


def _join(outs: list[np.ndarray]) -> np.ndarray:
    """Per-chunk outputs stacked back into one array, in chunk order."""
    return outs[0] if len(outs) == 1 else np.concatenate(outs, axis=0)


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
    return _join(_forward_chunks(model.layers, 0, _split(inputs, threads), threads))


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
    """One baseline forward, keeping the logits and the input of each weighted layer.

    It runs the segments [0, w1), [w1, w2), ... [w_last, len) one after another
    and keeps each segment's output, the next weighted layer's input.
    """
    inputs = _check_inputs(model, inputs)
    if len(inputs) == 0:
        raise ValueError("cannot cache a forward over an empty input stack")
    chunks = {0: tuple(_split(inputs, threads))}
    ends = [i for i in model.weighted_indices if i > 0]
    start, x = 0, chunks[0]
    for end in ends:
        x = chunks[end] = tuple(_forward_chunks(model.layers, start, x, threads, stop=end))
        for a in x:
            a.flags.writeable = False
        start = end
    logits = _join(_forward_chunks(model.layers, start, x, threads))
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
    return _join(_forward_chunks(model.layers, index, cache.chunks[index], cache.threads))


def forward_trie(model: Model, inputs: np.ndarray, paths, layer_for, threads: int = 1):
    """Logits of many copies of `model` that differ only in their weighted layers.

    A path is a tuple with one value per weighted layer, and
    `layer_for(index, value)` builds the layer that takes layer `index`'s
    place.  Yields (path, logits) for each distinct path, in sorted order;
    the logits equal forward_batch on that copy bit for bit.

    Sorted order walks the paths depth-first over their shared prefixes.  The
    walk keeps one activation per weighted layer (the input of weighted layer
    j under the current path's first j values, per evaluation chunk); a path
    that shares its first k values with the one before it resumes from the
    input of weighted layer k.  So each layer segment, from one weighted
    layer to the next, runs and `layer_for` is called once per distinct
    prefix, and at most one input per weighted layer is held at a time.
    """
    inputs = _check_inputs(model, inputs)
    weighted = model.weighted_indices
    paths = sorted(set(map(tuple, paths)))
    for path in paths:
        if len(path) != len(weighted):
            raise ValueError(f"path {path} has {len(path)} values "
                             f"for {len(weighted)} weighted layers")
    if not paths:
        return
    layers = list(model.layers)
    ends = (*weighted[1:], len(layers))  # weighted layer j's segment is layers[weighted[j]:ends[j]]
    first = weighted[0] if weighted else len(layers)
    stack = [_forward_chunks(layers, 0, _split(inputs, threads), threads, stop=first)]
    stack += [None] * len(weighted)
    prev = ()
    for path in paths:
        k = next((j for j, (a, b) in enumerate(zip(prev, path)) if a != b), len(prev))
        stack[k + 1:] = [None] * (len(weighted) - k)  # free what this path recomputes
        for j in range(k, len(weighted)):
            i = weighted[j]
            layers[i] = layer_for(i, path[j])
            stack[j + 1] = _forward_chunks(layers, i, stack[j], threads, stop=ends[j])
        yield path, _join(stack[-1])
        prev = path


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


def check_labels(labels: np.ndarray, d: int):
    """ValueError unless `labels` is non-empty and every label indexes one of d classes."""
    if len(labels) == 0:
        raise ValueError("cannot evaluate accuracy on an empty dataset")
    if labels.max() >= d:
        raise ValueError(f"label {labels.max()} out of range for d={d}")


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows of an (n, d) logit batch whose argmax matches the label."""
    labels = np.asarray(labels)
    check_labels(labels, logits.shape[1])
    return int(np.count_nonzero(classify_batch(logits) == labels)) / len(labels)


def evaluate_accuracy(model: Model, dataset: Dataset, threads: int = 1) -> float:
    """Fraction of samples whose argmax matches the label."""
    check_labels(dataset.labels, model.d)  # before the forward, which needs a row
    return accuracy(forward_batch(model, dataset.inputs, threads=threads), dataset.labels)


def perturb_layer(model: Model, index: int, noise: np.ndarray) -> Model:
    """Return a copy of the model with noise added to the weights of one layer.

    The perturbed weights are kept in float64 so the injected noise is exact
    even when it is orders of magnitude below the weight scale.  The bias is
    left untouched.
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
    return model.replace_layer(index, replace(layer, weights=new_w))


def mean_power(diff: np.ndarray) -> float:
    """Mean over rows of the squared norm of an (n, d) feature difference."""
    return float(np.mean(np.sum(diff * diff, axis=1)))


def feature_delta(model: Model, other: Model, dataset: Dataset, threads: int = 1) -> float:
    """Mean over the dataset of the squared feature-vector difference norm."""
    return mean_power(forward_batch(model, dataset.inputs, threads=threads)
                      - forward_batch(other, dataset.inputs, threads=threads))
