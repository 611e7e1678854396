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

Every forward runs through `_forward`.  Threaded, on more than `_CHUNK` rows,
it cuts its input stack into `_CHUNK`-row evaluation chunks from row 0, and
each chunk's thread writes its rows of one output: the range's last layer
writes them there itself, so no array of the chunk's own holds its result.
Otherwise the stack is one chunk.  Every activation the engine keeps or
returns is one array.  Within a chunk, each maximal stretch of row-local
layers (conv2d, relu, maxpool2d) runs in `_BLOCK`-row blocks: a block passes
through the whole stretch while its workspaces are still in cache, and the
stretch's last layer writes it straight into the stretch's one output, the
chunk's rows of the range's output when the stretch ends the range.  A dense
layer that ends the range multiplies into those rows.  The workspaces (a
maxpool's block output; a conv's zero-bordered float64 input, flattened per
image, its output grid and its product buffer) are allocated once per stretch
and chunk and reused by every block; relu runs in place on them, never on an
array the engine did not make, and a relu right after a dense layer runs in
place on that layer's output.  A conv is one matrix product per image and
kernel offset: on the flattened input, offset (dy, dx) is one strided slice,
whose product fills a grid of oh rows of the input's row stride wr.
Neighbouring rows of the bordered input share their zero columns: wr is the
input width plus the wider of its left and right borders, so the zeros after
one row are also the next row's left border.  The wr - ow columns past the
output in each grid row are junk that nothing reads (one on a 3x3 "same" conv
at stride 1), and what follows the conv reads the grid's valid view, so a
conv has no output workspace of its own.  The conv adds its bias, and applies
the relu right after it, on its grid; when a maxpool follows it, directly or
through that relu, the maxpool applies both to its smaller output instead.
That is exact: rounding x + b and relu are monotone in x, so each commutes
with a window's maximum, and a conv's sums are never -0.0.  Each output pixel
sums the same products in the same order as one product per output row
would, but numpy and BLAS may compute a product entry differently at another
row count: a one-column output is a vector times the kernel, and BLAS may
sum the leftover rows of a product in another order.  A conv whose shape
shows such a difference on seeded random data (`_conv_per_row`) keeps one
product per output row, so every conv has the bits of the per-row arithmetic
that the engine's tests keep as a frozen reference.  What these layers give
a row of the stack (one sample) depends on that row's input alone, so
blocking changes no bit either.
Dense layers run on the whole chunk, because OpenBLAS dense results depend on
the row count of the call.

A `PrefixCache` holds a model's baseline logits on an input stack plus the
input of every weighted layer its owner kept, one array each: `prefix_cache`
runs the forward one segment at a time, from one kept layer to the next, and
keeps each segment's output, and `PrefixCache.fill` runs one more forward from
layer 0 to build the inputs a cache left out.  A segment cuts the same
evaluation chunks as a whole forward.  `forward_from` evaluates a copy of that
model with one layer changed by running only the layers from the changed one
on, and its result equals `forward_batch` on the copy bit for bit.
`forward_trie` evaluates many copies that differ only in their weighted
layers, running each layer segment once per distinct prefix of changes.  A
segment boundary only splits a row-local stretch in two, which changes no bit
either: a cache that keeps fewer inputs, and each input `fill` adds, hold the
bits of a cache that keeps every one.  On a stack that runs as one chunk,
the trie walks all its rows and frees what a copy recomputes before it builds
that copy's layers.  Threaded, on more than `_CHUNK` rows,
the trie cuts the same evaluation chunks itself and walks chunk-major: each
chunk's thread runs a whole subtree of copies (those that share their first
weighted layer) over its own rows, so the walk holds one subtree's logits plus
one input per weighted layer for each running chunk, and it starts one thread
pool per call, not one per segment.

`forward_stages` is `forward_from` in row stages, for a caller that needs
only part of the answer, such as which side of a target an accuracy lies
on.  It stages when given a row order, when the changed layer starts a
row-local stretch, and when the stack runs as one evaluation chunk (a
chunked stage would keep every chunk's stretch output at once); otherwise
it runs whole.  A changed dense layer runs whole: a stage of its rows costs
about what they cost in the whole product, and an iterate that runs to the
end would run the dense tail twice.  Each stage takes the next `_STAGE` rows
of that order, runs them through the stretch, as a chunk's rows run but
gathered a block at a time, and the dense tail on that output alone, to
give provisional logits.  Those can differ in the
last bits from the final ones, because a dense layer run on fewer rows may
sum its products in another order; so each row comes with a slack, a
rounding-error bound (gamma_K times the sum of absolute terms, taken through
every tail layer) on that difference, and the caller trusts only what the
slack cannot change.  A caller that stops early skips the remaining rows;
one that does not gets the tail run on the whole stretch output, the same
arithmetic as `forward_from`, which is itself `forward_stages` with no order.
"""

from __future__ import annotations

import functools
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

WEIGHTED_KINDS = ("dense", "conv2d")
LAYER_KINDS = ("dense", "conv2d", "relu", "maxpool2d")

_CHUNK = 512  # rows per evaluation chunk when threaded; one thread runs the stack as one chunk
_BLOCK = 32  # rows per block of a conv/relu/maxpool stretch: its workspaces stay in cache
_ROW_LOCAL = ("conv2d", "relu", "maxpool2d")  # kinds whose output row depends only on its input row
_STAGE = 128  # rows per stage of forward_stages


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


def _shapes_of(layers, shape: tuple[int, ...], start: int, stop: int) -> list[tuple[int, ...]]:
    """The input shape of layers[start:stop], then each of those layers' output shape."""
    shapes = [shape]
    for i in range(start, stop):
        shapes.append(_layer_out_shape(layers[i], shapes[-1], i))
    return shapes


@dataclass(frozen=True)
class Model:
    """Ordered layer sequence; immutable.  The last layer must emit a vector."""

    layers: tuple[Layer, ...]
    input_shape: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(int(v) for v in self.input_shape))
        shapes = _shapes_of(self.layers, self.input_shape, 0, len(self.layers))
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


@functools.cache
def _conv_per_row(cin: int, cout: int, stride: int, oh: int, ow: int, wr: int) -> bool:
    """Whether a conv of this shape multiplies one output row at a time, not one image.

    One product per image gives an output pixel the bits of one product per
    output row only if numpy and BLAS compute each entry the same way at
    both row counts.  They need not: with one output column numpy multiplies
    a vector by w (gemv) instead of a matrix, and OpenBLAS's kernels for
    leftover rows or columns can sum the cin products in another order than
    its main kernel (seen from cin = 8 on, for shapes that differ between
    its Haswell and SkylakeX kernels).  So an image is one product only when
    both ways agree in every bit on seeded random data of this shape with at
    least 512 output entries: another summation order shows on such data all
    but surely, and the seed makes the choice repeat.  Cached per shape.
    """
    rng = np.random.default_rng(0)
    n = -(-512 // (oh * ow * cout))
    xs = rng.standard_normal((n, (oh * wr - 1) * stride + 1, cin))[:, ::stride]
    w = rng.standard_normal((cin, cout))
    rows = xs.reshape(n, oh, wr, cin)[:, :, :ow] @ w
    return not np.array_equal((xs @ w).reshape(n, oh, wr, cout)[:, :, :ow], rows)


def _conv_into(x, w, bias, stride, ow, per_row, relu, pad, grid, tmp):
    """A conv2d of one row block x onto its grid; returns the grid's valid view (n, oh, ow, cout).

    w is float64, and bias None or a float64 tile of one image's grid.  pad is
    the flat float64 input buffer, (n, hp * wr + tail, cin): each image's
    zero-bordered input, hp rows of row stride wr, then a zero tail.  With
    left and right the widths of the zero borders ("same" padding puts the
    odd column on the right), wr is w + max(left, right): the zeros after
    one row's last column are also the next row's left border, and the last
    row's right border is the bottom border or the zero tail.  Only the
    input's place in it is written, so the border and the tail stay zero.
    grid and tmp are C-contiguous (n, oh, wr, cout): grid entry (oy, ox) is
    output pixel (oy, ox), and the wr - ow columns past ow are junk that
    nothing reads (one on a 3x3 "same" conv at stride 1).  Kernel offset
    (dy, dx) reads the slice of pad from dy * wr + dx with step `stride`, the
    inputs of every grid entry in order, so each image and offset costs one
    product of oh * wr rows.  `per_row` (`_conv_per_row`) splits that slice
    into output rows instead and gives each its own product of ow rows, into
    the grid's valid columns.

    The sum runs in (dy, dx) order from 0.0: the first product lands in grid
    as it is, which equals 0.0 + p bit for bit, because numpy's matmul (with
    BLAS or without) accumulates each entry from +0.0 and so never returns
    -0.0, and neither does a sum of such terms.  Later products go through
    tmp and are added; the bias comes last.  Given `relu`, a relu follows in
    place.  Bias and relu run on every column the products wrote, junk
    included: on the whole grid, that is faster than on its valid view.
    """
    kh, kw = w.shape[:2]
    n, h, wd, cin = x.shape
    oh, wr, cout = grid.shape[1:]
    hp = max((oh - 1) * stride + kh, h)
    top, left = (hp - h) // 2, (max((ow - 1) * stride + kw, wd) - wd) // 2
    pad[:, :hp * wr].reshape(n, hp, wr, cin)[:, top:top + h, left:left + wd] = x  # exact cast
    if per_row:
        dst, prod = grid[:, :, :ow], tmp[:, :, :ow]
    else:
        dst, prod = grid.reshape(n, oh * wr, cout), tmp.reshape(n, oh * wr, cout)
    for dy in range(kh):
        for dx in range(kw):
            at = dy * wr + dx
            xs = pad[:, at:at + (oh * wr - 1) * stride + 1:stride]
            if per_row:
                xs = xs.reshape(n, oh, wr, cin)[:, :, :ow]
            if dy == dx == 0:
                np.matmul(xs, w[0, 0], out=dst)
            else:
                np.matmul(xs, w[dy, dx], out=prod)
                dst += prod
    wrote = grid[:, :, :ow] if per_row else grid
    if bias is not None:
        wrote += bias[:, :wrote.shape[2]]
    if relu:
        np.maximum(wrote, 0.0, out=wrote)
    return grid[:, :, :ow]


def _maxpool_into(x, layer: Layer, dst, bias=None, relu=False):
    """A maxpool of x into dst, then, when given, the bias and relu of the conv before it.

    A running maximum over the k*k strided window views, in row-major window
    order: another order could let another of +0.0 and -0.0 win a tie.
    `bias` (a float64 tile of one pooled image) and `relu` run in place on
    dst: rounding x + b and relu are both monotone in x, so each commutes
    with a window's maximum, and a conv's sums are never -0.0, so moving
    them after the maximum decides no tie between zeros of two signs.
    """
    k, s = layer.pool_size, layer.stride
    oh, ow = dst.shape[1:3]
    views = (x[:, dy:dy + (oh - 1) * s + 1:s, dx:dx + (ow - 1) * s + 1:s]
             for dy in range(k) for dx in range(k))
    dst[...] = next(views)
    for view in views:
        np.maximum(dst, view, out=dst)
    if bias is not None:
        dst += bias
    if relu:
        np.maximum(dst, 0.0, out=dst)
    return dst


def _apply_dense(x, layer: Layer, out=None):
    x = x.reshape(len(x), layer.weights.shape[0]).astype(np.float64, copy=False)
    out = np.matmul(x, layer.weights.astype(np.float64, copy=False), out=out)
    if layer.bias is not None:
        out += layer.bias.astype(np.float64, copy=False)
    return out


def _dense_at(layers, x, i: int, stop: int, out=None):
    """Dense layers[i] on x, then each relu after it before `stop`: (output, next layer index).

    The output is a new array, or `out` (C-contiguous rows of the range's
    output) when these layers end the range at `stop`.  The relus run in
    place on it, so they allocate nothing.
    """
    end = i + 1
    while end < stop and layers[end].kind == "relu":
        end += 1
    x = _apply_dense(x, layers[i], out if end == stop else None)
    for _ in range(i + 1, end):
        np.maximum(x, 0.0, out=x)
    return x, end


def _bias_tile(layer: Layer, shape):
    """The layer's bias in float64, tiled to one image's `shape`, or None without a bias.

    Added as a tile, a bias runs faster than as a broadcast of its values.
    """
    if layer.bias is None:
        return None
    return np.broadcast_to(layer.bias.astype(np.float64, copy=False), shape).copy()


def _conv_args(layer: Layer, in_shape, out_shape, rows: int, relu: bool, bias: bool):
    """`_conv_into`'s arguments but the block: the float64 weights and bias tile (None
    unless `bias`), the stride, ow, `per_row`, `relu`, and the zeroed input buffer, the
    grid and the product buffer.

    The row stride is wr = w + max(left, right), the bordered width less the
    left border: a row's right border is also the next row's left border.
    """
    h, w, cin = in_shape
    oh, ow, cout = out_shape
    kh, kw = layer.weights.shape[:2]
    s = layer.stride
    hp, pw = max((oh - 1) * s + kh, h), max((ow - 1) * s + kw, w) - w
    wr = w + pw - pw // 2  # the right border is the wider
    # the tail holds what the last offset's slice reads past the bordered input
    size = max(hp * wr, (kh - 1) * wr + kw + (oh * wr - 1) * s)
    return (layer.weights.astype(np.float64, copy=False),
            _bias_tile(layer, (oh, wr, cout)) if bias else None, s, ow,
            _conv_per_row(cin, cout, s, oh, ow, wr), relu, np.zeros((rows, size, cin)),
            np.empty((rows, oh, wr, cout)), np.empty((rows, oh, wr, cout)))


def _stretch(layers, in_shape, start: int, stop: int, rows: int):
    """The row-local layers[start:stop] as `_run_blocked` runs them: (output row shape, steps).

    A step is (layer, its workspace or None, its arguments), with workspaces
    for blocks of up to `rows` rows.  A conv's arguments are its
    `_conv_args`: it writes onto its own grid (`_conv_into`), and what
    follows reads the grid's valid view; a relu right after it, unless the
    relu ends the stretch, has no step: the conv applies it.  A maxpool
    writes into a block-sized workspace, and its arguments are the bias
    (None, or a tile of one pooled image) and relu it applies in place
    afterwards (`_maxpool_into`): when it follows a conv, directly or
    through the relu the conv applies, the conv's bias and that relu run
    there, on a quarter of the grid behind a 2x2 pool, and the conv runs
    neither.  The last step writes its rows of `_run_blocked`'s output
    instead, and a conv that ends the stretch copies its valid view there.
    Any other relu after another layer of the stretch runs in place on what
    that layer wrote; one first in the stretch writes a workspace of its own,
    since the stretch's input is never written.
    """
    shapes = _shapes_of(layers, in_shape, start, stop)
    kinds = [layer.kind for layer in layers[start:stop]]

    def in_conv(k):  # whether layers[start + k] is a relu the conv before it applies
        return 0 < k < len(kinds) - 1 and kinds[k] == "relu" and kinds[k - 1] == "conv2d"

    def pooled(k):  # the maxpool step's index when the conv at k moves its bias and relu there
        after = k + 1 + in_conv(k + 1)
        return after if after < len(kinds) and kinds[after] == "maxpool2d" else None

    steps, moved = [], {}  # maxpool index -> the (bias tile, relu) of the conv before it
    for k, layer in enumerate(layers[start:stop]):
        if in_conv(k):
            continue
        args = None
        if layer.kind == "conv2d":
            pool = pooled(k)
            args = _conv_args(layer, shapes[k], shapes[k + 1], rows,
                              relu=in_conv(k + 1) and pool is None, bias=pool is None)
            if pool is not None:
                moved[pool] = (_bias_tile(layer, shapes[pool + 1]), in_conv(k + 1))
        elif layer.kind == "maxpool2d":
            args = moved.get(k, (None, False))
        ws = None  # the output, the conv's grid, or in place
        if start + k < stop - 1 and layer.kind != "conv2d" and (layer.kind != "relu" or k == 0):
            ws = np.empty((rows, *shapes[k + 1]))
        steps.append((layer, ws, args))
    return shapes[-1], steps


def _run_blocked(layers, x: np.ndarray, start: int, stop: int, stretch=None,
                 out=None, rows=None) -> np.ndarray:
    """Run the row-local layers[start:stop] on x in _BLOCK-row blocks, into one output.

    The one stretch runner, for a chunk's stretch and a stage's rows.  Given
    `rows`, an index array, it runs x[rows] instead, and each block gathers
    its own rows of x as it starts, so no copy of all of them is made.
    `stretch` is the `_stretch` of these layers with workspaces for at least
    min(rows run, _BLOCK) rows; by default it is built for this call, so each
    chunk's thread has its own workspaces.  Every block reuses them.  The
    last step writes its blocks into `out`, the rows the caller's output
    keeps for the rows run, or by default into a new array.
    """
    count = len(x) if rows is None else len(rows)
    if stretch is None:
        stretch = _stretch(layers, x.shape[1:], start, stop, min(count, _BLOCK))
    shape, steps = stretch
    if out is None:
        out = np.empty((count, *shape))
    last = len(steps) - 1
    for b in range(0, count, _BLOCK):
        y = x[b:b + _BLOCK] if rows is None else x[rows[b:b + _BLOCK]]
        n = len(y)
        for s, (layer, ws, args) in enumerate(steps):
            dst = out[b:b + n] if s == last else (y if ws is None else ws[:n])
            if layer.kind == "conv2d":
                *conv, pad, grid, tmp = args
                y = _conv_into(y, *conv, pad[:n], grid[:n], tmp[:n])
                if s == last:
                    dst[...] = y
            elif layer.kind == "relu":
                y = np.maximum(y, 0.0, out=dst, dtype=np.float64)
            else:
                y = _maxpool_into(y, layer, dst, *args)
    return out


def _chunked(n: int, threads: int) -> bool:
    """Whether a forward over n rows runs in `_CHUNK`-row evaluation chunks: threaded, on more."""
    return threads > 1 and n > _CHUNK


def _forward(layers, x: np.ndarray, start: int, stop: int, threads: int,
             out=None) -> np.ndarray:
    """Run layers[start:stop] on x.

    A dense layer runs on the whole of x, since OpenBLAS dense results depend
    on the row count of the call, and a relu right after it runs in place on
    its output (`_dense_at`); each other maximal stretch of row-local layers
    runs in row blocks (`_run_blocked`); a stretch ends at `stop`.  The layer
    that ends the range writes into `out`, when given: the C-contiguous rows
    of a caller's output that x's result fills.  A row slice multiplies as
    a new array would, so no bit depends on where the result lands.
    When `_chunked`, x is cut into `_CHUNK`-row evaluation chunks from row 0
    instead: each runs so on the pool and writes straight into its own rows
    of the one output, `out` or a new array, so no chunk has an array of its
    own for its result.
    An empty range returns x itself, but a layerless model's output is a new
    float64 array.
    """
    if start == stop:
        return x if layers else x.astype(np.float64)
    if _chunked(len(x), threads):
        if out is None:
            out = np.empty((len(x), *_shapes_of(layers, x.shape[1:], start, stop)[-1]))

        def run(a):
            _forward(layers, x[a:a + _CHUNK], start, stop, 1, out[a:a + _CHUNK])

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, range(0, len(x), _CHUNK)))
        return out
    i = start
    while i < stop:
        if layers[i].kind in _ROW_LOCAL:
            end = i + 1
            while end < stop and layers[end].kind in _ROW_LOCAL:
                end += 1
            x, i = _run_blocked(layers, x, i, end, out=out if end == stop else None), end
        else:
            x, i = _dense_at(layers, x, i, stop, out)
    return x


def check_inputs(model: Model, inputs) -> np.ndarray:
    """`inputs` as an array; ShapeError unless each row has the model's input shape."""
    inputs = np.asarray(inputs)
    if inputs.shape[1:] != tuple(model.input_shape):
        raise ShapeError(
            f"model expects input shape {tuple(model.input_shape)}, got {inputs.shape[1:]}")
    return inputs


def forward_batch(model: Model, inputs: np.ndarray, threads: int = 1) -> np.ndarray:
    """Map a stack of inputs to pre-softmax feature vectors, shape (n, d).

    Bit-identical across runs at a given thread count: threaded, on more than
    `_CHUNK` rows, each `_CHUNK`-row evaluation chunk runs on its own and
    writes its rows of the output; otherwise the stack runs whole.  Between
    thread counts the logits can differ in the last bits for some stack
    sizes, a known defect.
    """
    return _forward(model.layers, check_inputs(model, inputs), 0, len(model.layers), threads)


@dataclass(frozen=True, eq=False)
class PrefixCache:
    """A model's baseline logits on an input stack, plus the inputs of its kept weighted layers.

    Made by `prefix_cache`; read by `forward_from`.  Each layer input is one
    array; a forward resumed from it at the cache's thread count cuts the
    evaluation chunks `forward_batch` cuts, so it repeats its arithmetic.
    Layer 0's is the caller's inputs, referenced, not copied; the rest are
    read-only.  No array is ever written, but `drop` removes one and `fill`
    adds them: only `probes.calibrate`, which builds a cache for itself
    without the inputs of the conv layers above 0, fills those when their
    turn comes and drops a layer's input once nothing will forward from it
    again.  Every function that takes a cache leaves it as it was.
    """

    model: Model
    threads: int
    logits: np.ndarray
    layer_inputs: dict[int, np.ndarray]  # layer index -> that layer's input

    def drop(self, index: int):
        """Forget layer `index`'s cached input; a forward from that layer is then a ValueError."""
        del self.layer_inputs[index]

    def fill(self, indices):
        """Cache the inputs of the weighted layers `indices`, in one forward from layer 0's input.

        It runs layers [0, max(indices)) at the cache's thread count, one
        segment per index, and keeps each segment's output read-only; the
        logits are not recomputed.  Each array equals the one a cache that
        kept every input holds, bit for bit.
        """
        _keep_segments(self.model.layers, self.layer_inputs, indices, self.threads)


def _keep_segments(layers, kept: dict, ends, threads: int):
    """Run layers[0:max(ends)] from kept[0], one segment per end above 0, each output kept
    read-only as kept[end]: (the last segment's output, its end), or (kept[0], 0)."""
    start, x = 0, kept[0]
    for end in sorted(set(ends) - {0}):
        x = kept[end] = _forward(layers, x, start, end, threads)
        x.flags.writeable = False
        start = end
    return x, start


def prefix_cache(model: Model, inputs: np.ndarray, threads: int = 1,
                 layers=None) -> PrefixCache:
    """One baseline forward, keeping the logits and the inputs of the weighted layers `layers`.

    `layers` is by default every weighted layer; layer 0's input, the
    caller's array, is always kept.  With w1 < w2 < ... the kept layers above
    0, it runs the segments [0, w1), [w1, w2), ... [w_last, len) one after
    another and keeps each segment's output, the next kept layer's input.
    A segment runs through the unkept layers inside it, so their inputs are
    never built (on the default fixture, keeping layers 5 and 7 runs [0, 5)
    as one row-local stretch); `PrefixCache.fill` builds them later, with the
    bits a cache that keeps them holds.
    """
    inputs = check_inputs(model, inputs)
    if len(inputs) == 0:
        raise ValueError("cannot cache a forward over an empty input stack")
    layer_inputs = {0: inputs}
    x, start = _keep_segments(model.layers, layer_inputs,
                              model.weighted_indices if layers is None else layers, threads)
    logits = _forward(model.layers, x, start, len(model.layers), threads)
    logits.flags.writeable = False
    return PrefixCache(model, threads, logits, layer_inputs)


def forward_from(cache: PrefixCache, model: Model, index: int) -> np.ndarray:
    """Logits of `model`, a copy of the cached model with layer `index` changed.

    Runs only layers[index:], from the cached input of layer `index`; the
    result equals forward_batch(model, cache.layer_inputs[0], cache.threads)
    bit for bit.  Every layer before `index` must be the cached model's own layer
    object, as perturb_layer and quantize_single_layer leave them.  It is
    `forward_stages` with no row order, which runs no provisional stage.
    """
    *_, (_, logits, _) = forward_stages(cache, model, index)
    return logits


def _tail_sums(layers, start: int):
    """Per layer of the tail layers[start:]: None for relu, and for a dense layer
    (gamma_K, the largest column sum of |w|, the largest |b|) with K = in_features + 1."""
    sums = []
    for layer in layers[start:]:
        if layer.kind == "relu":
            sums.append(None)
            continue
        k = layer.weights.shape[0] + 1
        sums.append((k * 2.0 ** -53 / (1 - k * 2.0 ** -53),
                     float(np.abs(layer.weights).sum(axis=0, dtype=np.float64).max(initial=0.0)),
                     0.0 if layer.bias is None else float(np.abs(layer.bias).max(initial=0.0))))
    return sums


def _tail_with_slack(layers, x: np.ndarray, start: int, sums):
    """Provisional logits of layers[start:] on a stage's rows, and each row's slack.

    The tail is dense and relu layers (a dense layer's output is a vector,
    which no conv or pool takes), and `sums` is its `_tail_sums`.  The slack
    bounds, per row, how far any of its logits can lie from the logits the
    same rows get when the tail runs on a whole evaluation chunk, where
    OpenBLAS may sum each dot product in another order.  A dense output
    entry sums K = in_features products and the bias; in any order its
    rounding error is at most g * sum|terms|, with g = gamma_K = K u / (1 - K u)
    and u = 2^-53.  So if the two inputs of a dense layer differ by at most s
    per entry, with x the provisional one, each output entry differs by at
    most
        2 g (max|x| C + B) + (1 + g) s C,
    where C is the largest column sum of |w| and B the largest |b|, since
    max|x| C bounds sum_k |x_k| |w_kj| for every j.  The stretch output both
    runs start from is the same array (s = 0), and relu is 1-Lipschitz, so it
    passes s on.  The result is doubled to cover the rounding of the bound's
    own arithmetic.
    """
    slack = np.zeros(len(x))
    for layer, layer_sums in zip(layers[start:], sums):
        if layer_sums is None:
            x = np.maximum(x, 0.0)
            continue
        g, col, b = layer_sums
        flat = x.reshape(len(x), -1)
        xmax = np.maximum(flat.max(axis=1, initial=0.0), -flat.min(axis=1, initial=0.0))
        x = _apply_dense(x, layer)
        slack = 2 * g * (xmax * col + b) + (1 + g) * slack * col
    return x, 2 * slack


def _stage(layers, x, out, rows, start: int, stop: int, stretch, sums):
    """A stage: layers[start:stop] on x[rows] into out[rows], then the tail; its arrays die here."""
    out[rows] = y = _run_blocked(layers, x, start, stop, stretch, rows=rows)
    return _tail_with_slack(layers, y, stop, sums)


def forward_stages(cache: PrefixCache, model: Model, index: int, order: np.ndarray | None = None):
    """Run layers[index:] of `model` from the cache in row stages; a generator.

    `model` is a copy of the cached model with layer `index` changed (not
    its kind), as for `forward_from`.  The last item yielded is (None,
    logits, None) with the exact logits.  It runs in stages when given
    `order`, a permutation of the row indices, when layer `index` starts a
    row-local stretch, and when a forward of the cache runs whole, in no
    evaluation chunks (`_chunked`: one thread, or at most `_CHUNK` rows): a
    chunked stage would keep every chunk's stretch output at once, where
    `forward_batch` holds one per thread.  A changed dense layer has no
    stretch, and runs whole: a stage of its rows would cost about what they
    cost in the whole product, and an iterate run to the end would pay the
    dense tail twice.
    Then an item (rows, logits, slack) comes before the last for each stage,
    the next `_STAGE` rows of `order` as ascending indices.  A stage runs the
    stretch on its rows (`_run_blocked`, which gathers them a block at a
    time) into one output allocated up front, through workspaces that the
    generator builds once and every stage reuses, and the dense tail on its
    own output alone: the provisional logits, and per row a bound on how far
    they lie from the final ones (`_tail_with_slack`).  A caller that has
    seen enough closes the generator, and the remaining rows never run;
    otherwise the tail runs on the whole stretch output, as in
    `forward_batch`.  No bit depends on the blocks or the row order: each
    stretch output row depends on its input row alone.  Unstaged, it is
    `_forward` of layers[index:] on the cached input, in evaluation chunks
    when `_chunked`.
    """
    if index not in cache.layer_inputs:
        raise ValueError(f"no cached input for layer {index}; "
                         f"cached layers are {sorted(cache.layer_inputs)}")
    if model.input_shape != cache.model.input_shape or any(
            a is not b for a, b in zip(model.layers[:index], cache.model.layers)):
        raise ValueError(f"layers before {index} differ from the cached model's")
    if [l.kind for l in model.layers] != [l.kind for l in cache.model.layers]:
        raise ValueError("layer kinds differ from the cached model's")
    layers, x = model.layers, cache.layer_inputs[index]
    end = index  # the row-local stretch is layers[index:end]
    while end < len(layers) and layers[end].kind in _ROW_LOCAL:
        end += 1
    if order is None or end == index or _chunked(len(x), cache.threads):
        yield None, _forward(layers, x, index, len(layers), cache.threads), None
        return
    out = np.empty((len(x), *model.shapes[end]))
    stretch = _stretch(layers, x.shape[1:], index, end, min(len(x), _BLOCK))
    sums = _tail_sums(layers, end)
    for lo in range(0, len(x), _STAGE):
        rows = np.sort(order[lo:lo + _STAGE])
        yield rows, *_stage(layers, x, out, rows, index, end, stretch, sums)
    del stretch  # the stages' workspaces go before the whole-stack tail
    if end < len(layers):  # the stretch output is freed once the first dense layer has read it
        out, end = _dense_at(layers, out, end, len(layers))
        out = _forward(layers, out, end, len(layers), cache.threads)
    yield None, out, None


def _trie_plan(layers, weighted, paths, layer_for, release=None):
    """(path, k, its layers) per sorted path; k counts the first values it shares with the last.

    `layer_for` builds each layer once per distinct prefix, lazily, as the
    plan is read: a path's layers before weighted layer k are those of the
    path before it.  `release(k)`, when given, runs before they are built,
    so a walk that reads the plan as it goes frees what the path recomputes
    before the path's layers are quantized.
    """
    layers = list(layers)
    prev = ()
    for path in paths:
        k = next((j for j, (a, b) in enumerate(zip(prev, path)) if a != b), len(prev))
        if release is not None:
            release(k)
        for j in range(k, len(weighted)):
            layers[weighted[j]] = layer_for(weighted[j], path[j])
        yield path, k, tuple(layers)
        prev = path


def _trie_release(stack, k: int):
    """Free stack[k + 1:], what a path that shares its first k values with the last recomputes."""
    stack[k + 1:] = [None] * (len(stack) - k - 1)


def _trie_walk(plan, weighted, ends, stack):
    """(path, logits) per `_trie_plan` item, on the rows stack[0], the first weighted layer's input.

    `stack` holds one activation per weighted layer, None past stack[0] at
    the start: stack[j] is the input of weighted layer j under the current
    path's first j values, and stack[-1] its logits.  A path that shares its
    first k values with the one before it resumes from stack[k], so each
    layer segment runs once per distinct prefix, and stack[k + 1:], which it
    recomputes, is freed first (`_trie_release`); a plan read as the walk
    goes frees it before it builds the path's layers, a plan built ahead
    (a chunk's) when the walk reads the path.
    """
    for path, k, layers in plan:
        _trie_release(stack, k)
        for j in range(k, len(weighted)):
            stack[j + 1] = _forward(layers, stack[j], weighted[j], ends[j], 1)
        yield path, stack[-1]


def forward_trie(model: Model, inputs: np.ndarray, paths, layer_for, threads: int = 1):
    """Logits of many copies of `model` that differ only in their weighted layers.

    A path is a tuple with one value per weighted layer, and
    `layer_for(index, value)` builds the layer that takes layer `index`'s
    place.  Yields (path, logits) for each distinct path, in sorted order;
    the logits equal forward_batch on that copy bit for bit.

    Sorted order walks the paths depth-first over their shared prefixes
    (`_trie_walk`), so each layer segment, from one weighted layer to the
    next, runs and `layer_for` is called once per distinct prefix.  On a
    stack that runs as one evaluation chunk the walk runs on all its rows
    and holds at most one input per weighted layer at a time.  It frees the
    activations a path that shares its first k values with the one before
    it recomputes before `layer_for` builds that path's layers: while they
    are built, what is alive is the inputs of weighted layers 0 to k, the
    layers of the path before, and whatever the caller kept, such as the
    last logits yielded.  When
    `_chunked`, it takes the paths one subtree at a time (the paths that
    share their first value): this thread builds the subtree's layers, then
    each `_CHUNK`-row evaluation chunk's task walks the whole subtree over
    its own rows and writes each path's logits into its rows of one array
    per path, and the subtree's paths are yielded once every chunk is done.
    Each dense layer still runs on the chunks `forward_batch` cuts.  The
    walk then holds one subtree's logits and layers, plus one input per
    weighted layer for each running chunk.  One thread pool serves the whole
    call and is shut down when the generator ends, is closed or raises.
    """
    inputs = check_inputs(model, inputs)
    weighted = model.weighted_indices
    paths = sorted(set(map(tuple, paths)))
    for path in paths:
        if len(path) != len(weighted):
            raise ValueError(f"path {path} has {len(path)} values "
                             f"for {len(weighted)} weighted layers")
    if not paths:
        return
    layers = model.layers
    ends = (*weighted[1:], len(layers))  # weighted layer j's segment is layers[weighted[j]:ends[j]]
    x = _forward(layers, inputs, 0, weighted[0] if weighted else len(layers), threads)
    if not _chunked(len(x), threads):
        stack = [x] + [None] * len(weighted)
        plan = _trie_plan(layers, weighted, paths, layer_for,
                          functools.partial(_trie_release, stack))
        yield from _trie_walk(plan, weighted, ends, stack)
        return
    plan = _trie_plan(layers, weighted, paths, layer_for)

    def subtree_logits(pool, size):  # its pairs hold the subtree's last references, freed as read
        subtree = list(itertools.islice(plan, size))  # calls layer_for, on this thread
        out = [np.empty((len(x), model.d)) for _ in subtree]

        def walk(a):
            stack = [x[a:a + _CHUNK]] + [None] * len(weighted)
            for z, (_, logits) in zip(out, _trie_walk(subtree, weighted, ends, stack)):
                z[a:a + _CHUNK] = logits

        list(pool.map(walk, range(0, len(x), _CHUNK)))
        return zip([path for path, _, _ in subtree], out)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        for _, subtree in itertools.groupby(paths, key=lambda path: path[:1]):
            yield from subtree_logits(pool, len(list(subtree)))


def classify_batch(zs: np.ndarray) -> np.ndarray:
    """Argmax class index of each row of an (n, d) batch; ties break to the lowest index."""
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
    if len(labels) != len(logits):
        raise ValueError(f"{len(labels)} labels for {len(logits)} rows")
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
