"""Minimal reverse-mode autodiff engine on numpy arrays.

Tensors wrap float32 (or float64, for numeric checking) ndarrays and record
the operations applied to them as a DAG. Calling ``backward()`` on a scalar
tensor walks that DAG once in reverse topological order and accumulates
gradients into every leaf tensor with ``requires_grad=True``.

Only the operations the network calls are provided, in the form it calls
them: elementwise arithmetic, matmul, reshape/transpose/slicing/concat,
reductions, activations, softmax, bias-free stride-1 "same" 2-D convolution
and non-overlapping max pooling on batched (N, F, T, C) channel-last maps,
batch normalization, dropout, a bidirectional GRU over batched (N, T, D)
sequences, and cross-entropy on probabilities. Convolution has no patch
buffer: GEMMs of the flattened padded input, regrouped into super-rows of
S = ceil(16 / max(Cin, Cout)) grid positions, against banded weight blocks
built from the kernel, so narrow layers run a few wide GEMMs and layers of
16 channels or more (S = 1) run one GEMM per kernel tap.

The network's conv blocks (conv -> batch-norm -> ReLU -> optional max-pool)
are one graph node each (``conv_block``), and so is each GRU direction and
the loss, all with closed-form backward passes, so a step's graph does not
grow with the sequence length. A train-mode block keeps only the conv's
padded input, its padded output grid (overwritten in place by the normalized
x_hat) and its own (pooled) output with a uint8 window code per cell; an
infer-mode block keeps nothing. ``conv2d`` also serves the CNN attention's
scoring conv; ``batchnorm``, ``relu`` and ``maxpool2d`` are the references
that the block is tested against, and no train or infer step calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Raised when operand dimensions are incompatible."""


class GraphError(ValueError):
    """Raised when an autodiff contract is violated (e.g. non-scalar backward)."""


def _wrap(data, dtype=None):
    if dtype is None and type(data) in (int, float):
        # Under NEP 50 (NumPy >= 2) a 0-d float64 array is not a weak scalar and
        # would promote every float32 operand it meets. np.float64 subclasses
        # float but fails the exact type test, so float64 graphs stay float64.
        return np.asarray(data, dtype=np.float32)
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype in (np.float32, np.float64):
        return arr
    return arr.astype(np.float32)


class Tensor:
    """An n-d float array participating in a reverse-mode differentiation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_op")

    def __init__(self, data, requires_grad=False, dtype=None, _prev=(), _op="leaf"):
        self.data = _wrap(data, dtype)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._prev = _prev
        self._op = _op

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(op={self._op}, shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self):
        return float(self.data)

    def _accumulate(self, g):
        """Add g into ``grad``. The first add writes g + 0 to a fresh array in
        one pass, turning -0 into +0 as adding into zeros would, so that
        ``grad`` never aliases g."""
        if self.grad is None:
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    # -- graph traversal ----------------------------------------------------

    def _topo_order(self):
        """All reachable graph nodes, children before parents, each exactly once."""
        order, visited, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return order

    def backward(self):
        """Populate ``grad`` on every reachable requires_grad leaf.

        Must be called on a scalar. Interior node gradients are recomputed from
        scratch on every call while leaf gradients accumulate, so calling twice
        without resetting ``grad`` to None doubles the leaf gradients. Every
        ``grad`` is an array of its own (see ``_accumulate``).
        """
        if self.data.size != 1:
            raise GraphError(f"backward() requires a scalar, got shape {self.shape}")
        order = self._topo_order()
        for node in order:
            if node._prev:
                node.grad = None
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __sub__(self, other):
        return add(self, mul(as_tensor(other), -1.0))

    def __rsub__(self, other):
        return add(as_tensor(other), mul(self, -1.0))

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, idx):
        return tensor_slice(self, idx)


def as_tensor(x, dtype=None):
    return x if isinstance(x, Tensor) else Tensor(x, dtype=dtype)


def _node(data, inputs, op):
    needs = any(t.requires_grad for t in inputs)
    prev = tuple(t for t in inputs if t.requires_grad) if needs else ()
    return Tensor(data, requires_grad=needs, _prev=prev, _op=op)


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the unbroadcast operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# -- elementwise arithmetic ---------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = _node(a.data + b.data, (a, b), "add")
    if out.requires_grad:
        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))
        out._backward = backward
    return out


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = _node(a.data * b.data, (a, b), "mul")
    if out.requires_grad:
        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.shape))
        out._backward = backward
    return out


# -- activations --------------------------------------------------------------

def relu(x):
    x = as_tensor(x)
    out = _node(np.maximum(x.data, 0.0), (x,), "relu")
    if out.requires_grad:
        mask = x.data > 0.0
        def backward(g):
            x._accumulate(g * mask)
        out._backward = backward
    return out


def sigmoid(x):
    x = as_tensor(x)
    # exp overflows to inf below about -88 in float32, and 1 / inf is the
    # right 0.
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-x.data))
    out = _node(y, (x,), "sigmoid")
    if out.requires_grad:
        def backward(g):
            x._accumulate(g * y * (1.0 - y))
        out._backward = backward
    return out


def tanh(x):
    x = as_tensor(x)
    y = np.tanh(x.data)
    out = _node(y, (x,), "tanh")
    if out.requires_grad:
        def backward(g):
            x._accumulate(g * (1.0 - y * y))
        out._backward = backward
    return out


def dropout(x, p, mode, rng=None):
    """Inverted dropout: train mode zeroes with probability p and rescales
    survivors by 1/(1-p); infer mode is the identity."""
    if not 0.0 <= p < 1.0:
        raise GraphError(f"dropout probability must be in [0, 1), got {p}")
    x = as_tensor(x)
    if mode == "infer" or p == 0.0:
        return x
    if rng is None:
        raise GraphError("train-mode dropout needs an rng")
    mask = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    out = _node(x.data * mask, (x,), "dropout")
    if out.requires_grad:
        def backward(g):
            x._accumulate(g * mask)
        out._backward = backward
    return out


# -- shape plumbing -----------------------------------------------------------

def reshape(x, shape):
    x = as_tensor(x)
    out = _node(x.data.reshape(shape), (x,), "reshape")
    if out.requires_grad:
        def backward(g):
            x._accumulate(g.reshape(x.shape))
        out._backward = backward
    return out


def transpose(x, axes):
    x = as_tensor(x)
    out = _node(x.data.transpose(axes), (x,), "transpose")
    if out.requires_grad:
        inverse = np.argsort(axes)
        def backward(g):
            x._accumulate(g.transpose(inverse))
        out._backward = backward
    return out


def tensor_slice(x, idx):
    """Basic (non-fancy) slicing; the backward scatters into a zero buffer."""
    x = as_tensor(x)
    out = _node(x.data[idx], (x,), "slice")
    if out.requires_grad:
        def backward(g):
            buf = np.zeros_like(x.data)
            buf[idx] = g
            x._accumulate(buf)
        out._backward = backward
    return out


def concat(tensors, axis):
    tensors = [as_tensor(t) for t in tensors]
    out = _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), "concat")
    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]
        def backward(g):
            for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
                if t.requires_grad:
                    t._accumulate(piece)
        out._backward = backward
    return out


# -- reductions ---------------------------------------------------------------

def _expand_reduced(g, in_shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g.reshape((1,) * len(in_shape)), in_shape)
    axes = axis if isinstance(axis, tuple) else (axis,)
    if not keepdims:
        for ax in sorted(ax % len(in_shape) for ax in axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, in_shape)


def tensor_sum(x, axis=None, keepdims=False):
    x = as_tensor(x)
    out = _node(x.data.sum(axis=axis, keepdims=keepdims), (x,), "sum")
    if out.requires_grad:
        def backward(g):
            x._accumulate(_expand_reduced(g, x.shape, axis, keepdims))
        out._backward = backward
    return out


def tensor_mean(x, axis=None, keepdims=False):
    x = as_tensor(x)
    out = _node(x.data.mean(axis=axis, keepdims=keepdims), (x,), "mean")
    if out.requires_grad:
        count = x.data.size // out.data.size
        def backward(g):
            x._accumulate(_expand_reduced(g, x.shape, axis, keepdims) / count)
        out._backward = backward
    return out


# -- linear algebra -----------------------------------------------------------

def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    out = _node(np.matmul(a.data, b.data), (a, b), "matmul")
    if out.requires_grad:
        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.shape))
        out._backward = backward
    return out


def dense(x, weight, bias):
    """Affine map rows(x) @ weight + bias."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"dense: input width {x.shape[-1]} != weight rows {weight.shape[0]}")
    if bias.shape[-1] != weight.shape[1]:
        raise ShapeError(f"dense: bias width {bias.shape[-1]} != weight cols {weight.shape[1]}")
    return add(matmul(x, weight), bias)


def softmax(x):
    """Numerically stable softmax over the last axis."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = _node(y, (x,), "softmax")
    if out.requires_grad:
        def backward(g):
            dot = (g * y).sum(axis=-1, keepdims=True)
            x._accumulate((g - dot) * y)
        out._backward = backward
    return out


# -- convolution and pooling --------------------------------------------------

# Bytes of input plus output super-rows that one block of GEMMs works on: the
# block stays in cache across the kernel's GEMMs.
_BLOCK_BYTES = 1 << 18


def _super_rows(rows, start, s, count):
    """``count`` super-rows of ``s`` consecutive rows of the C-contiguous
    (rows, c) array from row ``start``: a (count, s*c) view, no copy."""
    c = rows.shape[1]
    return rows.reshape(-1)[start * c:(start + count * s) * c].reshape(count, s * c)


def _band_views(src, kf, nb, s, tp, count):
    """The super-row views that kernel row a, band j reads: src from row a*tp + j*s."""
    return [_super_rows(src, a * tp + j * s, s, count) for a in range(kf) for j in range(nb)]


def _band_taps(kt, s, dtype):
    """One-hot (nb, s, s, kt) map from (band j, input slot r, output slot o) to
    the kernel column b = j*s + r - o it applies; nb = ceil((s + kt - 1) / s)."""
    j, r, o = np.ogrid[:-(-(s + kt - 1) // s), :s, :s]
    return ((j * s + r - o)[..., None] == np.arange(kt)).astype(dtype)


def _correlate(src, w, taps, tp, count):
    """Rows p < count*s of the flattened correlation sum over taps (a, b) of
    src[p + a*tp + b] @ w[a, b], as a (count*s, cout) array.

    src: (rows, cin), C-contiguous, with (kf-1)*tp + (nb-1)*s rows past the
    last output row; w: (kf, kt, cin, cout); taps: ``_band_taps(kt, s)``.
    """
    kf, _, cin, cout = w.shape
    nb, s = taps.shape[:2]
    bands = np.einsum("abic,jrob->ajrioc", w, taps).reshape(kf * nb, s * cin, s * cout)
    views = _band_views(src, kf, nb, s, tp, count)
    out = np.empty((count, s * cout), dtype=np.result_type(src, w))
    block = max(1, _BLOCK_BYTES // (s * (cin + cout) * out.itemsize))
    tmp = np.empty((min(block, count), s * cout), dtype=out.dtype)
    for lo in range(0, count, block):
        o = out[lo:lo + block]
        tb = tmp[:len(o)]
        np.matmul(views[0][lo:lo + block], bands[0], out=o)
        for v, band in zip(views[1:], bands[1:]):
            np.matmul(v[lo:lo + block], band, out=tb)
            o += tb
    return out.reshape(count * s, cout)


class _ConvLayout:
    """Geometry of a stride-1 "same" conv of (n, f, t, cin) maps with a
    (kf, kt, cin, cout) kernel on the flattened padded grid (see ``conv2d``)."""

    def __init__(self, x_shape, kernel_shape, dtype):
        n, f, t, cin = x_shape
        kf, kt, _, cout = kernel_shape
        self.x_shape, self.kernel_shape = x_shape, kernel_shape
        self.pf0, self.pt0 = (kf - 1) // 2, (kt - 1) // 2
        self.fp, self.tp = f + kf - 1, t + kt - 1
        self.rows = n * self.fp * self.tp
        self.s = -(-16 // max(cin, cout))
        self.taps = _band_taps(kt, self.s, dtype)
        self.nb, self.count = len(self.taps), -(-self.rows // self.s)
        # Zero rows after the grid, so that every band view is count super-rows
        # long, and before the output gradient, so that the input gradient is a
        # correlation too.
        self.tail = (kf - 1) * self.tp + self.nb * self.s - 1
        self.lead = (kf - 1) * self.tp + kt - 1

    def _frame(self, rows, lead, f0, t0):
        """Zero rows[:lead], the rows after the (n, fp, tp, c) grid that
        follows them, and every grid cell outside its (f, t) block at (f0, t0);
        return that block's view, which the caller writes in full."""
        n, f, t, _ = self.x_shape
        rows[:lead] = 0
        rows[lead + self.rows:] = 0
        grid = rows[lead:lead + self.rows].reshape(n, self.fp, self.tp, -1)
        grid[:, :f0] = 0
        grid[:, f0 + f:] = 0
        grid[:, f0:f0 + f, :t0] = 0
        grid[:, f0:f0 + f, t0 + t:] = 0
        return grid[:, f0:f0 + f, t0:t0 + t]

    def pad(self, x):
        """The zero-padded input as flattened (rows + tail, cin) rows."""
        xrows = np.empty((self.rows + self.tail, x.shape[3]), dtype=x.dtype)
        self._frame(xrows, 0, self.pf0, self.pt0)[...] = x
        return xrows

    def grid(self, rows, w):
        """The correlation of padded rows with w at every padded-grid position,
        as (n, fp, tp, cout); the "same" output is its [:, :f, :t]."""
        n = self.x_shape[0]
        out = _correlate(rows, w, self.taps, self.tp, self.count)
        return out[:self.rows].reshape(n, self.fp, self.tp, w.shape[3])

    def grad_rows(self, dtype):
        """Output-gradient rows, zero but for the (n, f, t, cout) "same"
        output block of their grid, and that block's view, for the caller
        to write."""
        grows = np.empty((self.lead + self.rows + self.tail, self.kernel_shape[3]), dtype=dtype)
        return grows, self._frame(grows, self.lead, 0, 0)

    def backward(self, x, kernel, xrows, grows):
        """Accumulate the kernel and input gradients from the output gradient
        that ``grad_rows`` holds. The kernel gradient is the per-band GEMMs of
        the input views against the output gradient, folded back along the
        band diagonals; the input gradient is the correlation of the
        gradient rows with the flipped, channel-swapped kernel."""
        n, f, t, cin = self.x_shape
        kf, _, _, cout = self.kernel_shape
        s, nb, count, w = self.s, self.nb, self.count, kernel.data
        if kernel.requires_grad:
            views = _band_views(xrows, kf, nb, s, self.tp, count)
            gout = _super_rows(grows, self.lead, s, count)
            gbands = np.zeros((kf * nb, s * cin, s * cout), dtype=w.dtype)
            block = max(1, _BLOCK_BYTES // (s * (cin + cout) * gout.itemsize))
            for lo in range(0, count, block):
                go = gout[lo:lo + block]
                for gband, v in zip(gbands, views):
                    gband += v[lo:lo + block].T @ go
            gbands = gbands.reshape(kf, nb, s, cin, s, cout)
            kernel._accumulate(np.einsum("ajrioc,jrob->abic", gbands, self.taps))
        if x.requires_grad:
            gxp = self.grid(grows, w[::-1, ::-1].transpose(0, 1, 3, 2))
            x._accumulate(gxp[:, self.pf0:self.pf0 + f, self.pt0:self.pt0 + t, :])


def _conv_operands(op, x, kernel):
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"{op} expects 4-d input and kernel, got {x.shape}, {kernel.shape}")
    cin, kcin = x.shape[3], kernel.shape[2]
    if kcin != cin:
        raise ShapeError(f"{op}: input channels {cin} != kernel channels {kcin}")
    return x, kernel, _ConvLayout(x.shape, kernel.shape, kernel.dtype)


def conv2d(x, kernel):
    """Stride-1 "same" 2-D correlation over batched channel-last maps.

    x: (N, F, T, Cin); kernel: (kf, kt, Cin, Cout); output (N, F, T, Cout),
    with no bias: each conv of the network feeds a batch norm or a softmax
    over time, which cancels one. Each axis is zero-padded by (k-1)//2
    before and the rest after, so an even kernel pads one more row or column
    after than before.

    The padded input is flattened to (rows, Cin), where output row p reads
    input row p + a*Tp + b through tap (a, b), and viewed without a copy as
    super-rows of S consecutive rows, S = ceil(16 / max(Cin, Cout)). Kernel
    row a then needs nb = ceil((S + kt - 1) / S) banded (S*Cin, S*Cout)
    weight blocks, one per super-row it reaches, so the output costs kf*nb
    GEMMs with an inner dimension of S*Cin rather than kf*kt GEMMs with one
    of Cin: 6 rather than 15 at 2 channels and a (3, 5) kernel. From 16
    channels up S is 1, one GEMM per tap. There is no patch (im2col) buffer:
    the output is evaluated at every padded-grid position and its first F
    rows and T columns are kept. Backward keeps only the padded input. The
    kernel gradient is the per-band GEMMs of the same views against the
    output gradient, folded back along the band diagonals; the input gradient
    is the same correlation of the output gradient, led by (kf-1)*Tp + kt-1
    zero rows, with the flipped, channel-swapped kernel.
    """
    x, kernel, layout = _conv_operands("conv2d", x, kernel)
    n, f, t, _ = x.shape
    xrows = layout.pad(x.data)
    y = np.ascontiguousarray(layout.grid(xrows, kernel.data)[:, :f, :t])
    out = _node(y, (x, kernel), "conv2d")

    if out.requires_grad:
        def backward(g):
            grows, gout = layout.grad_rows(g.dtype)
            gout[...] = g
            layout.backward(x, kernel, xrows, grows)
        out._backward = backward
    return out


def maxpool2d(x, window):
    """Non-overlapping max pooling (stride = window) of (N, F, T, C) maps;
    remainder cells dropped.

    The gradient routes to the argmax position of each window only.
    """
    x = as_tensor(x)
    n, f, t, c = x.shape
    wf, wt = window
    if wf > f or wt > t:
        raise ShapeError(f"maxpool2d: window {window} larger than input ({f},{t})")
    of, ot = f // wf, t // wt
    win = (x.data[:, :of * wf, :ot * wt, :]
           .reshape(n, of, wf, ot, wt, c)
           .transpose(0, 1, 3, 2, 4, 5)
           .reshape(n, of, ot, wf * wt, c))
    idx = win.argmax(axis=3)
    y = np.take_along_axis(win, idx[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    out = _node(y, (x,), "maxpool2d")

    if out.requires_grad:
        def backward(g):
            gwin = np.zeros_like(win)
            np.put_along_axis(gwin, idx[:, :, :, None, :], g[:, :, :, None, :], axis=3)
            gx = np.zeros_like(x.data)
            gx[:, :of * wf, :ot * wt, :] = (gwin
                                            .reshape(n, of, ot, wf, wt, c)
                                            .transpose(0, 1, 3, 2, 4, 5)
                                            .reshape(n, of * wf, ot * wt, c))
            x._accumulate(gx)
        out._backward = backward
    return out


# -- batch normalization --------------------------------------------------------

# Added to the variance under the square root, and the running statistics'
# decay per train-mode call.
BN_EPSILON = 1e-5
BN_MOMENTUM = 0.9


@dataclass
class BatchNormState:
    """Learnable scale/shift plus running statistics for one channel axis."""

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def create(cls, channels, dtype=np.float32):
        return cls(
            gamma=Tensor(np.ones(channels, dtype=dtype), requires_grad=True),
            beta=Tensor(np.zeros(channels, dtype=dtype), requires_grad=True),
            running_mean=np.zeros(channels, dtype=dtype),
            running_var=np.ones(channels, dtype=dtype),
        )


def _fold_running_stats(state, mean, var):
    k = BN_MOMENTUM
    state.running_mean = k * state.running_mean + (1.0 - k) * mean.astype(state.running_mean.dtype)
    state.running_var = k * state.running_var + (1.0 - k) * var.astype(state.running_var.dtype)


def batchnorm(x, state, mode):
    """Normalize over every axis except the trailing channel axis.

    Train mode uses batch statistics (differentiable through them), summed in
    float64, folds the batch mean/variance into the running statistics, and
    is one graph node whose backward is the closed form of Ioffe & Szegedy
    (2015). Infer mode uses the running statistics and is forward-only: its
    output is a constant with no graph inputs. No train or infer step calls
    it: it is the reference ``conv_block`` is tested against.
    """
    x = as_tensor(x)
    gamma, beta = state.gamma, state.beta
    if x.shape[-1] != gamma.shape[0]:
        raise ShapeError(f"batchnorm: channels {x.shape[-1]} != state channels {gamma.shape[0]}")
    axes = tuple(range(x.ndim - 1))
    m = x.data.size // x.shape[-1]
    if mode == "train":
        mu = x.data.mean(axis=axes, dtype=np.float64).astype(x.dtype)
        var = x.data.var(axis=axes, dtype=np.float64).astype(x.dtype)
        _fold_running_stats(state, mu, var)
    elif mode == "infer":
        mu, var = state.running_mean.astype(x.dtype), state.running_var.astype(x.dtype)
    else:
        raise ValueError(f"unknown batchnorm mode {mode!r}")
    inv = 1.0 / np.sqrt(var + BN_EPSILON)
    xhat = (x.data - mu) * inv
    out = _node(xhat * gamma.data + beta.data,
                (x, gamma, beta) if mode == "train" else (), "batchnorm")

    if out.requires_grad:
        def backward(g):
            gsum = g.sum(axis=axes)
            gdot = (g * xhat).sum(axis=axes)
            if gamma.requires_grad:
                gamma._accumulate(gdot)
            if beta.requires_grad:
                beta._accumulate(gsum)
            if x.requires_grad:
                x._accumulate((g - gsum / m - xhat * gdot / m) * (gamma.data * inv))
        out._backward = backward
    return out


# -- fused conv block -----------------------------------------------------------

def _pool_lanes(z, window, c):
    """Non-overlapping (wf, wt) window maxima of (n, f, t*c) lanes z, remainder
    cells dropped, as channel-major (n, of, c, ot) values and uint8 codes
    r*wt + k of each window's first maximum in row-major window order (the
    position ``maxpool2d``'s argmax picks).

    The window rows are pooled on full lanes, keeping the first maximal row r
    per column by arithmetic. The columns are then pooled on a channel-major
    copy of the row maxima, and among the columns that reach the peak the
    smallest code wins, which is the first maximum in row-major order.
    """
    n, f, lanes = z.shape
    wf, wt = window
    of, ot = f // wf, lanes // (c * wt)
    z = z[:, :of * wf].reshape(n, of, wf, lanes)[..., :ot * wt * c]
    best = z[:, :, 0].copy()
    row = np.zeros(best.shape, dtype=np.uint8)
    for r in range(1, wf):
        v = z[:, :, r]
        np.maximum(row, (v > best).view(np.uint8) * np.uint8(r), out=row)
        np.maximum(best, v, out=best)
    # (n, of, k, c, ot): each window column k is one contiguous slab.
    cols, row = (a.reshape(n, of, ot, wt, c).transpose(0, 1, 3, 4, 2).copy() for a in (best, row))
    peak = cols.max(axis=2)
    code = np.full(peak.shape, 255, dtype=np.uint8)
    for k in range(wt):
        cand = row[:, :, k] * np.uint8(wt) + np.uint8(k)
        cand |= (cols[:, :, k] != peak).view(np.uint8) * np.uint8(255)
        np.minimum(code, cand, out=code)
    return peak, code


def _window_positions(code, window, grid_shape):
    """(n, of, ot, c) flat positions of the window maxima that (n, of, c, ot)
    ``code`` marks, in a C-contiguous (n, f, t, c) grid."""
    n, of, c, ot = code.shape
    wf, wt = window
    _, f, t, _ = grid_shape
    r, k = np.divmod(np.arange(wf * wt), wt)
    corner = (np.arange(n)[:, None, None, None] * (f * t * c)
              + np.arange(of)[:, None, None] * (wf * t * c)
              + np.arange(c)[:, None] + np.arange(ot) * (wt * c))
    return (corner + ((r * t + k) * c)[code]).transpose(0, 1, 3, 2)


def conv_block(x, kernel, bn_state, mode, window=None):
    """relu(batchnorm(conv2d(x, kernel))), max-pooled over ``window``
    when one is given, as one graph node.

    Equal to ``maxpool2d(relu(batchnorm(conv2d(...), bn_state, mode)), window)``
    up to summation order, with the same running-statistics update. The
    batch-norm statistics and x_hat run on (N, F, T*C) lane views of the
    conv's padded output grid, where x_hat overwrites the conv output. The
    affine map goes to one fresh map, which the ReLU overwrites or which is
    pooled; max commutes with the monotone ReLU, so a pooled block's ReLU
    runs on the pooled map. Train-mode backward keeps the padded input rows,
    the grid holding x_hat and the output with a uint8 window code per pooled
    cell, and writes the batch-norm input gradient into the conv's gradient
    rows. Infer mode is forward-only: no graph inputs, nothing kept.
    """
    x, kernel, layout = _conv_operands("conv_block", x, kernel)
    gamma, beta = bn_state.gamma, bn_state.beta
    n, f, t, _ = x.shape
    c = kernel.shape[3]
    if gamma.shape != (c,):
        raise ShapeError(f"conv_block: channels {c} != state channels {gamma.shape[0]}")
    if window is not None and (window[0] > f or window[1] > t):
        raise ShapeError(f"conv_block: window {window} larger than input ({f},{t})")
    lanes, m = t * c, n * f * t

    def tile(v):
        return np.tile(v, t)

    def channel_sum(lane_sums):
        return lane_sums.reshape(-1, c).sum(axis=0)

    xrows = layout.pad(x.data)
    grid = layout.grid(xrows, kernel.data)
    xhat = grid[:, :f].reshape(n, f, -1)[:, :, :lanes]
    if mode == "train":
        mu = channel_sum(np.einsum("nfl->l", xhat)) / m
        xhat -= tile(mu)
        var = channel_sum(np.einsum("nfl,nfl->l", xhat, xhat)) / m
        _fold_running_stats(bn_state, mu, var)
    elif mode == "infer":
        xhat -= tile(bn_state.running_mean.astype(xhat.dtype))
        var = bn_state.running_var.astype(xhat.dtype)
    else:
        raise ValueError(f"unknown batchnorm mode {mode!r}")
    inv = 1.0 / np.sqrt(var + BN_EPSILON)
    xhat *= tile(inv)
    z = np.multiply(xhat, tile(gamma.data))
    z += tile(beta.data)
    if window is None:
        y = np.maximum(z, 0.0, out=z).reshape(n, f, t, c)
    else:
        peak, code = _pool_lanes(z, window, c)
        y = np.empty((n, peak.shape[1], peak.shape[3], c), dtype=peak.dtype)
        np.maximum(peak.transpose(0, 1, 3, 2), 0.0, out=y)
    out = _node(y, (x, kernel, gamma, beta) if mode == "train" else (), "conv_block")

    if out.requires_grad:
        def backward(g):
            gy = g * (y > 0.0)
            # Row sums into lanes first, so that each float32 sum runs over
            # few terms.
            rows = gy.reshape(n, gy.shape[1], -1)
            if window is None:
                hat = xhat
            else:
                # x_hat's flat grid positions; the gradient rows' are lead*c on.
                pos = _window_positions(code, window, grid.shape)
                hat = grid.reshape(-1)[pos].reshape(rows.shape)
            gsum = channel_sum(np.einsum("nfl->l", rows))
            gdot = channel_sum(np.einsum("nfl,nfl->l", rows, hat))
            scale = gamma.data * inv
            if gamma.requires_grad:
                gamma._accumulate(gdot)
            if beta.requires_grad:
                beta._accumulate(gsum)
            grows, gout = layout.grad_rows(g.dtype)
            gz = gout.reshape(n, f, lanes)
            np.multiply(xhat, tile(-scale * gdot / m), out=gz)
            gz += tile(-scale * gsum / m)
            rows *= np.tile(scale, rows.shape[2] // c)
            if window is None:
                gz += rows.reshape(gz.shape)
            else:
                grows.reshape(-1)[layout.lead * c:][pos] += rows.reshape(pos.shape)
            layout.backward(x, kernel, xrows, grows)
        out._backward = backward
    return out


# -- recurrent ----------------------------------------------------------------

@dataclass
class GRUDirParams:
    """One GRU direction: packed input/recurrent weights and bias.

    Gate packing order along the last axis is (update z, reset r, candidate n).
    The reset gate multiplies the previous state before the recurrent matmul,
    and the new state is h' = (1 - z) * h + z * n.
    """

    w_x: Tensor  # (Din, 3H)
    w_h: Tensor  # (H, 3H)
    b: Tensor    # (3H,)

    @property
    def hidden(self):
        return self.w_h.shape[0]


@dataclass
class BiGRUParams:
    fw: GRUDirParams
    bw: GRUDirParams


def _gru_scan(x, w_x, w_h, b, reverse):
    """One GRU direction over (N, T, Din) with zero initial state, as one node.

    The input projection x @ w_x + b is one GEMM over all T steps (Appleyard
    et al. 2016). The recurrence runs on plain arrays, walking t downward when
    ``reverse``, and keeps z, r, the candidate n and the previous state of
    every step. The backward is closed-form backpropagation through time: it
    gathers the gate pre-activation gradients of all steps, so dx, dw_x, db
    and dw_h are each one GEMM or reduction over all T.
    """
    n, t_len, din = x.shape
    h = w_h.shape[0]
    w_zr, w_n = w_h.data[:, :2 * h], w_h.data[:, 2 * h:]
    gx = (x.data.reshape(-1, din) @ w_x.data + b.data).reshape(n, t_len, 3 * h)
    z, r, cand, prev, y = (np.empty((n, t_len, h), dtype=gx.dtype) for _ in range(5))
    steps = range(t_len - 1, -1, -1) if reverse else range(t_len)
    state = np.zeros((n, h), dtype=gx.dtype)
    # The gates' exp overflows to inf below about -88, as in sigmoid: the
    # gate is then the right 0.
    with np.errstate(over="ignore"):
        for t in steps:
            g = gx[:, t]
            gh = state @ w_zr
            zt = 1.0 / (1.0 + np.exp(-(g[:, :h] + gh[:, :h])))
            rt = 1.0 / (1.0 + np.exp(-(g[:, h:2 * h] + gh[:, h:])))
            nt = np.tanh(g[:, 2 * h:] + (rt * state) @ w_n)
            z[:, t], r[:, t], cand[:, t], prev[:, t] = zt, rt, nt, state
            state = (1.0 - zt) * state + zt * nt
            y[:, t] = state
    out = _node(y, (x, w_x, w_h, b), "gru")

    if out.requires_grad:
        def backward(g):
            dgx = np.empty((n, t_len, 3 * h), dtype=z.dtype)
            carry = np.zeros((n, h), dtype=z.dtype)
            for t in reversed(steps):
                dh = g[:, t] + carry
                zt, rt, nt, ht = z[:, t], r[:, t], cand[:, t], prev[:, t]
                dn = dh * zt * (1.0 - nt * nt)
                drh = dn @ w_n.T
                dgx[:, t, :h] = dh * (nt - ht) * zt * (1.0 - zt)
                dgx[:, t, h:2 * h] = drh * ht * rt * (1.0 - rt)
                dgx[:, t, 2 * h:] = dn
                carry = dh * (1.0 - zt) + drh * rt + dgx[:, t, :2 * h] @ w_zr.T
            rows = dgx.reshape(-1, 3 * h)
            if x.requires_grad:
                x._accumulate((rows @ w_x.data.T).reshape(x.shape))
            if w_x.requires_grad:
                w_x._accumulate(x.data.reshape(-1, din).T @ rows)
            if b.requires_grad:
                b._accumulate(np.einsum("ij->j", rows))
            if w_h.requires_grad:
                hp = prev.reshape(-1, h)
                w_h._accumulate(np.concatenate([hp.T @ rows[:, :2 * h],
                                                (r.reshape(-1, h) * hp).T @ rows[:, 2 * h:]],
                                               axis=1))
        out._backward = backward
    return out


def gru_bidirectional(x, params):
    """Bidirectional GRU over (N, T, Din) with zero initial state.

    Output step t concatenates the forward state after consuming x[..t] with
    the backward state after consuming x[t..], giving (N, T, 2H). Each
    direction is one graph node (``_gru_scan``).
    """
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"gru expects (N, T, Din), got {x.shape}")
    for p in (params.fw, params.bw):
        h = p.hidden
        if (p.w_x.shape != (x.shape[2], 3 * h) or p.w_h.shape != (h, 3 * h)
                or p.b.shape != (3 * h,)):
            raise ShapeError(f"gru: input width {x.shape[2]} and packed shapes disagree: "
                             f"w_x {p.w_x.shape}, w_h {p.w_h.shape}, b {p.b.shape}")
    return concat([_gru_scan(x, p.w_x, p.w_h, p.b, reverse)
                   for p, reverse in ((params.fw, False), (params.bw, True))], axis=2)


# -- loss -----------------------------------------------------------------------

# The floor of cross_entropy's log argument, so that confidently wrong
# predictions give a finite loss.
CE_PROB_FLOOR = 1e-7


def cross_entropy(probs, targets):
    """Mean over the batch of -sum(target * log(prob)), on soft labels, with
    each prob clamped below at ``CE_PROB_FLOOR``, as one graph node.

    The targets are constants: no gradient flows to them. The probs' gradient
    is -target / (N * prob) over the N rows, and 0 where a prob is clamped.
    """
    probs = as_tensor(probs)
    targets = as_tensor(targets, dtype=probs.dtype)
    if probs.shape != targets.shape:
        raise ShapeError(f"cross_entropy: probs {probs.shape} != targets {targets.shape}")
    p, t = probs.data, targets.data
    clamped = np.maximum(p, CE_PROB_FLOOR)
    per_row = (t * np.log(clamped)).sum(axis=-1)
    out = _node(-per_row.mean(), (probs,), "cross_entropy")

    if out.requires_grad:
        def backward(g):
            probs._accumulate((-g / per_row.size) * t / clamped * (p > CE_PROB_FLOOR))
        out._backward = backward
    return out
