"""The attention-based convolutional recurrent classifier.

Eight stacked convolutions (channel-last, batch-normalized, ReLU) interleaved
with four max-pool stages, two bidirectional GRU layers with dropout, an
optional frame-level attention head, and a softmax classifier. Attention can
rescale a pooled convolutional map (placements l2/l4/l6/l8) or convexly
combine the GRU output sequence (placement l10); with no attention the head
is the final GRU time step.

A 128x128x2 input passes (32,42,32) -> (8,42,64) -> (8,14,128) -> (4,7,256)
through the pool stages, giving the GRU a 7-step sequence of 1024-wide
vectors.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, BiGRUParams, GRUDirParams, ShapeError, Tensor
from .cachefile import CheckpointFormatError

CONV_KERNELS = ((3, 5), (3, 5), (3, 1), (3, 1), (1, 5), (1, 5), (3, 3), (3, 3))
POOLS = {2: (4, 3), 4: (4, 1), 6: (1, 3), 8: (2, 2)}
PLACEMENTS = ("none", "l2", "l4", "l6", "l8", "l10")
INIT_STD = 0.05  # standard deviation of every initial weight

@dataclass
class ACRNNConfig:
    num_classes: int = 50
    attention_placement: str = "l10"
    conv_channels: tuple = (32, 32, 64, 64, 128, 128, 256, 256)
    gru_hidden: int = 256
    dropout_p: float = 0.5
    input_bands: int = 128
    input_frames: int = 128
    rnn_attention_form: str = "mlp"  # "mlp" (tanh hidden layer) or "linear" score

    def __post_init__(self):
        if self.attention_placement not in PLACEMENTS:
            raise ValueError(f"attention_placement must be one of {PLACEMENTS}, "
                             f"got {self.attention_placement!r}")
        if self.rnn_attention_form not in ("mlp", "linear"):
            raise ValueError(f"rnn_attention_form must be 'mlp' or 'linear', "
                             f"got {self.rnn_attention_form!r}")
        if len(self.conv_channels) != 8:
            raise ValueError(f"conv_channels needs 8 entries, got {len(self.conv_channels)}")
        if not all(isinstance(c, (int, np.integer)) and c >= 1 for c in self.conv_channels):
            raise ValueError(f"conv_channels must be integers >= 1, got {self.conv_channels}")
        for name in ("num_classes", "gru_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.dropout_p < 1:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        self.conv_output_dims()

    def conv_output_dims(self):
        """(bands, frames) after the pool stages; a ValueError when a pool
        window exceeds the map it pools."""
        f, t = self.input_bands, self.input_frames
        for i, (pf, pt) in POOLS.items():
            for name, size, window in (("input_bands", f, pf), ("input_frames", t, pt)):
                if size < window:
                    raise ValueError(f"{name} = {getattr(self, name)} is too small: the l{i} "
                                     f"pool window {(pf, pt)} exceeds its {(f, t)} map")
            f, t = f // pf, t // pt
        return f, t


@dataclass
class ModelParams:
    """Named parameter set: conv kernels, batch-norm state, GRU matrices,
    attention weights, and the classifier, all as graph leaves."""

    config: ACRNNConfig
    tensors: "OrderedDict[str, Tensor]"
    bn: "dict[str, BatchNormState]"
    gru1: BiGRUParams
    gru2: BiGRUParams
    weight_names: tuple

    def parameter_count(self):
        return sum(t.data.size for t in self.tensors.values())


def build(config, seed=0, dtype=np.float32):
    """Construct ModelParams: weights ~ N(0, INIT_STD^2) drawn in declaration
    order from one seeded stream, biases 0, BN gamma 1 / beta 0.

    Declaring a weight is what puts it in ``weight_names``, the tensors that
    get L2 decay. Two builds with the same seed are bitwise identical.
    """
    rng = np.random.default_rng(seed)
    tensors = OrderedDict()
    weight_names = []

    def declare(name, shape, weight=True):
        if weight:
            data = rng.normal(0.0, INIT_STD, size=shape).astype(dtype)
            weight_names.append(name)
        else:
            data = np.zeros(shape, dtype=dtype)
        tensors[name] = Tensor(data, requires_grad=True)
        return tensors[name]

    bn = {}
    cin = 2
    for i, ((kf, kt), cout) in enumerate(zip(CONV_KERNELS, config.conv_channels), start=1):
        declare(f"conv{i}.kernel", (kf, kt, cin, cout))
        bn[f"bn{i}"] = state = BatchNormState.create(cout, dtype=dtype)
        tensors[f"bn{i}.gamma"], tensors[f"bn{i}.beta"] = state.gamma, state.beta
        cin = cout

    f_out, _ = config.conv_output_dims()
    hidden = config.gru_hidden
    grus = {}
    for layer, din in (("gru1", f_out * config.conv_channels[-1]), ("gru2", 2 * hidden)):
        sides = [GRUDirParams(declare(f"{layer}.{side}.w_x", (din, 3 * hidden)),
                              declare(f"{layer}.{side}.w_h", (hidden, 3 * hidden)),
                              declare(f"{layer}.{side}.b", 3 * hidden, weight=False))
                 for side in ("fw", "bw")]
        grus[layer] = BiGRUParams(*sides)

    placement = config.attention_placement
    if placement in ("l2", "l4", "l6", "l8"):
        declare("att.kernel", (3, 3, config.conv_channels[int(placement[1:]) - 1], 1))
    elif placement == "l10" and config.rnn_attention_form == "mlp":
        declare("att.w1", (2 * hidden, hidden))
        declare("att.b1", hidden, weight=False)
        declare("att.ctx", hidden)
    elif placement == "l10":
        declare("att.w", 2 * hidden)

    declare("fc.weight", (2 * hidden, config.num_classes))
    declare("fc.bias", config.num_classes, weight=False)
    return ModelParams(config=config, tensors=tensors, bn=bn, weight_names=tuple(weight_names),
                       **grus)


# -- attention ------------------------------------------------------------------

def cnn_attention_weights(m, kernel):
    """Per-frame attention maps of (N, F, T, C) conv feature maps: 3x3 conv to
    one channel, frequency average-pool, softmax over time. Shape (N, 1, T, 1);
    each map sums to 1."""
    scores = ad.conv2d(m, kernel)
    n, _, t, _ = scores.shape
    pooled = ad.tensor_mean(scores, axis=1, keepdims=True)
    return ad.reshape(ad.softmax(ad.reshape(pooled, (n, t))), (n, 1, t, 1))


def cnn_attention(m, kernel):
    """Rescale each time column of a feature map by its attention weight."""
    return ad.mul(m, cnn_attention_weights(m, kernel))


def rnn_attention_weights(h, params):
    """Softmax frame weights over a GRU output sequence (..., T, 2H)."""
    cfg = params.config
    if cfg.rnn_attention_form == "mlp":
        u = ad.tanh(ad.dense(h, params.tensors["att.w1"], params.tensors["att.b1"]))
        scores = ad.matmul(u, ad.reshape(params.tensors["att.ctx"], (-1, 1)))
    else:
        scores = ad.matmul(h, ad.reshape(params.tensors["att.w"], (-1, 1)))
    return ad.softmax(ad.reshape(scores, scores.shape[:-1]))


def rnn_attention(h, params):
    """Convex combination of GRU steps: v = sum_t beta_t * h_t."""
    h = ad.as_tensor(h)
    beta = rnn_attention_weights(h, params)
    weighted = ad.mul(h, ad.reshape(beta, beta.shape + (1,)))
    return ad.tensor_sum(weighted, axis=h.ndim - 2)


# -- forward --------------------------------------------------------------------

def forward(params, x, mode="infer", rng=None, trace=None):
    """Class probabilities (N, K) for a batch of (N, bands, frames, 2) inputs.

    ``trace``, when a list, collects (stage, per-example shape) pairs. Train
    mode needs ``rng`` whenever dropout is active. Infer-mode conv blocks are
    forward-only, so an infer-mode output does not differentiate to the conv
    kernels or the batch-norm parameters.
    """
    cfg = params.config
    x = ad.as_tensor(x)
    expected = (cfg.input_bands, cfg.input_frames, 2)
    if x.ndim != 4 or x.shape[1:] != expected:
        raise ShapeError(f"forward expects (N, {expected[0]}, {expected[1]}, 2), got {x.shape}")
    if mode == "train" and cfg.dropout_p > 0.0 and rng is None:
        raise ValueError("train-mode forward needs an rng for dropout")

    h = x
    for i in range(1, 9):
        h = ad.conv_block(h, params.tensors[f"conv{i}.kernel"], params.bn[f"bn{i}"], mode,
                          POOLS.get(i))
        if i in POOLS:
            if cfg.attention_placement == f"l{i}":
                h = cnn_attention(h, params.tensors["att.kernel"])
            if trace is not None:
                trace.append((f"l{i}-pool", h.shape[1:]))

    n, f, t, c = h.shape
    h = ad.reshape(ad.transpose(h, (0, 2, 1, 3)), (n, t, f * c))
    if trace is not None:
        trace.append(("gru-input", h.shape[1:]))
    h = ad.gru_bidirectional(h, params.gru1)
    h = ad.dropout(h, cfg.dropout_p, mode, rng)
    h = ad.gru_bidirectional(h, params.gru2)
    h = ad.dropout(h, cfg.dropout_p, mode, rng)
    if trace is not None:
        trace.append(("gru-output", h.shape[1:]))

    if cfg.attention_placement == "l10":
        head = rnn_attention(h, params)
    else:
        head = h[:, t - 1, :]
    if trace is not None:
        trace.append(("head", head.shape[1:]))
    return ad.softmax(ad.dense(head, params.tensors["fc.weight"], params.tensors["fc.bias"]))


def shape_trace(params):
    """The (stage, shape) sequence for one dummy example."""
    trace = []
    cfg = params.config
    dummy = np.zeros((1, cfg.input_bands, cfg.input_frames, 2), dtype=np.float32)
    forward(params, dummy, mode="infer", trace=trace)
    return trace


# -- checkpoint state (the ACRN codec is in cachefile) --------------------------

def state_arrays(params):
    """Copied arrays of every learnable tensor plus BN running statistics."""
    out = OrderedDict((name, t.data.copy()) for name, t in params.tensors.items())
    for name in sorted(params.bn):
        out[f"{name}.running_mean"] = params.bn[name].running_mean.copy()
        out[f"{name}.running_var"] = params.bn[name].running_var.copy()
    return out


def load_state(params, arrays):
    """Restore tensors and BN running stats from a state/checkpoint dict."""
    expected = set(state_arrays(params))
    got = set(arrays)
    if expected != got:
        missing, extra = expected - got, got - expected
        raise CheckpointFormatError(f"state names disagree: missing {sorted(missing)}, "
                                    f"unexpected {sorted(extra)}")
    for name, tensor in params.tensors.items():
        if arrays[name].shape != tensor.shape:
            raise CheckpointFormatError(f"{name}: shape {arrays[name].shape} != {tensor.shape}")
        tensor.data = arrays[name].astype(tensor.dtype).copy()
        tensor.grad = None
    for name, state in params.bn.items():
        state.running_mean = arrays[f"{name}.running_mean"].astype(state.running_mean.dtype).copy()
        state.running_var = arrays[f"{name}.running_var"].astype(state.running_var.dtype).copy()
