"""Finite-difference gradient oracles.

Every differentiable operation is re-run as a float64 graph and its backward
pass is compared against central finite differences of a scalar projection of
the output. The error reported per check is

    max|analytic - numeric| / max(max|analytic|, max|numeric|, 1e-8)

i.e. the largest elementwise discrepancy relative to the gradient's scale.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, BiGRUParams, GRUDirParams, Tensor

FD_STEP = 1e-4
OP_TOLERANCE = 1e-4
MODEL_TOLERANCE = 1e-3


def _central_differences(f, flat, picks, step):
    """Central-difference derivatives of the scalar f() with respect to the
    entries ``picks`` of the 1-d array ``flat``, which f reads; each entry is
    perturbed in place and restored."""
    out = np.zeros(len(picks))
    for j, i in enumerate(picks):
        orig = flat[i]
        flat[i] = orig + step
        hi = f()
        flat[i] = orig - step
        lo = f()
        flat[i] = orig
        out[j] = (hi - lo) / (2.0 * step)
    return out


def max_relative_error(analytic, numeric):
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / scale)


def check_gradient(builder, inputs):
    """Compare backward() of builder(*tensors) against central differences
    with step ``FD_STEP``.

    builder must be a pure function of the tensors' data and return a scalar
    Tensor. Returns the worst relative error across all inputs.
    """
    tensors = [Tensor(x.copy(), requires_grad=True, dtype=np.float64) for x in inputs]
    loss = builder(*tensors)
    loss.backward()
    analytic = [t.grad.copy() for t in tensors]
    worst = 0.0
    for tensor, x0, a in zip(tensors, inputs, analytic):
        x = x0.astype(np.float64, copy=True)

        def f(tensor=tensor, x=x):
            saved = tensor.data
            tensor.data = x
            value = float(builder(*tensors).data)
            tensor.data = saved
            return value
        numeric = _central_differences(f, x.reshape(-1), range(x.size), FD_STEP)
        worst = max(worst, max_relative_error(a, numeric.reshape(x.shape)))
    return worst


def _projector(shape, rng):
    return Tensor(rng.standard_normal(shape), dtype=np.float64)


def _away_from_zero(x):
    return x + 0.25 * np.sign(x)


def op_gradient_checks(seed=0):
    """Run the per-op finite-difference suite.

    Returns an ordered dict of op name -> max relative error. Input shapes are
    small; values are nudged away from relu/maxpool kinks so the central
    difference never straddles a non-differentiable point.
    """
    rng = np.random.default_rng(seed)
    results = {}

    def run(name, builder, *inputs):
        results[name] = check_gradient(builder, [np.asarray(x, dtype=np.float64) for x in inputs])

    x34 = rng.standard_normal((3, 4))
    y34 = rng.standard_normal((3, 4))
    p34 = _projector((3, 4), rng)
    run("add", lambda a, b: ad.tensor_sum(ad.mul(ad.add(a, b), p34)), x34, y34)
    run("mul", lambda a, b: ad.tensor_sum(ad.mul(ad.mul(a, b), p34)), x34, y34)
    run("relu", lambda a: ad.tensor_sum(ad.mul(ad.relu(a), p34)), _away_from_zero(x34))
    run("sigmoid", lambda a: ad.tensor_sum(ad.mul(ad.sigmoid(a), p34)), x34)
    run("tanh", lambda a: ad.tensor_sum(ad.mul(ad.tanh(a), p34)), x34)
    run("softmax", lambda a: ad.tensor_sum(ad.mul(ad.softmax(a), p34)), x34)

    p31, p4 = _projector((3, 1), rng), _projector((4,), rng)
    p26, p43, p22 = _projector((2, 6), rng), _projector((4, 3), rng), _projector((2, 2), rng)
    run("sum", lambda a: ad.tensor_sum(ad.mul(ad.tensor_sum(a, axis=1, keepdims=True), p31)), x34)
    run("mean", lambda a: ad.tensor_sum(ad.mul(ad.tensor_mean(a, axis=0), p4)), x34)
    run("reshape", lambda a: ad.tensor_sum(ad.mul(ad.reshape(a, (2, 6)), p26)), x34)
    run("transpose", lambda a: ad.tensor_sum(ad.mul(ad.transpose(a, (1, 0)), p43)), x34)
    run("slice", lambda a: ad.tensor_sum(ad.mul(ad.tensor_slice(a, np.s_[1:, :2]), p22)), x34)
    p38 = _projector((3, 8), rng)
    run("concat", lambda a, b: ad.tensor_sum(ad.mul(ad.concat([a, b], axis=1), p38)), x34, y34)

    pm = _projector((3, 5), rng)
    run("matmul", lambda a, b: ad.tensor_sum(ad.mul(ad.matmul(a, b), pm)),
        rng.standard_normal((3, 4)), rng.standard_normal((4, 5)))
    run("dense", lambda a, w, b: ad.tensor_sum(ad.mul(ad.dense(a, w, b), pm)),
        rng.standard_normal((3, 4)), rng.standard_normal((4, 5)), rng.standard_normal(5))

    pc = _projector((2, 5, 6, 3), rng)
    for name, kernel_size in (("conv2d", (3, 3)), ("conv2d_even_kernel", (2, 4))):
        run(name, lambda x, k: ad.tensor_sum(ad.mul(ad.conv2d(x, k), pc)),
            rng.standard_normal((2, 5, 6, 2)), rng.standard_normal(kernel_size + (2, 3)) * 0.5)

    pp = _projector((2, 2, 3, 2), rng)
    run("maxpool2d", lambda x: ad.tensor_sum(ad.mul(ad.maxpool2d(x, (2, 2)), pp)),
        3.0 * rng.standard_normal((2, 4, 6, 2)))
    pa = _projector((2, 1, 5, 3), rng)
    run("mean_over_freq",
        lambda x: ad.tensor_sum(ad.mul(ad.tensor_mean(x, axis=1, keepdims=True), pa)),
        rng.standard_normal((2, 4, 5, 3)))

    pb = _projector((6, 3, 4), rng)
    def bn_builder(x, gamma, beta):
        state = BatchNormState(gamma=gamma, beta=beta,
                               running_mean=np.zeros(4), running_var=np.ones(4))
        return ad.tensor_sum(ad.mul(ad.batchnorm(x, state, "train"), pb))
    run("batchnorm", bn_builder,
        rng.standard_normal((6, 3, 4)), 1.0 + 0.1 * rng.standard_normal(4),
        0.1 * rng.standard_normal(4))

    pk = _projector((2, 2, 2, 3), rng)
    def block_builder(x, k, gamma, beta):
        state = BatchNormState(gamma=gamma, beta=beta,
                               running_mean=np.zeros(3), running_var=np.ones(3))
        return ad.tensor_sum(ad.mul(ad.conv_block(x, k, state, "train", (2, 3)), pk))
    run("conv_block", block_builder,
        rng.standard_normal((2, 5, 7, 2)), rng.standard_normal((3, 3, 2, 3)) * 0.5,
        np.array([1.2, -0.8, 0.9]), 0.5 + 0.1 * rng.standard_normal(3))

    pd = _projector((4, 5), rng)
    def dropout_builder(x):
        return ad.tensor_sum(ad.mul(ad.dropout(x, 0.4, "train", np.random.default_rng(7)), pd))
    run("dropout", dropout_builder, rng.standard_normal((4, 5)))

    hidden, din, t_len = 6, 5, 4
    pg = _projector((2, t_len, 2 * hidden), rng)
    def gru_builder(x, fwx, fwh, fwb, bwx, bwh, bwb):
        params = BiGRUParams(fw=GRUDirParams(fwx, fwh, fwb), bw=GRUDirParams(bwx, bwh, bwb))
        return ad.tensor_sum(ad.mul(ad.gru_bidirectional(x, params), pg))
    run("gru_bidirectional", gru_builder,
        rng.standard_normal((2, t_len, din)),
        0.3 * rng.standard_normal((din, 3 * hidden)), 0.3 * rng.standard_normal((hidden, 3 * hidden)),
        0.1 * rng.standard_normal(3 * hidden),
        0.3 * rng.standard_normal((din, 3 * hidden)), 0.3 * rng.standard_normal((hidden, 3 * hidden)),
        0.1 * rng.standard_normal(3 * hidden))

    targets = np.full((3, 4), 0.25)
    def ce_builder(logits):
        return ad.cross_entropy(ad.softmax(logits), Tensor(targets, dtype=np.float64))
    run("cross_entropy", ce_builder, rng.standard_normal((3, 4)))

    return results


MODEL_FD_STEP = 1e-5


def model_gradient_checks(seed=0, samples_per_tensor=6):
    """Finite-difference check of the full network at reduced width.

    Uses the 2-class configuration (conv widths /8, GRU hidden 16, 32x32x2
    input) in float64 with dropout disabled. For each named parameter a seeded
    subset of entries is perturbed; every tensor is covered. Returns a dict of
    parameter name -> relative error (scaled by that tensor's gradient
    magnitude over the sampled entries).

    The step, ``MODEL_FD_STEP``, is smaller than the per-op 1e-4: perturbing
    an early conv weight moves every downstream batch-normalized activation,
    and a wider step lets some of them cross relu/maxpool kinks, which
    corrupts the central difference without indicating a wrong analytic
    gradient.
    """
    from . import model as acrnn

    config = acrnn.ACRNNConfig(
        num_classes=2, attention_placement="l10",
        conv_channels=(4, 4, 8, 8, 16, 16, 32, 32), gru_hidden=16,
        dropout_p=0.0, input_bands=32, input_frames=32)
    params = acrnn.build(config, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    x = Tensor(rng.standard_normal((2, 32, 32, 2)), dtype=np.float64)
    targets = Tensor(np.array([[1.0, 0.0], [0.25, 0.75]]), dtype=np.float64)

    def loss_value():
        probs = acrnn.forward(params, x, mode="train")
        return ad.cross_entropy(probs, targets)

    loss_value().backward()

    results = {}
    for name, tensor in params.tensors.items():
        flat = tensor.data.reshape(-1)
        picks = rng.choice(flat.size, size=min(samples_per_tensor, flat.size), replace=False)
        num = _central_differences(lambda: float(loss_value().data), flat, picks, MODEL_FD_STEP)
        results[name] = max_relative_error(tensor.grad.reshape(-1)[picks], num)
    return results
