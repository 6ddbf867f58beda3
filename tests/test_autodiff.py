import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import record_handed_grads, tiny_model_config
from esckit import autodiff as ad
from esckit import model as acrnn
from esckit import train as tr
from esckit.autodiff import (
    BatchNormState, BiGRUParams, GRUDirParams, GraphError, ShapeError, Tensor,
)
from esckit.data import one_hot
from esckit.fdcheck import OP_TOLERANCE, op_gradient_checks
from esckit.model import CONV_KERNELS, POOLS


def t(data, **kw):
    return Tensor(np.asarray(data, dtype=np.float32), **kw)


class TestConv2d:
    def test_identity_kernel(self):
        out = ad.conv2d(t([[[[5.0]]]]), t([[[[1.0]]]]))
        assert out.data.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == pytest.approx(5.0)

    def test_zero_input_stays_zero(self):
        rng = np.random.default_rng(0)
        kernel = t(rng.standard_normal((3, 3, 1, 4)))
        out = ad.conv2d(t(np.zeros((1, 4, 4, 1))), kernel)
        assert np.all(out.data == 0.0)

    def test_hand_summed_even_kernel(self):
        # 3x3 input 1..9, 2x2 all-ones kernel: the one pad row and column go
        # after the input, so out[i, j] sums the window from (i, j) down-right
        x = t(np.arange(1.0, 10.0).reshape(1, 3, 3, 1))
        k = t(np.ones((2, 2, 1, 1)))
        out = ad.conv2d(x, k)
        assert np.array_equal(out.data[0, :, :, 0],
                              [[12.0, 16.0, 9.0], [24.0, 28.0, 15.0], [15.0, 17.0, 9.0]])

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ad.conv2d(t(np.zeros((1, 4, 4, 2))), t(np.zeros((3, 3, 1, 4))))

    def test_unbatched_input_raises(self):
        with pytest.raises(ShapeError):
            ad.conv2d(t(np.zeros((4, 4, 1))), t(np.zeros((3, 3, 1, 1))))

    def test_linear_in_input_without_bias(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 5, 6, 2)).astype(np.float32)
        k = t(rng.standard_normal((3, 3, 2, 3)))
        one = ad.conv2d(t(x), k).data
        scaled = ad.conv2d(t(3.0 * x), k).data
        assert np.allclose(scaled, 3.0 * one, rtol=1e-5, atol=1e-5)

    def test_backward_keeps_only_the_padded_input(self):
        # The conv1 shape at batch 4: 128x128, 2 -> 2 channels, (3, 5) kernel.
        x = t(np.ones((4, 128, 128, 2)), requires_grad=True)
        k = t(np.ones((3, 5, 2, 2)), requires_grad=True)
        out = ad.conv2d(x, k)
        roots = {}
        for cell in out._backward.__closure__:
            arr = cell.cell_contents
            if isinstance(arr, np.ndarray):
                while isinstance(arr.base, np.ndarray):
                    arr = arr.base
                roots[id(arr)] = arr.nbytes
        padded = 4 * 130 * 132 * 2 * 4
        # A kept output grid, im2col buffer or band-expanded input would add
        # at least another padded input's bytes.
        assert padded <= sum(roots.values()) <= padded + 16 * 1024

    def test_batched_matches_per_example(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 5, 6, 2)).astype(np.float32)
        k = t(rng.standard_normal((3, 3, 2, 4)))
        batched = ad.conv2d(t(x), k).data
        for i in range(3):
            single = ad.conv2d(t(x[i:i + 1]), k).data
            assert np.allclose(batched[i], single[0], atol=1e-6)


def conv2d_reference(x, k, proj):
    """Direct per-position loop on the input padded by (k-1)//2 before and the
    rest after: out[n, i, j] = sum over taps (a, c) of xp[n, i + a, j + c]
    @ k[a, c], with the gradients of sum(out * proj)."""
    n, f, t, _ = x.shape
    kf, kt, _, _ = k.shape
    pf0, pt0 = (kf - 1) // 2, (kt - 1) // 2
    xp = np.pad(x, ((0, 0), (pf0, kf - 1 - pf0), (pt0, kt - 1 - pt0), (0, 0)))
    out = np.zeros((n, f, t, k.shape[3]), dtype=x.dtype)
    gxp, gk = np.zeros_like(xp), np.zeros_like(k)
    for q in range(n):
        for i in range(f):
            for j in range(t):
                patch = xp[q, i:i + kf, j:j + kt, :]
                out[q, i, j] = np.einsum("abc,abco->o", patch, k)
                gk += patch[:, :, :, None] * proj[q, i, j]
                gxp[q, i:i + kf, j:j + kt, :] += k @ proj[q, i, j]
    gx = gxp[:, pf0:pf0 + f, pt0:pt0 + t, :]
    return out, gx, gk


# Super-row width S = ceil(16 / max(cin, cout)) and band count nb = ceil((S + kt - 1) / S):
# (2, 2) with kt = 5 is the conv1 shape (S = 8, 2 bands), (8, 8) gives S = 2 and
# 3 bands at kt = 5, (16, 16) gives S = 1 (one GEMM per tap). The padded grids
# hold row counts such as 9 * 13 = 117 that are no multiple of S.
# A batch of one is what `cnn_attention_weights` gets from a single clip.
@pytest.mark.parametrize("cin, cout", [(3, 4), (2, 2), (2, 3), (8, 8), (16, 16)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("kernel_size", [
    (3, 5), (3, 1), (1, 5), (3, 3),
    (2, 4), (3, 2), (2, 3),  # even axes: one more pad row/column after than before
])
def test_conv2d_matches_per_position_reference(kernel_size, batch, dtype, cin, cout):
    rng = np.random.default_rng(20)
    x = rng.standard_normal((2, 7, 9, cin)).astype(dtype)[:batch]
    k = rng.standard_normal(kernel_size + (cin, cout)).astype(dtype)
    xt, kt = (Tensor(a, requires_grad=True) for a in (x, k))
    out = ad.conv2d(xt, kt)
    proj = rng.standard_normal(out.shape).astype(dtype)
    ad.tensor_sum(ad.mul(out, Tensor(proj))).backward()
    ref_out, ref_gx, ref_gk = conv2d_reference(x, k, proj)
    tol = dict(rtol=1e-4, atol=1e-4) if dtype == np.float32 else dict(rtol=1e-10, atol=1e-10)
    assert out.dtype == dtype and xt.grad.dtype == dtype and kt.grad.dtype == dtype
    assert np.allclose(out.data, ref_out, **tol)
    assert np.allclose(xt.grad, ref_gx, **tol)
    assert np.allclose(kt.grad, ref_gk, **tol)


# Under "same" padding a kernel may reach past every edge of the map.
@pytest.mark.parametrize("map_size, kernel_size", [
    ((2, 2), (3, 3)), ((1, 3), (3, 5)), ((2, 3), (4, 4)),
])
def test_conv2d_kernel_larger_than_map_matches_reference(map_size, kernel_size):
    rng = np.random.default_rng(21)
    x = rng.standard_normal((2,) + map_size + (2,))
    k = rng.standard_normal(kernel_size + (2, 3))
    xt, kt = (Tensor(a, requires_grad=True) for a in (x, k))
    out = ad.conv2d(xt, kt)
    proj = rng.standard_normal(out.shape)
    ad.tensor_sum(ad.mul(out, Tensor(proj))).backward()
    ref_out, ref_gx, ref_gk = conv2d_reference(x, k, proj)
    assert out.shape == x.shape[:3] + (3,)
    for got, want in ((out.data, ref_out), (xt.grad, ref_gx), (kt.grad, ref_gk)):
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10)


class TestMaxpool2d:
    def test_hand_blocks(self):
        x = t(np.arange(1.0, 17.0).reshape(1, 4, 4, 1))
        out = ad.maxpool2d(x, (2, 2))
        assert np.array_equal(out.data[0, :, :, 0], [[6.0, 8.0], [14.0, 16.0]])

    def test_constant_input(self):
        out = ad.maxpool2d(t(np.full((1, 6, 6, 2), 3.5)), (2, 3))
        assert out.data.shape == (1, 3, 2, 2)
        assert np.all(out.data == 3.5)

    def test_floor_shape_128(self):
        out = ad.maxpool2d(t(np.zeros((1, 128, 128, 1))), (4, 3))
        assert out.data.shape == (1, 32, 42, 1)

    def test_window_too_large_raises(self):
        with pytest.raises(ShapeError):
            ad.maxpool2d(t(np.zeros((1, 3, 3, 1))), (4, 3))

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 9, 8, 3)).astype(np.float32)
        out = ad.maxpool2d(t(x), (3, 2)).data
        for q in range(2):
            for i in range(3):
                for j in range(4):
                    for c in range(3):
                        block = x[q, 3 * i:3 * i + 3, 2 * j:2 * j + 2, c]
                        assert out[q, i, j, c] == block.max()

    def test_gradient_routes_to_argmax_only(self):
        x = t([[[[1.0], [2.0]], [[4.0], [3.0]]]], requires_grad=True)
        out = ad.maxpool2d(x, (2, 2))
        ad.tensor_sum(out).backward()
        assert np.array_equal(x.grad[0, :, :, 0], [[0.0, 0.0], [1.0, 0.0]])


class TestMeanOverFreq:
    """`tensor_mean(axis=1, keepdims=True)` on (N, F, T, C) maps, the
    frequency pooling the CNN attention applies to its scores."""

    @staticmethod
    def pool(x):
        return ad.tensor_mean(x, axis=1, keepdims=True)

    def test_single_band_identity(self):
        x = np.random.default_rng(4).standard_normal((2, 1, 5, 2)).astype(np.float32)
        assert np.array_equal(self.pool(t(x)).data, x)

    def test_column_mean(self):
        x = t(np.array([2.0, 4.0, 6.0]).reshape(1, 3, 1, 1))
        assert self.pool(x).data[0, 0, 0, 0] == pytest.approx(4.0)

    def test_constant(self):
        out = self.pool(t(np.full((2, 4, 3, 2), 1.25)))
        assert out.data.shape == (2, 1, 3, 2)
        assert np.all(out.data == 1.25)


class TestDense:
    def test_identity_weight(self):
        x = np.random.default_rng(5).standard_normal((3, 4)).astype(np.float32)
        out = ad.dense(t(x), t(np.eye(4)), t(np.zeros(4)))
        assert np.allclose(out.data, x, atol=1e-7)

    def test_hand_dot(self):
        out = ad.dense(t([[1.0, 2.0]]), t([[1.0], [1.0]]), t([0.5]))
        assert out.data[0, 0] == pytest.approx(3.5)

    def test_zero_input_gives_bias(self):
        b = np.array([0.5, -1.0, 2.0], dtype=np.float32)
        out = ad.dense(t(np.zeros((4, 2))), t(np.zeros((2, 3))), t(b))
        assert np.allclose(out.data, np.tile(b, (4, 1)))

    def test_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ad.dense(t(np.zeros((2, 3))), t(np.zeros((4, 5))), t(np.zeros(5)))

    def test_linear_in_input(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        w, b = t(rng.standard_normal((4, 5))), t(np.zeros(5))
        assert np.allclose(ad.dense(t(2.0 * x), w, b).data, 2.0 * ad.dense(t(x), w, b).data,
                           rtol=1e-5, atol=1e-6)


class TestSoftmax:
    def test_uniform_logits(self):
        out = ad.softmax(t([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-7)

    def test_shift_invariance(self):
        base = ad.softmax(t([0.0, 0.5, 1.0])).data
        for c in (-100.0, -1.0, 7.0, 250.0):
            shifted = ad.softmax(t([c, c + 0.5, c + 1.0])).data
            assert np.allclose(shifted, base, atol=1e-6)

    def test_known_values(self):
        out = ad.softmax(t([1.0, 2.0, 3.0]))
        assert np.allclose(out.data, [0.09003057, 0.24472847, 0.66524096], atol=1e-5)

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(7)
        x = 10.0 * rng.standard_normal((50, 6)).astype(np.float32)
        out = ad.softmax(t(x)).data
        assert np.all(out > 0.0)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)


class TestGRU:
    def _zero_params(self, din, h):
        def direction():
            return GRUDirParams(t(np.zeros((din, 3 * h))), t(np.zeros((h, 3 * h))),
                                t(np.zeros(3 * h)))
        return BiGRUParams(fw=direction(), bw=direction())

    def test_zero_parameters_give_zero_output(self):
        rng = np.random.default_rng(8)
        x = t(rng.standard_normal((2, 5, 3)))
        out = ad.gru_bidirectional(x, self._zero_params(3, 4))
        assert out.data.shape == (2, 5, 8)
        assert np.all(out.data == 0.0)

    def test_single_step_directions_agree(self):
        rng = np.random.default_rng(9)
        din, h = 3, 4
        shared = GRUDirParams(t(rng.standard_normal((din, 3 * h))),
                              t(rng.standard_normal((h, 3 * h))),
                              t(rng.standard_normal(3 * h)))
        params = BiGRUParams(fw=shared, bw=shared)
        out = ad.gru_bidirectional(t(rng.standard_normal((2, 1, din))), params)
        assert np.allclose(out.data[:, 0, :h], out.data[:, 0, h:], atol=1e-7)

    def test_output_shape_contract(self):
        rng = np.random.default_rng(10)
        din, h = 5, 6
        params = BiGRUParams(
            fw=GRUDirParams(t(0.1 * rng.standard_normal((din, 3 * h))),
                            t(0.1 * rng.standard_normal((h, 3 * h))), t(np.zeros(3 * h))),
            bw=GRUDirParams(t(0.1 * rng.standard_normal((din, 3 * h))),
                            t(0.1 * rng.standard_normal((h, 3 * h))), t(np.zeros(3 * h))))
        assert ad.gru_bidirectional(t(rng.standard_normal((2, 7, din))), params).data.shape == (2, 7, 12)

    def test_mismatched_parameter_shapes_raise(self):
        params = self._zero_params(3, 4)
        with pytest.raises(ShapeError):
            ad.gru_bidirectional(t(np.zeros((1, 5, 7))), params)

    def test_unbatched_input_raises(self):
        with pytest.raises(ShapeError):
            ad.gru_bidirectional(t(np.zeros((5, 3))), self._zero_params(3, 4))


def _per_step_gru(x, params):
    """The bidirectional GRU composed of per-step add/matmul/sigmoid/tanh nodes,
    as the engine built it before each direction became one node."""
    def cols(a, lo, hi=None):
        return ad.tensor_slice(a, np.s_[:, lo:hi])

    def direction(steps, p):
        h = p.hidden
        state = Tensor(np.zeros((steps[0].shape[0], h), dtype=steps[0].dtype))
        outputs = []
        for x_t in steps:
            gx = ad.add(ad.matmul(x_t, p.w_x), p.b)
            gh = ad.matmul(state, cols(p.w_h, 0, 2 * h))
            z = ad.sigmoid(ad.add(cols(gx, 0, h), cols(gh, 0, h)))
            r = ad.sigmoid(ad.add(cols(gx, h, 2 * h), cols(gh, h)))
            cand = ad.tanh(ad.add(cols(gx, 2 * h),
                                  ad.matmul(ad.mul(r, state), cols(p.w_h, 2 * h))))
            state = ad.add(ad.mul(ad.add(1.0, ad.mul(z, -1.0)), state), ad.mul(z, cand))
            outputs.append(state)
        return outputs

    n, t_len, _ = x.shape
    steps = [ad.tensor_slice(x, np.s_[:, t, :]) for t in range(t_len)]
    fw = direction(steps, params.fw)
    bw = direction(steps[::-1], params.bw)[::-1]
    return ad.concat([ad.reshape(ad.concat([f, b], axis=1), (n, 1, -1)) for f, b in zip(fw, bw)],
                     axis=1)


# Relative error allowed between the fused GRU and the per-step reference: the
# arithmetic is the same, but the backward sums over steps in another order.
GRU_TOLERANCE = {np.float32: 1e-5, np.float64: 1e-12}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(3, 6, 5), (1, 6, 5)])
@pytest.mark.parametrize("frozen", [(), ("x", "fw.b", "bw.w_h")])
def test_fused_gru_matches_per_step_reference(dtype, shape, frozen):
    rng = np.random.default_rng(21)
    din, h = shape[-1], 4
    x = Tensor(rng.standard_normal(shape), dtype=dtype, requires_grad="x" not in frozen)
    weights = {}
    for side in ("fw", "bw"):
        for name, wshape, scale in (("w_x", (din, 3 * h), 0.5), ("w_h", (h, 3 * h), 0.5),
                                    ("b", (3 * h,), 0.1)):
            key = f"{side}.{name}"
            weights[key] = Tensor(scale * rng.standard_normal(wshape), dtype=dtype,
                                  requires_grad=key not in frozen)
    params = BiGRUParams(*(GRUDirParams(*(weights[f"{side}.{n}"] for n in ("w_x", "w_h", "b")))
                           for side in ("fw", "bw")))
    leaves = {"x": x, **weights}
    projector = Tensor(rng.standard_normal(shape[:-1] + (2 * h,)), dtype=dtype)

    results = []
    for gru in (ad.gru_bidirectional, _per_step_gru):
        for leaf in leaves.values():
            leaf.grad = None
        out = gru(x, params)
        ad.tensor_sum(ad.mul(out, projector)).backward()
        results.append((out.data, {k: v.grad for k, v in leaves.items()}))
    (fused, fused_grads), (ref, ref_grads) = results

    tol = GRU_TOLERANCE[dtype]
    assert fused.dtype == dtype and fused.shape == ref.shape == shape[:-1] + (2 * h,)
    assert np.abs(fused - ref).max() <= tol * np.abs(ref).max()
    for name in leaves:
        if name in frozen:
            assert fused_grads[name] is None and ref_grads[name] is None, name
            continue
        got, want = fused_grads[name], ref_grads[name]
        assert got.dtype == dtype, name
        assert np.abs(got - want).max() <= tol * np.abs(want).max(), name


def test_each_gru_direction_is_one_graph_node():
    rng = np.random.default_rng(22)
    din, h = 5, 3
    def direction():
        return GRUDirParams(t(rng.standard_normal((din, 3 * h)), requires_grad=True),
                            t(rng.standard_normal((h, 3 * h)), requires_grad=True),
                            t(rng.standard_normal(3 * h), requires_grad=True))
    out = ad.gru_bidirectional(t(rng.standard_normal((2, 9, din)), requires_grad=True),
                               BiGRUParams(fw=direction(), bw=direction()))
    assert [n._op for n in out._topo_order() if n._prev] == ["gru", "gru", "concat"]


class TestBatchnorm:
    def test_train_mode_standardizes(self):
        rng = np.random.default_rng(11)
        x = t(2.0 + 3.0 * rng.standard_normal((200, 4)))
        state = BatchNormState.create(4)
        out = ad.batchnorm(x, state, "train").data
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-4)
        assert np.allclose(out.var(axis=0), 1.0, atol=1e-3)

    def test_gamma_zero_gives_beta(self):
        state = BatchNormState.create(3)
        state.gamma.data[:] = 0.0
        state.beta.data[:] = np.array([1.0, -2.0, 0.5], dtype=np.float32)
        out = ad.batchnorm(t(np.random.default_rng(12).standard_normal((10, 3))), state, "train")
        assert np.allclose(out.data, np.tile(state.beta.data, (10, 1)), atol=1e-6)

    def test_constant_channel_maps_to_zero(self):
        state = BatchNormState.create(1)
        out = ad.batchnorm(t(np.full((4, 1), 5.0)), state, "train")
        assert np.allclose(out.data, 0.0, atol=1e-5)

    def test_infer_before_any_update_uses_unit_stats(self):
        state = BatchNormState.create(2)
        x = np.random.default_rng(13).standard_normal((6, 2)).astype(np.float32)
        out = ad.batchnorm(t(x), state, "infer").data
        assert np.allclose(out, x / np.sqrt(1.0 + ad.BN_EPSILON), atol=1e-6)

    def test_running_stats_move_toward_batch_stats(self):
        state = BatchNormState.create(1)
        x = t(np.array([[4.0], [6.0], [2.0], [8.0]]))
        ad.batchnorm(x, state, "train")
        assert state.running_mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 5.0)
        assert state.running_var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 5.0)

    def test_train_statistics_are_accurate_at_full_input_size(self):
        # 2M rows per channel: one float32 running sum per channel drifts by ~1e-3
        rng = np.random.default_rng(19)
        x = (5.0 + 3.0 * rng.standard_normal((64, 128, 128, 2))).astype(np.float32)
        state = BatchNormState.create(2)
        out = ad.batchnorm(t(x), state, "train").data
        x64 = x.astype(np.float64)
        mean, var = x64.mean(axis=(0, 1, 2)), x64.var(axis=(0, 1, 2))
        ref = (x64 - mean) / np.sqrt(var + ad.BN_EPSILON)
        assert np.abs(out - ref).max() < 1e-4
        assert np.allclose(state.running_mean, 0.1 * mean, rtol=1e-5)
        assert np.allclose(state.running_var, 0.9 + 0.1 * var, rtol=1e-5)

    @pytest.mark.parametrize("shape", [(50, 3), (6, 7, 3), (4, 5, 6, 3)])
    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_matches_float64_reference(self, shape, mode):
        rng = np.random.default_rng(20)
        x = (2.0 + 3.0 * rng.standard_normal(shape)).astype(np.float32)
        state = BatchNormState.create(3)
        state.gamma.data = np.array([0.5, 1.5, -1.0], dtype=np.float32)
        state.beta.data = np.array([0.1, -0.2, 0.3], dtype=np.float32)
        state.running_mean = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        state.running_var = np.array([4.0, 9.0, 0.25], dtype=np.float32)
        x64 = x.astype(np.float64).reshape(-1, 3)
        if mode == "train":
            mean, var = x64.mean(axis=0), x64.var(axis=0)
        else:
            mean, var = state.running_mean.astype(np.float64), state.running_var.astype(np.float64)
        ref = (x64 - mean) / np.sqrt(var + ad.BN_EPSILON) * state.gamma.data + state.beta.data
        out = ad.batchnorm(t(x), state, mode).data
        assert out.shape == shape and out.dtype == np.float32
        assert np.allclose(out.reshape(-1, 3), ref, rtol=1e-5, atol=1e-5)


def _conv_block_run(fused, arrays, stats, mode, window):
    """Output, the x/kernel/gamma/beta gradients of a fixed projection (None
    in infer mode, which is forward-only), and the running statistics, of
    conv_block or of its reference chain."""
    x, k, gamma, beta = (Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays)
    state = BatchNormState(gamma=gamma, beta=beta, running_mean=stats[0].copy(),
                           running_var=stats[1].copy())
    if fused:
        out = ad.conv_block(x, k, state, mode, window)
    else:
        out = ad.relu(ad.batchnorm(ad.conv2d(x, k), state, mode))
        out = ad.maxpool2d(out, window) if window else out
    proj = np.random.default_rng(5).standard_normal(out.shape)
    ad.tensor_sum(ad.mul(out, Tensor(proj))).backward()
    return [out.data, x.grad, k.grad, gamma.grad, beta.grad,
            state.running_mean, state.running_var]


@pytest.mark.parametrize("kernel_size", [(3, 5), (2, 4)])
@pytest.mark.parametrize("mode", ["train", "infer"])
@pytest.mark.parametrize("window", sorted(POOLS.values()) + [None])
def test_conv_block_matches_reference_chain(window, mode, kernel_size):
    rng = np.random.default_rng(21)
    arrays = (rng.standard_normal((3, 9, 11, 2)), 0.5 * rng.standard_normal(kernel_size + (2, 3)),
              np.array([1.2, -0.7, 0.4]), rng.standard_normal(3))
    stats = 0.2 * rng.standard_normal(3), 0.5 + rng.uniform(size=3)
    fused = _conv_block_run(True, arrays, stats, mode, window)
    ref = _conv_block_run(False, arrays, stats, mode, window)
    names = ("out", "x", "kernel", "gamma", "beta", "running_mean", "running_var")
    for name, got, want in zip(names, fused, ref):
        if mode == "infer" and name in ("x", "kernel", "gamma", "beta"):
            assert got is None and want is None, name
            continue
        assert got.shape == want.shape and got.dtype == np.float64, name
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


def test_conv_block_breaks_window_ties_like_maxpool2d():
    # A constant (silent) region makes every position of some windows equal;
    # the pooled gradient must land on the first of them in row-major window
    # order. Tied cells share x_hat, so all but the routed one get the same
    # batch-norm gradient. The ragged top edge puts the first tie of the
    # window at rows 0-3, columns 3-5 at (1, 5), where a column-first order
    # would pick (2, 3).
    rng = np.random.default_rng(22)
    x = rng.uniform(0.0, 0.5, size=(2, 12, 12, 1))
    x[:, 2:7, 3:9] = 0.5
    x[:, 1, 5:9] = 0.5
    arrays = (x, np.ones((1, 1, 1, 1)), np.ones(1), np.zeros(1))
    stats = np.zeros(1), np.ones(1)
    fused = _conv_block_run(True, arrays, stats, "train", (4, 3))[1]
    ref = _conv_block_run(False, arrays, stats, "train", (4, 3))[1]
    assert np.abs(fused - ref).max() <= 1e-12 * np.abs(ref).max()

    def windows(a):
        return a.reshape(2, 3, 4, 4, 3).transpose(0, 1, 3, 2, 4).reshape(2, 3, 4, 12)

    xw, gw = windows(x), windows(fused)
    ties = 0
    for n, i, j in np.ndindex(xw.shape[:3]):
        g = gw[n, i, j][xw[n, i, j] == xw[n, i, j].max()]
        if len(g) > 1:
            ties += 1
            assert g[0] != g[1] and np.all(g[1:] == g[1]), (n, i, j)
    assert ties == 8
    assert fused[0, 1, 5, 0] != fused[0, 2, 3, 0] == fused[0, 2, 4, 0] == fused[0, 3, 3, 0]


def test_conv_block_is_one_node():
    rng = np.random.default_rng(23)
    x = t(rng.standard_normal((2, 8, 6, 2)), requires_grad=True)
    kernel = t(rng.standard_normal((3, 5, 2, 2)), requires_grad=True)
    out = ad.conv_block(x, kernel, BatchNormState.create(2), "train", (4, 3))
    assert out.shape == (2, 2, 2, 2) and out.dtype == np.float32
    assert [n._op for n in out._topo_order() if n._prev] == ["conv_block"]
    with pytest.raises(ShapeError):
        ad.conv_block(x, kernel, BatchNormState.create(3), "train", None)
    with pytest.raises(ShapeError):
        ad.conv_block(x, kernel, BatchNormState.create(2), "train", (9, 3))


@pytest.mark.parametrize("window", [(4, 3), None])
def test_infer_mode_conv_block_keeps_nothing(monkeypatch, window):
    # Infer mode is forward-only: with every input requiring grad, the padded
    # input rows and output grid still die when the call returns.
    kept = []
    for method in ("pad", "grid"):
        def spy(self, *args, real=getattr(ad._ConvLayout, method)):
            out = real(self, *args)
            kept.append(weakref.ref(out if out.base is None else out.base))
            return out
        monkeypatch.setattr(ad._ConvLayout, method, spy)
    rng = np.random.default_rng(28)
    state = BatchNormState.create(3)
    out = ad.conv_block(t(rng.standard_normal((2, 8, 6, 2)), requires_grad=True),
                        t(rng.standard_normal((3, 5, 2, 3)), requires_grad=True),
                        state, "infer", window)
    assert not out.requires_grad and len(kept) == 2
    assert [ref() for ref in kept] == [None, None]


@pytest.mark.parametrize("mode", ["train", "infer"])
@pytest.mark.parametrize("block", range(1, 9))
def test_pad_lanes_never_leak(monkeypatch, block, mode):
    # The block's elementwise passes run on whole grid rows, whose lanes past
    # the "same" output block hold the correlation at padded columns. With
    # every grid cell outside that block set to a sentinel after the forward
    # correlation, no output, gradient or running-statistic bit may change.
    channels = (2,) + tiny_model_config().conv_channels
    cin, cout = channels[block - 1], channels[block]
    rng = np.random.default_rng(29)
    arrays = [a.astype(np.float32) for a in (
        rng.standard_normal((3, 9, 11, cin)),
        0.5 * rng.standard_normal(CONV_KERNELS[block - 1] + (cin, cout)),
        1.0 + 0.5 * rng.standard_normal(cout), rng.standard_normal(cout))]
    proj = rng.standard_normal((3, 9, 11, cout))
    filled = []

    def fill_pads(self, rows, w, out=None, real=ad._ConvLayout.grid):
        grid = real(self, rows, w, out)
        _, f, t, _ = self.x_shape
        grid[:, f:] = 1e3
        grid[:, :f, t:] = 1e3
        filled.append(grid.shape)
        return grid

    def run(sentinel):
        x, k, gamma, beta = (Tensor(a, requires_grad=True) for a in arrays)
        state = BatchNormState(gamma=gamma, beta=beta, running_mean=np.full(cout, 0.1, np.float32),
                               running_var=np.full(cout, 0.9, np.float32))
        with monkeypatch.context() as patch:
            if sentinel:
                patch.setattr(ad._ConvLayout, "grid", fill_pads)
            out = ad.conv_block(x, k, state, mode, POOLS.get(block))
        y = out.data.copy()
        if mode == "train":
            p = Tensor(proj[:, :y.shape[1], :y.shape[2]].astype(np.float32))
            ad.tensor_sum(ad.mul(out, p)).backward()
        return [y, x.grad, k.grad, gamma.grad, beta.grad, state.running_mean, state.running_var]

    clean, dirty = run(False), run(True)
    assert len(filled) == 1
    grads = ("x", "kernel", "gamma", "beta")
    for name, want, got in zip(("out",) + grads + ("mean", "var"), clean, dirty):
        assert (got is None) == (want is None) == (mode == "infer" and name in grads)
        if want is not None:
            assert got.dtype == want.dtype == np.float32 and got.tobytes() == want.tobytes(), name


def _poisoned(make):
    """``make`` with every new array filled with NaN (or 85 when integral), so
    that a cell nobody writes shows in the results."""
    def poisoned(*args, **kwargs):
        arr = make(*args, **kwargs)
        arr.fill(np.nan if arr.dtype.kind in "fc" else 85)
        return arr
    return poisoned


def _train_step_arrays():
    """Probabilities, parameter gradients and updated parameters of one seeded
    tiny-config train step."""
    params = acrnn.build(tiny_model_config(), seed=7)
    rng = np.random.default_rng(25)
    xb = rng.standard_normal((4, 32, 32, 2)).astype(np.float32)
    probs = acrnn.forward(params, xb, mode="train", rng=np.random.default_rng(26))
    ad.cross_entropy(probs, Tensor(one_hot([0, 1, 1, 0], 2))).backward()
    grads = [p.grad.copy() for p in params.tensors.values()]
    tr.sgd_nesterov_step(params, tr.OptimizerState.create(params), 0.01)
    return [probs.data] + grads + [p.data for p in params.tensors.values()]


def _conv_runs():
    """Outputs and gradients of conv_block in train mode, its outputs in
    infer mode, with and without a window, and the outputs and gradients of
    conv2d and of one tiny-config train step."""
    rng = np.random.default_rng(24)
    arrays = (rng.standard_normal((3, 9, 11, 2)), 0.5 * rng.standard_normal((3, 5, 2, 3)),
              np.array([1.2, -0.7, 0.4]), rng.standard_normal(3))
    stats = 0.2 * rng.standard_normal(3), 0.5 + rng.uniform(size=3)
    runs = [[a for a in _conv_block_run(True, arrays, stats, mode, window) if a is not None]
            for mode in ("train", "infer") for window in ((2, 2), None)]
    x, k = (Tensor(a, requires_grad=True) for a in arrays[:2])
    out = ad.conv2d(x, k)
    ad.tensor_sum(ad.mul(out, Tensor(rng.standard_normal(out.shape)))).backward()
    return runs + [[out.data, x.grad, k.grad], _train_step_arrays()]


def test_every_fresh_buffer_is_written_in_full(monkeypatch):
    # The padded conv input and gradient rows zero only their borders; with
    # every np.empty/np.empty_like poisoned, a missed cell would turn to NaN.
    clean = _conv_runs()
    monkeypatch.setattr(np, "empty", _poisoned(np.empty))
    monkeypatch.setattr(np, "empty_like", _poisoned(np.empty_like))
    assert np.isnan(np.empty(2)).all()
    for want, got in zip(clean, _conv_runs(), strict=True):
        for a, b in zip(want, got, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_grad_never_aliases_the_array_first_accumulated(monkeypatch):
    firsts = []
    accumulate = Tensor._accumulate

    def spy(self, g):
        if self.grad is None:
            firsts.append((self, g))
        accumulate(self, g)

    monkeypatch.setattr(Tensor, "_accumulate", spy)
    handed = record_handed_grads(monkeypatch)
    _train_step_arrays()
    grad_of = {id(node): g for node, g in handed}
    writable = [(node, g) for node, g in firsts
                if isinstance(g, np.ndarray) and g.flags.writeable]
    assert len(writable) > 10
    for node, g in writable:
        grad = grad_of[id(node)]
        before, kept = grad.copy(), g.copy()
        g[...] = 7.0
        assert grad.tobytes() == before.tobytes(), node
        g[...] = kept


@pytest.mark.parametrize("placement", ["none", "l4"])
def test_no_grad_shares_memory_with_another_grad_or_any_data(placement, monkeypatch):
    # Conv input gradients are views of the padded input rows, taken as grad
    # without a copy (at l4 the attention's conv2d takes one too).
    params = acrnn.build(tiny_model_config(attention_placement=placement), seed=9)
    xb = np.random.default_rng(28).standard_normal((3, 32, 32, 2)).astype(np.float32)
    probs = acrnn.forward(params, xb, mode="train", rng=np.random.default_rng(29))
    loss = ad.cross_entropy(probs, Tensor(one_hot([0, 1, 1], 2)))
    handed = record_handed_grads(monkeypatch)
    loss.backward()
    nodes = loss._topo_order()
    grads = [g for _, g in handed]
    assert len(grads) > len(params.tensors)
    for i, g in enumerate(grads):
        assert not any(np.shares_memory(g, h) for h in grads[i + 1:])
        assert not any(np.shares_memory(g, node.data) for node in nodes)


def test_backward_frees_every_interior_grad_and_keeps_every_parameter_grad():
    params = acrnn.build(tiny_model_config(), seed=11)
    xb = np.random.default_rng(32).standard_normal((3, 32, 32, 2)).astype(np.float32)
    probs = acrnn.forward(params, xb, mode="train", rng=np.random.default_rng(33))
    loss = ad.cross_entropy(probs, Tensor(one_hot([0, 1, 1], 2)))
    loss.backward()
    nodes = loss._topo_order()
    assert len([n for n in nodes if n._prev]) > 10
    assert [n._op for n in nodes if n._prev and n.grad is not None] == []
    assert all(p.grad is not None for p in params.tensors.values())


def test_backward_peak_stays_under_the_forward_peak():
    # cv_desk widths at 128x128: backward writes its gradient rows over the
    # x_hat grid and its input gradients over the padded inputs, and frees
    # each node's saved arrays once the node has run.
    params = acrnn.build(tiny_model_config(input_bands=128, input_frames=128), seed=10)
    xb = np.random.default_rng(30).standard_normal((8, 128, 128, 2)).astype(np.float32)
    targets = Tensor(one_hot([0, 1] * 4, 2))
    tracemalloc.start()
    try:
        probs = acrnn.forward(params, xb, mode="train", rng=np.random.default_rng(31))
        loss = ad.cross_entropy(probs, targets)
        start, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        loss.backward()
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert backward_peak - start < 1 << 20
    assert backward_peak <= forward_peak


def test_graphs_built_together_give_the_one_at_a_time_gradients():
    params = acrnn.build(tiny_model_config(dropout_p=0.0), seed=8)
    rng = np.random.default_rng(27)
    batches = [rng.standard_normal((3, 32, 32, 2)).astype(np.float32) for _ in range(2)]
    targets = Tensor(one_hot([0, 1, 0], 2))

    def loss(xb):
        return ad.cross_entropy(acrnn.forward(params, xb, mode="train"), targets)

    def gradients(graph):
        for p in params.tensors.values():
            p.grad = None
        graph.backward()
        return [p.grad.copy() for p in params.tensors.values()]

    alone = [gradients(loss(xb)) for xb in batches]
    together = [gradients(graph) for graph in [loss(xb) for xb in batches]]
    for want, got in zip(alone, together):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(want, got, strict=True))


class TestActivationsAndDropout:
    def test_relu_values(self):
        out = ad.relu(t([-3.0, 3.0]))
        assert np.array_equal(out.data, [0.0, 3.0])

    def test_dropout_p_zero_is_identity(self):
        x = t(np.random.default_rng(14).standard_normal(20))
        for mode in ("train", "infer"):
            out = ad.dropout(x, 0.0, mode, np.random.default_rng(0))
            assert np.array_equal(out.data, x.data)

    def test_dropout_infer_is_identity(self):
        x = t(np.random.default_rng(15).standard_normal(20))
        out = ad.dropout(x, 0.7, "infer")
        assert np.array_equal(out.data, x.data)

    def test_dropout_train_expectation(self):
        # survivors scaled by 1/(1-p): mean over many trials stays near input
        rng = np.random.default_rng(16)
        x = t(np.full(10_000, 2.0))
        out = ad.dropout(x, 0.5, "train", rng)
        assert abs(out.data.mean() - 2.0) / 2.0 < 0.02

    def test_dropout_bad_probability(self):
        with pytest.raises(GraphError):
            ad.dropout(t([1.0]), 1.0, "train", np.random.default_rng(0))


class TestCrossEntropy:
    def test_perfect_prediction(self):
        probs = t([[0.0, 1.0, 0.0]])
        targets = t([[0.0, 1.0, 0.0]])
        assert ad.cross_entropy(probs, targets).item() == pytest.approx(0.0, abs=1e-7)

    def test_uniform_prediction(self):
        probs = t([[0.25, 0.25, 0.25, 0.25]])
        targets = t([[0.0, 0.0, 1.0, 0.0]])
        assert ad.cross_entropy(probs, targets).item() == pytest.approx(np.log(4.0), rel=1e-5)

    def test_mixup_soft_labels(self):
        loss = ad.cross_entropy(t([[0.5, 0.5]]), t([[0.5, 0.5]]))
        assert loss.item() == pytest.approx(np.log(2.0), rel=1e-5)

    def test_zero_probability_is_clamped(self):
        loss = ad.cross_entropy(t([[1.0, 0.0]]), t([[0.0, 1.0]]))
        assert loss.item() == pytest.approx(-np.log(1e-7), rel=1e-4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_is_zero_where_clamped_and_minus_t_over_np_elsewhere(self, dtype):
        # Mixup (soft) labels, with a prob below the floor under a nonzero target.
        p = np.array([[0.7, 0.3, 0.0], [0.2, 1e-9, 0.8], [0.25, 0.25, 0.5], [0.1, 0.6, 0.3]])
        targets = np.array([[0.6, 0.0, 0.4], [0.0, 0.8, 0.2], [0.5, 0.5, 0.0], [0.3, 0.3, 0.4]])
        probs = Tensor(p, requires_grad=True, dtype=dtype)
        loss = ad.cross_entropy(probs, Tensor(targets, dtype=dtype))
        loss.backward()
        assert np.isfinite(loss.item())
        assert probs.grad.dtype == dtype
        clamped = p <= ad.CE_PROB_FLOOR
        assert np.all(probs.grad[clamped] == 0.0)
        kept = p.astype(dtype)[~clamped].astype(np.float64)
        want = -targets[~clamped] / (len(p) * kept)
        assert np.allclose(probs.grad[~clamped], want,
                           rtol=1e-6 if dtype == np.float32 else 1e-14, atol=0.0)

    def test_is_one_node(self):
        probs = ad.softmax(t(np.random.default_rng(24).standard_normal((3, 4)), requires_grad=True))
        loss = ad.cross_entropy(probs, t(np.full((3, 4), 0.25), requires_grad=True))
        assert loss.shape == () and loss.dtype == np.float32
        assert [n._op for n in loss._topo_order() if n._prev] == ["softmax", "cross_entropy"]
        assert loss._prev == (probs,)
        with pytest.raises(ShapeError):
            ad.cross_entropy(probs, t(np.full((3, 3), 1 / 3)))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = t(np.random.default_rng(17).standard_normal((3, 4)), requires_grad=True)
        ad.tensor_sum(x).backward()
        assert np.array_equal(x.grad, np.ones((3, 4), dtype=np.float32))

    def test_sum_of_squares_gradient(self):
        x = t(np.random.default_rng(18).standard_normal(6), requires_grad=True)
        ad.tensor_sum(ad.mul(x, x)).backward()
        assert np.allclose(x.grad, 2.0 * x.data, atol=1e-6)

    def test_leaf_gradients_accumulate_across_graphs(self):
        x = t([1.0, 2.0], requires_grad=True)
        for _ in range(2):
            ad.tensor_sum(ad.mul(x, x)).backward()
        assert np.allclose(x.grad, 4.0 * x.data, atol=1e-6)

    def test_second_backward_through_one_graph_raises(self):
        x = t([1.0, 2.0], requires_grad=True)
        square = ad.mul(x, x)
        loss = ad.tensor_sum(square)
        loss.backward()
        with pytest.raises(GraphError):
            loss.backward()
        with pytest.raises(GraphError):  # a new root over the walked nodes
            ad.tensor_sum(ad.add(square, x)).backward()
        assert np.allclose(x.grad, 2.0 * x.data, atol=1e-6)

    def test_non_scalar_backward_raises(self):
        x = t([1.0, 2.0], requires_grad=True)
        with pytest.raises(GraphError):
            ad.mul(x, x).backward()

    def test_each_node_visited_exactly_once(self):
        # diamond: y = (a*b) used twice; every closure must fire exactly once
        a = t([2.0], requires_grad=True)
        b = t([3.0], requires_grad=True)
        shared = ad.mul(a, b)
        loss = ad.tensor_sum(ad.add(ad.mul(shared, shared), shared))
        order = loss._topo_order()
        assert len({id(n) for n in order}) == len(order)
        counts = {}
        for node in order:
            if node._backward is not None:
                counts[id(node)] = 0
                node._backward = (lambda f, key: lambda g: (counts.__setitem__(key, counts[key] + 1),
                                                            f(g)))(node._backward, id(node))
        loss.backward()
        assert all(c == 1 for c in counts.values())
        # d/da [ (ab)^2 + ab ] = 2ab*b + b = 39
        assert a.grad[0] == pytest.approx(39.0)


def test_python_scalars_keep_the_tensor_dtype():
    assert Tensor(1.0).dtype == np.float32
    for dtype in (np.float32, np.float64):
        x = Tensor(np.array([0.5, -2.0], dtype=dtype), requires_grad=True)
        for out in (ad.add(x, -1.0), ad.mul(x, -1.0), ad.add(1.0, ad.mul(x, -1.0)),
                    ad.mul(x, 2), ad.add(3, x), ad.add(x, Tensor(1.0))):
            assert out.dtype == dtype, (dtype, out._op)
        ad.tensor_sum(ad.add(1.0, ad.mul(x, -1.0))).backward()
        assert x.grad.dtype == dtype


def test_all_op_gradients_match_finite_differences():
    results = op_gradient_checks(seed=0)
    bad = {name: err for name, err in results.items() if err > OP_TOLERANCE}
    assert not bad, f"ops exceeding {OP_TOLERANCE}: {bad}"
