import warnings

import numpy as np
import pytest

from esckit import autodiff as ad
from esckit import cachefile as cf
from esckit import model as acrnn
from esckit.autodiff import ShapeError, Tensor
from esckit.data import one_hot
from esckit.fdcheck import MODEL_TOLERANCE, model_gradient_checks, op_gradient_checks

PAPER_TRACE = [
    ("l2-pool", (32, 42, 32)),
    ("l4-pool", (8, 42, 64)),
    ("l6-pool", (8, 14, 128)),
    ("l8-pool", (4, 7, 256)),
    ("gru-input", (7, 1024)),
    ("gru-output", (7, 512)),
    ("head", (512,)),
]


def tiny_config(**kw):
    defaults = dict(num_classes=3, conv_channels=(2, 2, 3, 3, 4, 4, 5, 5), gru_hidden=4,
                    dropout_p=0.5, input_bands=32, input_frames=32)
    defaults.update(kw)
    return acrnn.ACRNNConfig(**defaults)


class TestBuild:
    def test_parameter_count_frozen_for_paper_config(self):
        # regression value enumerated once from the layer shape table
        params = acrnn.build(acrnn.ACRNNConfig(num_classes=50), seed=0)
        assert params.parameter_count() == 4_350_322
        again = acrnn.build(acrnn.ACRNNConfig(num_classes=50), seed=99)
        assert again.parameter_count() == 4_350_322

    def test_same_seed_bitwise_identical(self):
        a = acrnn.build(tiny_config(), seed=7)
        b = acrnn.build(tiny_config(), seed=7)
        for name in a.tensors:
            assert a.tensors[name].data.tobytes() == b.tensors[name].data.tobytes(), name

    def test_gamma_starts_at_one_biases_at_zero(self):
        params = acrnn.build(tiny_config(), seed=0)
        for i in range(1, 9):
            assert np.all(params.tensors[f"bn{i}.gamma"].data == 1.0)
            assert np.all(params.tensors[f"bn{i}.beta"].data == 0.0)

    def test_invalid_placement_rejected(self):
        with pytest.raises(ValueError):
            acrnn.ACRNNConfig(attention_placement="l3")

    @pytest.mark.parametrize("name, value", [
        ("num_classes", 0),
        ("gru_hidden", 0),
        ("gru_hidden", -1),
        ("conv_channels", (0, 2, 3, 3, 4, 4, 5, 5)),
        ("conv_channels", (2, 2, 3, 3, 4, 4, 5, -5)),
        ("conv_channels", (2.5, 2, 3, 3, 4, 4, 5, 5)),
        ("conv_channels", (10.0, 2, 3, 3, 4, 4, 5, 5)),
    ])
    def test_width_that_cannot_run_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            tiny_config(**{name: value})

    def test_numpy_integer_widths_accepted(self):
        channels = tuple(np.array([2, 2, 3, 3, 4, 4, 5, 5]))
        assert isinstance(channels[0], np.integer)
        params = acrnn.build(tiny_config(conv_channels=channels), seed=0)
        assert params.tensors["conv8.kernel"].shape[-1] == 5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("form", ["mlp", "linear"])
    @pytest.mark.parametrize("placement", acrnn.PLACEMENTS)
    def test_weights_are_one_seeded_stream_and_the_rest_starts_fixed(self, placement, form,
                                                                     dtype):
        config = tiny_config(attention_placement=placement, rnn_attention_form=form)
        params = acrnn.build(config, seed=11, dtype=dtype)
        fixed = [name for name in params.tensors
                 if name.endswith((".b", ".b1", ".bias", ".gamma", ".beta"))]
        assert sorted(params.weight_names) == sorted(set(params.tensors) - set(fixed))
        rng = np.random.default_rng(11)
        for name in params.weight_names:
            data = params.tensors[name].data
            want = rng.normal(0.0, acrnn.INIT_STD, data.shape).astype(dtype)
            assert data.dtype == dtype and data.tobytes() == want.tobytes(), name
        for name in fixed:
            start = 1.0 if name.endswith(".gamma") else 0.0
            assert np.all(params.tensors[name].data == start), name
        for state in params.bn.values():
            assert np.all(state.running_mean == 0.0) and np.all(state.running_var == 1.0)

    def test_input_accepted_exactly_when_every_pool_window_fits(self):
        # bands pool by 4, 4, 1, 2 and frames by 3, 1, 3, 2: 32 x 18 is the smallest input
        sizes = [(bands, 32) for bands in range(40)] + [(32, frames) for frames in range(24)]
        for bands, frames in sizes:
            if bands < 32 or frames < 18:
                with pytest.raises(ValueError, match="input_bands" if bands < 32
                                   else "input_frames"):
                    tiny_config(input_bands=bands, input_frames=frames)
                continue
            params = acrnn.build(tiny_config(input_bands=bands, input_frames=frames), seed=0)
            probs = acrnn.forward(params, np.ones((1, bands, frames, 2), np.float32)).data
            assert probs.shape == (1, 3), (bands, frames)


class TestForward:
    def test_rows_sum_to_one(self):
        params = acrnn.build(tiny_config(), seed=1)
        x = np.random.default_rng(0).standard_normal((4, 32, 32, 2)).astype(np.float32)
        probs = acrnn.forward(params, x).data
        assert probs.shape == (4, 3)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-5)

    def test_shape_trace_matches_derived_table(self):
        params = acrnn.build(acrnn.ACRNNConfig(num_classes=50), seed=0)
        assert acrnn.shape_trace(params) == PAPER_TRACE

    def test_infer_mode_is_deterministic(self):
        params = acrnn.build(tiny_config(), seed=2)
        x = np.random.default_rng(1).standard_normal((2, 32, 32, 2)).astype(np.float32)
        a = acrnn.forward(params, x, mode="infer").data
        b = acrnn.forward(params, x, mode="infer").data
        assert np.array_equal(a, b)

    def test_infer_mode_graph_has_no_conv_block(self):
        x = np.random.default_rng(4).standard_normal((2, 32, 32, 2)).astype(np.float32)
        for placement in acrnn.PLACEMENTS:
            params = acrnn.build(tiny_config(attention_placement=placement), seed=0)
            ops = {n._op for n in acrnn.forward(params, x, mode="infer")._topo_order()}
            assert "gru" in ops and "conv_block" not in ops, placement

    def test_wrong_input_shape_raises(self):
        params = acrnn.build(tiny_config(), seed=0)
        with pytest.raises(ShapeError):
            acrnn.forward(params, np.zeros((2, 32, 30, 2), np.float32))

    def test_every_placement_runs(self):
        x = np.random.default_rng(2).standard_normal((2, 32, 32, 2)).astype(np.float32)
        for placement in acrnn.PLACEMENTS:
            params = acrnn.build(tiny_config(attention_placement=placement), seed=3)
            probs = acrnn.forward(params, x).data
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-5), placement

    def test_saturated_gates_raise_no_warning(self):
        # Weights x5 drive float32 gate pre-activations below -88, where exp
        # overflows to inf and the gate is the right 0.
        x = np.random.default_rng(2).standard_normal((2, 32, 32, 2)).astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for placement in acrnn.PLACEMENTS:
                params = acrnn.build(tiny_config(attention_placement=placement), seed=3)
                for t in params.tensors.values():
                    t.data *= 5
                probs = acrnn.forward(params, x).data
                assert np.all(np.isfinite(probs)), placement
            y = ad.sigmoid(Tensor(np.array([-100.0, 0.0], dtype=np.float32))).data
        assert y.tolist() == [0.0, 0.5]


class TestCnnAttention:
    def _setup(self, rng):
        m = Tensor(rng.standard_normal((2, 5, 6, 3)).astype(np.float32))
        kernel = Tensor(0.3 * rng.standard_normal((3, 3, 3, 1)).astype(np.float32))
        return m, kernel

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m, kernel = self._setup(rng)
            a = acrnn.cnn_attention_weights(m, kernel).data
            assert a.shape == (2, 1, 6, 1)
            assert np.all(np.abs(a.sum(axis=(1, 2, 3)) - 1.0) <= 1e-6)

    def test_zero_kernel_gives_uniform_map(self):
        rng = np.random.default_rng(4)
        m = Tensor(rng.standard_normal((1, 4, 8, 2)).astype(np.float32))
        kernel = Tensor(np.zeros((3, 3, 2, 1), np.float32))
        out = acrnn.cnn_attention(m, kernel).data
        assert np.allclose(out, m.data / 8.0, atol=1e-6)

    def test_output_shape_equals_input(self):
        rng = np.random.default_rng(5)
        m, kernel = self._setup(rng)
        assert acrnn.cnn_attention(m, kernel).shape == m.shape


class TestRnnAttention:
    def _params(self, form="mlp", hidden=2, seed=6):
        cfg = tiny_config(gru_hidden=hidden, rnn_attention_form=form)
        return acrnn.build(cfg, seed=seed)

    def test_single_step_returns_that_step(self):
        params = self._params()
        h = np.random.default_rng(7).standard_normal((1, 4)).astype(np.float32)
        v = acrnn.rnn_attention(Tensor(h), params).data
        assert np.array_equal(v, h[0])

    def test_identical_steps_return_that_vector(self):
        params = self._params()
        row = np.random.default_rng(8).standard_normal(4).astype(np.float32)
        h = np.tile(row, (5, 1))
        v = acrnn.rnn_attention(Tensor(h), params).data
        assert np.allclose(v, row, atol=1e-6)

    def test_two_step_weights_match_direct_evaluation(self):
        params = self._params()
        w1 = params.tensors["att.w1"].data
        b1 = params.tensors["att.b1"].data
        ctx = params.tensors["att.ctx"].data
        h = np.array([[0.5, -1.0, 2.0, 0.25], [1.5, 0.0, -0.5, 1.0]], dtype=np.float32)
        scores = np.tanh(h @ w1 + b1) @ ctx
        e = np.exp(scores - scores.max())
        beta_direct = e / e.sum()
        v_direct = beta_direct @ h
        beta = acrnn.rnn_attention_weights(Tensor(h), params).data
        v = acrnn.rnn_attention(Tensor(h), params).data
        assert np.allclose(beta, beta_direct, atol=1e-6)
        assert np.allclose(v, v_direct, atol=1e-6)

    def test_weights_sum_to_one_both_forms(self):
        rng = np.random.default_rng(9)
        for form in ("mlp", "linear"):
            params = self._params(form=form)
            h = Tensor(rng.standard_normal((2, 7, 4)).astype(np.float32))
            beta = acrnn.rnn_attention_weights(h, params).data
            assert beta.shape == (2, 7)
            assert np.allclose(beta.sum(axis=1), 1.0, atol=1e-6)

    def test_pooling_is_permutation_invariant_over_steps(self):
        # v = sum_t beta_t h_t with beta_t a function of h_t alone, so jointly
        # permuting the steps permutes the summands and leaves v unchanged
        params = self._params(seed=11)
        rng = np.random.default_rng(10)
        h = rng.standard_normal((6, 4)).astype(np.float32)
        v = acrnn.rnn_attention(Tensor(h), params).data
        v_shuffled = acrnn.rnn_attention(Tensor(h[rng.permutation(6)]), params).data
        assert np.allclose(v, v_shuffled, atol=1e-5)

    def test_gru_input_order_changes_output_within_convex_hull(self):
        from esckit.autodiff import BiGRUParams, GRUDirParams, gru_bidirectional

        params = self._params(seed=11)
        rng = np.random.default_rng(10)
        hidden, din, t_len = 2, 3, 6
        def direction():
            return GRUDirParams(Tensor(rng.standard_normal((din, 3 * hidden)), dtype=np.float32),
                                Tensor(rng.standard_normal((hidden, 3 * hidden)), dtype=np.float32),
                                Tensor(rng.standard_normal(3 * hidden), dtype=np.float32))
        gru = BiGRUParams(fw=direction(), bw=direction())
        x = rng.standard_normal((1, t_len, din)).astype(np.float32)
        h = gru_bidirectional(Tensor(x), gru).data[0]
        h_shuffled = gru_bidirectional(Tensor(x[:, rng.permutation(t_len)]), gru).data[0]
        v = acrnn.rnn_attention(Tensor(h), params).data
        v_shuffled = acrnn.rnn_attention(Tensor(h_shuffled), params).data
        # the recurrence is order-sensitive, so the pooled vector moves...
        assert not np.allclose(v, v_shuffled, atol=1e-4)
        # ...but always stays inside the coordinate-wise hull of its own steps
        for vec, steps in ((v, h), (v_shuffled, h_shuffled)):
            assert np.all(vec >= steps.min(axis=0) - 1e-6)
            assert np.all(vec <= steps.max(axis=0) + 1e-6)


# Graph node ops whose finite-difference row has another name.
FD_ROW_OF_OP = {"gru": "gru_bidirectional"}
# Finite-difference rows that check an op under another name or in another
# form.
OP_OF_FD_ROW = {"dense": "matmul", "gru_bidirectional": "gru", "conv2d_even_kernel": "conv2d",
                "mean_over_freq": "mean"}
# Ops that no train step builds, kept as the references of fused ones.
REFERENCE_OPS = {"relu", "sigmoid", "maxpool2d", "batchnorm"}


def test_every_op_of_a_train_step_has_a_finite_difference_row():
    rows = set(op_gradient_checks())
    built = set()
    x = np.random.default_rng(0).standard_normal((2, 32, 32, 2)).astype(np.float32)
    for placement in acrnn.PLACEMENTS:
        params = acrnn.build(tiny_config(attention_placement=placement), seed=0)
        probs = acrnn.forward(params, x, mode="train", rng=np.random.default_rng(1))
        loss = ad.cross_entropy(probs, Tensor(one_hot([0, 2], 3)))
        ops = {n._op for n in loss._topo_order() if n._prev}
        assert "conv_block" in ops and "gru" in ops, placement
        missing = {op for op in ops if FD_ROW_OF_OP.get(op, op) not in rows}
        assert not missing, (placement, missing)
        built |= ops
    # The converse: every row checks an op that some train step builds, or a
    # reference, so that no op outlives its last caller.
    unmapped = {row for row in rows if OP_OF_FD_ROW.get(row, row) not in built | REFERENCE_OPS}
    assert not unmapped, unmapped


def test_every_parameter_gets_a_gradient():
    # At 128x128 the GRUs run 7 steps (at 32x32 only one, where every w_h
    # reads the zero initial state). Without attention or with a CNN one the
    # head reads the last GRU step only, where gru2's backward direction has
    # consumed one frame from the zero state, so its w_h gets no gradient.
    x = np.random.default_rng(0).standard_normal((2, 128, 128, 2)).astype(np.float32)
    for placement in acrnn.PLACEMENTS:
        params = acrnn.build(tiny_config(attention_placement=placement, dropout_p=0.0,
                                         input_bands=128, input_frames=128), seed=0)
        probs = acrnn.forward(params, x, mode="train")
        ad.cross_entropy(probs, Tensor(one_hot([0, 2], 3))).backward()
        inert = [name for name, t in params.tensors.items() if not np.any(t.grad)]
        assert inert == ([] if placement == "l10" else ["gru2.bw.w_h"]), placement


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        params = acrnn.build(tiny_config(), seed=14)
        # make running stats non-trivial before saving
        x = np.random.default_rng(3).standard_normal((2, 32, 32, 2)).astype(np.float32)
        acrnn.forward(params, x, mode="train", rng=np.random.default_rng(0))
        path = tmp_path / "ckpt_test"
        cf.save_checkpoint(path, acrnn.state_arrays(params))
        arrays = cf.read_checkpoint(path)
        state = acrnn.state_arrays(params)
        assert list(arrays) == list(state)
        for name in state:
            assert arrays[name].tobytes() == state[name].astype("<f4").tobytes(), name
        other = acrnn.build(tiny_config(), seed=999)
        acrnn.load_state(other, arrays)
        for name, tensor in params.tensors.items():
            assert np.array_equal(other.tensors[name].data, tensor.data), name

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(cf.CheckpointFormatError, match="magic"):
            cf.read_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        params = acrnn.build(tiny_config(), seed=0)
        path = tmp_path / "ckpt"
        cf.save_checkpoint(path, acrnn.state_arrays(params))
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(cf.CheckpointFormatError, match="version"):
            cf.read_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        params = acrnn.build(tiny_config(), seed=0)
        path = tmp_path / "ckpt"
        cf.save_checkpoint(path, acrnn.state_arrays(params))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(cf.CheckpointFormatError, match="truncated"):
            cf.read_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        params = acrnn.build(tiny_config(), seed=0)
        path = tmp_path / "ckpt"
        cf.save_checkpoint(path, acrnn.state_arrays(params))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(cf.CheckpointFormatError, match="trailing"):
            cf.read_checkpoint(path)

    def test_shape_mismatch_rejected(self):
        params = acrnn.build(tiny_config(), seed=0)
        state = acrnn.state_arrays(params)
        state["conv1.kernel"] = state["conv1.kernel"][:1]
        with pytest.raises(cf.CheckpointFormatError, match="shape"):
            acrnn.load_state(params, state)

    def test_checkpoint_with_conv_biases_rejected(self):
        params = acrnn.build(tiny_config(), seed=0)
        state = acrnn.state_arrays(params)
        state["conv1.bias"] = np.zeros(2, np.float32)
        with pytest.raises(cf.CheckpointFormatError, match="unexpected.*conv1.bias"):
            acrnn.load_state(params, state)

    def test_state_name_mismatch_rejected(self):
        a = acrnn.build(tiny_config(), seed=0)
        b = acrnn.build(tiny_config(attention_placement="l2"), seed=0)
        with pytest.raises(cf.CheckpointFormatError):
            acrnn.load_state(a, acrnn.state_arrays(b))


def test_full_model_gradients_match_finite_differences():
    results = model_gradient_checks(seed=0, samples_per_tensor=4)
    bad = {k: v for k, v in results.items() if v > MODEL_TOLERANCE}
    assert not bad, f"parameters exceeding {MODEL_TOLERANCE}: {bad}"
