import ctypes
import glob
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from conftest import make_segment_dataset, record_handed_grads, tiny_model_config
from esckit import autodiff as ad
from esckit import model as acrnn
from esckit import train as tr
from esckit.augment import AugmentConfig, mix_batch, mixup_arrays
from esckit.autodiff import Tensor
from esckit.cachefile import write_cache
from esckit.data import one_hot
from esckit.features import LogGTSegment


def quick_config(**kw):
    defaults = dict(batch_size=64, epochs=2, seed=0,
                    augmentation=AugmentConfig(copies_per_clip=0, mixup_enabled=False))
    defaults.update(kw)
    return tr.TrainConfig(**defaults)


class TestLrSchedule:
    def test_paper_values(self):
        config = tr.TrainConfig()
        assert tr.lr_schedule(0, config) == pytest.approx(0.01)
        assert tr.lr_schedule(150, config) == pytest.approx(0.001)
        assert tr.lr_schedule(299, config) == pytest.approx(0.0001)

    def test_boundaries(self):
        config = tr.TrainConfig()
        assert tr.lr_schedule(99, config) == pytest.approx(0.01)
        assert tr.lr_schedule(100, config) == pytest.approx(0.001)
        with pytest.raises(ValueError):
            tr.lr_schedule(300, config)
        with pytest.raises(ValueError):
            tr.lr_schedule(-1, config)


class TestSgdNesterovStep:
    def _one_param(self, value, grad):
        params = acrnn.build(tiny_model_config(), seed=0)
        for name, tensor in params.tensors.items():
            tensor.data[:] = 0.0
            tensor.grad = np.zeros_like(tensor.data)
        w = params.tensors["fc.weight"]
        w.data.flat[0] = value
        w.grad.flat[0] = grad
        return params, w

    def test_zero_gradient_zero_velocity_is_noop(self):
        # fc.bias is exempt from weight decay, so nothing moves it
        params, _ = self._one_param(1.0, 0.0)
        params.tensors["fc.bias"].data[:] = 1.0
        state = tr.OptimizerState.create(params)
        tr.sgd_nesterov_step(params, state, lr=0.01)
        assert np.all(params.tensors["fc.bias"].data == 1.0)

    def test_weight_decay_hand_value(self):
        # w=1, g=0, lr=0.01: g' = 1e-4, v' = -1e-6, w' = 1 - 0.9e-6 - 1e-6 = 0.9999981
        params, w = self._one_param(1.0, 0.0)
        state = tr.OptimizerState.create(params)
        tr.sgd_nesterov_step(params, state, lr=0.01)
        assert w.data.flat[0] == pytest.approx(0.9999981, abs=1e-7)

    def test_first_step_from_rest_formula(self):
        # from v = 0: v' = -lr*g', w' = w - (1 + MOMENTUM)*lr*g'
        params, w = self._one_param(2.0, 0.5)
        state = tr.OptimizerState.create(params)
        tr.sgd_nesterov_step(params, state, lr=0.1)
        g = 0.5 + tr.L2_COEFF * 2.0
        assert w.data.flat[0] == pytest.approx(2.0 - (1 + tr.MOMENTUM) * 0.1 * g, abs=1e-6)

    def test_lookahead_applied_formula(self):
        # g' = g + L2_COEFF*w ; v' = MOMENTUM*v - lr*g' ; w' = w + MOMENTUM*v' - lr*g'
        params, w = self._one_param(1.0, 2.0)
        state = tr.OptimizerState.create(params)
        state.velocities["fc.weight"].flat[0] = 0.5
        tr.sgd_nesterov_step(params, state, lr=0.1)
        g = 2.0 + tr.L2_COEFF * 1.0
        v_new = tr.MOMENTUM * 0.5 - 0.1 * g
        assert state.velocities["fc.weight"].flat[0] == pytest.approx(v_new, abs=1e-6)
        assert w.data.flat[0] == pytest.approx(1.0 + tr.MOMENTUM * v_new - 0.1 * g, abs=1e-6)

    def test_weight_decay_skips_biases_and_batch_norm(self):
        params, w = self._one_param(1.0, 0.0)
        exempt = ("gru1.fw.b", "bn1.gamma", "bn1.beta", "fc.bias")
        for name in exempt:
            params.tensors[name].data[:] = 100.0
        state = tr.OptimizerState.create(params)
        tr.sgd_nesterov_step(params, state, lr=0.1)
        for name in exempt:
            assert np.all(params.tensors[name].data == 100.0)
        assert w.data.flat[0] == pytest.approx(1.0 - (1 + tr.MOMENTUM) * 0.1 * tr.L2_COEFF,
                                               abs=1e-7)

    def test_missing_gradient_raises(self):
        params = acrnn.build(tiny_model_config(), seed=0)
        state = tr.OptimizerState.create(params)
        with pytest.raises(ValueError):
            tr.sgd_nesterov_step(params, state, lr=0.01)

    def test_state_shape_mismatch_raises(self):
        params, _ = self._one_param(1.0, 0.0)
        state = tr.OptimizerState.create(params)
        state.velocities["fc.weight"] = np.zeros(3, dtype=np.float32)
        with pytest.raises(ValueError):
            tr.sgd_nesterov_step(params, state, lr=0.01)


class TestInitWeights:
    def test_gaussian_statistics(self):
        params = acrnn.build(acrnn.ACRNNConfig(num_classes=50), seed=123)
        w = params.tensors["gru1.fw.w_x"].data  # 1024 x 768 entries
        assert w.size >= 10_000
        assert abs(w.mean()) < 0.002
        assert 0.0475 <= w.std() <= 0.0525

    def test_biases_exactly_zero(self):
        params = acrnn.build(tiny_model_config(), seed=9)
        for name, tensor in params.tensors.items():
            if name.endswith(".bias") or name.endswith(".b") or name.endswith(".b1"):
                assert np.all(tensor.data == 0.0), name


def test_float32_train_step_has_no_float64_node_or_gradient(monkeypatch):
    params = acrnn.build(tiny_model_config(), seed=0)
    x = np.random.default_rng(0).standard_normal((4, 32, 32, 2)).astype(np.float32)
    probs = acrnn.forward(params, x, mode="train", rng=np.random.default_rng(1))
    loss = ad.cross_entropy(probs, Tensor(one_hot([0, 1, 1, 0], 2)))
    handed = record_handed_grads(monkeypatch)
    loss.backward()
    nodes = loss._topo_order()
    assert [n._op for n in nodes].count("conv_block") == 8
    assert [n._op for n in nodes if n.dtype != np.float32] == []
    assert len(handed) > len(params.tensors)
    assert [n._op for n, g in handed if g.dtype != np.float32] == []
    assert all(t.grad.dtype == np.float32 for t in params.tensors.values())


# SHA-256 of the parameter gradients of README's defined full-width step at
# one BLAS thread, on numpy 2.4.6 with its OpenBLAS 0.3.31 on a SkylakeX core.
DEFINED_STEP_SHA256 = "f13e899f53f8a352a235816b1fa02bacb3ffc1a91e2fccc32f65ce7de2712efa"

DEFINED_STEP = """
import hashlib
import numpy as np
from esckit import autodiff as ad, model as acrnn
from esckit.data import one_hot
params = acrnn.build(acrnn.ACRNNConfig(), seed=1)
x = np.random.default_rng(2).standard_normal((16, 128, 128, 2)).astype(np.float32)
y = one_hot(np.random.default_rng(3).integers(0, 50, 16), 50)
probs = acrnn.forward(params, x, mode="train", rng=np.random.default_rng(4))
ad.cross_entropy(probs, ad.Tensor(y)).backward()
digest = hashlib.sha256()
for tensor in params.tensors.values():
    digest.update(tensor.grad.tobytes())
print(digest.hexdigest())
"""


# SHA-256 of the parameter gradients, the batch-norm running statistics and
# an infer-mode forward of a desk-shaped step: the tiny model at 128x128 and
# batch 64, where the narrow convs run S=8 grid positions per super-row.
DESK_STEP_SHA256 = "6964992245b8fe6e7cb9e163315b898476bc4d8f6722206fa53d66abda72068f"

DESK_STEP = """
import hashlib
import numpy as np
from esckit import autodiff as ad, model as acrnn
from esckit.data import one_hot
cfg = acrnn.ACRNNConfig(num_classes=2, conv_channels=(2, 2, 3, 3, 4, 4, 5, 5), gru_hidden=4,
                        dropout_p=0.5, input_bands=128, input_frames=128)
params = acrnn.build(cfg, seed=1)
x = np.random.default_rng(2).standard_normal((64, 128, 128, 2)).astype(np.float32)
y = one_hot(np.random.default_rng(3).integers(0, 2, 64), 2)
probs = acrnn.forward(params, x, mode="train", rng=np.random.default_rng(4))
ad.cross_entropy(probs, ad.Tensor(y)).backward()
digest = hashlib.sha256()
for tensor in params.tensors.values():
    digest.update(tensor.grad.tobytes())
for state in params.bn.values():
    digest.update(state.running_mean.tobytes())
    digest.update(state.running_var.tobytes())
digest.update(acrnn.forward(params, x[:10], mode="infer").data.tobytes())
print(digest.hexdigest())
"""


def _openblas_core():
    """The core name numpy's bundled OpenBLAS picked at load, or None."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                       "*openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            return fn().decode()
    return None


def _on_the_hashed_build():
    if np.__version__ != "2.4.6":
        return False
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return str(blas.get("version", "")).startswith("0.3.31") and _openblas_core() == "SkylakeX"


def _step_digest(script):
    """What ``script`` prints, run in a child process at one BLAS thread."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(acrnn.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    return run.stdout.strip()


@pytest.mark.skipif(not _on_the_hashed_build(),
                    reason="the gradient hash holds for one numpy/OpenBLAS build and core")
def test_defined_full_width_step_keeps_its_gradient_bits():
    assert _step_digest(DEFINED_STEP) == DEFINED_STEP_SHA256


@pytest.mark.skipif(not _on_the_hashed_build(),
                    reason="the step hash holds for one numpy/OpenBLAS build and core")
def test_desk_step_keeps_its_bits():
    assert _step_digest(DESK_STEP) == DESK_STEP_SHA256


# Graph nodes of one tiny-config train step over a 7-step GRU sequence. Each
# GRU direction, each conv block (conv, batch-norm, ReLU, pool) and the loss
# is one node, so the count does not grow with the number of time steps;
# per-step GRU graphs built 691 here.
MAX_TRAIN_STEP_NODES = 32


def test_train_step_graph_stays_small():
    params = acrnn.build(tiny_model_config(input_frames=128), seed=0)
    x = np.random.default_rng(0).standard_normal((2, 32, 128, 2)).astype(np.float32)
    assert acrnn.shape_trace(params)[-3] == ("gru-input", (7, 5))
    probs = acrnn.forward(params, x, mode="train", rng=np.random.default_rng(1))
    loss = ad.cross_entropy(probs, Tensor(one_hot([0, 1], 2)))
    nodes = [n._op for n in loss._topo_order() if n._prev]
    assert len(nodes) <= MAX_TRAIN_STEP_NODES, sorted(set(nodes))


def test_mix_batch_draws_partners_from_the_unmixed_batch():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((8, 3, 2, 2)).astype(np.float32)
    y = one_hot(np.arange(8) % 3, 3)
    xb, yb = x.copy(), y.copy()
    mix_batch(xb, yb, 0.2, np.random.default_rng(5))
    replay = np.random.default_rng(5)  # same draw order: partners, then one lambda per row
    partners = replay.integers(0, 8, size=8)
    lams = replay.beta(0.2, 0.2, size=8)
    # the draw must pair some row with a row mixed before it, or the test shows nothing
    assert any(j < row and 0.0 < lams[j] < 1.0 for row, j in enumerate(partners))
    for row, (j, lam) in enumerate(zip(partners, lams)):
        lam32 = np.float32(lam)
        assert np.allclose(xb[row], lam32 * x[row] + (1 - lam32) * x[j], rtol=1e-6, atol=1e-6)
        assert np.allclose(yb[row], lam * y[row] + (1 - lam) * y[j], atol=1e-6)


def test_mix_batch_equals_the_per_row_mixup_bitwise():
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rng.standard_normal((16, 4, 3, 2)).astype(np.float32)
        y = one_hot(rng.integers(0, 5, size=16), 5)
        xb, yb = x.copy(), y.copy()
        seed = int(rng.integers(1 << 30))
        mix_batch(xb, yb, 0.2, np.random.default_rng(seed))
        replay = np.random.default_rng(seed)
        partners = replay.integers(0, 16, size=16)
        for row, (j, lam) in enumerate(zip(partners, replay.beta(0.2, 0.2, size=16))):
            want_x, want_y = mixup_arrays(x[row], y[row], x[j], y[j], float(lam))
            assert xb[row].tobytes() == want_x.tobytes() and yb[row].tobytes() == want_y.tobytes()
    with pytest.raises(ValueError):
        mix_batch(xb, yb, 0.0, np.random.default_rng(0))


class TestEpochBatches:
    def test_each_index_exactly_once(self):
        rng = np.random.default_rng(0)
        batches = tr.epoch_batches(321, 64, rng)
        assert len(batches) == 6
        assert sorted(np.concatenate(batches).tolist()) == list(range(321))
        assert [len(b) for b in batches] == [64, 64, 64, 64, 64, 1]

    def test_reshuffles_between_epochs(self):
        rng = np.random.default_rng(1)
        a = np.concatenate(tr.epoch_batches(50, 8, rng))
        b = np.concatenate(tr.epoch_batches(50, 8, rng))
        assert not np.array_equal(a, b)


class TestTrain:
    def test_steps_per_epoch_from_320_segments(self):
        # 200 clips x 2 segments over 5 folds: training on 4 folds = 320 segments
        dataset = make_segment_dataset(n_clips=200, segs_per_clip=2)
        result = tr.train(dataset, quick_config(epochs=1), tiny_model_config(), held_out_fold=5)
        assert result.steps_per_epoch == 5

    def test_same_seed_identical_history(self):
        dataset = make_segment_dataset(n_clips=20)
        a = tr.train(dataset, quick_config(), tiny_model_config(), held_out_fold=1)
        b = tr.train(dataset, quick_config(), tiny_model_config(), held_out_fold=1)
        assert a.history.column("train_loss") == b.history.column("train_loss")
        assert a.history.column("val_acc") == b.history.column("val_acc")

    def test_lr_column_matches_schedule(self):
        dataset = make_segment_dataset(n_clips=10)
        config = quick_config(epochs=4, lr_decay_every=2)
        result = tr.train(dataset, config, tiny_model_config(), held_out_fold=1)
        assert result.history.column("lr") == [tr.lr_schedule(e, config) for e in range(4)]

    def test_no_leakage_into_held_out_fold(self):
        dataset = make_segment_dataset(n_clips=20, augmented_copies=1)
        config = quick_config(epochs=1,
                              augmentation=AugmentConfig(copies_per_clip=1, mixup_enabled=True))
        result = tr.train(dataset, config, tiny_model_config(), held_out_fold=2)
        held = tr.split_fold(dataset, 2)[3]
        assert held == {f"clip{i:03d}" for i in range(1, 20, 5)}
        assert not (result.contributing_clip_ids & held)
        assert not (result.stats_clip_ids & held)

    def test_inconsistent_fold_tags_raise_leakage(self):
        dataset = make_segment_dataset(n_clips=10)
        # one clip straddles folds 1 and 2: training without fold 2 still sees it
        dataset.segments[0].fold = 2
        with pytest.raises(tr.LeakageError):
            tr.train(dataset, quick_config(epochs=1), tiny_model_config(), held_out_fold=2)

    def test_empty_training_set_raises(self):
        dataset = make_segment_dataset(n_clips=6, n_folds=1)
        with pytest.raises(ValueError):
            tr.train(dataset, quick_config(), tiny_model_config(), held_out_fold=1)

    def test_reproducible_checkpoints_bitwise(self, tmp_path):
        dataset = make_segment_dataset(n_clips=12)
        config = quick_config(epochs=2,
                              augmentation=AugmentConfig(copies_per_clip=0, mixup_enabled=True))
        a = tr.train(dataset, config, tiny_model_config(), held_out_fold=1,
                     out_dir=tmp_path / "a")
        b = tr.train(dataset, config, tiny_model_config(), held_out_fold=1,
                     out_dir=tmp_path / "b")
        for name in a.final_state:
            assert a.final_state[name].tobytes() == b.final_state[name].tobytes(), name
        assert (tmp_path / "a" / "ckpt_final").read_bytes() == \
               (tmp_path / "b" / "ckpt_final").read_bytes()
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["ckpt_final",
                                                                      "history.csv"]
        # every history column except physical wall-clock time matches
        strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
        assert strip((tmp_path / "a" / "history.csv").read_text()) == \
               strip((tmp_path / "b" / "history.csv").read_text())

    def test_previous_step_graph_is_dropped_before_the_next_forward(self, monkeypatch):
        # probs.data is referenced only by the step's graph, so it lives as
        # long as any of that graph does
        real_forward, previous, alive = acrnn.forward, [], []
        def forward(params, x, mode="infer", **kwargs):
            out = real_forward(params, x, mode=mode, **kwargs)
            if mode == "train":
                if previous:
                    alive.append(previous[-1]() is not None)
                previous.append(weakref.ref(out.data))
            return out
        monkeypatch.setattr(acrnn, "forward", forward)
        dataset = make_segment_dataset(n_clips=20)
        tr.train(dataset, quick_config(epochs=2, batch_size=8), tiny_model_config(),
                 held_out_fold=1)
        assert len(alive) >= 3 and not any(alive)

    def test_micro_overfit_fits_training_set(self):
        # trainability smoke at toy width; the full-scale probe lives in the
        # acceptance suite
        dataset = make_segment_dataset(n_clips=10, segs_per_clip=2, class_gap=3.0)
        config = quick_config(epochs=15, batch_size=16, lr0=0.3)
        model_config = tiny_model_config(dropout_p=0.0)
        result = tr.train(dataset, config, model_config, held_out_fold=5)
        losses = result.history.column("train_loss")
        assert losses[-1] < losses[0]
        assert max(result.history.column("train_acc")) == 1.0


# A cv_desk-shaped cross-validation run through ``esckit cv`` in a child
# process, so that its heap is its own: the tiny model at 128x128, batch 64,
# mixup and one augmented copy per clip, where each fold's 80 training
# segments make steps of 64 and 16. argv: "pinned" or "unpinned" (the
# allocator tuning made a no-op), the config path. Prints each train step's
# epoch and minor page faults as the last stdout line.
_CV_CHILD = """
import json, resource, sys
from esckit import cli, train as tr

if sys.argv[1] == "unpinned":
    tr._keep_freed_pages = lambda: None
step, faults = tr._train_step, []

def counted_step(*args):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out = step(*args)
    faults.append((args[-1][1], resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before))
    return out

tr._train_step = counted_step
code = cli.main(["cv", "--config", sys.argv[2]])
print(json.dumps(faults))
sys.exit(code)
"""

# Pinned, the 18 steps after the first epoch faulted about 580 pages in all,
# 32 a step, the most being one heap extension of 554; left to glibc's defaults
# the same steps faulted about 2 000 a step, as each step's freed buffers went
# back to the kernel and the next step faulted them in again (glibc 2.36,
# numpy 2.4.6).
MAX_FAULTS_PER_STEP = 100


@pytest.fixture(scope="module")
def cv_children(tmp_path_factory):
    """{"pinned"|"unpinned": (per-step (epoch, faults) pairs, out_dir)} of two
    concurrent ``_CV_CHILD`` runs over one synthetic separable cache."""
    work = tmp_path_factory.mktemp("cv_children")
    rng = np.random.default_rng(1)
    write_cache(work / "cv.lgt", [
        LogGTSegment(values=(3.0 * (i % 2) + rng.standard_normal((128, 128, 2))).astype(np.float32),
                     clip_id=f"clip{i:03d}.wav", segment_index=0, label=i % 2, fold=i % 5 + 1,
                     augmented=augmented)
        for i in range(50) for augmented in (False, True)])
    src = os.path.dirname(os.path.dirname(os.path.abspath(acrnn.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    children = {}
    for mode in ("pinned", "unpinned"):
        config = work / f"{mode}.cfg"
        config.write_text("\n".join([
            "run.seed = 1", f"run.out_dir = {work / mode}", f"data.cache = {work / 'cv.lgt'}",
            "train.epochs = 2", "train.batch_size = 64", "augment.copies_per_clip = 1",
            "augment.mixup_enabled = true", "model.num_classes = 2",
            "model.conv_channels = 2,2,3,3,4,4,5,5", "model.gru_hidden = 4"]) + "\n")
        children[mode] = subprocess.Popen([sys.executable, "-c", _CV_CHILD, mode, str(config)],
                                          env=env, stdout=subprocess.PIPE,
                                          stderr=subprocess.PIPE, text=True)
    results = {}
    try:
        for mode, child in children.items():
            out, err = child.communicate(timeout=300)
            assert child.returncode == 0, err[-4000:]
            results[mode] = (json.loads(out.splitlines()[-1]), work / mode)
    finally:
        for child in children.values():
            if child.poll() is None:
                child.kill()
                child.wait()
    return results


def test_train_steps_keep_their_pages_after_the_first_epoch(cv_children):
    faults, _ = cv_children["pinned"]
    assert [epoch for epoch, _ in faults] == [0, 0, 1, 1] * 5  # 5 folds, steps of 64 and 16
    later = [count for _, count in faults[2:]]
    assert sum(later) < MAX_FAULTS_PER_STEP * len(later), faults


def test_pinned_allocator_keeps_every_output_bit(cv_children):
    pinned, unpinned = cv_children["pinned"][1], cv_children["unpinned"][1]
    names = ["report.csv", "confusion.csv"] + [f"fold{k}/ckpt_final" for k in range(1, 6)]
    for name in names:
        assert (pinned / name).read_bytes() == (unpinned / name).read_bytes(), name
