"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The suite is self-contained
(synthetic audio only) and single-core; the slowest item is the trainability
probe at a few minutes.
"""

import time

import numpy as np
import pytest

from conftest import applied_mix_weights, ks_uniform, tiny_model_config
from esckit import augment as aug
from esckit import cli
from esckit import evaluate as ev
from esckit import features as ft
from esckit import model as acrnn
from esckit import train as tr
from esckit.augment import AugmentConfig
from esckit.autodiff import Tensor
from esckit.cachefile import read_cache
from esckit.data import SegmentDataset
from esckit.fdcheck import (
    MODEL_TOLERANCE, OP_TOLERANCE, model_gradient_checks, op_gradient_checks,
)
from test_config_cli import build_audio_tree
from test_dataset import meta_csv, write_wav

SR = ft.SAMPLE_RATE


def sine(freq, seconds, amp=0.8):
    return amp * np.sin(2.0 * np.pi * freq * np.arange(int(seconds * SR)) / SR)


def probe_dataset():
    """8 clips, 4 tone-class and 4 noise-class, one 128-frame segment each."""
    rng = np.random.default_rng(0)
    fb = ft.build_gammatone_filterbank()
    segments = []
    n = 66_150  # ~1.5 s -> exactly 128 STFT frames
    for i in range(8):
        if i < 4:
            samples, label = sine([330, 440, 550, 660][i], n / SR), 0
        else:
            samples, label = 0.5 * rng.standard_normal(n), 1
        clip = ft.WaveClip(samples=samples, sample_rate=SR, label=label, fold=1,
                           clip_id=f"probe{i}")
        segments.extend(ft.extract_segments(clip, fb))
    return SegmentDataset(segments=segments, num_classes=2)


@pytest.fixture(scope="module")
def synthetic_50clip_cache(tmp_path_factory):
    """50 synthetic clips over 5 folds, extracted through the real CLI path."""
    root = tmp_path_factory.mktemp("synth50")
    rng = np.random.default_rng(1)
    rows = []
    n = int(1.6 * SR)
    for i in range(50):
        name = f"clip{i:02d}.wav"
        label = i % 2
        x = sine(280 + 10 * i, n / SR, amp=0.6) if label == 0 else \
            0.3 * rng.standard_normal(n)
        write_wav(root / name, (x * 20000).astype(np.int16))
        rows.append(f"{name},{i % 5 + 1},{label},class{label}")
    meta_csv(root / "meta.csv", rows)
    config = root / "run.cfg"
    config.write_text("\n".join([
        "run.seed = 5",
        f"run.out_dir = {root / 'out'}",
        f"data.meta_csv = {root / 'meta.csv'}",
        f"data.audio_dir = {root}",
        f"data.cache = {root / 'cache.lgt'}",
        "data.variant = custom",
        "augment.copies_per_clip = 1",
        "model.num_classes = 2",
    ]) + "\n")
    assert cli.main(["extract", "--config", str(config)]) == 0
    return root


def test_criterion_1_gradient_oracle():
    t0 = time.monotonic()
    op_errors = op_gradient_checks(seed=0)
    bad_ops = {k: v for k, v in op_errors.items() if v > OP_TOLERANCE}
    model_errors = model_gradient_checks(seed=0, samples_per_tensor=6)
    bad_model = {k: v for k, v in model_errors.items() if v > MODEL_TOLERANCE}
    assert cli.main(["gradcheck", "--samples", "4"]) == 0
    elapsed = time.monotonic() - t0
    assert not bad_ops, bad_ops
    assert not bad_model, bad_model
    assert elapsed < 300.0
    print(f"\n[criterion 1] PASS - {len(op_errors)} ops <= {OP_TOLERANCE:g}, "
          f"{len(model_errors)} model tensors <= {MODEL_TOLERANCE:g}, {elapsed:.1f}s")


def test_criterion_2_shape_oracle():
    t0 = time.monotonic()
    params = acrnn.build(acrnn.ACRNNConfig(num_classes=50), seed=0)
    trace = acrnn.shape_trace(params)
    expected = [
        ("l2-pool", (32, 42, 32)),
        ("l4-pool", (8, 42, 64)),
        ("l6-pool", (8, 14, 128)),
        ("l8-pool", (4, 7, 256)),
        ("gru-input", (7, 1024)),
        ("gru-output", (7, 512)),
        ("head", (512,)),
    ]
    elapsed = time.monotonic() - t0
    assert trace == expected
    assert elapsed < 30.0
    print(f"\n[criterion 2] PASS - shape trace matches the derived table, {elapsed:.2f}s")


def test_criterion_3_attention_normalization():
    rng = np.random.default_rng(2)
    kernel = Tensor(0.3 * rng.standard_normal((3, 3, 4, 1)).astype(np.float32))
    m = Tensor(rng.standard_normal((1000, 6, 9, 4)).astype(np.float32))
    cnn_maps = acrnn.cnn_attention_weights(m, kernel).data.reshape(1000, -1)
    assert np.all(np.abs(cnn_maps.sum(axis=1) - 1.0) <= 1e-6)

    params = acrnn.build(tiny_model_config(gru_hidden=8), seed=3)
    h = Tensor(rng.standard_normal((1000, 7, 16)).astype(np.float32))
    betas = acrnn.rnn_attention_weights(h, params).data
    assert np.all(np.abs(betas.sum(axis=1) - 1.0) <= 1e-6)

    h1 = rng.standard_normal((1, 16)).astype(np.float32)
    v = acrnn.rnn_attention(Tensor(h1), params).data
    assert np.array_equal(v, h1[0])
    print("\n[criterion 3] PASS - 1000 CNN maps and 1000 RNN weight rows sum to 1 "
          "within 1e-6; Tseq=1 returns h_1 exactly")


class FixedDraws:
    """An rng stand-in for mix_batch: fixed partners and one weight for every row."""

    def __init__(self, partners, weight):
        self.partners, self.weight = partners, weight

    def integers(self, low, high, size):
        return self.partners

    def beta(self, a, b, size):
        return np.full(size, self.weight)


def test_criterion_4_mixup_contract():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 128, 128, 2)).astype(np.float32)
    y = np.eye(5, dtype=np.float32)[[1, 3, 0, 4, 2, 1]]
    partners = np.array([1, 2, 3, 4, 5, 0])
    for weight, want in ((1.0, np.arange(6)), (0.0, partners)):
        xb, yb = x.copy(), y.copy()
        aug.mix_batch(xb, yb, 0.2, FixedDraws(partners, weight))
        assert xb.tobytes() == x[want].tobytes() and yb.tobytes() == y[want].tobytes()

    for _ in range(100):
        yb = np.eye(5, dtype=np.float32)[rng.integers(0, 5, size=64)]
        aug.mix_batch(rng.standard_normal((64, 4, 4, 2)).astype(np.float32), yb, 0.2, rng)
        assert np.all(np.abs(yb.sum(axis=1) - 1.0) <= 1e-6) and np.all(yb >= 0.0)

    weights = np.concatenate([applied_mix_weights(1.0, seed) for seed in range(100)])
    assert weights.size >= 90_000
    ks = ks_uniform(weights)
    assert ks < 0.01
    print(f"\n[criterion 4] PASS - mix_batch endpoints bitwise, labels on the simplex, "
          f"KS statistic {ks:.4f} < 0.01 over {weights.size} applied Beta(1, 1) weights")


def test_criterion_5_dsp_oracles():
    t0 = time.monotonic()
    fb = ft.build_gammatone_filterbank()
    clip = ft.WaveClip(samples=sine(440.0, 5.0), sample_rate=SR, label=0, fold=1,
                       clip_id="sine5s")
    spec = ft.stft_power(clip)
    assert spec.shape == (513, 429)
    assert np.all(spec.argmax(axis=0) == 10)
    static = ft.log_gt(spec, fb)
    segments = ft.segment(static, ft.delta(static), clip)
    assert len(segments) == 5

    assert np.allclose(ft.delta(np.full((128, 40), 2.5)), 0.0, atol=1e-12)

    shifted = aug.pitch_shift(clip, 3.5)
    peak_bin = int(np.bincount(ft.stft_power(shifted).argmax(axis=0)).argmax())
    peak_hz = peak_bin * SR / 1024
    assert abs(peak_hz - 440.0 * 2 ** (3.5 / 12)) <= SR / 1024  # within one bin of 538.9 Hz
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\n[criterion 5] PASS - 429 frames, 5 segments, peak bin 10, zero delta, "
          f"+3.5 st -> {peak_hz:.1f} Hz, {elapsed:.1f}s")


def test_criterion_6_trainability_probe():
    t0 = time.monotonic()
    dataset = probe_dataset()
    config = tr.TrainConfig(batch_size=64, epochs=200, seed=0,
                            augmentation=AugmentConfig(copies_per_clip=0,
                                                       mixup_enabled=False))
    model_config = acrnn.ACRNNConfig(num_classes=2, conv_channels=(4, 4, 8, 8, 16, 16, 32, 32),
                                     gru_hidden=32, input_bands=128, input_frames=128)
    result = tr.train(dataset, config, model_config, held_out_fold=0)
    elapsed = time.monotonic() - t0
    assert result.steps_per_epoch == 1  # 8 segments per batch -> 200 epochs = 200 steps
    accs = result.history.column("train_acc")
    losses = result.history.column("train_loss")
    first_perfect = next((i for i, a in enumerate(accs) if a == 1.0), None)
    assert first_perfect is not None and first_perfect < 200
    assert losses[-1] < 0.1 * losses[0]
    assert elapsed < 600.0
    print(f"\n[criterion 6] PASS - 100% train accuracy at step {first_perfect}, "
          f"loss {losses[0]:.3f} -> {losses[-1]:.5f} "
          f"({losses[-1] / losses[0]:.4f}x), {elapsed:.0f}s")


def test_criterion_7_protocol_integrity(synthetic_50clip_cache):
    root = synthetic_50clip_cache
    from esckit.cachefile import read_cache_dataset
    dataset = read_cache_dataset(root / "cache.lgt", num_classes=2)
    assert len({s.clip_id for s in dataset.segments}) == 50

    config = tr.TrainConfig(batch_size=64, epochs=2, seed=5,
                            augmentation=AugmentConfig(copies_per_clip=1, mixup_enabled=True))
    report = ev.cross_validate(dataset, config, tiny_model_config(input_bands=128,
                                                                  input_frames=128))
    assert sorted(report.fold_accuracies) == [1, 2, 3, 4, 5]
    assert report.confusion.sum() == 50  # every clip evaluated exactly once

    # the leakage instrument is alive: a clip straddling folds trips it
    poisoned = read_cache_dataset(root / "cache.lgt", num_classes=2)
    for seg in poisoned.segments:
        if seg.clip_id == "clip00.wav":
            seg.fold = 2 if seg.augmented else 1
    with pytest.raises(tr.LeakageError):
        tr.train(poisoned, config, tiny_model_config(input_bands=128, input_frames=128),
                 held_out_fold=2)

    two_folds = SegmentDataset(segments=[s for s in dataset.segments if s.fold in {1, 2}],
                               num_classes=2)
    quick = tr.TrainConfig(batch_size=64, epochs=1, seed=5,
                           augmentation=AugmentConfig(copies_per_clip=1, mixup_enabled=True))
    placement_rows = ev.ablate(two_folds, quick,
                               tiny_model_config(input_bands=128, input_frames=128),
                               placements=["none", "l2", "l4", "l6", "l8", "l10"])
    assert [r.label for r in placement_rows] == ["none", "l2", "l4", "l6", "l8", "l10"]
    grid_rows = ev.ablate(two_folds, quick,
                          tiny_model_config(input_bands=128, input_frames=128), grid=True)
    assert [r.label for r in grid_rows] == ["base", "attention", "augment",
                                            "attention+augment"]
    print("\n[criterion 7] PASS - 5 folds, 50/50 clips evaluated once, leakage guard "
          "trips on a poisoned split, 6 placement labels + 4 grid labels emitted")


def test_criterion_8_reproducibility(tmp_path):
    outputs = {}
    for run in ("one", "two"):
        root = tmp_path / run
        root.mkdir()
        config_path = build_audio_tree(root)
        text = config_path.read_text().replace("augment.copies_per_clip = 0",
                                               "augment.copies_per_clip = 1")
        config_path.write_text(text.replace("augment.mixup_enabled = false",
                                            "augment.mixup_enabled = true"))
        assert cli.main(["extract", "--config", str(config_path)]) == 0
        assert cli.main(["train", "--config", str(config_path), "--fold", "2"]) == 0
        report = root / "eval.csv"
        assert cli.main(["eval", "--config", str(config_path), "--fold", "2",
                         "--checkpoint", str(root / "out" / "ckpt_final"),
                         "--report", str(report)]) == 0
        outputs[run] = {
            "cache": (root / "cache.lgt").read_bytes(),
            "ckpt_best": (root / "out" / "ckpt_best").read_bytes(),
            "ckpt_final": (root / "out" / "ckpt_final").read_bytes(),
            "report": report.read_bytes(),
        }
    for name in outputs["one"]:
        assert outputs["one"][name] == outputs["two"][name], f"{name} differs between runs"
    print("\n[criterion 8] PASS - cache, both checkpoints, and the eval report are "
          "bitwise identical across two seeded end-to-end runs")


@pytest.mark.skip(reason="informational long run (ESC-10, 60 epochs, augmentation, "
                         "attention at l10); needs the real dataset and hours of CPU - "
                         "see README for the command and the >= 70% mean-CV expectation")
def test_criterion_9_informational_long_run():
    pass
