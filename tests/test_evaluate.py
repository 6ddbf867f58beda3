import numpy as np
import pytest

from conftest import make_segment_dataset, tiny_model_config
from esckit import evaluate as ev
from esckit import model as acrnn
from esckit.augment import AugmentConfig
from esckit.data import SegmentDataset
from esckit.features import LogGTSegment, NormStats, apply_norm
from esckit.train import TrainConfig, split_fold, train


def quick_train_config(**kw):
    defaults = dict(batch_size=64, epochs=1, seed=0,
                    augmentation=AugmentConfig(copies_per_clip=0, mixup_enabled=False))
    defaults.update(kw)
    return TrainConfig(**defaults)


def marked_segment(marker, clip_id="c", index=0, label=0, fold=1):
    values = np.zeros((32, 32, 2), dtype=np.float32)
    values[0, 0, 0] = marker
    return LogGTSegment(values=values, clip_id=clip_id, segment_index=index,
                        label=label, fold=fold)


@pytest.fixture
def stub_forward(monkeypatch):
    """Replace the network with a lookup: marker value -> probability row."""
    table = {}

    def fake_forward(params, batch, mode="infer", rng=None, trace=None):
        rows = np.stack([table[float(x[0, 0, 0])] for x in np.asarray(batch)])
        from esckit.autodiff import Tensor
        return Tensor(rows)

    monkeypatch.setattr(ev.acrnn, "forward", fake_forward)
    return table


class TestPredictClip:
    def test_single_segment_argmax(self, stub_forward):
        stub_forward[1.0] = np.array([0.2, 0.7, 0.1], dtype=np.float32)
        pred, avg = ev.predict_clip(None, [marked_segment(1.0)])
        assert pred == 1
        assert np.allclose(avg, [0.2, 0.7, 0.1])

    def test_two_segment_averaging(self, stub_forward):
        stub_forward[1.0] = np.array([0.6, 0.4], dtype=np.float32)
        stub_forward[2.0] = np.array([0.2, 0.8], dtype=np.float32)
        pred, avg = ev.predict_clip(None, [marked_segment(1.0), marked_segment(2.0, index=1)])
        assert np.allclose(avg, [0.4, 0.6], atol=1e-7)
        assert pred == 1

    def test_tie_breaks_to_lowest_index(self, stub_forward):
        stub_forward[1.0] = np.array([0.5, 0.5], dtype=np.float32)
        pred, _ = ev.predict_clip(None, [marked_segment(1.0)])
        assert pred == 0

    def test_segment_order_invariance(self, stub_forward):
        rng = np.random.default_rng(0)
        segs = []
        for i in range(5):
            p = rng.dirichlet(np.ones(4)).astype(np.float32)
            stub_forward[float(i + 1)] = p
            segs.append(marked_segment(float(i + 1), index=i))
        _, avg_fwd = ev.predict_clip(None, segs)
        _, avg_rev = ev.predict_clip(None, segs[::-1])
        assert np.allclose(avg_fwd, avg_rev, atol=1e-7)

    def test_agreeing_segments(self, stub_forward):
        stub_forward[1.0] = np.array([0.1, 0.1, 0.8], dtype=np.float32)
        pred, _ = ev.predict_clip(None, [marked_segment(1.0, index=i) for i in range(3)])
        assert pred == 2

    def test_zero_segments_raises(self):
        with pytest.raises(ValueError):
            ev.predict_clip(None, [])

    def test_real_model_path(self):
        params = acrnn.build(tiny_model_config(), seed=0)
        segs = [marked_segment(float(i), index=i) for i in range(3)]
        pred, avg = ev.predict_clip(params, segs)
        assert avg.shape == (2,)
        assert abs(avg.sum() - 1.0) < 1e-5
        assert pred == int(avg.argmax())


class TestPredictClips:
    def test_equals_predict_clip_clip_by_clip(self):
        params = acrnn.build(tiny_model_config(), seed=0)
        rng = np.random.default_rng(1)
        clips = [[LogGTSegment(values=(2.0 + rng.standard_normal((32, 32, 2))).astype(np.float32),
                               clip_id=f"c{c}", segment_index=i, label=0, fold=1)
                  for i in range(k)]
                 for c, k in enumerate((3, 1, 5, 2))]
        stats = NormStats(mean=np.array([2.0, 1.5], np.float32),
                          std=np.array([1.2, 0.8], np.float32))
        batched = ev.predict_clips(params, clips, stats, batch_size=4)
        assert len(batched) == len(clips)
        for (pred, avg), segs in zip(batched, clips):
            want_pred, want_avg = ev.predict_clip(params, [apply_norm(s, stats) for s in segs])
            assert pred == want_pred
            assert avg.tobytes() == want_avg.tobytes()

    def test_forward_runs_in_chunks_of_batch_size(self, stub_forward, monkeypatch):
        sizes = []
        stub = ev.acrnn.forward

        def counting_forward(params, batch, mode):
            sizes.append(len(batch))
            return stub(params, batch, mode)

        monkeypatch.setattr(ev.acrnn, "forward", counting_forward)
        for marker in (1.0, 2.0, 3.0):
            stub_forward[marker] = np.array([marker, 10.0 - marker], dtype=np.float32)
        clips = [[marked_segment(1.0), marked_segment(2.0, index=1)],
                 [marked_segment(3.0, "d"), marked_segment(3.0, "d", 1), marked_segment(1.0, "d", 2)]]
        identity = NormStats(mean=np.zeros(2, np.float32), std=np.ones(2, np.float32))
        out = ev.predict_clips(None, clips, identity, batch_size=2)
        assert sizes == [2, 2, 1]
        assert np.allclose(out[0][1], [1.5, 8.5]) and out[0][0] == 1
        assert np.allclose(out[1][1], [7.0 / 3, 10.0 - 7.0 / 3])

    def test_empty_clip_raises(self):
        identity = NormStats(mean=np.zeros(2, np.float32), std=np.ones(2, np.float32))
        with pytest.raises(ValueError):
            ev.predict_clips(None, [[marked_segment(1.0)], []], identity, batch_size=2)


class TestConfusionMatrix:
    def test_all_correct_is_diagonal(self):
        m = ev.confusion_matrix([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert np.array_equal(m, np.diag([1, 2, 1]))

    def test_trace_over_total_is_accuracy(self):
        truths = [0, 0, 1, 1, 2]
        preds = [0, 1, 1, 1, 0]
        m = ev.confusion_matrix(preds, truths, 3)
        assert m.sum() == 5
        assert np.trace(m) / m.sum() == pytest.approx(3 / 5)

    def test_hand_tallied_example(self):
        m = ev.confusion_matrix([0, 1, 1], [0, 0, 1], 2)
        assert np.array_equal(m, [[1, 1], [0, 1]])

    def test_row_sums_are_class_counts(self):
        rng = np.random.default_rng(1)
        truths = rng.integers(0, 4, size=50).tolist()
        preds = rng.integers(0, 4, size=50).tolist()
        m = ev.confusion_matrix(preds, truths, 4)
        for c in range(4):
            assert m[c].sum() == truths.count(c)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            ev.confusion_matrix([0, 3], [0, 1], 3)
        with pytest.raises(ValueError):
            ev.confusion_matrix([0], [0, 1], 2)


class TestFoldSplit:
    def test_split_partitions_clips(self):
        dataset = make_segment_dataset(augmented_copies=1)
        all_ids = {s.clip_id for s in dataset.segments}
        held_out = {}
        for fold in [1, 2, 3, 4, 5]:
            training, clips, labels, held_ids = split_fold(dataset, fold)
            assert {s.clip_id for s in training} == all_ids - held_ids
            assert not any(s.augmented for s in training)
            assert [segs[0].clip_id for segs in clips] == sorted(held_ids)
            assert all(not s.augmented and s.fold == fold for segs in clips for s in segs)
            assert labels == [segs[0].label for segs in clips]
            with_copies = split_fold(dataset, fold, copies_per_clip=1)[0]
            assert [id(s) for s in with_copies] == [id(s) for s in dataset.segments
                                                    if s.fold != fold]
            held_out[fold] = held_ids
        assert set().union(*held_out.values()) == all_ids
        assert sum(len(v) for v in held_out.values()) == len(all_ids)

    def test_clip_in_two_folds_rejected(self, synthetic_dataset):
        synthetic_dataset.segments[0].fold = 3
        for fold in [1, 2, 3, 4, 5]:
            with pytest.raises(ValueError, match="appears in folds 3 and 1"):
                split_fold(synthetic_dataset, fold)

    def test_empty_fold_evaluation_rejected(self, synthetic_dataset):
        params = acrnn.build(tiny_model_config(), seed=0)
        from esckit.features import NormStats
        stats = NormStats(mean=np.zeros(2, np.float32), std=np.ones(2, np.float32))
        with pytest.raises(ValueError):
            ev.evaluate_fold(synthetic_dataset, params, stats, fold=99)

    def test_one_fold_dataset_evaluates_without_training_segments(self):
        dataset = make_segment_dataset(n_clips=4, n_folds=1)
        params = acrnn.build(tiny_model_config(), seed=0)
        stats = NormStats(mean=np.zeros(2, np.float32), std=np.ones(2, np.float32))
        accuracy, predictions, truths = ev.evaluate_fold(dataset, params, stats, 1)
        assert truths == [0, 1, 0, 1] and len(predictions) == 4
        assert 0.0 <= accuracy <= 1.0


class TestCrossValidate:
    def test_train_on_fold_k_writes_fold_k_of_cv(self, tmp_path):
        dataset = make_segment_dataset(n_clips=10, augmented_copies=1)
        config = quick_train_config(
            epochs=2, seed=4, augmentation=AugmentConfig(copies_per_clip=1, mixup_enabled=True))
        ev.cross_validate(dataset, config, tiny_model_config(), out_dir=tmp_path / "cv")
        train(dataset, config, tiny_model_config(), held_out_fold=3, out_dir=tmp_path / "train")
        for name in ("ckpt_final", "ckpt_best"):
            assert (tmp_path / "train" / name).read_bytes() == \
                   (tmp_path / "cv" / "fold3" / name).read_bytes(), name
        # every history column except physical wall-clock time matches
        strip = lambda path: [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
        assert strip(tmp_path / "train" / "history.csv") == \
               strip(tmp_path / "cv" / "fold3" / "history.csv")

    def test_protocol_structure(self, tmp_path):
        dataset = make_segment_dataset(n_clips=25, segs_per_clip=1, augmented_copies=1)
        config = quick_train_config(
            augmentation=AugmentConfig(copies_per_clip=1, mixup_enabled=True))
        report = ev.cross_validate(dataset, config, tiny_model_config(), out_dir=tmp_path)
        assert sorted(report.fold_accuracies) == [1, 2, 3, 4, 5]
        # every clip evaluated exactly once: confusion totals the 25 clips
        assert report.confusion.sum() == 25
        assert np.trace(report.confusion) <= 25
        assert report.mean_accuracy == pytest.approx(
            np.mean(list(report.fold_accuracies.values())), abs=1e-9)
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "confusion.csv").exists()
        header = (tmp_path / "confusion.csv").read_text().splitlines()[0]
        assert "class0" in header and "class1" in header

    def test_fold_without_raw_clip_rejected_before_training(self, monkeypatch):
        dataset = make_segment_dataset(n_clips=10)
        copy = dataset.segments[0]
        dataset.segments.append(LogGTSegment(values=copy.values, clip_id="aug-only",
                                             segment_index=0, label=0, fold=6,
                                             augmented=True))
        calls = []
        monkeypatch.setattr(ev, "train", lambda *a, **kw: calls.append(a) or train(*a, **kw))
        with pytest.raises(ValueError, match="fold 6 has zero clips"):
            ev.cross_validate(dataset, quick_train_config(), tiny_model_config())
        assert calls == []

    def test_dataset_without_folds_rejected_before_training(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ev, "train", lambda *a, **kw: calls.append(a))
        empty = SegmentDataset(segments=[], num_classes=2, class_names={0: "a", 1: "b"})
        with pytest.raises(ValueError, match="no fold"):
            ev.cross_validate(empty, quick_train_config(), tiny_model_config())
        assert calls == []

    def test_fold_scores_are_the_final_parameters_evaluation(self):
        dataset = make_segment_dataset(n_clips=20, augmented_copies=1)
        config = quick_train_config(
            epochs=2, augmentation=AugmentConfig(copies_per_clip=1, mixup_enabled=True))
        result = train(dataset, config, tiny_model_config(), held_out_fold=3)
        accuracy, predictions, truths = ev.evaluate_fold(dataset, result.params,
                                                         result.norm_stats, 3)
        assert (result.val_predictions, result.val_truths) == (predictions, truths)
        assert result.history.rows[-1].val_acc == accuracy

    def test_same_seed_reproducible(self):
        dataset = make_segment_dataset(n_clips=10, segs_per_clip=1)
        a = ev.cross_validate(dataset, quick_train_config(), tiny_model_config())
        b = ev.cross_validate(dataset, quick_train_config(), tiny_model_config())
        assert a.fold_accuracies == b.fold_accuracies
        assert np.array_equal(a.confusion, b.confusion)

    def test_separable_data_learns(self):
        # two distant classes; the lr-decay tail lets batch-norm running stats
        # settle against stable weights, which infer-mode evaluation relies on
        dataset = make_segment_dataset(n_clips=20, segs_per_clip=1, class_gap=4.0, seed=3)
        config = quick_train_config(epochs=80, lr0=0.1, lr_decay_every=40)
        report = ev.cross_validate(dataset, config, tiny_model_config(dropout_p=0.0))
        assert report.mean_accuracy >= 0.9


class TestAblate:
    def test_placement_rows_match_table_labels(self):
        dataset = make_segment_dataset(n_clips=8, segs_per_clip=1, n_folds=2)
        rows = ev.ablate(dataset, quick_train_config(), tiny_model_config(),
                         placements=["none", "l2", "l4", "l6", "l8", "l10"])
        assert [r.label for r in rows] == ["none", "l2", "l4", "l6", "l8", "l10"]
        for row in rows:
            assert 0.0 <= row.mean_accuracy <= 1.0
            assert sorted(row.fold_accuracies) == [1, 2]

    def test_grid_rows_match_table_labels(self):
        dataset = make_segment_dataset(n_clips=8, segs_per_clip=1, n_folds=2,
                                       augmented_copies=1)
        rows = ev.ablate(dataset, quick_train_config(), tiny_model_config(), grid=True)
        assert [r.label for r in rows] == ["base", "attention", "augment", "attention+augment"]

    def test_unknown_placement_rejected(self):
        dataset = make_segment_dataset(n_clips=4, segs_per_clip=1, n_folds=2)
        with pytest.raises(ValueError):
            ev.ablate(dataset, quick_train_config(), tiny_model_config(), placements=["l3"])

    def test_csv_output(self, tmp_path):
        dataset = make_segment_dataset(n_clips=4, segs_per_clip=1, n_folds=2)
        rows = ev.ablate(dataset, quick_train_config(), tiny_model_config(),
                         placements=["none", "l10"])
        path = tmp_path / "ablation.csv"
        ev.ablation_to_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "setting,mean_accuracy,fold1,fold2"
        assert lines[1].startswith("none,") and lines[2].startswith("l10,")
