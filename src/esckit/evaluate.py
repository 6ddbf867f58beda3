"""Clip-level inference, k-fold cross-validation, and ablation harnesses."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from . import model as acrnn
from .cachefile import write_csv
from .features import normalize
from .train import split_fold, train

GRID_LABELS = ("base", "attention", "augment", "attention+augment")


@dataclass
class EvalReport:
    fold_accuracies: dict          # fold id -> clip accuracy
    mean_accuracy: float
    confusion: np.ndarray          # (K, K) counts, rows true / columns predicted
    num_classes: int
    class_names: dict

    def to_csv(self, path):
        write_csv(path, [["fold", "accuracy"]]
                  + [[fold, repr(self.fold_accuracies[fold])]
                     for fold in sorted(self.fold_accuracies)]
                  + [["mean", repr(self.mean_accuracy)]])

    def confusion_to_csv(self, path):
        names = [self.class_names.get(i, str(i)) for i in range(self.num_classes)]
        write_csv(path, [["true\\predicted"] + names]
                  + [[names[i]] + [int(v) for v in row] for i, row in enumerate(self.confusion)])


@dataclass
class AblationRow:
    label: str
    mean_accuracy: float
    fold_accuracies: dict


def predict_clip(params, segments):
    """Average the per-segment probability vectors and take the argmax.

    Segments must already be normalized with training-fold statistics. Ties
    break to the lowest class index (numpy argmax convention).
    """
    if not segments:
        raise ValueError("predict_clip needs at least one segment")
    batch = np.stack([s.values for s in segments])
    probs = acrnn.forward(params, batch, mode="infer").data
    avg = probs.mean(axis=0)
    return int(avg.argmax()), avg


def predict_clips(params, clips, stats, batch_size):
    """``predict_clip`` for each clip of a sequence of raw segment lists.

    The segments of all clips are normalized with ``stats`` and run through
    the infer-mode forward ``batch_size`` at a time, so inference never holds
    more than one training batch; each clip's probability rows are then
    averaged as ``predict_clip`` does. Returns one (prediction, average) pair
    per clip.
    """
    clips = list(clips)
    if not clips:
        return []
    if not all(clips):
        raise ValueError("predict_clips needs at least one segment per clip")
    flat = [s for segs in clips for s in segs]
    probs = np.concatenate([
        acrnn.forward(params, normalize([s.values for s in flat[i:i + batch_size]], stats),
                      mode="infer").data
        for i in range(0, len(flat), batch_size)])
    out, start = [], 0
    for segs in clips:
        avg = probs[start:start + len(segs)].mean(axis=0)
        out.append((int(avg.argmax()), avg))
        start += len(segs)
    return out


def confusion_matrix(predictions, truths, num_classes):
    """(K, K) counts with cell (i, j) = clips of true class i predicted as j."""
    if len(predictions) != len(truths):
        raise ValueError(f"{len(predictions)} predictions vs {len(truths)} truths")
    out = np.zeros((num_classes, num_classes), dtype=np.int64)
    for pred, true in zip(predictions, truths):
        if not (0 <= pred < num_classes and 0 <= true < num_classes):
            raise ValueError(f"class index out of range: true {true}, predicted {pred}")
        out[true, pred] += 1
    return out


def evaluate_fold(dataset, params, stats, fold, batch_size=64):
    """Clip accuracy plus (predictions, truths) for one held-out fold."""
    _, clips, truths, _ = split_fold(dataset, fold)
    if not clips:
        raise ValueError(f"fold {fold} has zero clips")
    predictions = [pred for pred, _ in predict_clips(params, clips, stats, batch_size)]
    accuracy = float(np.mean([p == t for p, t in zip(predictions, truths)]))
    return accuracy, predictions, truths


def cross_validate(dataset, train_config, model_config, out_dir=None):
    """Train once per fold on the remaining folds and evaluate the held-out one.

    Every fold's ``split_fold`` is checked before the first one trains: a clip
    tagged with two folds or a fold with no raw clip fails at once. Normalization
    statistics and augmented segments come from the training folds only, which
    ``train`` asserts. Each fold is scored by the predictions of its last
    training epoch, which ``train`` makes with the final parameters.
    """
    folds = sorted({s.fold for s in dataset.segments})
    for fold in folds:
        if not split_fold(dataset, fold)[1]:
            raise ValueError(f"fold {fold} has zero clips")
    k = dataset.num_classes
    confusion = np.zeros((k, k), dtype=np.int64)
    fold_accuracies = {}
    for fold in folds:
        result = train(dataset, train_config, model_config, held_out_fold=fold,
                       out_dir=None if out_dir is None else os.path.join(out_dir, f"fold{fold}"))
        confusion += confusion_matrix(result.val_predictions, result.val_truths, k)
        fold_accuracies[fold] = float(result.history.rows[-1].val_acc)
    report = EvalReport(fold_accuracies=fold_accuracies,
                        mean_accuracy=float(np.mean(list(fold_accuracies.values()))),
                        confusion=confusion, num_classes=k, class_names=dataset.class_names)
    if out_dir is not None:
        report.to_csv(os.path.join(out_dir, "report.csv"))
        report.confusion_to_csv(os.path.join(out_dir, "confusion.csv"))
    return report


def ablate(dataset, train_config, model_config, placements=None, grid=False):
    """Cross-validate a family of model variants under one shared seed.

    ``placements`` runs attention-placement rows (labels as given); ``grid``
    runs the four-row attention x augmentation grid {base, attention, augment,
    attention+augment}, where the attention rows use the configured placement
    and the augment rows enable augmented copies and mixup.
    """
    rows = []

    def run(label, m_config, t_config):
        report = cross_validate(dataset, t_config, m_config)
        rows.append(AblationRow(label=label, mean_accuracy=report.mean_accuracy,
                                fold_accuracies=report.fold_accuracies))

    if placements:
        unknown = set(placements) - set(acrnn.PLACEMENTS)
        if unknown:
            raise ValueError(f"unknown placements {sorted(unknown)}; "
                             f"choose from {acrnn.PLACEMENTS}")
        for placement in placements:
            run(placement, replace(model_config, attention_placement=placement), train_config)

    if grid:
        attention_placement = (model_config.attention_placement
                               if model_config.attention_placement != "none" else "l10")
        aug_on = train_config.augmentation
        aug_off = replace(aug_on, copies_per_clip=0, mixup_enabled=False)
        variants = {
            "base": ("none", aug_off),
            "attention": (attention_placement, aug_off),
            "augment": ("none", aug_on),
            "attention+augment": (attention_placement, aug_on),
        }
        for label in GRID_LABELS:
            placement, aug = variants[label]
            run(label, replace(model_config, attention_placement=placement),
                replace(train_config, augmentation=aug))
    return rows


def ablation_to_csv(rows, path):
    folds = sorted(rows[0].fold_accuracies) if rows else []
    write_csv(path, [["setting", "mean_accuracy"] + [f"fold{f}" for f in folds]]
              + [[row.label, repr(row.mean_accuracy)]
                 + [repr(row.fold_accuracies[f]) for f in folds] for row in rows])
