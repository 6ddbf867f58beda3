"""Mini-batch SGD training with Nesterov momentum.

The protocol: batches of 64 segments drawn by a fresh shuffle each epoch
(every training segment at most once per epoch, last partial batch kept),
cross-entropy on softmax outputs with optional mixup at batch assembly (from
``augment.mix_batch``), coupled L2 weight decay on weight tensors only, and a
step learning-rate schedule that divides by 10 every 100 epochs. Normalization
statistics come from the training folds alone; the held-out fold never
contributes a gradient, an augmented copy, or a statistic, and this is asserted
every epoch. ``split_fold`` is the one place the fold rule lives: ``train``,
``evaluate.evaluate_fold``, ``evaluate.cross_validate`` and the CLI's
``eval`` all take their held-out split from it, so a clip tagged with two
folds is the same ``LeakageError`` (a validation error, CLI exit 1) for each.

A run that holds out fold k is seeded with ``TrainConfig.seed + k``: the model
draw and the shuffle, dropout and mixup streams all derive from it. So
``train`` on fold k and fold k of ``evaluate.cross_validate`` are the same run,
bit for bit, and the folds can run as separate processes.
"""

from __future__ import annotations

import ctypes
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import model as acrnn
from .augment import MIXUP_ALPHA, AugmentConfig, mix_batch
from .cachefile import save_checkpoint, write_csv
from .data import one_hot
from .features import compute_norm_stats, normalize


LR_DECAY_FACTOR = 10.0
MOMENTUM = 0.9
L2_COEFF = 1e-4

# glibc's mallopt parameters (malloc.h) and the values ``train`` pins them to.
# 10 MiB sits above a desk step's largest buffer (8.8 MB at batch 64) and
# below a full-width batch-64 step's 11 MB and larger maps. With those maps in
# the heap (a 12, 16 or 32 MiB threshold) that step peaked at 1020 MB, not 920.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 10 << 20
_TRIM_THRESHOLD_BYTES = 1 << 30


class LeakageError(ValueError):
    """Held-out fold data reached training statistics or gradients."""


@dataclass
class TrainConfig:
    batch_size: int = 64
    epochs: int = 300
    lr0: float = 0.01
    lr_decay_every: int = 100
    seed: int = 0
    augmentation: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        for name in ("batch_size", "epochs", "lr_decay_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (np.isfinite(self.lr0) and self.lr0 >= 0):
            raise ValueError(f"lr0 must be finite and >= 0, got {self.lr0}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class HistoryRow:
    epoch: int
    lr: float
    train_loss: float
    train_acc: float
    val_acc: float
    seconds: float


@dataclass
class TrainHistory:
    rows: list = field(default_factory=list)

    def column(self, name):
        return [getattr(r, name) for r in self.rows]

    def to_csv(self, path):
        write_csv(path, [["epoch", "lr", "train_loss", "train_acc", "val_acc", "seconds"]]
                  + [[r.epoch, repr(r.lr), repr(r.train_loss), repr(r.train_acc),
                      repr(r.val_acc), repr(r.seconds)] for r in self.rows])


@dataclass
class OptimizerState:
    velocities: dict

    @classmethod
    def create(cls, params):
        return cls(velocities={name: np.zeros_like(t.data)
                               for name, t in params.tensors.items()})


@dataclass
class TrainResult:
    params: acrnn.ModelParams
    final_state: dict
    history: TrainHistory
    norm_stats: object
    steps_per_epoch: int
    contributing_clip_ids: set
    stats_clip_ids: set
    val_predictions: list  # per held-out clip, by the final parameters (last epoch)
    val_truths: list


def lr_schedule(epoch, config):
    """lr0 divided by LR_DECAY_FACTOR once per decay interval."""
    if not 0 <= epoch < config.epochs:
        raise ValueError(f"epoch {epoch} outside [0, {config.epochs})")
    return config.lr0 / LR_DECAY_FACTOR ** (epoch // config.lr_decay_every)


def sgd_nesterov_step(params, state, lr):
    """One lookahead-applied Nesterov update.

    With g' = grad + L2_COEFF * w (weight tensors only; biases and batch-norm
    scale/shift are exempt): v <- MOMENTUM*v - lr*g'; w <- w + MOMENTUM*v - lr*g'.
    """
    weight_set = set(params.weight_names)
    for name, tensor in params.tensors.items():
        if tensor.grad is None:
            raise ValueError(f"parameter {name!r} has no gradient; run backward first")
        v = state.velocities.get(name)
        if v is None or v.shape != tensor.shape:
            raise ValueError(f"optimizer state for {name!r} missing or wrong shape")
        g = tensor.grad
        if name in weight_set:
            g = g + L2_COEFF * tensor.data
        v[:] = MOMENTUM * v - lr * g
        tensor.data = tensor.data + MOMENTUM * v - lr * g


def _zero_grads(params):
    for tensor in params.tensors.values():
        tensor.grad = None


def split_fold(dataset, fold, copies_per_clip=0):
    """The held-out split for ``fold``: (training segments, held-out clips,
    held-out labels, held-out clip ids).

    The training segments are every other fold's, in dataset order, with the
    augmented copies iff ``copies_per_clip > 0``; they train the model and give
    its normalization statistics. Each held-out clip is the list of its raw
    segments by segment index, clips by clip id, with one label per clip. The
    id set holds every clip tagged with ``fold``, augmented copies included.
    Raises LeakageError when a clip is tagged with two folds.
    """
    owner, training, held = {}, [], {}
    for s in dataset.segments:
        if owner.setdefault(s.clip_id, s.fold) != s.fold:
            raise LeakageError(f"clip {s.clip_id!r} appears in folds {owner[s.clip_id]} "
                               f"and {s.fold}")
        if s.fold != fold:
            if copies_per_clip > 0 or not s.augmented:
                training.append(s)
        elif not s.augmented:
            held.setdefault(s.clip_id, []).append(s)
    clips = [sorted(held[c], key=lambda s: s.segment_index) for c in sorted(held)]
    held_out_ids = {c for c, f in owner.items() if f == fold}
    return training, clips, [segs[0].label for segs in clips], held_out_ids


def _keep_freed_pages():
    """Pin glibc's mmap threshold at 10 MiB and its trim threshold at 1 GiB, so
    that the buffers a train step frees stay in the heap for the next step
    instead of going back to the kernel, to be faulted in page by page again.
    Left to glibc, that churn depends on heap layout (its dynamic mmap
    threshold, a trim at the heap top). Maps of 10 MiB and more, such as a
    full-width step's, stay on mmap, so its peak RSS does not grow. Called by
    ``train``, not at import, since it holds for the whole process; does
    nothing where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _train_step(params, opt, xb, yb, lr, rng, where):
    """One SGD step on a batch: (loss, predicted class per row). A non-finite
    loss raises FloatingPointError naming ``where`` (held-out fold, epoch,
    step) before the parameters change. The step's graph is unreachable once
    this returns, so it is freed before the next step's forward builds
    another."""
    probs = acrnn.forward(params, xb, mode="train", rng=rng)
    loss = ad.cross_entropy(probs, ad.Tensor(yb))
    value = loss.item()
    if not math.isfinite(value):
        raise FloatingPointError("training loss is {} at held-out fold {}, epoch {}, step {}; "
                                 "the run diverged".format(value, *where))
    _zero_grads(params)
    loss.backward()
    sgd_nesterov_step(params, opt, lr)
    return value, probs.data.argmax(axis=1)


def epoch_batches(n, batch_size, rng):
    """Batch index arrays for one epoch: a fresh shuffle cut into batch_size
    chunks, so every index appears exactly once; the last chunk may be short."""
    order = rng.permutation(n)
    return [order[start:start + batch_size] for start in range(0, n, batch_size)]


def predict_clips(params, clips, stats, batch_size):
    """``evaluate.predict_clip`` for each clip of a sequence of raw segment lists.

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


def train(dataset, config, model_config, held_out_fold, out_dir=None):
    """Train on every fold except ``held_out_fold``; returns TrainResult.

    Augmented segments of training folds are used when the augment config
    enables them; the held-out fold contributes only raw segments, and only to
    the per-epoch validation metric (clip-level accuracy under the segment
    probability averaging rule). The final state is written as ckpt_final
    when out_dir is set. Training accuracy is against the pre-mixup labels.
    A non-finite training loss stops the run with FloatingPointError before
    that step's update, so a diverged run writes no checkpoint.
    """
    _keep_freed_pages()
    segments, val_clips, val_truths, held_out_ids = split_fold(
        dataset, held_out_fold, config.augmentation.copies_per_clip)
    if not segments:
        raise ValueError(f"no training segments outside fold {held_out_fold}")

    stats_clip_ids = {s.clip_id for s in segments}
    if stats_clip_ids & held_out_ids:
        raise LeakageError(f"fold {held_out_fold} clips present in training segments")
    stats = compute_norm_stats(segments)

    labels = np.array([s.label for s in segments], dtype=np.int64)
    k = dataset.num_classes
    n = len(segments)
    steps_per_epoch = -(-n // config.batch_size)

    seed = config.seed + held_out_fold
    params = acrnn.build(model_config, seed=seed)
    opt = OptimizerState.create(params)
    rng_shuffle = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    rng_dropout = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    rng_mixup = np.random.default_rng(np.random.SeedSequence([seed, 3]))

    mixup_on = config.augmentation.mixup_enabled
    history = TrainHistory()
    contributing = set()

    for epoch in range(config.epochs):
        t0 = time.time()
        lr = lr_schedule(epoch, config)
        loss_sum, correct, seen = 0.0, 0, 0
        epoch_ids = set()
        for step, idx in enumerate(epoch_batches(n, config.batch_size, rng_shuffle)):
            batch_segments = [segments[i] for i in idx]
            epoch_ids.update(s.clip_id for s in batch_segments)
            xb = normalize([s.values for s in batch_segments], stats)
            yb = one_hot(labels[idx], k)
            if mixup_on:
                mix_batch(xb, yb, MIXUP_ALPHA, rng_mixup)
            loss, predicted = _train_step(params, opt, xb, yb, lr, rng_dropout,
                                          (held_out_fold, epoch, step))
            loss_sum += loss * len(idx)
            correct += int((predicted == labels[idx]).sum())
            seen += len(idx)

        if epoch_ids & held_out_ids:
            raise LeakageError(f"fold {held_out_fold} clips {sorted(epoch_ids & held_out_ids)[:3]} "
                               f"contributed gradients in epoch {epoch}")
        contributing |= epoch_ids

        val_predictions = [pred for pred, _ in predict_clips(params, val_clips, stats,
                                                             config.batch_size)]
        val_correct = sum(p == t for p, t in zip(val_predictions, val_truths))
        val_acc = val_correct / len(val_clips) if val_clips else float("nan")

        history.rows.append(HistoryRow(
            epoch=epoch, lr=lr, train_loss=loss_sum / seen, train_acc=correct / seen,
            val_acc=val_acc, seconds=time.time() - t0))

    final_state = acrnn.state_arrays(params)
    if out_dir is not None:
        save_checkpoint(os.path.join(out_dir, "ckpt_final"), final_state)
        history.to_csv(os.path.join(out_dir, "history.csv"))
    return TrainResult(params=params, final_state=final_state,
                       history=history, norm_stats=stats, steps_per_epoch=steps_per_epoch,
                       contributing_clip_ids=contributing, stats_clip_ids=stats_clip_ids,
                       val_predictions=val_predictions, val_truths=val_truths)
