"""Desk-scale trainability: memorize 8 synthetic clips with the narrow model.

Four tone clips against four noise clips, one segment each, full 128x128x2
features, conv widths /8 and GRU hidden 32. Training accuracy should hit
100% within a handful of steps and the loss should keep falling.
"""

import numpy as np

from esckit import features as ft
from esckit import model as acrnn
from esckit import train as tr
from esckit.augment import AugmentConfig
from esckit.data import SegmentDataset

SR = ft.SAMPLE_RATE
STEPS = 60  # the acceptance suite runs the full 200

rng = np.random.default_rng(0)
fb = ft.build_gammatone_filterbank()
segments = []
n = 66_150  # ~1.5 s -> one 128-frame segment
for i in range(8):
    if i < 4:
        freq = [330.0, 440.0, 550.0, 660.0][i]
        samples, label = 0.8 * np.sin(2 * np.pi * freq * np.arange(n) / SR), 0
    else:
        samples, label = 0.5 * rng.standard_normal(n), 1
    clip = ft.WaveClip(samples=samples, label=label, fold=1, clip_id=f"probe{i}")
    segments.extend(ft.extract_segments(clip, fb))
dataset = SegmentDataset(segments=segments, num_classes=2)
print(f"{len(dataset)} segments, {dataset.num_classes} classes")

config = tr.TrainConfig(batch_size=64, epochs=STEPS, seed=0,
                        augmentation=AugmentConfig(copies_per_clip=0, mixup_enabled=False))
model_config = acrnn.ACRNNConfig(num_classes=2, conv_channels=(4, 4, 8, 8, 16, 16, 32, 32),
                                 gru_hidden=32)
result = tr.train(dataset, config, model_config, held_out_fold=0)

print(f"{result.steps_per_epoch} step(s) per epoch")
for row in result.history.rows:
    if row.epoch % 10 == 0 or row.epoch == STEPS - 1:
        print(f"  step {row.epoch:3d}: loss {row.train_loss:.4f} acc {row.train_acc:.2f}")
losses = result.history.column("train_loss")
print(f"loss ratio after {STEPS} steps: {losses[-1] / losses[0]:.4f} (criterion: < 0.1 at 200)")
