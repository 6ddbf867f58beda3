"""Cross-validation and ablations end to end on a tiny synthetic dataset.

Twenty separable two-class clips over five folds: train a fold-out model per
fold, report per-fold and mean clip accuracy plus the confusion matrix, then
run the placement and augmentation ablation grids to show their row labels.
"""

import numpy as np

from esckit import evaluate as ev
from esckit import train as tr
from esckit.augment import AugmentConfig
from esckit.data import SegmentDataset
from esckit.features import LogGTSegment
from esckit.model import ACRNNConfig

rng = np.random.default_rng(0)
segments = []
for i in range(20):
    label = i % 2
    segments.append(LogGTSegment(
        values=(4.0 * label + rng.standard_normal((32, 32, 2))).astype(np.float32),
        clip_id=f"clip{i:02d}", segment_index=0, label=label, fold=i % 5 + 1))
dataset = SegmentDataset(segments=segments, num_classes=2,
                         class_names={0: "tone", 1: "noise"})

model_config = ACRNNConfig(num_classes=2, conv_channels=(2, 2, 3, 3, 4, 4, 5, 5),
                           gru_hidden=4, dropout_p=0.0, input_bands=32, input_frames=32)
config = tr.TrainConfig(batch_size=64, epochs=80, lr0=0.1, lr_decay_every=40, seed=0,
                        augmentation=AugmentConfig(copies_per_clip=0, mixup_enabled=False))

report = ev.cross_validate(dataset, config, model_config)
print("5-fold cross-validation:")
for fold, acc in sorted(report.fold_accuracies.items()):
    print(f"  fold {fold}: {acc:.2f}")
print(f"  mean: {report.mean_accuracy:.2f}")
print(f"confusion (rows true, cols predicted):\n{report.confusion}")
print(f"clips evaluated: {report.confusion.sum()} (each exactly once)")

quick = tr.TrainConfig(batch_size=64, epochs=2, seed=0,
                       augmentation=AugmentConfig(copies_per_clip=0, mixup_enabled=True))
two_folds = SegmentDataset(segments=[s for s in segments if s.fold <= 2], num_classes=2)
results = ev.ablate(two_folds, quick, model_config,
                    placements=["none", "l2", "l4", "l6", "l8", "l10"], grid=True)
print("\nablation rows (2-fold quick pass, labels as reported):")
for label, variant_report in results:
    print(f"  {label:18s} mean accuracy {variant_report.mean_accuracy:.2f}")
