"""Segment collections as consumed by training and evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SegmentDataset:
    """A flat list of LogGTSegments plus label-space metadata.

    Augmented segments carry the fold and clip_id of their source clip and are
    flagged, so ``train.split_fold`` treats them exactly like the raw material
    they came from while evaluation can exclude them.
    """

    segments: list
    num_classes: int
    class_names: dict = field(default_factory=dict)

    def __post_init__(self):
        for s in self.segments:
            if not 0 <= s.label < self.num_classes:
                raise ValueError(f"segment {s.clip_id!r}#{s.segment_index} label {s.label} "
                                 f"outside [0, {self.num_classes})")

    def __len__(self):
        return len(self.segments)


def one_hot(labels, num_classes):
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels outside [0, {num_classes})")
    out = np.zeros((labels.size, num_classes), dtype=np.float32)
    out[np.arange(labels.size), labels] = 1.0
    return out
