"""Segment collections as consumed by training and evaluation."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class SegmentDataset:
    """A flat list of LogGTSegments plus label-space metadata.

    Augmented segments carry the fold and clip_id of their source clip and are
    flagged, so fold filtering treats them exactly like the raw material they
    came from while evaluation can exclude them.
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

    def subset(self, folds=None, exclude_folds=None, include_augmented=True):
        keep = []
        for s in self.segments:
            if folds is not None and s.fold not in folds:
                continue
            if exclude_folds is not None and s.fold in exclude_folds:
                continue
            if not include_augmented and s.augmented:
                continue
            keep.append(s)
        return SegmentDataset(segments=keep, num_classes=self.num_classes,
                              class_names=self.class_names)

    def clips(self, fold=None):
        """clip_id -> raw segments, ordered by (clip_id, segment_index)."""
        grouped = {}
        for s in self.segments:
            if (fold is None or s.fold == fold) and not s.augmented:
                grouped.setdefault(s.clip_id, []).append(s)
        out = OrderedDict()
        for clip_id in sorted(grouped):
            out[clip_id] = sorted(grouped[clip_id], key=lambda s: s.segment_index)
        return out

    def clip_ids(self, fold=None):
        return {s.clip_id for s in self.segments if fold is None or s.fold == fold}


def one_hot(labels, num_classes):
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels outside [0, {num_classes})")
    out = np.zeros((labels.size, num_classes), dtype=np.float32)
    out[np.arange(labels.size), labels] = 1.0
    return out
