import numpy as np
import pytest

from esckit.autodiff import Tensor
from esckit.data import SegmentDataset
from esckit.features import LogGTSegment
from esckit.model import ACRNNConfig


def make_segment_dataset(n_clips=20, num_classes=2, n_folds=5, segs_per_clip=2,
                         bands=32, frames=32, seed=0, augmented_copies=0,
                         class_gap=3.0):
    """Synthetic separable segments: each class sits at its own mean level."""
    rng = np.random.default_rng(seed)
    segments = []
    for i in range(n_clips):
        label = i % num_classes
        fold = (i % n_folds) + 1
        clip_id = f"clip{i:03d}"
        for s in range(segs_per_clip):
            values = (class_gap * label
                      + rng.standard_normal((bands, frames, 2))).astype(np.float32)
            segments.append(LogGTSegment(values=values, clip_id=clip_id, segment_index=s,
                                         label=label, fold=fold))
        for c in range(augmented_copies):
            values = (class_gap * label
                      + rng.standard_normal((bands, frames, 2))).astype(np.float32)
            segments.append(LogGTSegment(values=values, clip_id=clip_id, segment_index=c,
                                         label=label, fold=fold, augmented=True))
    names = {i: f"class{i}" for i in range(num_classes)}
    return SegmentDataset(segments=segments, num_classes=num_classes, class_names=names)


def tiny_model_config(**kw):
    defaults = dict(num_classes=2, conv_channels=(2, 2, 3, 3, 4, 4, 5, 5), gru_hidden=4,
                    dropout_p=0.5, input_bands=32, input_frames=32)
    defaults.update(kw)
    return ACRNNConfig(**defaults)


def record_handed_grads(monkeypatch):
    """Make each ``Tensor.backward()`` append to the returned list (node, grad)
    for every graph node: an interior node's grad as the walk hands it to the
    node's ``_backward`` (the walk then frees it), a leaf's as it stands after
    the walk. The list keeps every recorded array alive."""
    handed = []
    walk = Tensor.backward

    def backward(self):
        nodes = self._topo_order()
        for node in nodes:
            if node._backward is not None:
                def recorded(g, node=node, fn=node._backward):
                    handed.append((node, g))
                    fn(g)
                node._backward = recorded
        walk(self)
        handed.extend((n, n.grad) for n in nodes if not n._prev and n.grad is not None)

    monkeypatch.setattr(Tensor, "backward", backward)
    return handed


@pytest.fixture
def synthetic_dataset():
    return make_segment_dataset()
