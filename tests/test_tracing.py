"""The traced benchmark (``perfbench/run.py --trace 1``) wraps esckit functions
by name; installing its tracer fails fast when one of them is gone."""

import os

import numpy as np

from conftest import tiny_model_config
from esckit.autodiff import Tensor
from esckit.data import one_hot
from test_train import MAX_TRAIN_STEP_NODES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import spans
    from esckit import autodiff as ad
    from esckit import model

    originals = (ad.conv2d, ad.Tensor.backward, model.forward)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert ad.conv2d is not originals[0] and model.forward is not originals[2]
        # One traced train step: the tracer's closure scan must cope with
        # every node the step builds.
        params = model.build(tiny_model_config(), seed=0)
        x = np.random.default_rng(0).standard_normal((2, 32, 32, 2)).astype(np.float32)
        probs = model.forward(params, x, mode="train", rng=np.random.default_rng(1))
        ad.cross_entropy(probs, Tensor(one_hot([0, 1], 2))).backward()
        assert [g["nodes"] for g in tracer.step_graphs] == [MAX_TRAIN_STEP_NODES]
    finally:
        tracer.uninstall()
    assert (ad.conv2d, ad.Tensor.backward, model.forward) == originals
