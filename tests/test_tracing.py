"""The traced benchmark (``perfbench/run.py --trace 1``) wraps esckit functions
by name; installing its tracer fails fast when one of them is gone."""

import os

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
    finally:
        tracer.uninstall()
    assert (ad.conv2d, ad.Tensor.backward, model.forward) == originals
