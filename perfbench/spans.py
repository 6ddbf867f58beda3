"""Span tracing of esckit from outside, for the benchmark's traced runs.

Nothing in esckit is edited. ``Tracer.install`` replaces public functions in
every loaded ``esckit`` module that holds them (so the copies that ``from
.features import apply_norm`` makes are wrapped too) with wrappers that record
spans; ``Tracer.uninstall`` puts the originals back.

- A span is ``[name, start, end, parent index]``. Spans stay in memory and
  ``Tracer.dump`` writes them out when the run ends.
- Model layers (``model.conv3``, ``model.bn3``, ``model.gru1``, ...) are named
  from the identity of the kernel, batch-norm state or GRU parameters passed
  to the op, looked up in the ``ModelParams`` of the enclosing
  ``model.forward`` call; pools are named from their window.
- A graph node belongs to the innermost layer span open when it was created;
  nodes that ``model.forward`` creates outside every layer (the reshape before
  the GRUs, dropout) belong to ``model.other``. When ``Tensor.backward`` runs,
  each node's backward closure is timed and the time goes to its layer.
- Times are CPU seconds of the process (``time.process_time``). They are not
  rescaled like the benchmark's samples, and a span open when the host-speed
  probe runs holds the probe's time (about 1% of the CPU time).
- Saved bytes are computed, not measured: the distinct arrays that a step's
  backward closures hold (directly or through a captured non-leaf Tensor),
  each counted once, for the first node in creation order that holds it. Leaf
  data (inputs and parameters) is excluded.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

import esckit.dataset  # noqa: F401  (loads every module whose functions are wrapped)
import esckit.evaluate  # noqa: F401
from esckit import autodiff as ad
from esckit import model

# (module, function name, span name); the span opens around every call.
FUNCTION_SPANS = (
    ("esckit.dataset", "read_wav", "dataset.read_wav"),
    ("esckit.features", "extract_segments", "features.extract_segments"),
    ("esckit.augment", "time_stretch", "augment.time_stretch"),
    ("esckit.augment", "pitch_shift", "augment.pitch_shift"),
    ("esckit.cachefile", "write_cache", "cachefile.write_cache"),
    ("esckit.cachefile", "read_cache", "cachefile.read_cache"),
    ("esckit.features", "compute_norm_stats", "features.compute_norm_stats"),
    ("esckit.features", "apply_norm", "features.apply_norm"),
    ("esckit.augment", "mixup_arrays", "augment.mixup_arrays"),
    ("esckit.train", "train", "train.train"),
    ("esckit.train", "sgd_nesterov_step", "train.sgd_nesterov_step"),
    ("esckit.evaluate", "predict_clip", "evaluate.predict_clip"),
    ("esckit.model", "rnn_attention", "model.attention"),
    ("esckit.model", "cnn_attention", "model.attention"),
    ("esckit.autodiff", "relu", "model.relu"),
    ("esckit.autodiff", "cross_entropy", "model.head"),
)


def _root(arr):
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


class Tracer:
    """Records spans and per-layer backward time while installed."""

    def __init__(self):
        self.spans = []
        self.bwd_s = defaultdict(float)
        self.step_graphs = []  # one dict per backward pass
        self._open = []        # indices into spans
        self._layers = []      # open model-layer span names
        self._created = []     # (node, layer) since the last model.forward began
        self._names = {}       # id(object) -> layer name for the current forward
        self._patched = []     # (module, attribute, original)

    # -- spans ----------------------------------------------------------------

    def _enter(self, name, layer=False):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.process_time(), None, parent])
        self._open.append(len(self.spans) - 1)
        if layer:
            self._layers.append(name)

    def _exit(self, layer=False):
        self.spans[self._open.pop()][2] = time.process_time()
        if layer:
            self._layers.pop()

    def _call(self, name, fn, args, kwargs, layer=False):
        self._enter(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(layer)

    def _layer(self):
        return self._layers[-1] if self._layers else "model.other"

    # -- install / uninstall ------------------------------------------------------

    def _replace(self, module_name, attr, wrapper_factory):
        """Wrap ``module.attr`` everywhere in esckit that holds the same object."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = functools.wraps(original)(wrapper_factory(original))
        for name, module in list(sys.modules.items()):
            if (name == "esckit" or name.startswith("esckit.")) \
                    and getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, original))

    def install(self):
        for module_name, attr, span in FUNCTION_SPANS:
            layer = span.startswith("model.")
            self._replace(module_name, attr, lambda fn, span=span, layer=layer:
                          lambda *a, **k: self._call(span, fn, a, k, layer))

        self._replace("esckit.model", "forward", self._wrap_forward)
        self._replace("esckit.autodiff", "conv2d", self._layer_op(
            1, lambda n: f"model.{n[:-7]}" if n.startswith("conv") and n.endswith(".kernel")
            else None))
        self._replace("esckit.autodiff", "batchnorm", self._layer_op(
            1, lambda n: f"model.{n}" if n.startswith("bn") else None))
        self._replace("esckit.autodiff", "gru_bidirectional", self._layer_op(
            1, lambda n: f"model.{n}" if n.startswith("gru") else None))
        self._replace("esckit.autodiff", "dense", self._layer_op(
            1, lambda n: "model.head" if n == "fc.weight" else None))
        self._replace("esckit.autodiff", "softmax", self._wrap_softmax)
        pools = {tuple(w): f"model.pool{i}" for i, w in model.POOLS.items()}
        self._replace("esckit.autodiff", "maxpool2d", lambda fn: lambda x, window: (
            self._call(pools[tuple(window)], fn, (x, window), {}, layer=True)
            if tuple(window) in pools else fn(x, window)))
        self._replace("esckit.autodiff", "_node", self._wrap_node)
        original_backward = ad.Tensor.backward
        self._patched.append((ad.Tensor, "backward", original_backward))
        ad.Tensor.backward = functools.wraps(original_backward)(
            lambda tensor: self._backward(original_backward, tensor))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._created.clear()
        self._names.clear()

    # -- model wrappers ---------------------------------------------------------

    def _wrap_forward(self, fn):
        def forward(params, *args, **kwargs):
            names = {id(t): name for name, t in params.tensors.items()}
            names.update({id(state): name for name, state in params.bn.items()})
            names[id(params.gru1)] = "gru1"
            names[id(params.gru2)] = "gru2"
            self._names = names
            self._created.clear()
            return self._call("model.forward", fn, (params,) + args, kwargs)
        return forward

    def _layer_op(self, arg_index, layer_of):
        """Open the layer span that ``layer_of`` names for the parameter object
        at ``arg_index``; ``None`` (attention kernels and weights) opens no
        span, so those nodes fall to the enclosing attention layer."""
        def factory(fn):
            def wrapper(*args, **kwargs):
                obj = args[arg_index] if len(args) > arg_index else None
                layer = layer_of(self._names.get(id(obj), ""))
                if layer is None:
                    return fn(*args, **kwargs)
                return self._call(layer, fn, args, kwargs, layer=True)
            return wrapper
        return factory

    def _wrap_softmax(self, fn):
        def softmax(x):
            if self._layers:  # inside attention or the head already
                return fn(x)
            return self._call("model.head", fn, (x,), {}, layer=True)
        return softmax

    def _wrap_node(self, fn):
        def node(data, inputs, op):
            out = fn(data, inputs, op)
            if out.requires_grad:
                self._created.append((out, self._layer()))
            return out
        return node

    # -- backward -------------------------------------------------------------

    def _backward(self, original, tensor):
        created, self._created = self._created, []
        self.step_graphs.append(self._graph_stats(created))
        acc = self.bwd_s
        for node, layer in created:
            fn = node._backward
            if fn is None:
                continue

            def timed(g, fn=fn, layer=layer):
                t0 = time.process_time()
                fn(g)
                acc[layer] += time.process_time() - t0
            node._backward = timed
        self._call("autodiff.backward", original, (tensor,), {})

    @staticmethod
    def _graph_stats(created):
        """Node counts and computed saved bytes per layer for one step's graph."""
        leaf_roots, held = set(), []
        for node, layer in created:
            arrays = []
            cells = node._backward.__closure__ if node._backward is not None else None
            for cell in cells or ():
                try:
                    value = cell.cell_contents
                except ValueError:  # empty cell
                    continue
                values = value if isinstance(value, (list, tuple)) else (value,)
                for v in values:
                    if isinstance(v, np.ndarray):
                        arrays.append(v)
                    elif isinstance(v, ad.Tensor):
                        if v._prev:
                            arrays.append(v.data)
                        else:
                            leaf_roots.add(id(_root(v.data)))
            for parent in node._prev:
                if not parent._prev:
                    leaf_roots.add(id(_root(parent.data)))
            held.append((layer, arrays))
        seen, saved = set(), defaultdict(int)
        for layer, arrays in held:
            for arr in arrays:
                root = _root(arr)
                if id(root) in seen or id(root) in leaf_roots:
                    continue
                seen.add(id(root))
                saved[layer] += root.nbytes
        return {
            "nodes": len(created),
            "f64_nodes": sum(1 for node, _ in created if node.data.dtype == np.float64),
            "saved_bytes": dict(saved),
        }

    # -- results --------------------------------------------------------------

    def totals(self):
        """span name -> {"calls", "incl_s", "self_s"} over every closed span."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            row = out[name]
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return dict(out)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "backward_s": dict(self.bwd_s),
                       "step_graphs": self.step_graphs}, fh)
