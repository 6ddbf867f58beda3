"""One benchmark workload, run in its own process by ``run.py``.

Usage: python3 perfbench/workloads.py --workload NAME --seed N --seconds S
       --trace 0|1 --size full|smoke --out REPORT.json

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished. Each operation is checked; a failed check
or an exception counts as a failed operation and ends the measurement. The
report holds raw samples; ``run.py`` turns them into metrics.

Samples are CPU seconds of this process (``time.process_time``) rescaled to
the host speed at which the probe kernel takes ``PROBE_REF_S``, with the plain
CPU seconds beside them under ``<key>_cpu`` and the wall seconds under
``<key>_wall``. ``run.py`` starts this process with one BLAS thread, so the
process does its work on one thread and its CPU time is that work's time
without the time the hypervisor takes from the machine (steal): Linux with
paravirtual time accounting does not charge steal to a task. What CPU time
still carries is the slower CPU of a busy host, whose other guests share the
cores and caches; the probe measures that while the workload runs (see
``Probe``).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import esckit  # noqa: E402
from esckit import autodiff as ad  # noqa: E402
from esckit import cachefile, dataset, evaluate, features  # noqa: E402
from esckit import model as acrnn  # noqa: E402
from esckit import train as tr  # noqa: E402
from esckit.augment import AugmentConfig  # noqa: E402
from esckit.data import SegmentDataset, one_hot  # noqa: E402
from esckit.features import LogGTSegment, NormStats  # noqa: E402

import synth  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 5
# Wall seconds between two probes. A wall-clock timer: while a CPU-time timer
# is armed, Linux reads the process CPU clock at scheduler-tick resolution.
PROBE_INTERVAL_S = 0.25
# About the probe kernel's CPU seconds on a calm host (2-vCPU Xeon VM); samples
# are rescaled to that speed. It sets the unit only: both sides of a
# comparison are rescaled alike.
PROBE_REF_S = 0.002
# A sample's speed is the median of the probes taken while it ran, and of
# those nearest to it when fewer ran.
MIN_PROBES = 15


class Probe:
    """Measures the host's speed while the workload runs.

    Every ``PROBE_INTERVAL_S`` a SIGALRM handler runs a fixed kernel over a
    4 MiB array that the workload has pushed out of cache by then: random
    gathers, a streaming pass and a small GEMM, none of which allocates. A
    busy host slows this process mostly through the memory traffic of its
    other guests, and the kernel slows with it, so a sample divided by the
    kernel's median time over the same stretch is the sample at one steady
    speed. The probes' own time is taken out of ``clock()``.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.data = rng.standard_normal(1 << 19)
        self.out = np.empty_like(self.data)
        self.index = rng.integers(0, self.data.size, 2048)
        self.gathered = np.empty(self.index.size)
        self.matrix = rng.standard_normal((96, 96))
        self.product = np.empty_like(self.matrix)
        self.times = []  # CPU seconds of each probe
        self.spent = np.zeros(2)  # CPU and wall seconds of all probing

    def kernel(self):
        total = 0.0
        for _ in range(60):
            np.take(self.data, self.index, out=self.gathered)
            total += float(self.gathered.sum())
        np.multiply(self.data, 0.5, out=self.out)
        np.add(self.out, 1.0, out=self.out)
        for _ in range(4):
            np.matmul(self.matrix, self.matrix, out=self.product)
        return total

    def probe(self, *_):
        t0 = np.array([time.process_time(), time.perf_counter()])
        self.kernel()
        t1 = np.array([time.process_time(), time.perf_counter()])
        self.times.append(t1[0] - t0[0])
        self.spent += t1 - t0

    def start(self):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.times:  # a run shorter than one interval
            self.probe()

    def slowdown(self, first, end):
        """Median time of probes ``first`` to ``end`` (widened to the nearest
        ``MIN_PROBES`` when fewer), relative to ``PROBE_REF_S``."""
        short = max(0, MIN_PROBES - (end - first))
        first = max(0, min(first - short // 2, len(self.times) - MIN_PROBES))
        end = max(end, first + MIN_PROBES)
        return statistics.median(self.times[first:end]) / PROBE_REF_S

    def summary(self):
        return {"count": len(self.times), "median_s": statistics.median(self.times),
                "ref_s": PROBE_REF_S, "interval_s": PROBE_INTERVAL_S,
                "spent_cpu_s": float(self.spent[0])}


PROBE = Probe()


def clock():
    """(CPU seconds of this process, wall seconds), both without the probes'
    time; subtract two to time a span."""
    return np.array([time.process_time(), time.perf_counter()]) - PROBE.spent


SIZES = {
    "full": {
        "extract": {"clips": 24, "copies": 2},
        "train_full": {"batch": 16, "classes": 50, "val_clips": 4, "segments_per_clip": 5},
        "cv_desk": {"clips": 50, "epochs": 2, "batch": 64, "aux_repeats": 15},
    },
    "smoke": {
        "extract": {"clips": 2, "copies": 2},
        "train_full": {"batch": 2, "classes": 50, "val_clips": 1, "segments_per_clip": 5},
        "cv_desk": {"clips": 10, "epochs": 1, "batch": 64, "aux_repeats": 1},
    },
}


class Run:
    """Samples, operation counts and failures of one workload run."""

    def __init__(self, seconds, tracer):
        self.seconds = seconds
        self.tracer = tracer
        self.samples = {f"{key}{kind}": [] for key in ("setup", "op", "aux")
                        for kind in ("", "_cpu", "_wall")}
        self.attempted = 0
        self.failed = 0
        self.failures = []  # messages; one failed operation can fail several checks
        self.info = {}
        self.overhead = {"untraced": [], "traced": []}
        self.windows = {key: [] for key in ("setup", "op", "aux")}
        self.probes_seen = 0

    def sample(self, key, elapsed):
        """Record a ``clock()`` difference: plain CPU seconds under
        ``<key>_cpu``, wall seconds under ``<key>_wall``, and the probes taken
        since the previous sample, for ``rescale``."""
        self.samples[f"{key}_cpu"].append(float(elapsed[0]))
        self.samples[f"{key}_wall"].append(float(elapsed[1]))
        self.windows[key].append((self.probes_seen, len(PROBE.times)))
        self.probes_seen = len(PROBE.times)

    def rescale(self):
        """Fill ``samples[key]``: CPU seconds at the probe's reference speed."""
        for key, windows in self.windows.items():
            self.samples[key] = [cpu / PROBE.slowdown(*window) for cpu, window
                                 in zip(self.samples[f"{key}_cpu"], windows)]

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)
        return ok

    def attempt(self, fn, *args):
        """Run one operation; an exception is recorded as a failure.

        After the first failure nothing more runs: the measurement has ended.
        """
        if self.failures:
            return False
        self.attempted += 1
        before = len(self.failures)
        try:
            fn(*args)
        except Exception:  # a benchmark boundary: report the failure, stop measuring
            self.failures.append(traceback.format_exc())
        if len(self.failures) > before:
            self.failed += 1
            return False
        return True

    def loop(self, budget_s, min_count, fn):
        """Repeat ``fn`` until the next call would overrun ``budget_s``."""
        start, durations = time.perf_counter(), []
        while True:
            t0 = time.perf_counter()
            if not self.attempt(fn):
                return
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if len(durations) >= min_count and elapsed + statistics.median(durations) > budget_s:
                return

    def traced(self, fn, *args):
        self.tracer.install()
        try:
            return self.attempt(fn, *args)
        finally:
            self.tracer.uninstall()

    def compare(self, op, rounds):
        """Untraced and traced calls of ``op`` for the tracing overhead, in the
        order U T, T U, U T, ... so that a drift over the run cancels out.

        ``op(False)`` returns its CPU seconds without adding them to the samples.
        """
        calls = [("untraced", self.attempt), ("traced", self.traced)]
        for r in range(rounds):
            for key, call in calls[::-1] if r % 2 else calls:
                if not call(lambda: self.overhead[key].append(op(False))):
                    return


def timed_setup(run, fn):
    """Run ``fn`` SETUP_REPEATS times, sampling each; returns the last result."""
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        result = fn()
        run.sample("setup", clock() - t0)
    return result


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# -- extract -------------------------------------------------------------------

def extract(run, size, seed, work, trace):
    """WAV decode, gammatone features and stretch/shift copies into an LGT cache,
    then the cache read back and its normalization statistics."""
    audio = os.path.join(work, "audio")

    def setup():
        shutil.rmtree(audio, ignore_errors=True)
        meta = synth.write_audio_tree(audio, size["clips"], seed)
        return dataset.load_metadata(meta, variant="custom")

    records = timed_setup(run, setup)
    by_name = {r.filename: r for r in records}
    augment = AugmentConfig(copies_per_clip=size["copies"])
    cache = os.path.join(work, "cache.lgt")
    frames = int(synth.CLIP_SECONDS * synth.SAMPLE_RATE - features.STFT_WINDOW) \
        // features.STFT_HOP + 1
    raw_per_clip = (frames - features.SEGMENT_FRAMES) // features.SEGMENT_HOP + 1
    digests = set()

    def one_pass(sample=True):
        t0 = clock()
        written = dataset.build_cache(records, audio, augment, cache, seed=seed)
        t1 = clock()
        loaded = cachefile.read_cache_dataset(cache)
        stats = features.compute_norm_stats(loaded.segments)
        t2 = clock()
        if sample:
            run.sample("op", (t1 - t0) / len(records))
            run.sample("aux", t2 - t1)
        segs = loaded.segments
        run.check(len(segs) == written, f"cache holds {len(segs)} segments, {written} written")
        raw, aug = {}, {}
        for s in segs:
            record = by_name.get(s.clip_id)
            if not run.check(record is not None and (s.label, s.fold)
                             == (record.target, record.fold),
                             f"{s.clip_id}#{s.segment_index}: label/fold disagree with metadata"):
                break
            counts = aug if s.augmented else raw
            counts[s.clip_id] = counts.get(s.clip_id, 0) + 1
        run.check(all(raw.get(name) == raw_per_clip for name in by_name),
                  f"raw segments per clip {sorted(set(raw.values()))}, expected {raw_per_clip}")
        run.check(set(aug) == set(by_name), "a clip has no augmented segments")
        run.check(bool(np.all(stats.std > 0)), f"norm std {stats.std} not positive")
        digests.add(sha256(cache))
        run.check(len(digests) == 1, "same seed gave different cache bytes")
        run.info.update(segments=written, cache_bytes=os.path.getsize(cache),
                        cache_sha256=sorted(digests)[0])
        return (t1 - t0)[0]

    run.attempt(one_pass, False)  # warm-up: the allocator settles over the first pass
    if trace:
        run.compare(one_pass, 2)
    else:
        run.loop(run.seconds, 3, one_pass)
    return {"clips": len(records), "copies_per_clip": size["copies"],
            "raw_segments_per_clip": raw_per_clip}


# -- train_full ------------------------------------------------------------------

def train_full(run, size, seed, work, trace):
    """Full-width model (50 classes, l10 attention) train steps at batch N, then
    validation epochs of evaluate_fold over held-out 5-segment clips."""
    config = acrnn.ACRNNConfig(num_classes=size["classes"])
    n_val, per_clip = size["val_clips"], size["segments_per_clip"]

    def setup():
        params = acrnn.build(config, seed=seed)
        x, labels = synth.random_batch(size["batch"], size["classes"], seed)
        vx, vlabels = synth.random_batch(n_val * per_clip, size["classes"], seed + 1)
        segs = [LogGTSegment(values=vx[i], clip_id=f"val{i // per_clip:03d}",
                             segment_index=i % per_clip, label=int(vlabels[i // per_clip]),
                             fold=1)
                for i in range(n_val * per_clip)]
        val = SegmentDataset(segments=segs, num_classes=size["classes"])
        return params, x, one_hot(labels, size["classes"]), val

    params, x, y, val = timed_setup(run, setup)
    stats = NormStats(mean=np.zeros(2, np.float32), std=np.ones(2, np.float32))
    opt = tr.OptimizerState.create(params)
    lr = tr.TrainConfig().lr0
    dropout_rng = np.random.default_rng(seed)

    def step(sample=True):
        t0 = clock()
        probs = acrnn.forward(params, x, mode="train", rng=dropout_rng)
        loss = ad.cross_entropy(probs, ad.Tensor(y))
        for t in params.tensors.values():
            t.grad = None
        loss.backward()
        t1 = clock()
        value = loss.item()
        row_sums = probs.data.sum(axis=1)
        bad = [name for name, t in params.tensors.items()
               if t.grad is None or not np.all(np.isfinite(t.grad))]
        run.info["activation_dtype"] = str(probs.data.dtype)
        del probs, loss
        t2 = clock()
        tr.sgd_nesterov_step(params, opt, lr)
        elapsed = (t1 - t0) + (clock() - t2)
        run.check(np.isfinite(value), f"loss {value} not finite")
        run.check(np.allclose(row_sums, 1.0, rtol=0, atol=1e-5),
                  f"probability rows sum to {row_sums.min()}..{row_sums.max()}")
        run.check(not bad, f"parameters without a finite gradient: {bad[:5]}")
        if sample:
            run.sample("op", elapsed)
        return elapsed[0]

    def validate(sample=True):
        t0 = clock()
        _, predictions, truths = evaluate.evaluate_fold(val, params, stats, 1)
        elapsed = clock() - t0
        run.check(len(predictions) == n_val, f"{len(predictions)} predictions for {n_val} clips")
        run.check(all(0 <= p < size["classes"] for p in predictions), "prediction out of range")
        run.check(truths == [s.label for s in val.segments[::per_clip]], "truths reordered")
        if sample:
            run.sample("aux", elapsed)

    run.attempt(step, False)  # warm-up: first-touch allocations are not measured
    if trace:
        run.compare(step, 2)
        run.traced(validate, False)
    else:
        run.loop(0.6 * run.seconds, 3, step)
        run.loop(0.4 * run.seconds, 3, validate)
    return {"batch": size["batch"], "classes": size["classes"], "val_clips": n_val,
            "segments_per_val_clip": per_clip,
            "parameters": params.parameter_count()}


# -- cv_desk ---------------------------------------------------------------------

def cv_desk(run, size, seed, work, trace):
    """5-fold cross_validate at the acceptance-criterion-7 shape (tiny model at
    128x128 input, batch 64, mixup) over a cache of separable segments."""
    cache = os.path.join(work, "cv.lgt")

    def setup():
        rows = synth.separable_segments(size["clips"], seed)
        cachefile.write_cache(cache, [
            LogGTSegment(values=v, clip_id=c, segment_index=0, label=l, fold=f, augmented=a)
            for v, c, l, f, a in rows])

    timed_setup(run, setup)
    model_config = acrnn.ACRNNConfig(num_classes=2, conv_channels=(2, 2, 3, 3, 4, 4, 5, 5),
                                     gru_hidden=4, dropout_p=0.5)
    config = tr.TrainConfig(batch_size=size["batch"], epochs=size["epochs"], seed=seed,
                            augmentation=AugmentConfig(copies_per_clip=1, mixup_enabled=True))
    n_segments = 2 * size["clips"]

    def load():
        t0 = clock()
        loaded = cachefile.read_cache_dataset(cache, num_classes=2)
        stats = features.compute_norm_stats(loaded.segments)
        run.sample("aux", clock() - t0)
        run.check(len(loaded) == n_segments, f"{len(loaded)} segments read, {n_segments} written")
        run.check(bool(np.all(stats.std > 0)), f"norm std {stats.std} not positive")

    def cross_validate(sample=True):
        t0 = clock()
        loaded = cachefile.read_cache_dataset(cache, num_classes=2)
        report = evaluate.cross_validate(loaded, config, model_config)
        elapsed = clock() - t0
        run.check(sorted(report.fold_accuracies) == [1, 2, 3, 4, 5],
                  f"folds run: {sorted(report.fold_accuracies)}")
        run.check(int(report.confusion.sum()) == size["clips"],
                  f"{int(report.confusion.sum())} clip evaluations for {size['clips']} clips")
        run.info["mean_accuracy"] = report.mean_accuracy
        if sample:
            run.sample("op", elapsed)
        return elapsed[0]

    if trace:
        run.compare(cross_validate, 1)
    else:
        for _ in range(size["aux_repeats"]):
            run.attempt(load)
        run.loop(run.seconds, 1, cross_validate)
    return {"clips": size["clips"], "segments": n_segments, "folds": 5,
            "epochs": size["epochs"], "batch": size["batch"], "mixup": True,
            "conv_channels": list(model_config.conv_channels),
            "gru_hidden": model_config.gru_hidden}


WORKLOADS = {"extract": extract, "train_full": train_full, "cv_desk": cv_desk}


# -- environment and per-layer metrics ---------------------------------------------

def blas_threads():
    """The OpenBLAS thread count numpy's bundled library reports, if it can be read."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed, sizes):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "esckit": esckit.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "seed": seed,
        "sizes": sizes,
    }


LAYERS = ([f"conv{i}" for i in range(1, 9)] + [f"bn{i}" for i in range(1, 9)]
          + [f"pool{i}" for i in sorted(acrnn.POOLS)]
          + ["gru1", "gru2", "attention", "head", "relu", "other"])
# Function spans reported as self seconds; the counted ones also as calls.
FUNCTIONS = ("dataset.read_wav", "features.extract_segments", "augment.time_stretch",
             "augment.pitch_shift", "cachefile.write_cache", "cachefile.read_cache",
             "features.compute_norm_stats", "features.apply_norm", "augment.mixup_arrays",
             "evaluate.predict_clip", "train.train", "train.sgd_nesterov_step")
COUNTED = {"features.apply_norm", "augment.mixup_arrays", "evaluate.predict_clip"}


def layer_metrics(tracer, info):
    """Every per-layer metric, named ``<module>.<layer>.<quantity>``.

    Seconds are totals over the run's traced operations: self time for
    function spans, inclusive time for ``model.forward_s`` and
    ``autodiff.backward_s``. ``saved_mb`` (not for pools) is computed for the
    largest train step. Layers a workload never enters read 0.
    """
    totals = tracer.totals()

    def total(span, key):
        return totals.get(span, {}).get(key, 0)

    graphs = tracer.step_graphs
    m = {}
    for layer in LAYERS:
        span = "model.forward" if layer == "other" else f"model.{layer}"
        m[f"model.{layer}.fwd_s"] = (total(span, "self_s"), "s")
        m[f"model.{layer}.bwd_s"] = (tracer.bwd_s.get(f"model.{layer}", 0.0), "s")
        if not layer.startswith("pool"):
            saved = max((g["saved_bytes"].get(f"model.{layer}", 0) for g in graphs), default=0)
            m[f"model.{layer}.saved_mb"] = (saved / 2 ** 20, "MB_computed")
    m["model.forward_s"] = (total("model.forward", "incl_s"), "s")
    m["autodiff.backward_s"] = (total("autodiff.backward", "incl_s"), "s")
    m["autodiff.nodes_per_step"] = (max((g["nodes"] for g in graphs), default=0), "count")
    m["autodiff.f64_nodes_per_step"] = (max((g["f64_nodes"] for g in graphs), default=0),
                                        "count")
    for span in FUNCTIONS:
        m[f"{span}_s"] = (total(span, "self_s"), "s")
        if span in COUNTED:
            m[f"{span}_calls"] = (total(span, "calls"), "count")
    m["train.steps"] = (total("train.sgd_nesterov_step", "calls"), "count")
    m["features.segments_out"] = (info.get("segments", 0), "count")
    m["cachefile.bytes_written"] = (info.get("cache_bytes", 0), "bytes")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    work = os.path.join(ROOT, "perfbench", ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        run = Run(args.seconds, Tracer())
        PROBE.start()
        try:
            sizes = WORKLOADS[args.workload](run, SIZES[args.size][args.workload], args.seed,
                                             work, bool(args.trace))
        finally:
            PROBE.stop()
        run.rescale()
        report = {
            "workload": args.workload, "size": args.size, "trace": args.trace,
            "environment": environment(args.seed, sizes),
            "samples": run.samples, "attempted": run.attempted, "failed": run.failed,
            "failures": run.failures,
            "info": run.info, "probe": PROBE.summary(),
        }
        if args.trace:
            report["overhead"] = run.overhead
            report["layers"] = layer_metrics(run.tracer, run.info)
            spans_path = os.path.join(ROOT, "perfbench", ".work",
                                      f"spans-{args.workload}-{args.seed}.json")
            run.tracer.dump(spans_path)
            report["spans_file"] = os.path.relpath(spans_path, ROOT)
        with open(args.out, "w") as fh:
            json.dump(report, fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
