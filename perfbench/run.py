"""esckit benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload extract|train_full|cv_desk \
        --seed N --seconds S --trace 0|1 [--size full|smoke]

The workload runs in one child process (``workloads.py``), alone, so its peak
RSS is the child's. The child gets one BLAS thread and its timings are its CPU
seconds, which leave out hypervisor steal, rescaled by a probe of the host's
speed (see ``workloads.py``); the plain CPU and wall seconds are in the report
beside them. With ``--trace 0`` the last stdout line
carries the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries
the per-layer metrics and the tracing overhead. The line before it is the full
report: environment, every timing as median / percentile / count, the named
figures of each workload, checks and derived full-scale estimates. The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 170
# ESC-50 with 2 augmented copies per clip gives about 24k segments per training
# fold; the paper trains 300 epochs (TrainConfig's default).
ESC50_TRAIN_SEGMENTS = 24000
EPOCHS_PER_FOLD = 300

# What op and aux time on each workload, under the names the report uses.
NAMED = {
    "extract": {"op": ("extract_s_per_clip", "s"), "aux": ("load_s", "s")},
    "train_full": {"op": ("train_step_s", "s"), "aux": ("val_epoch_s", "s")},
    "cv_desk": {"op": ("cv_wall_s", "s"), "aux": ("load_s", "s")},
}


def summarize(samples):
    """Median, the highest percentile with at least ten samples beyond it, count."""
    xs = sorted(samples)
    out = {"count": len(xs), "median": statistics.median(xs) if xs else None,
           "max": xs[-1] if xs else None}
    for p in (99.9, 99, 90):
        if len(xs) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = xs[min(len(xs) - 1, math.ceil(p / 100 * len(xs)) - 1)]
            break
    return out


def timing(samples, key, unit="s"):
    """A timing figure: summary of its samples (CPU seconds at the probe's
    reference speed), and the plain CPU and wall medians."""
    cpu, wall = samples[f"{key}_cpu"], samples[f"{key}_wall"]
    return dict(summarize(samples[key]), unit=unit,
                cpu_median=statistics.median(cpu) if cpu else None,
                wall_median=statistics.median(wall) if wall else None)


def named_figures(workload, report, peak_rss_mb):
    samples = report["samples"]
    attempted, failed = report["attempted"], report["failed"]
    figures = {
        "setup_s": timing(samples, "setup"),
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "fail_share": {"value": failed / attempted if attempted else 1.0, "unit": "share",
                       "failed": failed, "attempted": attempted},
    }
    for key, (name, unit) in NAMED[workload].items():
        figures[name] = timing(samples, key, unit)
    if workload == "extract":
        figures["extract_clips_per_s"] = dict(
            summarize([1.0 / s for s in samples["op"]]), unit="1/s")
    return figures


def estimates(report):
    """Full-scale figures derived from train_full's measured medians (not gated)."""
    sizes = report["environment"]["sizes"]
    step = statistics.median(report["samples"]["op"])
    val = statistics.median(report["samples"]["aux"])
    per_segment = step / sizes["batch"]
    hours_epoch = ESC50_TRAIN_SEGMENTS * per_segment / 3600
    return {
        "inputs": {"train_step_s": step, "batch": sizes["batch"], "val_epoch_s": val,
                   "val_clips": sizes["val_clips"],
                   "esc50_train_segments": ESC50_TRAIN_SEGMENTS,
                   "epochs_per_fold": EPOCHS_PER_FOLD},
        "esc50_hours_per_epoch": hours_epoch,
        "esc50_hours_per_fold": hours_epoch * EPOCHS_PER_FOLD,
        "inference_s_per_clip": val / sizes["val_clips"],
    }


def end_to_end(workload, figures):
    """The gated metrics, read off the named figures; a timing with no sample
    (the run failed before it) is left out."""
    metrics = {
        "setup_s": figures["setup_s"]["median"],
        "peak_rss_mb": figures["peak_rss_mb"]["value"],
        "ok_share": 1.0 - figures["fail_share"]["value"],
        "op_s": figures[NAMED[workload]["op"][0]]["median"],
        "aux_s": figures[NAMED[workload]["aux"][0]]["median"],
    }
    units = {"peak_rss_mb": "MB", "ok_share": "share"}
    return {name: {"value": value, "unit": units.get(name, "s")}
            for name, value in metrics.items() if value is not None}


def per_layer(report):
    metrics = dict(report["layers"])
    over = report["overhead"]
    share = (statistics.median(over["traced"]) / statistics.median(over["untraced"]) - 1.0
             if over["traced"] and over["untraced"] else 0.0)
    metrics["bench.trace.overhead_share"] = {"value": share, "unit": "share"}
    return metrics


def steal_s():
    """Seconds the hypervisor kept this machine's CPUs from running (all CPUs)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NAMED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "esckit", "__init__.py")):
        print(f"esckit sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    work = os.path.join(HERE, ".work")
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, f"report-{args.workload}-{args.seed}-{os.getpid()}.json")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--out", out]
    # A SIGTERM unwinds through the finally below, which stops the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    steal_before = steal_s()
    # One BLAS thread: the child's CPU time is then the time of its work, while
    # with two threads one spins whenever the hypervisor stops the other.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    # The child's stdout goes to stderr so the result line stays last on stdout.
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, env=env)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload {args.workload} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if code != 0 or not os.path.isfile(out):
        print(f"workload {args.workload} exited with code {code}", file=sys.stderr)
        return 2
    with open(out) as fh:
        report = json.load(fh)
    os.remove(out)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    peak_rss_mb = usage.ru_maxrss / 1024.0
    steal_after = steal_s()
    machine = {"child_cpu_s": usage.ru_utime + usage.ru_stime,
               "steal_s": None if steal_before is None or steal_after is None
               else steal_after - steal_before}

    failed = report["failed"]
    correct = failed == 0
    for failure in report["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    detail = {"workload": args.workload, "trace": args.trace,
              "environment": report["environment"], "machine": machine,
              "info": report["info"], "probe": report["probe"], "samples": report["samples"],
              "figures": named_figures(args.workload, report, peak_rss_mb)}
    if args.workload == "train_full" and report["samples"]["op"] and report["samples"]["aux"]:
        detail["estimates"] = estimates(report)
    # Metrics are emitted even when a check failed, so that ok_share shows it.
    if args.trace:
        detail["overhead"] = report["overhead"]
        detail["spans_file"] = report["spans_file"]
        metrics = per_layer(report)
    else:
        metrics = end_to_end(args.workload, detail["figures"])
    for name, fig in detail["figures"].items():
        value = fig.get("median", fig.get("value"))
        extra = {k: v for k, v in fig.items() if k not in ("median", "value", "unit")}
        print(f"{args.workload:10s} {name:20s} {value!r:>24} {fig['unit']:6s} {extra}")
    for name, est in detail.get("estimates", {}).items():
        print(f"{args.workload:10s} estimate {name}: {est}")
    print(json.dumps({"report": detail}))
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
