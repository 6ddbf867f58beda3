"""Structure test of the benchmark: each workload at its smallest size.

Run from the repository root with ``python3 -m pytest perfbench/test_bench.py``.
It checks that every metric declared in BENCHMARK.json is emitted with its
unit, that the output parses and that no operation failed, on the workloads
BENCHMARK.json gates and on ``train_full``, which is run by hand. It never
asserts a timing.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# The figures each workload names in its report, beside setup_s, peak_rss_mb
# and fail_share, which every workload reports.
FIGURES = {
    "extract": {"extract_clips_per_s": "1/s", "load_s": "s"},
    "train_full": {"train_step_s": "s", "val_epoch_s": "s"},
    "cv_desk": {"cv_wall_s": "s"},
}


def bench(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(FIGURES))
def test_workload_emits_every_declared_metric(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)["report"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))

    figures = report["figures"]
    expected = dict(FIGURES[workload], setup_s="s", peak_rss_mb="MB", fail_share="share")
    assert {name: figures[name]["unit"] for name in expected} == expected
    assert figures["fail_share"]["value"] == 0
    env = report["environment"]
    assert env["seed"] == 3
    assert env["nproc"] >= 1
    assert {"python", "numpy", "blas", "sizes"} <= set(env)
    assert {"name", "version", "threads"} == set(env["blas"])
    if workload == "extract":
        assert len(report["info"]["cache_sha256"]) == 64
    if workload == "train_full" and not trace:
        assert {"inputs", "esc50_hours_per_epoch", "esc50_hours_per_fold",
                "inference_s_per_clip"} == set(report["estimates"])
    if trace:
        assert os.path.isfile(os.path.join(ROOT, report["spans_file"]))


def test_every_gated_workload_is_tested():
    assert {w["name"] for w in SPEC["workloads"]} <= set(FIGURES)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("extract", 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
