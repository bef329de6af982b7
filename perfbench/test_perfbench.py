"""The benchmark's own checks: equal seeds repeat exactly (under different
PYTHONHASHSEED values), different seeds give different instances, every
metric named in BENCHMARK.json is printed with its unit, and the benchmark
refuses to run without the library's sources."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, hashseed=0):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


def traced(workload, seed, instances, hashseed=0):
    proc = bench("--workload", workload, "--seed", seed, "--seconds", 1,
                 "--trace", 1, "--instances", instances, hashseed=hashseed)
    assert proc.returncode == 0, proc.stderr
    *_, summary, result = proc.stdout.strip().splitlines()
    return dict(field.split("=", 1) for field in summary.split()), json.loads(result)


def counts(result):
    """The per-layer metrics that must repeat exactly: all but timings."""
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] != "ms" and name != "trace.overhead_ratio"
    }


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_runs_repeat_for_equal_seeds(workload):
    summary, result = traced(workload, 7, 2, hashseed=1)
    again_summary, again = traced(workload, 7, 2, hashseed=2)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert summary["inputs"] == again_summary["inputs"]
    assert summary["outputs"] == again_summary["outputs"]
    assert counts(result) == counts(again)
    assert counts(result)["flow.calls"] > 0

    other_summary, _ = traced(workload, 8, 1)
    first_summary, _ = traced(workload, 7, 1)
    assert other_summary["inputs"] != first_summary["inputs"]


def test_untraced_run_prints_every_end_to_end_metric():
    proc = bench("--workload", "decomp_gnp", "--seed", 3, "--seconds", 0.1, "--trace", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 2
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "pwaycut", "--seed", 1, "--seconds", 1, "--trace", 0,
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
