"""Smoke test of the benchmark: every workload at the tiny size, in both trace modes.

    python3 -m pytest bench/test_smoke.py -q

Each case runs bench/run.py in one subprocess at a time and checks that the
last line carries exactly the metrics BENCHMARK.json names, with their
units, and that every output check passed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, seed=3):
    script = os.path.join(cwd, "bench", "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def check_metrics(result, spec_key):
    expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = result_of(run_bench(workload, 0))
    check_metrics(result, "end_to_end")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["passed_frac"] == 1.0
    assert all(isinstance(v, float) and v > 0 for v in values.values()), values


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_repeatable_counts(workload):
    first = result_of(run_bench(workload, 1))
    check_metrics(first, "per_layer")
    assert all(m["value"] is not None for m in first["metrics"].values()), first
    second = result_of(run_bench(workload, 1))
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B")]
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: second["metrics"][n]["value"] for n in counts}


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
