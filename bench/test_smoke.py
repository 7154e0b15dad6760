"""Smoke check of the benchmark itself.

Runs every workload at a tiny size (--smoke: small resolutions, one pass)
and checks the result line against BENCHMARK.json: every declared metric
is emitted with its unit, no op fails, and two traced runs with the same
seed give identical counts of calls and work. Run with:

    python -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run_bench(run_py: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess, section: str) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    result = result_of(run_bench(BENCH / "run.py", workload, 0), "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted_and_counts_repeat(workload):
    first, second = (
        result_of(run_bench(BENCH / "run.py", workload, 1), "per_layer") for _ in range(2)
    )

    # report.write.bytes is left out: the metadata's elapsed_ms varies in width
    def counts(result):
        return {n: m["value"] for n, m in result["metrics"].items() if m["unit"] == "count"}

    assert counts(first) == counts(second)
    assert any(counts(first).values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path / BENCH.name / "run.py", WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
