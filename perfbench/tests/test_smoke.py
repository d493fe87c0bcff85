"""Smoke test: every workload, both modes, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONFIG["workloads"]]


def _run(workload: str, trace: int) -> dict:
    command = [*CONFIG["command"], "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric_and_passes_the_oracle(workload, trace):
    """Every declared metric is printed with its unit; the oracle holds."""
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0  # failed_frac == 0
    assert result["attempted"] >= 1
    declared = CONFIG["per_layer" if trace else "end_to_end"]
    assert {name: result["metrics"][name]["unit"] for name in result["metrics"]} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_refuses_to_run_without_the_sources(tmp_path):
    """With only the benchmark's own files present it exits non-zero."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in (ROOT / "perfbench").glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
