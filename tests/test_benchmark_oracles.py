"""Every workload that BENCHMARK.json bounds runs once and passes its oracles.

`perfbench/workload.py --seconds 0` makes one pass of a workload (about a
second each) and prints its verdict as the last line; a wrong output there
fails here first.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_passes_its_oracles(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/workload.py", "--workload", workload, "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    verdict = json.loads(proc.stdout.splitlines()[-1])
    assert verdict["correct"] is True, proc.stderr[-2000:]
    assert verdict["failed"] == 0
