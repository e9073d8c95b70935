"""The benchmark's own use of the library API, under the test suite.

perfbench/ calls logalg by name (its traced targets, genfun_coefficient(k),
AssociatedRule(f), ...), so a renamed function or a changed signature
should fail here rather than in a benchmark run.  Each pass runs as a
subprocess, because perfbench/oracles.py and tests/oracles.py share a
module name.  Nothing under perfbench/ is written.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def worker(workload, mode):
    """One benchmark pass for seed 1; returns its result object."""
    cmd = [sys.executable, "perfbench/worker.py", workload, "1", mode, "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["verify-deep", "session-warm"])
def test_benchmark_trace_prefix_runs_clean(workload):
    result = worker(workload, "count")
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert any(result["trace"]["calls"].values())


def test_benchmark_scaling_sweep_runs():
    result = worker("verify-deep", "sweep")
    assert result["ops_exp"] and all(math.isfinite(v) for v in result["ops_exp"].values())
