"""Smoke test of the traced benchmark on shrunken workloads.

The traced benchmark wraps program callables by the names their callers look
them up by; running it here makes a rename of any of them fail the test suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def run_one():
    sys.path.insert(0, str(BENCH))  # run.py imports its sibling workloads.py
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module.run_one


@pytest.mark.parametrize("workload", ["sweep_paper", "aloha_g05"])
def test_traced_benchmark_passes_verification(run_one, workload):
    result = run_one(workload, seed=7, seconds=0.0, trace=True, small=True)
    assert result["correct"]
    assert result["failed"] == 0
