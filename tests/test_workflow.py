"""Steps of the CI workflow, run here as the workflow runs them.

One step builds configs with the command-line tool and checks the wording of
an error; another runs the Poisson (ALOHA) benchmark with numpy blocked and
checks its CSV against ``perfbench/golden.json``.  Running them keeps the
workflow file and the code from drifting apart.  The long steps (full sweeps,
the benchmark) stay in CI only.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


@pytest.mark.parametrize(
    "step,expected",
    [
        pytest.param(
            "The other two commands build their configs and finish",
            "overflow.txt:1: x must be at most",
            id="commands",
        ),
        pytest.param(
            "The ALOHA benchmark gives its golden CSV with numpy blocked",
            "aloha.csv: OK",
            id="aloha-without-numpy",
        ),
    ],
)
def test_the_workflow_step_passes(tmp_path, step, expected):
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tests"]["steps"]
    (script,) = [s["run"] for s in steps if s.get("name") == step]
    # CI installs the package, which provides the `lorapcsma` entry point,
    # and runs `python` from its own interpreter; shims on PATH stand in.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, command in (("lorapcsma", "-m lorapcsma.cli "), ("python", "")):
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" {command}"$@"\n')
        shim.chmod(0o755)
    env = {
        **os.environ,
        "PATH": f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
        "PYTHONPATH": str(SRC),
        "RUNNER_TEMP": str(tmp_path),
    }
    proc = subprocess.run(
        ["bash", "-eo", "pipefail", "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert expected in proc.stdout
