"""A step of the CI workflow, run here as the workflow runs it.

The step builds configs with the command-line tool and checks the wording of
an error, so running it keeps the workflow file and the code from drifting
apart.  The long steps (full sweeps, the benchmark) stay in CI only.
"""

import os
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STEP = "The other two commands build their configs and finish"


def test_the_workflow_command_step_passes(tmp_path):
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tests"]["steps"]
    (script,) = [step["run"] for step in steps if step.get("name") == STEP]
    # CI installs the package, which provides the `lorapcsma` entry point;
    # a shim on PATH stands in for it.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "lorapcsma"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m lorapcsma.cli "$@"\n')
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
    assert "overflow.txt:1: x must be at most" in proc.stdout
