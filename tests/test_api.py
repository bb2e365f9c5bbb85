"""The documented Python API: the package's exported names and the README example."""

import re
from pathlib import Path

import lorapcsma

README = Path(__file__).resolve().parent.parent / "README.md"


def test_package_exports_the_four_documented_names():
    assert lorapcsma.__all__ == ["RunConfig", "Simulation", "compute_prr", "run_scenario"]
    assert all(hasattr(lorapcsma, name) for name in lorapcsma.__all__)


def test_readme_python_api_example_runs_as_written():
    # Every python block of the section, in order, in one namespace: a later
    # block may use what an earlier one defined.
    section = README.read_text().split("## Python API", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    namespace = {}
    for code in blocks:
        exec(code, namespace)
    assert 0.0 <= namespace["prr_generated"] <= 1.0
    assert namespace["staggered"].counters.received == namespace["staggered"].counters.sent
    assert namespace["vicinity"].shape == (60, 60)
