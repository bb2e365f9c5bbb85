"""Self-test of the benchmark harness.

Runs every workload at a shrunken size, untraced and traced, and checks that
each metric named in BENCHMARK.json is reported with its unit and a finite
value, and that every repetition passed verification.  Takes about a minute.

Usage (from the repository root): python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys

from run import ROOT, run_one
from workloads import WORKLOADS


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unknown = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    if unknown:
        print(f"FAIL: BENCHMARK.json names workloads workloads.py lacks: {sorted(unknown)}")
        return 1
    errors = []
    for name in WORKLOADS:
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = run_one(name, seed=7, seconds=0.0, trace=trace, small=True)
            metrics = result.pop("metrics")
            where = f"{name} trace={int(trace)}"
            if not result["correct"] or result["failed"] or result["attempted"] < 2:
                errors.append(f"{where}: {result}")
            for m in wanted:
                got = metrics.get(m["name"])
                if got is None:
                    errors.append(f"{where}: {m['name']} missing")
                elif got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    errors.append(f"{where}: {m['name']} = {got}")
            if set(metrics) != {m["name"] for m in wanted}:
                errors.append(f"{where}: unexpected metrics {sorted(set(metrics) - {m['name'] for m in wanted})}")
    for error in errors:
        print("FAIL:", error)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
