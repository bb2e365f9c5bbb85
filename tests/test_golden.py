"""Golden digests of the sweep CSV and of a trace.

The digests pin the simulator's observable output for fixed seeds; a
change that alters them changes behaviour, not just code.
"""

import hashlib
import io
from pathlib import Path

from lorapcsma.config import RunConfig, SweepGrid, load_config
from lorapcsma.metrics import write_csv, write_trace
from lorapcsma.simulation import run_scenario
from lorapcsma.sweep import run_sweep

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SWEEP_CSV_SHA256 = "9aa4f336b99c2fc44e6e747fafc61756b04abe1e486401374df020537ae260e8"
MIXED_SF_TRACE_SHA256 = "dc387ea5632a30a6e3324e387108ee4a905ac24a5e93daa948f9c39026a57c07"


def _sha256(write, data) -> str:
    buf = io.StringIO()
    write(data, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_sweep_csv_matches_golden_digest():
    base = load_config(CONFIGS / "example_run.cfg")
    grid = SweepGrid(
        device_counts=(20, 40),
        p_values=(0.25, 1.0),
        sf_sets=((8,), (8, 9, 10)),
        n_areas_values=(1, 3),
        seeds=(1, 2),
    )
    assert _sha256(write_csv, run_sweep(base, grid)) == SWEEP_CSV_SHA256


def test_mixed_sf_trace_matches_golden_digest():
    cfg = RunConfig(n_devices=60, n_areas=3, sf_set=(8, 9, 10), p=0.25, seed=5)
    assert _sha256(write_trace, run_scenario(cfg).records) == MIXED_SF_TRACE_SHA256
