"""PRR arithmetic and CSV/trace emission."""

import io

import pytest

from lorapcsma.config import RunConfig
from lorapcsma.gateway import Outcome, TxRecord
from lorapcsma.metrics import (
    RESULT_COLUMNS,
    Counters,
    compute_prr,
    result_row,
    write_csv,
    write_trace,
)


def counters(**kwargs):
    c = Counters(**kwargs)
    return c


def test_prr_simple_cases():
    c = counters(generated=36, sent=36, received=36)
    assert compute_prr(c) == (1.0, 1.0)
    c = counters(generated=40, sent=36, received=18, collided=18, suppressed=4)
    assert compute_prr(c) == (0.45, 0.5)


def test_prr_empty_run_is_undefined():
    assert compute_prr(Counters()) == (None, None)


def test_inconsistent_counters_are_a_hard_error():
    bad = Counters(generated=10, sent=5, received=3)  # outcomes do not sum
    with pytest.raises(RuntimeError):
        compute_prr(bad)
    bad = Counters(generated=10, sent=4, received=4)  # generated mismatch
    with pytest.raises(RuntimeError):
        compute_prr(bad)


def test_a_result_row_fills_the_result_columns_in_order():
    # Every counter but pending_at_end is a column, in Counters' order.
    c = Counters(
        generated=10, sent=8, suppressed=1, received=5, collided=2, no_path=1, pending_at_end=1
    )
    row = result_row("s", 3, RunConfig(n_devices=2, p=0.5), c)
    assert list(row) == RESULT_COLUMNS
    assert list(row.values())[:8] == ["s", 3, "pcsma", 2, "{8}", "0.500000", 1, "{100,200,300,400,500}"]
    assert list(row.values())[8:] == [10, 8, 1, 5, 2, 0, 1, 0.5, 0.625]
    # A per-device p reaches the CSV as one braced field.
    buf = io.StringIO()
    write_csv([result_row("s", 3, RunConfig(n_devices=3, p=(0.25, 0.5, 1.0)), c)], buf)
    assert buf.getvalue().splitlines()[1].split(",")[5] == "{0.250000|0.500000|1.000000}"


def _row(scenario="s", seed=1, prr=0.5):
    return {
        "scenario": scenario,
        "seed": seed,
        "mac": "pcsma",
        "n_devices": 2,
        "sf_set": "{8}",
        "p": 1.0,
        "n_areas": 1,
        "period_set": "{100}",
        "generated": 10,
        "sent": 10,
        "suppressed": 0,
        "received": 5,
        "collided": 5,
        "under_sensitivity": 0,
        "no_path": 0,
        "prr_generated": prr,
        "prr_sent": prr,
    }


def test_csv_is_deterministic_and_sorted():
    rows = [_row("b", 2), _row("a", 10), _row("a", 2), {"scenario": "a", "seed": "mean", "prr_generated": 0.25}]
    out1, out2 = io.StringIO(), io.StringIO()
    write_csv(rows, out1)
    write_csv(list(reversed(rows)), out2)
    assert out1.getvalue() == out2.getvalue()
    lines = out1.getvalue().splitlines()
    assert lines[0].startswith("scenario,seed,mac,")
    order = [tuple(line.split(",")[:2]) for line in lines[1:]]
    assert order == [("a", "2"), ("a", "10"), ("a", "mean"), ("b", "2")]
    assert lines[1].endswith("0.500000,0.500000")


def test_csv_empty_fields_for_undefined_prr():
    row = _row()
    row["prr_generated"] = None
    out = io.StringIO()
    write_csv([row], out)
    assert out.getvalue().splitlines()[1].split(",")[-2] == ""


def test_csv_header_only_for_no_rows():
    out = io.StringIO()
    write_csv([], out)
    assert out.getvalue() == (
        "scenario,seed,mac,n_devices,sf_set,p,n_areas,period_set,generated,sent,"
        "suppressed,received,collided,under_sensitivity,no_path,prr_generated,prr_sent\n"
    )


def test_trace_format():
    records = [
        TxRecord(device=0, sf=8, air_start_us=0, air_end_us=102_912, prx_dbm=-106.5,
                 outcome=Outcome.RECEIVED),
        TxRecord(device=1, sf=9, air_start_us=50_000, air_end_us=235_520, prx_dbm=-100.0),
    ]
    out = io.StringIO()
    write_trace(records, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "device\tsf\tair_start_s\tair_end_s\tprx_dbm\toutcome"
    assert lines[1] == "0\t8\t0.000000\t0.102912\t-106.500000\treceived"
    assert lines[2].endswith("\tpending")
