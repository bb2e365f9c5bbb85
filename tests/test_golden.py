"""Golden digests of the sweep CSV, of traces, of the ALOHA validation CSV,
of the `run` command's output and of generated device lists.

The digests pin the simulator's observable output for fixed seeds; a
change that alters them changes behaviour, not just code.
"""

import hashlib
import io
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from lorapcsma import cli, phy, sweep
from lorapcsma.config import RunConfig, SweepGrid, load_config
from lorapcsma.metrics import aloha_csv_text, write_csv, write_trace
from lorapcsma.simulation import build_topology, run_scenario
from lorapcsma.sweep import aloha_validation, run_sweep
from lorapcsma.topology import DeviceSpec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SWEEP_CSV_SHA256 = "9aa4f336b99c2fc44e6e747fafc61756b04abe1e486401374df020537ae260e8"
MIXED_SF_TRACE_SHA256 = "dc387ea5632a30a6e3324e387108ee4a905ac24a5e93daa948f9c39026a57c07"
DENSE_PCSMA_TRACE_SHA256 = "6310221eb0938265e985564131a71148ff47aa6d8b7ce1a6fa1f425702d70da9"
ALOHA_CSV_SHA256 = "68332511ef10cb9cbeebd73b0211620a1fc22527534e7e8ed0beaf5e4c04528e"
DUTY_CYCLE_TRACE_SHA256 = "89bcfa51848adcd972fbe9030bde968f06af83647433d6bd63efb4d69baf8be8"
RUN_STDOUT_SHA256 = "a35f2fd147a790fc752d8085676ad1efb39b5a6a47f1d10fa6c0de5c141e4954"
RUN_CSV_SHA256 = "e4b6ff611b7f99c5110cee5ed7dc4464913c2ac6cd276d7cfe406ef8c1051ef1"
DEVICES_SHA256 = "c6c23050d3e33e92afa66ec66a235ca71111c01b6c94e0259d2fec86f9d343e6"
ALL_OUTCOMES_TRACE_SHA256 = {
    "pcsma": "fcaf16f9bdd8df434bf9fae343c8f226a0c61187173fd9130e65b64d382b3fe8",
    "aloha": "f048e5460367662c40a561e4a68c936eb8384b693934096106057a2be13a1c20",
}
# Work ceilings: kernel events of each golden scenario.  Air-ends are not
# events, so these count generations and back-off polls.  A change that
# adds events per packet fails here, whatever the host's timing noise.
# Lower a ceiling when a change saves work; raise one only with a reason.
MAX_EVENTS = {"mixed_sf": 989, "dense": 1844, "pcsma": 1238, "aloha": 440}
# Simulated runs of the golden sweep's 32 points: a point whose p decides
# every persistence draw of a run of its group as that run did reuses it.
MAX_SWEEP_RUNS = 21


def _sha256(write, data) -> str:
    buf = io.StringIO()
    write(data, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _golden_sweep_rows() -> list[dict]:
    base = load_config(CONFIGS / "example_run.cfg")
    grid = SweepGrid(
        device_counts=(20, 40),
        p_values=(0.25, 1.0),
        sf_sets=((8,), (8, 9, 10)),
        n_areas_values=(1, 3),
        seeds=(1, 2),
    )
    return run_sweep(base, grid)


def test_sweep_csv_matches_golden_digest(monkeypatch):
    runs = []

    def counted_run_scenario(cfg, **kwargs):
        runs.append(cfg)
        return run_scenario(cfg, **kwargs)

    monkeypatch.setattr(sweep, "_cpu_count", lambda: 1)  # every run in this process
    monkeypatch.setattr(sweep, "run_scenario", counted_run_scenario)
    rows = _golden_sweep_rows()
    assert sum(isinstance(row["seed"], int) for row in rows) == 32
    assert len(runs) <= MAX_SWEEP_RUNS
    assert _sha256(write_csv, rows) == SWEEP_CSV_SHA256


# The worker count is the affinity mask's size; pinning it covers the serial
# path and the forked split on any host.  No case forks more than 2 children.
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_sweep_csv_digest_holds_for_any_worker_count(monkeypatch, cpus):
    monkeypatch.setattr(sweep, "_cpu_count", lambda: cpus)
    assert _sha256(write_csv, _golden_sweep_rows()) == SWEEP_CSV_SHA256


def test_aloha_validation_csv_is_identical_for_any_worker_count(monkeypatch):
    toa_s = phy.time_on_air(8, RunConfig(n_devices=1))
    cfg = RunConfig(n_devices=100, sim_time_s=2000 * toa_s, mac="aloha", traffic="poisson", sf_set=(8,))
    texts = []
    for cpus in (1, 2, 3, 4):  # 4 CPUs for 3 points: one worker per point
        monkeypatch.setattr(sweep, "_cpu_count", lambda: cpus)
        texts.append(aloha_csv_text(aloha_validation([0.25, 0.5, 1.0], cfg)))
    assert texts[1:] == texts[:1] * 3


def test_mixed_sf_trace_matches_golden_digest():
    cfg = RunConfig(n_devices=60, n_areas=3, sf_set=(8, 9, 10), p=0.25, seed=5)
    result = run_scenario(cfg)
    assert result.audit.events_executed <= MAX_EVENTS["mixed_sf"]
    assert _sha256(write_trace, result.records) == MIXED_SF_TRACE_SHA256


def test_dense_pcsma_trace_matches_golden_digest():
    # One area, low persistence: most generations sense busy and poll in back-off.
    cfg = RunConfig(n_devices=200, n_areas=1, p=0.1, period_set_s=(60.0,), sim_time_s=300.0, seed=3)
    result = run_scenario(cfg)
    c = result.counters
    assert result.audit.events_executed - c.generated > 500  # back-off polls
    assert result.audit.events_executed <= MAX_EVENTS["dense"]
    assert _sha256(write_trace, result.records) == DENSE_PCSMA_TRACE_SHA256


@pytest.mark.parametrize("mac", ["pcsma", "aloha"])
def test_all_five_outcomes_trace_matches_golden_digest(mac):
    # Two paths, shadowing and zero offsets: every trace outcome occurs,
    # including packets cut off on air at the end ("pending").
    cfg = RunConfig(
        n_devices=40,
        n_areas=3,
        mac=mac,
        sf_set=(8, 9),
        p=0.5,
        gateway_paths=2,
        offsets="zero",
        period_set_s=(10.0, 15.0),
        sim_time_s=120.05,
        shadowing_sigma_db=8.0,
        seed=4,
    )
    result = run_scenario(cfg)
    assert result.audit.events_executed <= MAX_EVENTS[mac]
    records = result.records
    outcomes = Counter(r.outcome.value if r.outcome is not None else "pending" for r in records)
    assert set(outcomes) == {"received", "collided", "under_sensitivity", "no_path", "pending"}
    if mac == "pcsma":
        assert outcomes == {
            "received": 168,
            "collided": 78,
            "under_sensitivity": 132,
            "no_path": 22,
            "pending": 3,
        }
    assert _sha256(write_trace, records) == ALL_OUTCOMES_TRACE_SHA256[mac]


def test_duty_cycle_trace_matches_golden_digest():
    # SF7 and SF12 devices every 5-7 s for two hours: the guard refuses
    # packets, and the sliding hour moves on, at two budgets (699 and 27
    # packets an hour).
    cfg = RunConfig(
        n_devices=6,
        period_set_s=(5.0, 7.0),
        sf_set=(7, 12),
        duty_cycle_enforce=True,
        sim_time_s=7200.0,
    )
    result = run_scenario(cfg)
    assert result.counters.suppressed == 3039
    assert _sha256(write_trace, result.records) == DUTY_CYCLE_TRACE_SHA256


def test_run_command_output_matches_golden_digests(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert cli.main(["run", "--config", str(CONFIGS / "example_run.cfg"), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == RUN_STDOUT_SHA256
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RUN_CSV_SHA256


def test_aloha_validation_csv_matches_golden_digest():
    toa_s = phy.time_on_air(8, RunConfig(n_devices=1))
    cfg = RunConfig(
        n_devices=100, sim_time_s=20_000 * toa_s, mac="aloha", traffic="poisson", sf_set=(8,)
    )
    text = aloha_csv_text(aloha_validation([0.5], cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == ALOHA_CSV_SHA256


def test_generated_devices_match_golden_digest(tmp_path):
    # Every field of every device build_topology returns, placed or read
    # from a file, with and without fades; a per-device p tuple for n = 7.
    path = tmp_path / "devices.txt"
    path.write_text("0 -2500 0 0 8 100 1.0\n2 0 10 0 9 300 0.25\n1 2500 0 0 8 100 0.5\n")
    configs = [
        RunConfig(
            n_devices=n,
            n_areas=areas,
            sf_set=sf_set,
            p=tuple((i + 1) / 8 for i in range(n)) if n == 7 else 0.25,
            shadowing_sigma_db=sigma,
            seed=3,
        )
        for n in (7, 60)
        for areas in (1, 3)
        for sf_set in ((8,), (8, 9, 10))  # with the five default periods
        for sigma in (0.0, 8.0)
    ]
    configs += [
        RunConfig(n_devices=3, device_file=str(path), shadowing_sigma_db=sigma)
        for sigma in (0.0, 8.0)
    ]
    names = [f.name for f in fields(DeviceSpec)]
    devices = [d for cfg in configs for d in build_topology(cfg)]
    lines = [f"{[getattr(d, name) for name in names]!r}\n" for d in devices]
    assert len(lines) == 8 * (7 + 60) + 2 * 3
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == DEVICES_SHA256
