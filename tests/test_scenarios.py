"""End-to-end scenario runs, sweeps, the validation curve, and the CLI."""

import io
import os
import re
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import devices_at, overlapping_pairs
from lorapcsma import cli, phy, sweep
from lorapcsma.config import ConfigError, RunConfig, SweepGrid
from lorapcsma.gateway import GatewayPhy, Outcome
from lorapcsma.kernel import EXPONENTIAL_MAX, RngStream
from lorapcsma.metrics import compute_prr, result_row, write_csv, write_trace
from lorapcsma.simulation import RunAudit, Simulation, build_topology, run_scenario
from lorapcsma.sweep import aloha_validation, run_sweep
from lorapcsma.topology import build_vicinity, load_device_file

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_cli(*argv):
    """``lorapcsma`` in a subprocess, killed if it does not finish in 30 s."""
    return subprocess.run(
        [sys.executable, "-m", "lorapcsma.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=30,
    )


def test_single_device_hourly_schedule():
    cfg = RunConfig(n_devices=1, period_set_s=(100.0,), offsets="zero", seed=1)
    result = run_scenario(cfg)
    assert result.counters.generated == 36
    assert result.counters.received == 36
    assert compute_prr(result.counters) == (1.0, 1.0)


def test_synchronized_hidden_pair_always_collides():
    cfg = RunConfig(n_devices=2, n_areas=2, period_set_s=(100.0,), offsets="zero", p=1.0, seed=3)
    result = run_scenario(cfg)
    assert result.counters.collided == result.counters.generated == 72
    assert compute_prr(result.counters)[0] == 0.0


def test_synchronized_visible_pair_never_collides():
    cfg = RunConfig(n_devices=2, n_areas=1, period_set_s=(100.0,), offsets="zero", p=1.0, seed=3)
    result = run_scenario(cfg)
    assert result.counters.collided == 0
    assert result.counters.received == result.counters.generated


def test_no_mutually_visible_overlap_and_hidden_collisions_only():
    cfg = RunConfig(n_devices=60, n_areas=3, sf_set=(8, 9, 10), p=0.5, seed=21)
    result = run_scenario(cfg)
    vic = build_vicinity(build_topology(cfg), cfg)
    records = result.records
    for a, b in overlapping_pairs(records):
        i, j = records[a].device, records[b].device
        assert not (vic[i, j] and vic[j, i]), "mutually visible devices overlapped on air"
        if records[a].outcome is Outcome.COLLIDED and records[a].sf == records[b].sf:
            assert not vic[i, j] or not vic[j, i]


CONSERVATION_CONFIGS = [
    RunConfig(n_devices=1, period_set_s=(100.0,), offsets="zero"),
    RunConfig(n_devices=20, n_areas=1, p=0.25, seed=4),
    RunConfig(n_devices=60, n_areas=3, sf_set=(8, 9, 10), p=0.25, seed=5),
    RunConfig(n_devices=2, n_areas=2, period_set_s=(100.0,), offsets="zero", seed=6),
    RunConfig(n_devices=1, period_set_s=(0.05,), offsets="zero", sim_time_s=20.0, seed=7),
    RunConfig(n_devices=9, mac="aloha", period_set_s=(5.0,), offsets="zero", sim_time_s=120.0, seed=8),
    RunConfig(n_devices=10, traffic="poisson", offered_load=1.5, sim_time_s=300.0, seed=9),
    RunConfig(n_devices=10, mac="aloha", traffic="poisson", offered_load=1.5, sim_time_s=300.0, seed=10),
    RunConfig(n_devices=2, period_set_s=(5.0,), duty_cycle_enforce=True, offsets="zero", seed=11),
    RunConfig(n_devices=30, shadowing_sigma_db=6.0, seed=12),
]


@pytest.mark.parametrize("cfg", CONSERVATION_CONFIGS, ids=range(len(CONSERVATION_CONFIGS)))
def test_conservation_identities(cfg):
    result = run_scenario(cfg)
    c = result.counters
    assert c.sent == c.received + c.collided + c.under_sensitivity + c.no_path
    assert c.generated == c.sent + c.suppressed + c.pending_at_end
    assert result.audit.book_count == result.audit.free_count
    assert result.audit.max_paths_bound <= cfg.gateway_paths
    assert result.audit.channel_clear


@pytest.mark.parametrize(
    "cfg",
    [
        RunConfig(n_devices=40, n_areas=2, sf_set=(8, 9, 10), p=0.25, seed=17),
        RunConfig(n_devices=20, mac="aloha", traffic="poisson", offered_load=1.0,
                  sim_time_s=600.0, seed=17),
    ],
    ids=["periodic", "poisson"],
)
def test_replays_are_byte_identical(cfg):
    outputs = []
    for _ in range(2):
        result = run_scenario(cfg)
        csv_out, trace_out = io.StringIO(), io.StringIO()
        write_csv([result_row("cell", 17, cfg, result.counters)], csv_out)
        write_trace(result.records, trace_out)
        outputs.append((csv_out.getvalue(), trace_out.getvalue()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "cfg",
    [
        RunConfig(n_devices=40, n_areas=2, sf_set=(8, 9, 10), period_set_s=(20.0,), p=0.25,
                  shadowing_sigma_db=4.0, sim_time_s=600.0, seed=17),
        RunConfig(n_devices=20, n_areas=2, mac="aloha", period_set_s=(20.0,),
                  sim_time_s=600.0, seed=5),
    ],
    ids=["pcsma", "aloha"],
)
def test_build_topology_rebuilds_the_topology_of_a_run(cfg):
    rebuilt = Simulation(cfg, build_topology(cfg)).run()
    result = run_scenario(cfg)
    assert rebuilt.counters == result.counters
    traces = []
    for run in (rebuilt, result):
        buf = io.StringIO()
        write_trace(run.records, buf)
        traces.append(buf.getvalue())
    assert traces[0] == traces[1]
    assert result.counters.collided > 0  # the runs contend, so order matters


def test_mean_prr_decreases_with_device_count():
    def mean_prr(n):
        values = []
        for seed in range(1, 6):
            result = run_scenario(RunConfig(n_devices=n, n_areas=3, sf_set=(8,), seed=seed))
            values.append(compute_prr(result.counters)[0])
        return sum(values) / len(values)

    assert mean_prr(20) > mean_prr(80)


def test_offsets_zero_differs_from_uniform():
    base = dict(n_devices=5, period_set_s=(100.0,), seed=2)
    zero = run_scenario(RunConfig(offsets="zero", **base))
    uniform = run_scenario(RunConfig(offsets="uniform", **base))
    # All five fire at t=0 and drain serially, one airtime apart (p=1).
    toa_us = 102_912
    assert [r.air_start_us for r in zero.records[:5]] == [k * toa_us for k in range(5)]
    assert uniform.records[0].air_start_us > 0


def test_sweep_cardinality_and_summaries():
    base = RunConfig(n_devices=2, sim_time_s=50.0, period_set_s=(10.0,), seed=1)
    grid = SweepGrid(
        device_counts=(2, 3, 4),
        p_values=(0.5, 1.0),
        seeds=(1, 2, 3, 4, 5),
    )
    rows = run_sweep(base, grid)
    runs = [r for r in rows if str(r["seed"]).isdigit()]
    means = [r for r in rows if r["seed"] == "mean"]
    stds = [r for r in rows if r["seed"] == "stddev"]
    assert len(runs) == 30 and len(means) == 6 and len(stds) == 6
    assert all(r["prr_generated"] is not None for r in means)
    out = io.StringIO()
    write_csv(rows, out)
    assert len(out.getvalue().splitlines()) == 43  # header + 42 rows


def test_sweep_validates_every_cell_before_the_first_run(monkeypatch):
    from lorapcsma import sweep

    def run_scenario_spy(*args, **kwargs):
        raise AssertionError("a sweep cell ran before every cell was validated")

    monkeypatch.setattr(sweep, "run_scenario", run_scenario_spy)
    # The per-device p list fits n_devices = 3 only, so the n = 4 cell is invalid.
    base = RunConfig(n_devices=3, p=(0.25, 0.5, 1.0), sim_time_s=50.0, period_set_s=(10.0,))
    with pytest.raises(ConfigError, match="per-device p"):
        run_sweep(base, SweepGrid(device_counts=(3, 4), seeds=(1, 2)))


SMALL = RunConfig(n_devices=2, sim_time_s=50.0, period_set_s=(10.0,))


def _three_device_file_config(tmp_path, sim_time_s: float) -> RunConfig:
    """A run over a file of three SF8 devices with 100 s periods."""
    path = tmp_path / "devices.txt"
    path.write_text("0 100 0 0 8 100 1.0\n1 200 0 0 8 100 1.0\n2 300 0 0 8 100 1.0\n")
    return RunConfig(n_devices=3, device_file=str(path), sim_time_s=sim_time_s)


@pytest.mark.parametrize(
    "start,match",
    [
        pytest.param(
            lambda from_file: run_sweep(SMALL, SweepGrid(n_areas_values=(1, 30))),
            "detect range",
            id="geometry-failing-cell",
        ),
        pytest.param(
            lambda from_file: run_sweep(SMALL, SweepGrid(seeds=(1, -2))),
            "seeds must be >= 0",
            id="negative-seed",
        ),
        pytest.param(
            lambda from_file: run_sweep(SMALL, SweepGrid(device_counts=(20, 20))),
            "device_counts must not contain duplicates",
            id="repeated-cell",
        ),
        pytest.param(
            lambda from_file: run_sweep(SMALL, SweepGrid(p_values=(0.1234561, 0.1234562))),
            r"p_values .* give two cells the name 'n2_sf8_p0\.123456_a1'",
            id="p-values-sharing-a-name",
        ),
        pytest.param(
            lambda from_file: aloha_validation(
                [0.5, 0.0], RunConfig(n_devices=10, mac="aloha", traffic="poisson", sim_time_s=1.0)
            ),
            "offered_load must be positive",
            id="aloha-zero-load",
        ),
        pytest.param(
            lambda from_file: run_sweep(
                from_file,
                SweepGrid(p_values=(0.1, 1.0), sf_sets=((8,), (12,)), n_areas_values=(1, 3)),
            ),
            "fixes the devices",
            id="device-file-cells",
        ),
        pytest.param(
            lambda from_file: run_sweep(from_file, SweepGrid(device_counts=(3, 4))),
            "fixes the devices",
            id="device-file-counts",
        ),
        # An SF12 cell that runs, then an SF7 cell that cannot.
        pytest.param(
            lambda from_file: run_sweep(
                replace(SMALL, sf_set=(12,), tx_power_dbm=-125.0, cluster_radius_m=0.5),
                SweepGrid(sf_sets=((12,), (7,))),
            ),
            "below the SF7 gateway sensitivity",
            id="negative-link-budget-cell",
        ),
        # The Poisson gap is one airtime at the cell's SF: 1.3 us at SF12,
        # but it rounds to 0 us at SF7.
        pytest.param(
            lambda from_file: run_sweep(
                replace(SMALL, traffic="poisson", sf_set=(12,), offered_load=1e6),
                SweepGrid(sf_sets=((12,), (7,))),
            ),
            "offered_load 1e[+]06 makes the mean Poisson gap .* at SF7",
            id="poisson-gap-below-1us-cell",
        ),
    ],
)
def test_no_run_starts_before_a_bad_point(tmp_path, monkeypatch, start, match):
    runs = []

    def recording_run_scenario(cfg, **kwargs):
        runs.append(cfg)
        return run_scenario(cfg, **kwargs)

    monkeypatch.setattr(sweep, "run_scenario", recording_run_scenario)
    with pytest.raises(ConfigError, match=match):
        start(_three_device_file_config(tmp_path, sim_time_s=50.0))
    assert runs == []


def test_a_sweep_checks_each_point_once(monkeypatch):
    base = RunConfig(n_devices=2, sim_time_s=50.0, period_set_s=(10.0,))
    calls = []
    validate = RunConfig.validate

    def counting_validate(cfg):
        calls.append(cfg)
        validate(cfg)

    monkeypatch.setattr(RunConfig, "validate", counting_validate)
    monkeypatch.setattr(sweep, "_cpu_count", lambda: 1)  # every run in this process
    rows = run_sweep(base, SweepGrid(device_counts=(2, 3), seeds=(1, 2)))
    points = [(row["n_devices"], row["seed"]) for row in rows if isinstance(row["seed"], int)]
    assert [(cfg.n_devices, cfg.seed) for cfg in calls] == points == [(2, 1), (2, 2), (3, 1), (3, 2)]


def test_device_file_sweep_may_vary_seeds(tmp_path):
    rows = run_sweep(_three_device_file_config(tmp_path, sim_time_s=500.0), SweepGrid(seeds=(1, 2)))
    assert [r["seed"] for r in rows] == [1, 2, "mean", "stddev"]
    assert all(r["generated"] == 15 for r in rows[:2])


def test_sweep_is_order_independent():
    base = RunConfig(n_devices=2, sim_time_s=50.0, period_set_s=(10.0,), seed=1)
    a = run_sweep(base, SweepGrid(device_counts=(2, 3), seeds=(1, 2)))
    b = run_sweep(base, SweepGrid(device_counts=(3, 2), seeds=(2, 1)))
    outs = []
    for rows in (a, b):
        out = io.StringIO()
        write_csv(rows, out)
        outs.append(out.getvalue())
    assert outs[0] == outs[1]


def test_aloha_validation_low_load_limit():
    toa = phy.time_on_air(8, RunConfig(n_devices=1))
    cfg = RunConfig(
        n_devices=50, mac="aloha", traffic="poisson", sf_set=(8,),
        sim_time_s=5000 * toa, seed=1,
    )
    (row,) = aloha_validation([0.02], cfg)
    assert row["throughput"] == pytest.approx(row["theoretical"], abs=0.005)


def _traced_peak_bytes(packet_times: int) -> int:
    """Peak traced allocation of one unlogged ALOHA run at G = 0.5."""
    toa = phy.time_on_air(8, RunConfig(n_devices=1))
    cfg = RunConfig(
        n_devices=100, mac="aloha", traffic="poisson", sf_set=(8,), offered_load=0.5,
        sim_time_s=packet_times * toa, seed=1,
    )
    tracemalloc.start()
    try:
        result = run_scenario(cfg, keep_records=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.counters.sent > packet_times * 0.4  # about G per packet-time
    return peak


def test_unlogged_run_memory_does_not_grow_with_time():
    # A run without its log holds only the packets on air: ten times the
    # packet-times (about 9000 more transmissions) adds almost nothing.
    _traced_peak_bytes(2_000)  # first-call allocations stay out of the comparison
    growth = _traced_peak_bytes(20_000) - _traced_peak_bytes(2_000)
    assert growth < 256 * 1024


def _init_peak_bytes(cfg: RunConfig) -> int:
    """Peak traced allocation while ``Simulation`` is built over ``cfg``'s devices."""
    devices = build_topology(cfg)
    tracemalloc.start()
    try:
        Simulation(cfg, devices, keep_records=False)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_set_up_memory_is_linear_in_the_device_count():
    # Sensing tests positions at sense time, so neither the topology nor the
    # MAC holds an N x N table: one would take n * n bytes (25 MB) at least.
    # About 0.5 kB per device is measured (DeviceSpec objects and per-device
    # lists); 1 kB per device leaves room for interpreter differences.
    n = 5000
    cfg = RunConfig(n_devices=n, n_areas=3, p=0.25, seed=1)
    build_topology(RunConfig(n_devices=1))  # first-call allocations stay out
    tracemalloc.start()
    try:
        Simulation(cfg, build_topology(cfg), keep_records=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * n


def test_gateway_paths_beyond_the_device_count_cost_nothing():
    cfg = RunConfig(n_devices=5, gateway_paths=10**6, sim_time_s=600.0, seed=1)
    assert _init_peak_bytes(cfg) < 1 << 20
    few = run_scenario(replace(cfg, gateway_paths=5))
    many = run_scenario(cfg)
    assert many.counters == few.counters
    assert many.audit == few.audit


def test_aloha_validation_requires_aloha_poisson():
    cfg = RunConfig(n_devices=10, mac="pcsma", traffic="poisson", sf_set=(8,))
    with pytest.raises(ConfigError, match="aloha"):
        aloha_validation([0.5], cfg)
    cfg = RunConfig(n_devices=10, mac="aloha", traffic="periodic")
    with pytest.raises(ConfigError, match="poisson"):
        aloha_validation([0.5], cfg)


def test_device_file_run_with_under_sensitivity(tmp_path):
    path = tmp_path / "devices.txt"
    path.write_text(
        "0 100 0 0 8 100 1.0\n"
        "1 6000 0 0 8 100 1.0\n"  # beyond the ~4915 m SF8 gateway range
    )
    cfg = RunConfig(
        n_devices=2, device_file=str(path), period_set_s=(100.0,), offsets="zero", seed=1
    )
    result = run_scenario(cfg)
    assert result.counters.under_sensitivity == 36
    assert result.counters.received == 36


def test_device_file_count_mismatch(tmp_path):
    path = tmp_path / "devices.txt"
    path.write_text("0 0 0 0 8 100 1.0\n")
    cfg = RunConfig(n_devices=2, device_file=str(path))
    with pytest.raises(ConfigError, match="defines 1 devices"):
        run_scenario(cfg)
    # The rule is the device file's, with its others.
    message = f"n_devices=2 but {str(path)!r} defines 1 devices"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_device_file(path, cfg)


def test_device_file_draws_shadowing(tmp_path):
    path = tmp_path / "devices.txt"
    path.write_text("0 100 0 0 8 100 1.0\n1 200 0 0 8 100 1.0\n2 300 0 0 8 100 1.0\n")
    fades = {
        sigma: [
            d.shadow_db
            for d in build_topology(
                RunConfig(n_devices=3, device_file=str(path), shadowing_sigma_db=sigma, seed=1)
            )
        ]
        for sigma in (0.0, 12.0)
    }
    assert all(a != b for a, b in zip(fades[0.0], fades[12.0]))


def test_cli_device_file_fault_exits_2_naming_the_line(tmp_path):
    devices = tmp_path / "devices.txt"
    devices.write_text("0 0 0 0 8 100 1.0\n1 nan 0 0 8 100 1.0\n")
    config = tmp_path / "scenario.cfg"
    config.write_text(f"n_devices = 2\ndevice_file = {devices}\n")
    proc = _run_cli("run", "--config", str(config))
    assert proc.returncode == 2
    assert f"{devices}:2: x must be finite" in proc.stderr and "Traceback" not in proc.stderr


def test_cli_device_file_position_that_overflows_exits_2_naming_the_line(tmp_path):
    # Finite, but its square in the gateway power would overflow a float.
    devices = tmp_path / "devices.txt"
    devices.write_text("0 1e200 0 0 8 100 1.0\n")
    config = tmp_path / "scenario.cfg"
    config.write_text(f"n_devices = 1\ndevice_file = {devices}\n")
    proc = _run_cli("run", "--config", str(config))
    assert proc.returncode == 2
    assert f"{devices}:1: x must be at most" in proc.stderr and "Traceback" not in proc.stderr


def test_cli_auto_sensing_interval_below_1us_at_sf7_exits_2(tmp_path):
    # SF7 is outside sf_set; under a 10 GHz bandwidth half its airtime
    # rounds to 0 us.  Any device may be SF7, so the config is refused when
    # built, before its device file is read.
    devices = tmp_path / "devices.txt"
    devices.write_text("0 0 0 0 7 100 1.0\n")
    config = tmp_path / "scenario.cfg"
    config.write_text(f"n_devices = 1\nsf_set = {{12}}\nbandwidth_hz = 1e10\ndevice_file = {devices}\n")
    proc = _run_cli("run", "--config", str(config))
    assert proc.returncode == 2
    assert "sensing_interval_s gives" in proc.stderr and "at SF7, below 1 us" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_poisson_device_file_at_another_sf_exits_2_naming_the_line(tmp_path):
    # Poisson arrivals are timed at the sf_set's SF12; an SF7 device would
    # send shorter packets than the packet-time the load is counted in.
    devices = tmp_path / "devices.txt"
    devices.write_text("0 100 0 0 7 100 1.0\n")
    config = tmp_path / "scenario.cfg"
    config.write_text(
        f"n_devices = 1\nsf_set = {{12}}\ntraffic = poisson\ndevice_file = {devices}\n"
    )
    proc = _run_cli("run", "--config", str(config))
    assert proc.returncode == 2
    assert f"{devices}:1: sf must be the sf_set's SF12 under poisson traffic" in proc.stderr
    assert "Traceback" not in proc.stderr


def _sf7_device_file_config(tmp_path, **keys) -> RunConfig:
    """Pure ALOHA at ~200k SF7 packet-times over a file of 100 SF7 devices."""
    path = tmp_path / "devices.txt"
    path.write_text("".join(f"{i} {100 + i} 0 0 7 100 1.0\n" for i in range(100)))
    sim_time_s = 200_000 * phy.time_on_air(7, RunConfig(n_devices=1))
    return RunConfig(
        n_devices=100,
        mac="aloha",
        traffic="poisson",
        device_file=str(path),
        sim_time_s=sim_time_s,
        **keys,
    )


def test_aloha_validation_times_the_load_at_the_devices_sf(tmp_path):
    # Counted in SF8 packet-times, SF7 devices would read twice the ALOHA maximum.
    with pytest.raises(ConfigError, match=r"devices\.txt:1: sf must be the sf_set's SF8"):
        aloha_validation([0.5], _sf7_device_file_config(tmp_path, sf_set=(8,)))
    (row,) = aloha_validation([0.5], _sf7_device_file_config(tmp_path, sf_set=(7,)))
    assert abs(row["throughput"] - 0.184) <= 0.010  # the acceptance tolerance of C01


@pytest.mark.parametrize("seed", ["1", "6"])
def test_a_poisson_gap_whose_largest_draw_overflows_is_a_config_error(seed):
    # The mean gap, 9.4e301 s, is finite in us, but a draw of ~1.9 means
    # is not: each seed's run would meet one.
    proc = _run_cli("validate-aloha", "--g", "1.1e-303", "--packet-times", "100", "--seed", seed)
    assert proc.returncode == 2
    assert "offered_load" in proc.stderr and "Traceback" not in proc.stderr


def test_the_smallest_accepted_offered_load_runs(monkeypatch):
    def config(bits):
        load = struct.unpack("<d", struct.pack("<Q", bits))[0]
        return RunConfig(n_devices=2, traffic="poisson", offered_load=load, sim_time_s=10.0)

    # Positive floats sort as their bit patterns: bisect for the least load.
    lo, hi = 1, struct.unpack("<Q", struct.pack("<d", 1.0))[0]  # refused, accepted
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            config(mid)
            hi = mid
        except ConfigError:
            lo = mid
    cfg = config(hi)
    assert 1e-303 < cfg.offered_load < 1e-301
    assert run_scenario(cfg).counters.generated == 0
    # Even at the largest draw a standard exponential can return.
    monkeypatch.setattr(RngStream, "exponential", lambda self, mean: mean * EXPONENTIAL_MAX)
    assert run_scenario(cfg).counters.generated == 0


def test_gateway_paths_config_limits_concurrency():
    from conftest import devices_at, hidden_star_positions, make_sim

    # Three mutually hidden devices firing together against two paths.
    devices = devices_at(hidden_star_positions()[:3], period_s=1000.0)
    cfg = RunConfig(
        n_devices=3, period_set_s=(1000.0,), offsets="zero",
        sim_time_s=50.0, gateway_paths=2, seed=1,
    )
    sim = make_sim(devices, cfg, offsets_s=[0.0] * 3)
    result = sim.run()
    assert result.counters.no_path == 1
    assert result.counters.collided == 2
    assert result.audit.max_paths_bound == 2


def test_sensing_interval_override():
    from conftest import devices_at, make_sim

    cfg = RunConfig(n_devices=2, sensing_interval_s=0.255, sim_time_s=50.0, seed=1)
    sim = make_sim(devices_at([(0.0, 0.0), (1.0, 0.0)]), cfg, offsets_s=[0.0, 0.0])
    assert sim.mac.sense_us == [255_000, 255_000]
    result = sim.run()
    # The deferred device re-senses on the fixed cadence, not half airtime.
    assert result.records[1].air_start_us == 255_000


# -- CLI ---------------------------------------------------------------------


def test_cli_run_writes_csv_and_trace(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text("n_devices = 2\nperiod_set_s = {100}\noffsets = zero\nsim_time_s = 400\n")
    out = tmp_path / "results.csv"
    trace = tmp_path / "trace.tsv"
    code = cli.main(
        ["run", "--config", str(config), "--seed", "5", "--out", str(out), "--trace", str(trace)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "prr_generated=" in printed
    assert out.read_text().startswith("scenario,seed,")
    assert trace.read_text().startswith("device\tsf\t")


def test_only_traced_runs_keep_the_transmission_log(tmp_path, monkeypatch):
    results = []

    def recording_run_scenario(*args, **kwargs):
        results.append(run_scenario(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "run_scenario", recording_run_scenario)
    monkeypatch.setattr(sweep, "run_scenario", recording_run_scenario)
    config = tmp_path / "scenario.cfg"
    config.write_text("n_devices = 2\nperiod_set_s = {100}\nsim_time_s = 400\n")
    grid = tmp_path / "grid.cfg"
    grid.write_text("seeds = {1}\n")
    trace = tmp_path / "trace.tsv"
    assert cli.main(["run", "--config", str(config)]) == 0
    sweep_out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", str(config), "--grid", str(grid), "--out", str(sweep_out)]) == 0
    assert cli.main(["validate-aloha", "--g", "0.5", "--packet-times", "100", "--devices", "2"]) == 0
    assert [r.records for r in results] == [None, None, None]
    assert cli.main(["run", "--config", str(config), "--trace", str(trace)]) == 0
    assert results[-1].records


def test_cli_mode_override(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text("n_devices = 2\nperiod_set_s = {100}\noffsets = zero\nsim_time_s = 400\n")
    assert cli.main(["run", "--config", str(config), "--mode", "aloha"]) == 0
    assert "mac=aloha" in capsys.readouterr().out


def test_cli_rejects_bad_config(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("n_devices = 2\np = 0\n")
    assert cli.main(["run", "--config", str(config)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_run_names_an_automatic_sensing_interval_below_1us(tmp_path, capsys):
    config = tmp_path / "wide.cfg"
    config.write_text("n_devices = 2\nsf_set = {7}\nbandwidth_hz = 1e10\n")
    assert cli.main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "sensing_interval_s" in err and "SF7" in err and "Traceback" not in err


def test_cli_sweep(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text("n_devices = 2\nsim_time_s = 50\nperiod_set_s = {10}\n")
    grid = tmp_path / "grid.cfg"
    grid.write_text("device_counts = {2,3}\nseeds = {1,2}\n")
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(config), "--grid", str(grid), "--out", str(out)]
    for extra, mac in (([], "pcsma"), (["--mode", "aloha"], "aloha")):
        assert cli.main(argv + extra) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4 + 4  # header, 4 runs, mean+stddev per cell
        assert all(line.split(",")[2] == mac for line in lines[1:])


# ``lorapcsma`` with every import of numpy failing.
NUMPY_BLOCKED_CLI = (
    "import sys; sys.modules['numpy'] = None; "
    "from lorapcsma import cli; sys.exit(cli.main(sys.argv[1:]))"
)


def test_periodic_runs_and_sweeps_need_no_numpy(tmp_path):
    # Only Poisson traffic, shadowing and build_vicinity need numpy, so a
    # periodic sweep (forked workers included) and run finish without it.
    config = tmp_path / "scenario.cfg"
    config.write_text("n_devices = 6\nsim_time_s = 600\np = 0.5\n")
    grid = tmp_path / "grid.cfg"
    grid.write_text(
        "device_counts = {4, 8}\np_values = {0.25, 1.0}\nsf_sets = {8, 8+9+10}\n"
        "n_areas_values = {1, 3}\nseeds = {1, 2}\n"
    )
    out = tmp_path / "sweep.csv"
    for argv in (
        ["sweep", "--config", str(config), "--grid", str(grid), "--out", str(out)],
        ["run", "--config", str(config), "--mode", "aloha"],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_BLOCKED_CLI, *argv],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
    assert len(out.read_text().splitlines()) == 1 + 16 * 2 + 16 * 2
    # In the process that ran it, numpy and the ziggurat tables stay unloaded.
    check = (
        "import sys; from lorapcsma import cli; assert cli.main(sys.argv[1:]) == 0; "
        "assert {'numpy', 'lorapcsma.ziggurat'}.isdisjoint(sys.modules), 'loaded'"
    )
    proc = subprocess.run(
        [sys.executable, "-c", check, "sweep", "--config", str(config), "--grid", str(grid), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_poisson_runs_and_aloha_sweeps_need_no_numpy(tmp_path):
    # Exponential draws are pure Python, so a Poisson run and a two-point
    # validate-aloha (one forked worker on two CPUs) write the same bytes
    # with numpy blocked as with numpy importable.
    config = tmp_path / "poisson.cfg"
    config.write_text("n_devices = 20\nsim_time_s = 300\ntraffic = poisson\nsf_set = {8}\noffered_load = 0.5\n")
    outputs = {}
    for blocked in (True, False):
        run_out, trace, aloha = (tmp_path / f"{name}-{blocked}" for name in ("run.csv", "trace.tsv", "aloha.csv"))
        stdouts = []
        for argv in (
            ["run", "--config", str(config), "--mode", "aloha", "--out", str(run_out), "--trace", str(trace)],
            ["validate-aloha", "--g", "0.25,0.5", "--packet-times", "2000", "--out", str(aloha)],
        ):
            entry = ["-c", NUMPY_BLOCKED_CLI] if blocked else ["-m", "lorapcsma.cli"]
            proc = subprocess.run(
                [sys.executable, *entry, *argv],
                env={**os.environ, "PYTHONPATH": str(SRC)},
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            stdouts.append(proc.stdout)
        outputs[blocked] = stdouts + [path.read_bytes() for path in (run_out, trace, aloha)]
    assert outputs[True] == outputs[False]
    assert outputs[True][3].count(b"\n") > 1000  # the trace holds the run's packets


def test_a_command_imports_only_what_it_runs(tmp_path):
    # hashlib loads OpenSSL (~3.7 MB), and only a multi-run sweep uses
    # statistics and pickle.  -S leaves out site hooks, whose imports are
    # not the command's.  One CPU, so that a sweep runs every point in the
    # process checked rather than in forked workers.
    check = (
        "import sys; from lorapcsma import cli, sweep; sweep._cpu_count = lambda: 1; "
        "assert cli.main(sys.argv[2:]) == 0; "
        "loaded = set(sys.argv[1].split(',')) & set(sys.modules); "
        "assert not loaded, loaded"
    )
    config = tmp_path / "scenario.cfg"
    config.write_text("n_devices = 6\nsim_time_s = 600\np = 0.5\n")
    grid = tmp_path / "grid.cfg"
    grid.write_text("seeds = {1, 2}\n")
    single_run = "hashlib,_hashlib,statistics,pickle"
    for unused, *argv in (
        (single_run, "run", "--config", str(config)),
        (single_run, "validate-aloha", "--g", "0.5", "--packet-times", "2000"),
        ("hashlib,_hashlib", "sweep", "--config", str(config), "--grid", str(grid),
         "--out", str(tmp_path / "sweep.csv")),
    ):
        proc = subprocess.run(
            [sys.executable, "-S", "-c", check, unused, *argv],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr


def test_cli_validate_aloha(tmp_path, capsys):
    out = tmp_path / "aloha.csv"
    code = cli.main(
        ["validate-aloha", "--g", "0.1", "--packet-times", "2000", "--devices", "20", "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == "g,throughput,theoretical"
    assert "0.100000" in text


@pytest.mark.parametrize(
    "args,message",
    [
        (["--g", "0.5", "--sf", "13"], "--sf must be in 7..12, got 13"),
        (["--g", "abc"], "--g expects comma-separated numbers, got 'abc'"),
        (["--g", ","], "--g needs at least one offered-load value"),
    ],
)
def test_cli_validate_aloha_bad_argument_is_a_config_error(capsys, args, message):
    assert cli.main(["validate-aloha", *args]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_cli_negative_seed_is_a_config_error_before_any_run(tmp_path, monkeypatch, capsys):
    runs = []

    def recording_run_scenario(*args, **kwargs):
        runs.append(run_scenario(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "run_scenario", recording_run_scenario)
    monkeypatch.setattr(sweep, "run_scenario", recording_run_scenario)
    config = tmp_path / "scenario.cfg"
    config.write_text("n_devices = 2\nsim_time_s = 50\nperiod_set_s = {10}\n")
    bad_config = tmp_path / "bad.cfg"
    bad_config.write_text("n_devices = 2\nseed = -3\n")
    grid = tmp_path / "grid.cfg"
    grid.write_text("seeds = {1, -2}\n")
    out = tmp_path / "sweep.csv"
    cases = [
        (["run", "--config", str(bad_config)], "seed"),
        (["run", "--config", str(config), "--seed", "-1"], "seed"),
        (["validate-aloha", "--g", "0.5", "--packet-times", "100", "--seed", "-1"], "seed"),
        (["sweep", "--config", str(config), "--grid", str(grid), "--out", str(out)], "seeds"),
    ]
    for argv, key in cases:
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"{key} must be >= 0" in err and "Traceback" not in err
    assert runs == [] and not out.exists()


def test_cli_sweep_with_a_geometry_failing_cell_runs_nothing(tmp_path, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(sweep, "run_scenario", lambda *args, **kwargs: runs.append(args))
    config = tmp_path / "scenario.cfg"
    config.write_text("n_devices = 2\nsim_time_s = 50\nperiod_set_s = {10}\n")
    grid = tmp_path / "grid.cfg"
    grid.write_text("n_areas_values = {1, 30}\n")
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", str(config), "--grid", str(grid), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "detect range" in err and "Traceback" not in err
    assert runs == [] and not out.exists()


def _raising(exc):
    def fail():
        raise exc

    return fail


def _die_while_replying():
    """Make this worker write half its reply and then be killed, as by the
    OOM killer: the reply is a partial pickle."""

    class DyingPipe:
        def __init__(self, fd):
            self.fd = fd

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def write(self, reply):
            os.write(self.fd, reply[: len(reply) // 2])
            os.kill(os.getpid(), signal.SIGKILL)

    os.fdopen = lambda fd, mode: DyingPipe(fd)  # this child never returns to pytest


def _unpicklable_error(message):
    class LocalError(RuntimeError):  # a local class cannot be pickled
        pass

    return LocalError(message)


@pytest.mark.parametrize(
    "fail,code,message",
    [
        pytest.param(_raising(RuntimeError("run failed")), 1, "run failed", id="runtime-error"),
        pytest.param(_raising(ConfigError("bad point")), 2, "bad point", id="config-error"),
        pytest.param(
            _raising(_unpicklable_error("not picklable")),
            1,
            "LocalError: not picklable",
            id="unpicklable-error",
        ),
        pytest.param(
            lambda: os.kill(os.getpid(), signal.SIGKILL), 1, "died without a result", id="killed"
        ),
        pytest.param(
            _die_while_replying,
            1,
            "died without a result (exit code -9)",
            id="killed-mid-reply",
        ),
    ],
)
def test_cli_sweep_reports_a_failure_in_a_worker(tmp_path, monkeypatch, capsys, fail, code, message):
    parent = os.getpid()

    def run_or_fail_in_a_child(cfg, **kwargs):
        if os.getpid() != parent:
            fail()
        return run_scenario(cfg, **kwargs)

    monkeypatch.setattr(sweep, "_cpu_count", lambda: 2)
    monkeypatch.setattr(sweep, "run_scenario", run_or_fail_in_a_child)
    config = tmp_path / "scenario.cfg"
    config.write_text("n_devices = 2\nsim_time_s = 50\nperiod_set_s = {10}\n")
    grid = tmp_path / "grid.cfg"
    grid.write_text("seeds = {1, 2}\n")
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", str(config), "--grid", str(grid), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()
    with pytest.raises(ChildProcessError):  # no child is left unreaped
        os.waitpid(-1, os.WNOHANG)


class _Stop(BaseException):
    """Not an Exception, like an interrupt or a benchmark probe's stop."""


@pytest.mark.parametrize(
    "exc",
    [RuntimeError("the parent's share failed"), _Stop("the parent's share stopped")],
    ids=["error", "stop"],
)
def test_a_failure_in_the_parents_share_kills_and_reaps_every_worker(monkeypatch, exc):
    parent = os.getpid()

    def fail_here_or_keep_the_child_busy(cfg, **kwargs):
        if os.getpid() == parent:
            raise exc
        time.sleep(30)  # a child must be killed, not awaited
        return run_scenario(cfg, **kwargs)

    monkeypatch.setattr(sweep, "_cpu_count", lambda: 3)
    monkeypatch.setattr(sweep, "run_scenario", fail_here_or_keep_the_child_busy)
    start = time.monotonic()
    with pytest.raises(type(exc), match=str(exc)):
        run_sweep(SMALL, SweepGrid(seeds=(1, 2, 3)))
    assert time.monotonic() - start < 20
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_stop_right_after_reaping_a_worker_still_reaps_the_rest(monkeypatch):
    # The stop lands after os.waitpid has reaped the first worker but before
    # the sweep knows; cleanup must neither hide it nor skip the second one.
    waitpid = os.waitpid
    stops = []

    def reap_then_stop(pid, options):
        result = waitpid(pid, options)
        if not stops:
            stops.append(pid)
            raise _Stop("stopped after a reap")
        return result

    monkeypatch.setattr(sweep, "_cpu_count", lambda: 3)
    monkeypatch.setattr(os, "waitpid", reap_then_stop)
    with pytest.raises(_Stop, match="stopped after a reap"):
        run_sweep(SMALL, SweepGrid(seeds=(1, 2, 3)))
    monkeypatch.undo()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "audit",
    [RunAudit(book_count=3, free_count=2), RunAudit(book_count=2, free_count=2, channel_clear=False)],
    ids=["unfreed", "on-air"],
)
def test_a_failed_channel_audit_raises(audit):
    with pytest.raises(RuntimeError, match="channel audit failed"):
        audit.check()


def test_cli_sweep_reports_a_failed_channel_audit_in_a_worker(tmp_path, monkeypatch, capsys):
    # Every run audits its own channel, so a bad run fails the sweep in
    # whichever worker it ran.
    parent = os.getpid()
    take_off_air = GatewayPhy._take_off_air

    def lose_the_end_in_a_child(self, rec):
        take_off_air(self, rec)
        if os.getpid() != parent:
            self.ends -= 1

    monkeypatch.setattr(sweep, "_cpu_count", lambda: 2)
    monkeypatch.setattr(GatewayPhy, "_take_off_air", lose_the_end_in_a_child)
    config = tmp_path / "scenario.cfg"
    config.write_text("n_devices = 2\nsim_time_s = 50\nperiod_set_s = {10}\n")
    grid = tmp_path / "grid.cfg"
    grid.write_text("seeds = {1, 2}\n")
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", str(config), "--grid", str(grid), "--out", str(out)]) == 1
    assert "channel audit failed" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_simulation_needs_at_least_one_device():
    with pytest.raises(ValueError, match="at least one device"):
        Simulation(RunConfig(n_devices=1), [])
    with pytest.raises(ConfigError, match="n_devices"):
        RunConfig(n_devices=0)  # placement would yield no devices


def _devices(offset_s=None, **attributes):
    devices = devices_at([(0.0, 0.0), (1.0, 0.0)], **attributes)
    return [replace(d, offset_s=offset_s) for d in devices]


def _built(cfg, **attributes):
    """The config's own devices, with device 0 edited after building."""
    devices = build_topology(cfg)
    devices[0] = replace(devices[0], **attributes)
    return devices


TOO_SHORT_S = 1e-9  # rounds to 0 us: the event would reschedule at t = 0 forever
# At this bandwidth the automatic sensing interval rounds to 0 us at SF7 but
# not at SF12.  Any device may be SF7, so even a config with sf_set = {12}
# is refused when built, before an SF7 device could reach the run gate.
WIDE_SF12 = dict(bandwidth_hz=1e10, sf_set=(12,))


@pytest.mark.parametrize(
    "start,error,match",
    [
        # A config that its runs could not finish is refused when it is built,
        # before any topology or gate.
        pytest.param(
            lambda cfg: Simulation(cfg, build_topology(replace(cfg, period_set_s=(TOO_SHORT_S,)))),
            ConfigError,
            "period_set_s",
            id="build_topology-period",
        ),
        pytest.param(
            lambda cfg: Simulation(
                replace(cfg, sensing_interval_s=TOO_SHORT_S), build_topology(cfg)
            ),
            ConfigError,
            "sensing_interval_s",
            id="build_topology-sensing",
        ),
        pytest.param(
            lambda cfg: Simulation(cfg, build_topology(replace(cfg, p=0.0))),
            ConfigError,
            r"p must be in \(0, 1\]",
            id="build_topology-p",
        ),
        # Device lists made by hand are Topology-*, lists built from the config
        # and then edited are topology_of-*: the ids keep the names of the
        # entry points that used to take each kind of list.
        pytest.param(
            lambda cfg: Simulation(replace(cfg, sensing_interval_s=TOO_SHORT_S), _devices()),
            ConfigError,
            "sensing_interval_s",
            id="Topology-sensing",
        ),
        # Devices the config does not describe reach the run gate.
        pytest.param(
            lambda cfg: Simulation(cfg, _devices(period_s=TOO_SHORT_S)),
            ValueError,
            "period for device 0",
            id="Topology-period",
        ),
        pytest.param(
            lambda cfg: Simulation(cfg, _devices(p=1.5)),
            ValueError,
            "persistence for device 0",
            id="Topology-p",
        ),
        pytest.param(
            lambda cfg: Simulation(cfg, _devices(sf=6)),
            ValueError,
            "sf for device 0 must be in 7..12, got 6",
            id="Topology-sf",
        ),
        # An offset is scheduled as the device's first event.
        *(
            pytest.param(
                lambda cfg, offset_s=offset_s: Simulation(cfg, _devices(offset_s=offset_s)),
                ValueError,
                "offset for device 0 must be finite and >= 0",
                id=f"Topology-offset-{name}",
            )
            for name, offset_s in (
                ("negative", -1.0),
                ("nan", float("nan")),
                ("inf", float("inf")),
                ("overflow", 1e303),  # finite, but not in microseconds
            )
        ),
        pytest.param(
            lambda cfg: Simulation(cfg, _built(cfg, period_s=TOO_SHORT_S)),
            ValueError,
            "period for device 0",
            id="topology_of-period",
        ),
        pytest.param(
            lambda cfg: Simulation(cfg, _built(cfg, period_s=float("nan"))),
            ValueError,
            "period for device 0 must be finite",
            id="topology_of-period-nan",
        ),
        pytest.param(
            lambda cfg: Simulation(cfg, _built(cfg, period_s=float("inf"))),
            ValueError,
            "period for device 0 must be finite",
            id="topology_of-period-inf",
        ),
        pytest.param(
            lambda cfg: Simulation(cfg, _built(cfg, period_s=1e303)),
            ValueError,
            "period for device 0 must be finite",
            id="topology_of-period-overflow",
        ),
        pytest.param(
            lambda cfg: Simulation(
                replace(cfg, **WIDE_SF12), _built(replace(cfg, **WIDE_SF12), sf=7)
            ),
            ConfigError,
            "sensing_interval_s gives .* at SF7, below 1 us",
            id="topology_of-sensing-sf-outside-sf_set",
        ),
        # Poisson arrivals are timed at the sf_set's SF (SF8 here).
        pytest.param(
            lambda cfg: Simulation(replace(cfg, traffic="poisson"), _devices(sf=9)),
            ValueError,
            "sf for device 0 must be the sf_set's SF8 under poisson traffic, got 9",
            id="Topology-poisson-sf",
        ),
    ],
)
def test_simulation_refuses_a_device_its_event_loop_cannot_finish(start, error, match):
    cfg = RunConfig(n_devices=2, sim_time_s=50.0, period_set_s=(10.0,))
    with pytest.raises(error, match=match) as refused:
        start(cfg)
    # The run gate's refusals are no config errors: they name a device.
    assert error is ConfigError or not isinstance(refused.value, ConfigError)


FIELDS = ("x", "y", "z", "shadow_db")


@pytest.mark.parametrize(
    "field,value,wrong",
    [
        *(
            pytest.param(field, value, "must be finite", id=f"{value}-{field}")
            for value in (float("nan"), float("inf"))
            for field in FIELDS
        ),
        # Finite values that overflow later: the square of a coordinate in
        # the gateway power, or a detect range and an effective power.
        *(
            pytest.param(field, value, "must be at most", id=f"{value:g}-{field}")
            for value in (1e200, -1e200, 1e308, -1e308)
            for field in FIELDS
            if abs(value) > 1e300 or field in ("x", "y", "z")
        ),
    ],
)
def test_run_gate_refuses_a_non_finite_position_or_power(field, value, wrong):
    # A NaN position gives every packet of the device a NaN received power,
    # which no sensitivity test rejects, so its packets would count as received.
    devices = _devices()
    devices[1] = replace(devices[1], **{field: value})
    with pytest.raises(ValueError, match=f"{field} for device 1 {wrong}"):
        Simulation(RunConfig(n_devices=2, sim_time_s=50.0), devices)
