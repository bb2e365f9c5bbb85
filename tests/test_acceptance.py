"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Statistical criteria use fixed seeds, so results are exact
replays, not flaky estimates.
"""

import io
import statistics
from dataclasses import replace

from conftest import (
    above_sensitivity,
    devices_at,
    hidden_star_positions,
    make_sim,
    overlapping_pairs,
)
from lorapcsma import phy
from lorapcsma.config import RunConfig, SweepGrid
from lorapcsma.metrics import compute_prr, write_csv, write_trace
from lorapcsma.simulation import build_topology, run_scenario
from lorapcsma.sweep import aloha_validation, run_sweep
from lorapcsma.topology import build_vicinity


def _criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[C{number:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_c01_aloha_throughput_anchor():
    toa = phy.time_on_air(8, RunConfig(n_devices=1))
    cfg = RunConfig(
        n_devices=100,
        sim_time_s=200_000 * toa,  # >= 200k packet-times
        mac="aloha",
        traffic="poisson",
        sf_set=(8,),
        seed=1,
    )
    rows = aloha_validation([0.5, 1.0], cfg)
    s_half, s_one = rows[0]["throughput"], rows[1]["throughput"]
    ok = abs(s_half - 0.184) <= 0.010 and abs(s_one - rows[1]["theoretical"]) <= 0.010
    _criterion(1, "ALOHA anchor", ok, f"S(0.5)={s_half:.4f} S(1.0)={s_one:.4f}")


def test_c02_single_device_exactness():
    cfg = RunConfig(n_devices=1, period_set_s=(100.0,), offsets="zero", sim_time_s=3600.0, seed=1)
    result = run_scenario(cfg)
    prr_generated, _ = compute_prr(result.counters)
    ok = (
        result.counters.generated == 36
        and result.counters.received == 36
        and prr_generated == 1.0
    )
    _criterion(2, "single-device exactness", ok, f"{result.counters.generated}/36 generated")


def test_c03_non_hidden_exclusion():
    collided = 0
    overlaps = 0
    for seed in range(1, 11):
        p = 0.25 if seed % 2 else 1.0
        cfg = RunConfig(n_devices=20, n_areas=1, sf_set=(8,), p=p, sim_time_s=3600.0, seed=seed)
        result = run_scenario(cfg)
        collided += result.counters.collided
        vic = build_vicinity(build_topology(cfg), cfg)
        for a, b in overlapping_pairs(result.records):
            i, j = result.records[a].device, result.records[b].device
            if vic[i, j] and vic[j, i]:
                overlaps += 1
    ok = collided == 0 and overlaps == 0
    _criterion(3, "non-hidden exclusion", ok, f"collided={collided} visible-overlaps={overlaps}")


def test_c04_hidden_pair_determinism():
    cfg = RunConfig(n_devices=2, n_areas=2, period_set_s=(100.0,), offsets="zero", p=1.0, seed=3)
    synced = run_scenario(cfg)
    prr_synced, _ = compute_prr(synced.counters)

    # One full second >> one ToA (0.103 s).
    staggered = make_sim(build_topology(cfg), cfg, offsets_s=[0.0, 1.0], seed=cfg.seed).run()
    prr_staggered, _ = compute_prr(staggered.counters)

    ok = (
        synced.counters.collided == synced.counters.sent
        and prr_synced == 0.0
        and prr_staggered == 1.0
    )
    _criterion(4, "hidden-pair determinism", ok, f"synced={prr_synced} staggered={prr_staggered}")


def test_c05_demod_path_limit():
    # Eight ring positions plus the centre: pairwise hidden at SF8, all
    # inside gateway range, firing at the same instant.
    devices = devices_at(hidden_star_positions(), period_s=1000.0)
    cfg = RunConfig(n_devices=9, period_set_s=(1000.0,), offsets="zero", sim_time_s=100.0, seed=1)
    assert not build_vicinity(devices, cfg).any()  # mutually hidden
    result = make_sim(devices, cfg, offsets_s=[0.0] * 9).run()
    c = result.counters
    ok = c.no_path == 1 and c.collided == 8 and result.audit.max_paths_bound == 8
    _criterion(5, "demod-path limit", ok, f"no_path={c.no_path} collided={c.collided}")


def _mean_prr(cfg: RunConfig, seeds) -> float:
    values = []
    for seed in seeds:
        result = run_scenario(replace(cfg, seed=seed))
        values.append(compute_prr(result.counters)[0])
    return statistics.mean(values)


def test_c06_persistence_monotonicity():
    seeds = range(1, 21)
    means = {
        p: _mean_prr(RunConfig(n_devices=60, n_areas=3, sf_set=(8,), p=p), seeds)
        for p in (0.25, 0.5, 0.75)
    }
    ok = means[0.25] >= means[0.5] - 0.01 and means[0.5] >= means[0.75] - 0.01
    detail = " ".join(f"p{p}={m:.4f}" for p, m in means.items())
    _criterion(6, "p-monotonicity", ok, detail)


def test_c07_sf_mix_benefit():
    seeds = range(1, 21)
    mixed = _mean_prr(RunConfig(n_devices=20, n_areas=1, sf_set=(8, 9, 10), p=0.25), seeds)
    sf8_only = _mean_prr(RunConfig(n_devices=20, n_areas=1, sf_set=(8,), p=0.25), seeds)
    ok = mixed >= 0.95 and mixed >= sf8_only - 0.01
    _criterion(7, "SF-mix benefit", ok, f"mixed={mixed:.4f} sf8={sf8_only:.4f}")


def test_c08_conservation_suite():
    configs = [
        RunConfig(n_devices=1, period_set_s=(100.0,), offsets="zero"),
        RunConfig(n_devices=60, n_areas=3, sf_set=(8, 9, 10), p=0.25, seed=5),
        RunConfig(n_devices=1, period_set_s=(0.05,), offsets="zero", sim_time_s=20.0, seed=7),
        RunConfig(n_devices=9, mac="aloha", period_set_s=(5.0,), offsets="zero", sim_time_s=120.0),
        RunConfig(n_devices=10, traffic="poisson", offered_load=2.0, sim_time_s=300.0, seed=9),
        RunConfig(n_devices=10, mac="aloha", traffic="poisson", offered_load=1.0, sim_time_s=300.0),
        RunConfig(n_devices=2, period_set_s=(5.0,), duty_cycle_enforce=True, offsets="zero"),
    ]
    failures = []
    for idx, cfg in enumerate(configs):
        result = run_scenario(cfg)
        c = result.counters
        if c.sent != c.received + c.collided + c.under_sensitivity + c.no_path:
            failures.append(f"cfg{idx}: outcome sum")
        if c.generated != c.sent + c.suppressed + c.pending_at_end:
            failures.append(f"cfg{idx}: generated sum")
        if result.audit.book_count != result.audit.free_count:
            failures.append(f"cfg{idx}: book/free")
        if result.audit.max_paths_bound > cfg.gateway_paths:
            failures.append(f"cfg{idx}: paths")
        if not result.audit.channel_clear:
            failures.append(f"cfg{idx}: flags")
    _criterion(8, "conservation suite", not failures, "; ".join(failures))


def test_c09_determinism():
    base = RunConfig(n_devices=40, n_areas=2, sf_set=(8, 9, 10), sim_time_s=600.0)
    grid = SweepGrid(p_values=(0.25,), seeds=(11, 12))
    outputs = []
    for _ in range(2):
        csv_out, trace_out = io.StringIO(), io.StringIO()
        write_csv(run_sweep(base, grid), csv_out)
        result = run_scenario(replace(base, seed=11))
        write_trace(result.records, trace_out)
        outputs.append((csv_out.getvalue(), trace_out.getvalue()))
    ok = outputs[0] == outputs[1]
    _criterion(9, "determinism", ok, f"{len(outputs[0][0])} CSV bytes compared")


def test_c10_phy_oracle():
    cfg = RunConfig(n_devices=1)  # the PHY defaults
    airtimes = {sf: phy.time_on_air(sf, cfg) for sf in (8, 10, 12)}
    expected = {8: 0.102912, 10: 0.329728, 12: 1.318912}
    airtime_ok = all(abs(airtimes[sf] - expected[sf]) <= 1e-6 for sf in expected)

    round_trip_ok = True
    # The gateway row is run as the device row of a second config.
    gateway_cfg = RunConfig(n_devices=1, device_sensitivity_dbm=cfg.gateway_sensitivity_dbm)
    for row_cfg in (cfg, gateway_cfg):
        row = row_cfg.device_sensitivity_dbm
        for sf in range(7, 13):
            r = phy.detect_range_m(sf, 14.0, row_cfg)
            inside = above_sensitivity(phy.received_power_dbm(14.0, r - 1e-3, cfg), sf, row)
            outside = above_sensitivity(phy.received_power_dbm(14.0, r + 1e-3, cfg), sf, row)
            round_trip_ok = round_trip_ok and inside and not outside
    ok = airtime_ok and round_trip_ok
    detail = " ".join(f"SF{sf}={airtimes[sf]:.6f}s" for sf in expected)
    _criterion(10, "PHY oracle", ok, detail)
