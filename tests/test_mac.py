"""MAC state machine: sensing, claiming, back-off, persistence, ALOHA mode."""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import devices_at, hidden_star_positions, make_sim
from lorapcsma import phy
from lorapcsma.config import RunConfig
from lorapcsma.gateway import TxRecord
from lorapcsma.kernel import US_PER_S, RngStream
from lorapcsma.mac import DUTY_WINDOW_US, shall_it_pass
from lorapcsma.simulation import STREAM_PERSISTENCE

SF8_TOA_US = 102_912
SENSE_US = SF8_TOA_US // 2


class FakeRng:
    def __init__(self, draws):
        self.draws = list(draws)

    def uniform(self):
        return self.draws.pop(0)


def packet(device):
    return TxRecord(device, 8, 0, SF8_TOA_US, -100.0)


def test_a_device_sends_at_the_config_power_less_its_fade():
    # A per-device power is a fade: at 4 dBm a -10 dB fade gives the 14 dBm
    # device, in gateway power and detect range alike; a +10 dB one does not.
    devices = devices_at([(0.0, 0.0), (3000.0, 0.0)])
    plain = make_sim(devices).mac
    for fade, same in ((-10.0, True), (10.0, False)):
        faded = [replace(d, shadow_db=fade) for d in devices]
        mac = make_sim(faded, RunConfig(n_devices=2, tx_power_dbm=4.0)).mac
        assert (mac.prx_dbm == plain.prx_dbm and mac.hearing == plain.hearing) is same


def test_sense_over_vicinity_set():
    # 0 and 1 are mutually audible; 2 is hidden from both (SF8 range ~3509 m).
    devices = devices_at([(0.0, 0.0), (1.0, 0.0), (5000.0, 0.0)])
    sim = make_sim(devices)
    mac, gateway = sim.mac, sim.gateway
    assert mac.on_air is gateway.on_air  # the MAC reads the gateway's map
    assert not mac.sense(0)  # nobody on air
    gateway.on_tx_start(packet(2))
    assert not mac.sense(0)  # only a hidden device transmitting
    audible = packet(1)
    gateway.on_tx_start(audible)
    assert mac.sense(0)
    gateway.on_tx_end(audible)
    gateway.on_tx_start(packet(0))
    assert not mac.sense(0)  # own transmission ignored


def test_sense_ignores_transmitter_sf():
    devices = devices_at([(0.0, 0.0), (1.0, 0.0)])
    devices[1].sf = 10
    sim = make_sim(devices)
    sim.gateway.on_tx_start(packet(1))
    assert sim.mac.sense(0)


def test_persistence_table():
    # The MAC keeps one p per device and rejects any outside (0, 1].
    devices = devices_at([(0.0, 0.0), (1.0, 0.0)], p=0.25)
    devices[1].persistence = 1.0
    assert make_sim(devices).mac.persistence == [0.25, 1.0]
    for bad in (0.0, -0.1, 1.5):
        devices[1].persistence = bad
        with pytest.raises(ValueError, match="persistence for device 1"):
            make_sim(devices)


def test_shall_it_pass_p1_always_true():
    rng = RngStream(3, STREAM_PERSISTENCE)
    assert all(shall_it_pass(1.0, rng) for _ in range(1000))


def test_shall_it_pass_rate_matches_p():
    rng = RngStream(3, STREAM_PERSISTENCE)
    passes = sum(shall_it_pass(0.25, rng) for _ in range(100_000))
    assert abs(passes / 100_000 - 0.25) < 0.01


def test_single_device_transmits_at_first_firing():
    devices = devices_at([(0.0, 0.0)])
    sim = make_sim(devices, offsets_s=[0.0])
    result = sim.run()
    assert result.records[0].air_start_us == 0
    assert result.counters.received == result.counters.generated


def test_same_tick_firings_claim_fifo():
    # Both fire at t=0; the earlier-scheduled device books, the other backs
    # off, re-senses every half airtime, and claims right at air-end.
    devices = devices_at([(0.0, 0.0), (1.0, 0.0)])
    cfg = RunConfig(n_devices=2, sim_time_s=50.0, seed=1)
    sim = make_sim(devices, cfg, offsets_s=[0.0, 0.0])
    result = sim.run()
    first, second = result.records
    assert (first.device, first.air_start_us) == (0, 0)
    assert (second.device, second.air_start_us) == (1, SF8_TOA_US)
    assert result.counters.collided == 0


def test_retry_transmits_at_fourth_sense_when_busy_three_intervals():
    devices = devices_at([(0.0, 0.0), (1.0, 0.0)], period_s=10_000.0)
    cfg = RunConfig(n_devices=2, sim_time_s=100.0, seed=1)
    sim = make_sim(devices, cfg, offsets_s=[0.0, 9_999.0])
    # Device 1 occupies the channel over the first three senses of device 0;
    # abort takes it off air without counting an outcome for it.
    busy = packet(1)
    sim.sched.schedule(0, sim.gateway.on_tx_start, busy)
    sim.sched.schedule(round(2.5 * SENSE_US), sim.gateway.abort, busy)
    result = sim.run()
    assert len(result.records) == 1
    assert result.records[0].air_start_us == 3 * SENSE_US
    assert result.counters.received == 1


def test_failed_persistence_draw_waits_one_sensing_interval():
    devices = devices_at([(0.0, 0.0), (1.0, 0.0)], period_s=10_000.0, p=0.25)
    cfg = RunConfig(n_devices=2, sim_time_s=100.0, p=0.25, seed=1)
    sim = make_sim(devices, cfg, offsets_s=[0.0, 9_999.0])
    busy = packet(1)
    sim.sched.schedule(0, sim.gateway.on_tx_start, busy)
    sim.sched.schedule(SENSE_US // 2, sim.gateway.abort, busy)
    sim.mac.rng = FakeRng([0.9, 0.1])  # fail against p=0.25, then pass
    result = sim.run()
    assert result.records[0].air_start_us == 2 * SENSE_US


def test_generation_while_pending_is_suppressed_not_queued():
    # period < airtime: each transmission swallows the next two firings.
    devices = devices_at([(0.0, 0.0)], period_s=0.05)
    cfg = RunConfig(n_devices=1, period_set_s=(0.05,), sim_time_s=10.0, seed=2)
    sim = make_sim(devices, cfg, offsets_s=[0.0])
    result = sim.run()
    c = result.counters
    assert c.generated == 200
    assert c.suppressed == 133
    assert c.sent == 66 and c.received == 66
    assert c.pending_at_end == 1
    # never two packets on air from the same device
    own = sorted(
        (r.air_start_us, r.air_end_us) for r in result.records if r.device == 0
    )
    assert all(a[1] <= b[0] for a, b in zip(own, own[1:]))


def test_aloha_visible_pair_transmits_simultaneously():
    devices = devices_at([(0.0, 0.0), (1.0, 0.0)])
    cfg = RunConfig(n_devices=2, mac="aloha", sim_time_s=200.0, seed=1)
    sim = make_sim(devices, cfg, offsets_s=[0.0, 0.0])
    result = sim.run()
    starts = [r.air_start_us for r in result.records[:2]]
    assert starts == [0, 0]
    assert result.counters.collided == result.counters.sent


def test_aloha_equals_pcsma_for_a_single_device():
    outcomes = {}
    for mac_mode in ("pcsma", "aloha"):
        cfg = RunConfig(n_devices=1, mac=mac_mode, sim_time_s=1000.0, seed=9)
        sim = make_sim(devices_at([(0.0, 0.0)]), cfg, offsets_s=[3.0])
        result = sim.run()
        outcomes[mac_mode] = [(r.air_start_us, r.outcome) for r in result.records]
    assert outcomes["pcsma"] == outcomes["aloha"]


def test_p1_on_idle_channel_reproduces_aloha_send_times():
    # Pairwise hidden devices never sense each other: the first-attempt path
    # never consults persistence, so p-CSMA collapses onto ALOHA exactly.
    positions = hidden_star_positions()
    per_mode = {}
    for mac_mode in ("pcsma", "aloha"):
        cfg = RunConfig(n_devices=9, mac=mac_mode, p=1.0, sim_time_s=3600.0, seed=13)
        sim = make_sim(devices_at(positions, period_s=300.0), cfg)
        result = sim.run()
        per_mode[mac_mode] = [(r.device, r.air_start_us, r.outcome) for r in result.records]
    assert per_mode["pcsma"] == per_mode["aloha"]


def test_the_audit_counts_every_persistence_draw(monkeypatch):
    # One area and p = 0.1: most generations back off and draw many times.
    from lorapcsma import mac
    from lorapcsma.simulation import run_scenario

    calls = []

    def counted(p, rng):
        calls.append(p)
        return shall_it_pass(p, rng)

    monkeypatch.setattr(mac, "shall_it_pass", counted)
    cfg = RunConfig(n_devices=50, p=0.1, period_set_s=(30.0,), sim_time_s=300.0, seed=3)
    result = run_scenario(cfg)
    assert len(calls) > 50
    assert result.audit.persistence_draws == len(calls)


def _sliding_hour_refuses(log, now, toa_us):
    """The oracle: the guard's rule as a sum over a pruned log.  Refuse iff
    the airtime of every logged start at or after ``now`` less an hour, plus
    this packet's, exceeds 1% of the hour."""
    log[:] = [(s, d) for s, d in log if s >= now - DUTY_WINDOW_US]
    return sum(d for _, d in log) + toa_us > 0.01 * DUTY_WINDOW_US


# Gaps between attempts: equal start times, the window's edges, and spans
# that put about 20 attempts in an hour, against budgets of 0 to 40 starts.
_GAPS = st.one_of(
    st.sampled_from([0, 1, DUTY_WINDOW_US - 1, DUTY_WINDOW_US]),
    st.integers(0, DUTY_WINDOW_US // 10),
)


@settings(max_examples=300, deadline=None)
@given(
    toa_us=st.one_of(
        st.integers(900_000, 40_000_000),  # from 40 packets an hour to none
        st.sampled_from([900_000, 1_000_000, 2_250_000, 12_000_000, 36_000_000]),  # divide 36 s
        st.sampled_from([36_000_001, 50_000_000]),  # over 36 s: no packet fits
    ),
    gaps=st.lists(_GAPS, max_size=150),
)
@example(toa_us=36_000_001, gaps=[0, 0, DUTY_WINDOW_US])
@example(toa_us=12_000_000, gaps=[0, 0, 0, 0, DUTY_WINDOW_US - 1, 1, 0, 1])
def test_duty_guard_decides_like_the_sliding_hour_sum(toa_us, gaps):
    # The airtime is forced through phy, so the MAC sizes its guard from it.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phy, "time_on_air", lambda sf, cfg: toa_us / US_PER_S)
        sim = make_sim(devices_at([(0.0, 0.0)]), RunConfig(n_devices=1, duty_cycle_enforce=True))
    mac, gateway = sim.mac, sim.gateway
    assert mac.toa_us == [toa_us]
    log, now = [], 0
    for gap in gaps:
        now += gap
        if 0 in gateway.on_air:  # end the last packet, however short the gap
            gateway.on_tx_end(gateway.on_air[0])
        sim.sched.now_us = now
        refused = _sliding_hour_refuses(log, now, toa_us)
        suppressed = mac.counters.suppressed
        mac._start_transmission(0)
        assert (mac.counters.suppressed == suppressed + 1) is refused
        if not refused:
            log.append((now, toa_us))
