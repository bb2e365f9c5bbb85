"""Property tests: accepted random configs terminate, conserve and replay;
lazy air-end expiry agrees with air-end events; a sweep that reuses runs
across p agrees with one run per point; carrier sensing agrees with the
vicinity-matrix oracle."""

import io
import math
from dataclasses import fields, replace
from unittest import mock

from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from conftest import run_with_eager_air_ends
from lorapcsma import phy, sweep
from lorapcsma.config import ConfigError, RunConfig, SweepGrid
from lorapcsma.gateway import Outcome, TxRecord
from lorapcsma.metrics import write_trace
from lorapcsma.kernel import RngStream
from lorapcsma.simulation import STREAM_PERSISTENCE, Simulation, run_scenario
from lorapcsma.sweep import run_sweep
from lorapcsma.topology import DeviceSpec, build_vicinity

probabilities = st.floats(0.01, 1.0)


@st.composite
def run_configs(draw):
    n = draw(st.integers(1, 30))
    traffic = draw(st.sampled_from(("periodic", "poisson")))
    # Poisson traffic needs one packet-time, so a single SF.
    max_sfs = 1 if traffic == "poisson" else 3
    sf_set = draw(st.lists(st.integers(7, 12), min_size=1, max_size=max_sfs, unique=True))
    interval = draw(st.none() | st.floats(0.001, 1.0))
    # A device in back-off polls once per sensing interval, so a 1 ms interval
    # over 300 s of busy channel is 300k polls per device (8.5M events for 30
    # SF12 devices).  The run is cut to at most 30k intervals: 10-30 s at
    # 1 ms, the full 10-300 s from 10 ms and under auto (half an airtime).
    max_time_s = 300.0 if interval is None else min(300.0, 3e4 * interval)
    fields = dict(
        n_devices=n,
        sim_time_s=draw(st.floats(10.0, max_time_s)),
        mac=draw(st.sampled_from(("pcsma", "aloha"))),
        traffic=traffic,
        period_set_s=tuple(draw(st.lists(st.floats(1.0, 300.0), min_size=1, max_size=3))),
        sf_set=tuple(sf_set),
        p=draw(probabilities | st.lists(probabilities, min_size=n, max_size=n).map(tuple)),
        n_areas=draw(st.integers(1, 4)),
        cluster_radius_m=draw(st.floats(0.0, 400.0)),
        ring_radius_m=draw(st.floats(2000.0, 6000.0)),
        offsets=draw(st.sampled_from(("zero", "uniform"))),
        sensing_interval_s=interval,
        offered_load=draw(st.floats(0.05, 2.0)),
        duty_cycle_enforce=draw(st.booleans()),
        seed=draw(st.integers(0, 2**31)),
    )
    try:
        return RunConfig(**fields)
    except ConfigError:
        reject()  # a draw that cannot be built is no config


# Every RunConfig field that holds floats, alone or in a tuple.
FLOAT_FIELDS = [f.name for f in fields(RunConfig) if "float" in f.type]
BASES = (
    {"n_devices": 1},
    {"n_devices": 3, "n_areas": 3},
    {"n_devices": 1, "traffic": "poisson"},
)


@st.composite
def configs_with_one_float_changed(draw):
    """A base config's keywords with one float, or one entry of a tuple of
    floats, set to any finite float."""
    keywords = dict(draw(st.sampled_from(BASES)))
    name = draw(st.sampled_from(FLOAT_FIELDS))
    value = draw(st.floats(allow_nan=False, allow_infinity=False))
    default = getattr(RunConfig(**keywords), name)
    if isinstance(default, tuple):
        k = draw(st.integers(0, len(default) - 1))
        value = default[:k] + (value,) + default[k + 1 :]
    keywords[name] = value
    return keywords


@settings(max_examples=500, deadline=None)
@given(configs_with_one_float_changed())
def test_a_config_with_any_finite_float_builds_or_names_the_error(keywords):
    # Huge and tiny floats overflow in microseconds or in a detect range;
    # building refuses them with a ConfigError, never an OverflowError.
    try:
        RunConfig(**keywords)
    except ConfigError:
        pass


def _trace(result) -> str:
    buf = io.StringIO()
    write_trace(result.records, buf)
    return buf.getvalue()


@settings(max_examples=50, deadline=None)
@given(run_configs())
def test_accepted_configs_terminate_conserve_and_replay(cfg):
    result = run_scenario(cfg)
    c, audit = result.counters, result.audit
    c.check()
    assert audit.channel_clear and audit.book_count == audit.free_count
    outcomes = [rec.outcome for rec in result.records if rec.outcome is not None]
    assert c.sent == len(outcomes)
    assert outcomes.count(Outcome.RECEIVED) == c.received
    assert outcomes.count(Outcome.COLLIDED) == c.collided
    assert outcomes.count(Outcome.UNDER_SENSITIVITY) == c.under_sensitivity
    assert outcomes.count(Outcome.NO_DEMOD_PATH) == c.no_path
    replay = run_scenario(cfg)
    assert replay.counters == c
    assert _trace(replay) == _trace(result)
    # Without the log the run ends by aborting its on-air packets alone.
    unlogged = run_scenario(cfg, keep_records=False)
    assert unlogged.records is None
    assert unlogged.counters == c
    assert unlogged.audit == audit


@st.composite
def tie_prone_configs(draw):
    """Periodic configs whose events often share a microsecond: shared
    periods, zero offsets in half the draws, and sensing intervals of one or
    two airtimes, so polls land on air-ends."""
    sf_set = tuple(draw(st.lists(st.integers(7, 10), min_size=1, max_size=3, unique=True)))
    airtimes = draw(st.none() | st.sampled_from((1.0, 2.0)))
    toa_s = phy.time_on_air(draw(st.sampled_from(sf_set)), RunConfig(n_devices=1))
    fields = dict(
        n_devices=draw(st.integers(2, 40)),
        n_areas=draw(st.integers(1, 3)),
        mac=draw(st.sampled_from(("pcsma", "aloha"))),
        offsets=draw(st.sampled_from(("zero", "uniform"))),
        sf_set=sf_set,
        gateway_paths=draw(st.integers(1, 2)),
        period_set_s=draw(st.sampled_from(((10.0,), (10.0, 20.0), (5.0, 7.5)))),
        p=draw(st.sampled_from((0.25, 0.5, 1.0))),
        sensing_interval_s=None if airtimes is None else airtimes * toa_s,
        sim_time_s=draw(st.floats(20.0, 120.0)),
        seed=draw(st.integers(0, 2**31)),
    )
    try:
        return RunConfig(**fields)
    except ConfigError:
        reject()


@settings(max_examples=100, deadline=None)
@given(tie_prone_configs())
# Two devices that hear each other, a poll one airtime after a busy sense
# and packets that end between the last event and the end of the run.
@example(
    RunConfig(
        n_devices=2,
        offsets="zero",
        sf_set=(8,),
        period_set_s=(10.0,),
        p=1.0,
        sensing_interval_s=phy.time_on_air(8, RunConfig(n_devices=1)),
        sim_time_s=30.5,
    )
)
def test_lazy_air_ends_match_air_end_events(cfg):
    # Expiring packets at the next MAC event, in (us, seq) order, must give
    # the run that an air-end event per packet gives, tie for tie.
    lazy, eager = run_scenario(cfg), run_with_eager_air_ends(cfg)
    assert _trace(lazy) == _trace(eager)
    assert lazy.counters == eager.counters
    # Every packet that ended inside the run was one eager event.
    assert eager.audit.events_executed == lazy.audit.events_executed + lazy.counters.sent


@st.composite
def p_sweeps(draw):
    """Points of a sweep over three or four scalar p, two hiding levels and
    two seeds, with the workers that run them.  The first p's run, in one
    area under the first seed, draws persistence values; one p equals such
    a value, often the last (the stream's first value if the run draws
    none), and one is the next float above it, so the two decide that draw
    apart.  Short periods make devices back off and draw."""
    seed = draw(st.integers(0, 2**31))
    sf_set = tuple(draw(st.lists(st.integers(7, 9), min_size=1, max_size=3, unique=True)))
    try:
        base = RunConfig(
            n_devices=draw(st.integers(2, 20)),
            mac=draw(st.sampled_from(("pcsma", "aloha"))),
            offsets=draw(st.sampled_from(("zero", "uniform"))),
            sf_set=sf_set,
            period_set_s=draw(st.sampled_from(((5.0,), (5.0, 10.0), (2.0, 7.5)))),
            sensing_interval_s=draw(st.none() | st.floats(0.01, 0.5)),
            duty_cycle_enforce=draw(st.booleans()),
            sim_time_s=draw(st.floats(20.0, 90.0)),
            seed=seed,
        )
        first = draw(probabilities)
        n_draws = run_scenario(replace(base, p=first), keep_records=False).audit.persistence_draws
        stream = RngStream(seed, STREAM_PERSISTENCE)
        k = draw(st.just(n_draws) | st.integers(1, max(n_draws, 1)))
        u = [stream.uniform() for _ in range(max(k, 1))][-1]
        # u before the float above it, so that a run at p = u, which draws
        # u and fails it, comes first.
        ps = [u, math.nextafter(u, 1.0)]
        for extra in draw(st.lists(probabilities, max_size=1)):
            ps.insert(draw(st.integers(0, 2)), extra)
        ps = list(dict.fromkeys(p for p in [first, *ps] if p > 0.0))
        # run_sweep's nesting: cells (p, then n_areas), then seeds.
        points = [
            replace(base, p=p, n_areas=n_areas, seed=s)
            for p in ps
            for n_areas in (1, 2)
            for s in (seed, seed + 1)
        ]
    except ConfigError:
        reject()
    return base, points, draw(st.integers(1, 2))


@settings(max_examples=60, deadline=None)
@given(p_sweeps())
def test_a_sweep_equals_one_run_per_point(case):
    # A sweep simulates a point only if no run of its group drew a value
    # that its p decides otherwise; every point must get what its own run
    # gives.
    base, points, workers = case
    independent = {point: run_scenario(point, keep_records=False).counters for point in points}
    with mock.patch.object(sweep, "_cpu_count", lambda: workers):
        assert sweep._run_all(points) == [independent[point] for point in points]
        # The same through run_sweep's rows, over the p values whose cell
        # names differ (u and the float above it print alike).
        names = {}
        for point in points:
            names.setdefault(sweep.scenario_name(1, (8,), point.p, 1), point.p)
        grid = SweepGrid(
            p_values=tuple(names.values()),
            n_areas_values=(1, 2),
            seeds=(points[0].seed, points[0].seed + 1),
        )
        rows = run_sweep(base, grid)
    with mock.patch.object(sweep, "_run_all", lambda pts: [independent[p] for p in pts]):
        assert rows == run_sweep(base, grid)


SF10_RANGE_M = phy.detect_range_m(10, 14.0, RunConfig(n_devices=1))


def _device(x, y=0.0, z=0.0, sf=8, shadow_db=0.0):
    return DeviceSpec(x, y, z, sf, 100.0, 1.0, shadow_db)


@st.composite
def devices_and_toggles(draw):
    n = draw(st.integers(1, 12))
    # Distances up to ~14 km against detect ranges of ~0.5-17 km (SF and
    # fade vary) give both outcomes.  Less a fade in [-16, 29] dB, the run's
    # 14 dBm spans effective powers of [-15, 30] dBm.
    coordinate = st.floats(-5000.0, 5000.0)
    devices = [
        _device(
            draw(coordinate),
            draw(coordinate),
            draw(st.floats(-300.0, 300.0)),
            sf=draw(st.integers(phy.SF_MIN, phy.SF_MAX)),
            shadow_db=draw(st.floats(-16.0, 29.0)),
        )
        for _ in range(n)
    ]
    return devices, draw(st.lists(st.integers(0, n - 1), max_size=40))


@settings(max_examples=100, deadline=None)
@given(devices_and_toggles())
# 4000 m apart, the SF10 device is heard by the SF8 one and not the reverse.
@example(([_device(0.0), _device(4000.0, sf=10)], [1, 1, 0]))
# Device 1 sits exactly at its detect range from device 0 when the squares
# are summed as (dx*dx + dy*dy) + dz*dz, and one ulp beyond it in any other
# order, so it is heard only under build_vicinity's order.  Device 2 sits
# one ulp beyond its own detect range from device 0.
@example(
    (
        [
            _device(0.0),
            _device(3183.8804514713797, 1452.2909874277825, 261.733139071556),
            _device(-math.nextafter(SF10_RANGE_M, math.inf), sf=10),
        ],
        [1, 2],
    )
)
def test_sense_matches_the_vicinity_matrix_oracle(case):
    # The MAC tests distances at sense time; build_vicinity evaluates the
    # same test for every pair at once.  Every device is asked, on air or
    # not, and a device's own transmission never makes it sense busy.
    devices, toggles = case
    n = len(devices)
    cfg = RunConfig(n_devices=n)
    vicinity = build_vicinity(devices, cfg)
    sim = Simulation(cfg, devices)
    gateway = sim.gateway
    for step in [None, *toggles]:
        if step is not None:
            if step in gateway.on_air:
                gateway.on_tx_end(gateway.on_air[step])
            else:
                gateway.on_tx_start(TxRecord(step, 8, 0, 1, 0.0))
        busy = [j in gateway.on_air for j in range(n)]
        for d in range(n):
            oracle = any(vicinity[d, j] and busy[j] for j in range(n))
            assert sim.mac.sense(d) == oracle
