"""Property tests: accepted random configs terminate, conserve and replay;
carrier sensing agrees with the vicinity-matrix oracle."""

import io

import numpy as np

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import devices_at
from lorapcsma.config import ConfigError, RunConfig
from lorapcsma.gateway import Outcome, TxRecord
from lorapcsma.metrics import write_trace
from lorapcsma.simulation import Simulation, run_scenario
from lorapcsma.topology import Topology

probabilities = st.floats(0.01, 1.0)


@st.composite
def run_configs(draw):
    n = draw(st.integers(1, 30))
    traffic = draw(st.sampled_from(("periodic", "poisson")))
    # Poisson traffic needs one packet-time, so a single SF.
    max_sfs = 1 if traffic == "poisson" else 3
    sf_set = draw(st.lists(st.integers(7, 12), min_size=1, max_size=max_sfs, unique=True))
    fields = dict(
        n_devices=n,
        sim_time_s=draw(st.floats(10.0, 300.0)),
        mac=draw(st.sampled_from(("pcsma", "aloha"))),
        traffic=traffic,
        period_set_s=tuple(draw(st.lists(st.floats(1.0, 300.0), min_size=1, max_size=3))),
        sf_set=tuple(sf_set),
        p=draw(probabilities | st.lists(probabilities, min_size=n, max_size=n).map(tuple)),
        n_areas=draw(st.integers(1, 4)),
        cluster_radius_m=draw(st.floats(0.0, 400.0)),
        ring_radius_m=draw(st.floats(2000.0, 6000.0)),
        offsets=draw(st.sampled_from(("zero", "uniform"))),
        sensing_interval_s=draw(st.none() | st.floats(0.001, 1.0)),
        offered_load=draw(st.floats(0.05, 2.0)),
        duty_cycle_enforce=draw(st.booleans()),
        seed=draw(st.integers(0, 2**31)),
    )
    try:
        return RunConfig(**fields)
    except ConfigError:
        reject()  # a draw that cannot be built is no config


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
def vicinities_and_toggles(draw):
    n = draw(st.integers(1, 12))
    cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    toggles = draw(st.lists(st.integers(0, n - 1), max_size=40))
    return np.array(cells, dtype=bool).reshape(n, n), toggles


@settings(max_examples=100, deadline=None)
@given(vicinities_and_toggles())
def test_sense_matches_the_vicinity_matrix_oracle(case):
    # Random, possibly asymmetric matrices with arbitrary diagonals.  The MAC
    # senses only for a device that is not on air, so only those are asked,
    # and a device's own entry never decides the answer.
    vicinity, toggles = case
    n = len(vicinity)
    devices = devices_at([(float(i), 0.0) for i in range(n)])
    sim = Simulation(RunConfig(n_devices=n), Topology(devices, vicinity, [0.0] * n))
    gateway = sim.gateway
    for step in [None, *toggles]:
        if step is not None:
            if step in gateway.on_air:
                gateway.on_tx_end(gateway.on_air[step])
            else:
                gateway.on_tx_start(TxRecord(step, 8, 0, 1, 0.0))
        busy = [j in gateway.on_air for j in range(n)]
        for d in range(n):
            if not busy[d]:
                oracle = any(vicinity[d, j] and busy[j] for j in range(n))
                assert sim.mac.sense(d) == oracle
