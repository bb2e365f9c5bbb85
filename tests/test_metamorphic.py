"""Metamorphic relations: a transformed input whose trace is predicted
exactly, so no second implementation is needed as the oracle."""

from dataclasses import replace

import pytest

from lorapcsma.config import RunConfig
from lorapcsma.kernel import us_from_s
from lorapcsma.simulation import Simulation, build_topology


@pytest.fixture(scope="module")
def runs():
    """(config, devices, records) of the paper's scenario and a two-area one,
    both p-CSMA at p = 0.25, over seeds 1-10 and both offset rules."""
    out = []
    for n_devices, n_areas in ((60, 3), (80, 2)):
        for offsets in ("uniform", "zero"):
            for seed in range(1, 11):
                cfg = RunConfig(
                    n_devices=n_devices, n_areas=n_areas, p=0.25, offsets=offsets, seed=seed
                )
                devices = build_topology(cfg)
                out.append((cfg, devices, Simulation(cfg, devices).run().records))
    return out


def test_rotating_or_mirroring_the_devices_leaves_the_trace_identical(runs):
    # A run sees positions only through distances, and these keep every bit:
    # negation is exact, and both dx*dx + dy*dy and the gateway's
    # x**2 + y**2 commute.
    for cfg, devices, records in runs:
        for move in (lambda d: replace(d, x=-d.y, y=d.x), lambda d: replace(d, y=-d.y)):
            moved = Simulation(cfg, [move(d) for d in devices]).run().records
            assert moved == records, cfg


def test_halving_the_run_keeps_every_record_that_ends_before_the_shorter_end(runs):
    # Nothing that happens after a packet's air-end can change its record,
    # so the end of the run cannot reach back into it.
    for cfg, devices, records in runs:
        half = replace(cfg, sim_time_s=cfg.sim_time_s / 2)
        end_us = us_from_s(half.sim_time_s)
        shorter = Simulation(half, devices).run().records
        kept = [rec for rec in records if rec.air_end_us < end_us]
        assert kept and [rec for rec in shorter if rec.air_end_us < end_us] == kept, cfg
