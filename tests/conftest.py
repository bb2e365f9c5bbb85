"""Shared builders for hand-made device lists used across the test modules."""

from __future__ import annotations

import math
from dataclasses import replace

from lorapcsma import topology
from lorapcsma.config import RunConfig
from lorapcsma.gateway import TxRecord
from lorapcsma.mac import PcsmaMac
from lorapcsma.simulation import RunResult, Simulation, build_topology


def devices_at(positions, sf=8, period_s=100.0, p=1.0):
    return [topology.DeviceSpec(x, y, 0.0, sf, period_s, p) for x, y in positions]


def make_sim(devices, cfg: RunConfig | None = None, *, offsets_s=None, seed=1):
    """Simulation over explicit devices under the PHY defaults; ``offsets_s``
    gives each device its first firing in seconds."""
    cfg = replace(cfg or RunConfig(n_devices=len(devices)), seed=seed)
    if offsets_s is not None:
        devices = [replace(d, offset_s=o) for d, o in zip(devices, offsets_s, strict=True)]
    return Simulation(cfg, devices)


def above_sensitivity(prx_dbm, sf, row):
    """Oracle: the received power meets the SF's threshold in a receiver's
    sensitivity row, SF7 first (inclusive)."""
    return prx_dbm >= row[sf - 7]


def device_areas(n_devices, n_areas):
    """Cluster index per device, matching the place_clusters block order."""
    areas = []
    for k, size in enumerate(topology.cluster_sizes(n_devices, n_areas)):
        areas.extend([k] * size)
    return areas


def hidden_star_positions(ring_radius_m=4877.0, n_ring=8):
    """n_ring + 1 SF8 positions that are pairwise hidden yet gateway-covered.

    Adjacent ring chord 2*R*sin(pi/n) and the centre-to-ring distance both
    exceed the SF8 end-device detect range (~3509 m) while staying inside
    the SF8 gateway range (~4915 m).
    """
    positions = [(0.0, 0.0)]
    for k in range(n_ring):
        angle = 2.0 * math.pi * k / n_ring
        positions.append((ring_radius_m * math.cos(angle), ring_radius_m * math.sin(angle)))
    return positions


def overlapping_pairs(records):
    """Index pairs of records whose on-air intervals strictly overlap."""
    pairs = []
    for a in range(len(records)):
        for b in range(a + 1, len(records)):
            ra, rb = records[a], records[b]
            if ra.air_start_us < rb.air_end_us and rb.air_start_us < ra.air_end_us:
                pairs.append((a, b))
    return pairs


class EagerAirEndMac(PcsmaMac):
    """The reference MAC for lazy expiry: each air-end is its own kernel
    event, booked with ``Scheduler.schedule`` at air-start, and so is each
    next generation.  ``ends_due`` stays empty, so ``expire`` never runs."""

    def _start_transmission(self, device: int) -> None:
        sched = self.sched
        now = sched.now_us
        self.backoff[device] = False
        if self.duty_cycle_enforce and self._duty_exceeded(device, now):
            self.counters.suppressed += 1
        else:
            toa = self.toa_us[device]
            rec = TxRecord(device, self.sf[device], now, now + toa, self.prx_dbm[device])
            if self.records is not None:
                self.records.append(rec)
            self.gateway.on_tx_start(rec)
            sched.schedule(now + toa, self.gateway.on_tx_end, rec)
            if self.duty_cycle_enforce:
                self.duty_starts[device].append(now)
        if self.periodic:
            sched.schedule(now + self.period_us[device], self.generate, device)


def run_with_eager_air_ends(cfg: RunConfig) -> RunResult:
    """``run_scenario(cfg)`` under ``EagerAirEndMac``."""
    sim = Simulation(cfg, build_topology(cfg))
    m = sim.mac
    sim.mac = EagerAirEndMac(cfg, sim.devices, sim.sched, sim.gateway, m.counters, m.records, m.rng)
    return sim.run()
