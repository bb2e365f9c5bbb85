"""Wires topology, MAC, and gateway onto the event kernel for one run."""

from __future__ import annotations

from dataclasses import dataclass

from . import topology
from .config import RunConfig
from .gateway import GatewayPhy, TxRecord
from .kernel import RngStream, Scheduler, us_from_s
from .mac import PcsmaMac
from .metrics import Counters

# One stream per concern so changing one consumer leaves the others' draw
# sequences untouched.  Each key is the first 8 bytes of its name's SHA-256,
# big-endian, precomputed because importing the SHA-256 module loads OpenSSL
# (~3.7 MB).
STREAM_PLACEMENT = 0x1480FB125459CBCA
STREAM_TRAFFIC = 0x075F4AB854E2A33C
STREAM_PERSISTENCE = 0x0D2A4D0E13A3E16B
STREAM_SHADOWING = 0x6DD015A84CAC1A9A


@dataclass
class RunAudit:
    book_count: int = 0
    free_count: int = 0
    max_paths_bound: int = 0
    channel_clear: bool = True
    events_executed: int = 0
    persistence_draws: int = 0

    def check(self) -> None:
        if self.book_count != self.free_count or not self.channel_clear:
            raise RuntimeError(f"channel audit failed: a packet put on air did not end, in {self}")


@dataclass
class RunResult:
    counters: Counters
    records: list[TxRecord] | None  # None unless the run kept its log
    audit: RunAudit


def build_topology(cfg: RunConfig) -> list[topology.DeviceSpec]:
    """The run's devices.

    Devices come from ``cfg.device_file`` as listed, or else from generated
    placement: cluster geometry, round-robin attributes.  Either way each
    device then draws its shadowing fade, in device order.  Every stream is
    seeded from ``cfg.seed``, so this rebuilds the devices of that run.
    """
    if cfg.device_file is not None:
        devices = topology.load_device_file(cfg.device_file, cfg)
    else:
        devices = topology.place_clusters(cfg, RngStream(cfg.seed, STREAM_PLACEMENT))
    if cfg.shadowing_sigma_db > 0:
        shadow_rng = RngStream(cfg.seed, STREAM_SHADOWING)
        for dev in devices:
            dev.shadow_db = shadow_rng.normal(cfg.shadowing_sigma_db)
    return devices


class Simulation:
    """One independent run over one device list: owns the clock, all MAC
    state and the gateway.  ``PcsmaMac`` checks the devices before any event.

    Every random stream is seeded from ``cfg.seed``.  With ``keep_records``
    the run logs every transmission for its result; without it the run
    holds only the packets on air, so its memory does not grow with time.
    """

    def __init__(
        self, cfg: RunConfig, devices: list[topology.DeviceSpec], *, keep_records: bool = True
    ) -> None:
        self.cfg = cfg
        self.devices = devices
        self.sched = Scheduler()
        self.counters = Counters()
        self.records: list[TxRecord] | None = [] if keep_records else None
        self.gateway = GatewayPhy(cfg.gateway_paths, cfg.gateway_sensitivity_dbm, self.counters)
        rng = RngStream(cfg.seed, STREAM_PERSISTENCE)
        self.mac = PcsmaMac(cfg, devices, self.sched, self.gateway, self.counters, self.records, rng)

    # -- traffic seeding ---------------------------------------------------

    def _seed_periodic(self) -> None:
        traffic = RngStream(self.cfg.seed, STREAM_TRAFFIC)
        for i, dev in enumerate(self.devices):
            if dev.offset_s is not None:
                offset_us = us_from_s(dev.offset_s)
            elif self.cfg.offsets == "zero":
                offset_us = 0
            else:
                offset_us = us_from_s(traffic.uniform() * dev.period_s)
            self.sched.schedule(offset_us, self.mac.generate, i)

    def _seed_poisson(self) -> None:
        self._poisson_mean_s = self.cfg.poisson_mean_gap_s()
        self._traffic_rng = RngStream(self.cfg.seed, STREAM_TRAFFIC)
        self._schedule_arrival(0)

    def _schedule_arrival(self, k: int) -> None:
        gap_us = us_from_s(self._traffic_rng.exponential(self._poisson_mean_s))
        self.sched.schedule(self.sched.now_us + gap_us, self._arrival, k)

    def _arrival(self, k: int) -> None:
        # Aggregate Poisson arrivals handed to devices round-robin.
        self.mac.generate(k % len(self.devices))
        self._schedule_arrival(k + 1)

    # -- execution -----------------------------------------------------------

    def run(self) -> RunResult:
        if self.cfg.traffic == "poisson":
            self._seed_poisson()
        else:
            self._seed_periodic()
        # The simulated window is [0, sim_time): a generation firing at
        # exactly sim_time belongs to the next window and stays queued.
        end_us = us_from_s(self.cfg.sim_time_s)
        self.sched.run_until(end_us - 1)
        gateway = self.gateway
        gateway.expire(end_us, 0)

        # Packets without a final outcome when the clock stops: waiting in
        # back-off or still on air.  On-air ones (air-end not yet due)
        # release their path and leave the on-air map so conservation holds
        # for every run.
        self.counters.pending_at_end = sum(self.mac.backoff) + len(gateway.on_air)
        for rec in list(gateway.on_air.values()):
            gateway.abort(rec)

        self.counters.check()
        audit = RunAudit(
            book_count=gateway.starts,
            free_count=gateway.ends,
            max_paths_bound=gateway.max_paths_bound,
            channel_clear=not gateway.on_air,
            events_executed=self.sched.executed,
            persistence_draws=self.mac.persistence_draws,
        )
        audit.check()
        return RunResult(counters=self.counters, records=self.records, audit=audit)


def run_scenario(cfg: RunConfig, *, keep_records: bool = True) -> RunResult:
    """Build the configured devices, run one scenario, return its result.

    ``keep_records=False`` leaves ``result.records`` at None.
    """
    return Simulation(cfg, build_topology(cfg), keep_records=keep_records).run()
