"""Per-device MAC: sensing from positions, FIFO claiming, persistence.

One :class:`PcsmaMac` instance owns the back-off state of every device in a
run, in array form, next to the per-device persistence values.  Whether a
device is on air is membership of the gateway's ``on_air`` map, and nothing
else: the MAC reads that map, the gateway model puts each packet in it at
air-start and takes it out at air-end.  Both the p-CSMA behaviour and the
pure-ALOHA baseline live here.

Timing of the periodic traffic: a new generation is scheduled one period
after a transmission starts (a backed-off packet therefore shifts the
device's future schedule), and one period after a suppressed firing.  A
device holds at most one pending packet; firings that land while a packet
is pending or on air are counted as suppressed, never queued.

Hearing is tested when a device senses, from positions: the sensor hears a
device on air iff their distance is within the transmitter's detect range.
That is the test ``topology.build_vicinity`` evaluates for every pair, in the
same float operations, so no N x N matrix is kept.  The sensor's own entry
is ignored, as the matrix's diagonal is false.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from math import sqrt

from . import phy
from .config import RunConfig
from .gateway import GatewayPhy, TxRecord
from .kernel import Scheduler, RngStream, US_PER_S, us_from_s
from .metrics import Counters
from .topology import DeviceSpec, device_problem

DUTY_WINDOW_US = 3600 * US_PER_S
DUTY_BUDGET_US = DUTY_WINDOW_US // 100  # 1% of the sliding hour


def shall_it_pass(p: float, rng: RngStream) -> bool:
    """Persistence gate for reclaim attempts: pass iff rand < p.

    This is the only place where p enters a run.  Every draw comes from the
    run's one persistence stream, so two runs that differ only in p are the
    same run as long as every drawn value decides alike under both p
    (``u < p`` iff ``u < p'``); ``sweep`` reuses runs on that ground.
    """
    return rng.uniform() < p


class PcsmaMac:
    def __init__(
        self,
        cfg: RunConfig,
        devices: list[DeviceSpec],
        sched: Scheduler,
        gateway: GatewayPhy,
        counters: Counters,
        records: list[TxRecord] | None,
        persistence_rng: RngStream,
    ) -> None:
        # The run gate: every run passes here, before any event, however its
        # device list was built.  A device is named by its index.
        if not devices:
            raise ValueError("need at least one device")
        for device, d in enumerate(devices):
            problem = device_problem(d, cfg)
            if problem is not None:
                field, wrong = problem
                raise ValueError(f"{field} for device {device} {wrong}")
        n = len(devices)
        sfs = {d.sf for d in devices}
        toa_us = {sf: us_from_s(phy.time_on_air(sf, cfg)) for sf in sfs}
        # validate() proved SF7's interval, the shortest of any SF, >= 1 us.
        sense_us = {sf: us_from_s(phy.sensing_interval_s(sf, cfg)) for sf in sfs}
        self.sense_us = [sense_us[d.sf] for d in devices]
        self.period_us = [us_from_s(d.period_s) for d in devices]
        self.sched = sched
        self.gateway = gateway
        self.on_air = gateway.on_air  # the gateway's map itself, not a copy
        self.ends_due = gateway.ends_due
        self.persistence = [float(d.persistence) for d in devices]
        # (x, y, z, detect range) per device; the range is the device's as a
        # transmitter, at its SF and at the run's TX power less its fade.
        tx = cfg.tx_power_dbm
        self.hearing = [
            (d.x, d.y, d.z, phy.detect_range_m(d.sf, tx - d.shadow_db, cfg)) for d in devices
        ]
        self.counters = counters
        self.records = records  # transmission log; None keeps none
        self.rng = persistence_rng
        self.sf = [d.sf for d in devices]
        # Received power at the gateway, which sits at the origin.
        self.prx_dbm = [
            phy.received_power_dbm(tx - d.shadow_db, sqrt(d.x**2 + d.y**2 + d.z**2), cfg)
            for d in devices
        ]
        self.toa_us = [toa_us[d.sf] for d in devices]
        self.periodic = cfg.traffic == "periodic"
        self.aloha = cfg.mac == "aloha"
        self.duty_cycle_enforce = cfg.duty_cycle_enforce
        if self.duty_cycle_enforce:
            # A device's airtime is fixed, so its hour is full once it holds
            # K = budget // airtime of its starts: keep the last K.
            self.duty_starts = [deque(maxlen=DUTY_BUDGET_US // toa) for toa in self.toa_us]

        self.backoff = [False] * n
        self.persistence_draws = 0  # values drawn for shall_it_pass

    # -- sensing ---------------------------------------------------------

    def sense(self, device: int) -> bool:
        """True iff some other device on air lies within its own detect range
        of the sensor.

        The distance is ``sqrt((dx*dx + dy*dy) + dz*dz)``, the expression of
        ``topology.build_vicinity``, so each answer equals the vicinity
        matrix's.  The transmitters' SFs are not consulted beyond their
        ranges (energy-style).
        """
        hearing = self.hearing
        x, y, z, _ = hearing[device]
        for j in self.on_air:
            xj, yj, zj, reach = hearing[j]
            dx, dy, dz = x - xj, y - yj, z - zj
            if sqrt((dx * dx + dy * dy) + dz * dz) <= reach and j != device:
                return True
        return False

    # -- generation entry point --------------------------------------------

    def generate(self, device: int) -> None:
        """Periodic firing (or traffic arrival).

        The ALOHA baseline transmits directly.  Under p-CSMA the first
        attempt on an idle channel transmits unconditionally; a busy channel
        starts a back-off, and persistence gates only the reclaim attempts.
        An empty channel is not sensed: ``sense`` would find nobody.
        """
        sched = self.sched
        if self.ends_due and self.ends_due[0][0] <= sched.now_us:
            self.gateway.expire(sched.now_us, sched.seq)
        self.counters.generated += 1
        on_air = self.on_air
        if device in on_air or self.backoff[device]:
            # One pending packet per device: drop the new one, keep the clock.
            self.counters.suppressed += 1
            if self.periodic:
                sched.schedule(sched.now_us + self.period_us[device], self.generate, device)
        elif on_air and not self.aloha and self.sense(device):
            self.backoff[device] = True
            sched.schedule(sched.now_us + self.sense_us[device], self.retry_claiming, device)
        else:
            self._start_transmission(device)

    # -- back-off / reclaim ----------------------------------------------

    def retry_claiming(self, device: int) -> None:
        """Re-sense after one sensing interval; reclaim gated by persistence.

        A busy channel or a failed draw waits one more sensing interval; the
        persistence draw happens only when the channel is idle.
        """
        sched = self.sched
        if self.ends_due and self.ends_due[0][0] <= sched.now_us:
            self.gateway.expire(sched.now_us, sched.seq)
        if not self.sense(device):
            self.persistence_draws += 1
            if shall_it_pass(self.persistence[device], self.rng):
                self._start_transmission(device)
                return
        sched.schedule(sched.now_us + self.sense_us[device], self.retry_claiming, device)

    # -- transmission ------------------------------------------------------

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
            heappush(self.ends_due, (now + toa, sched.reserve(), rec))  # no event: see expire
            if self.duty_cycle_enforce:
                self.duty_starts[device].append(now)
        if self.periodic:
            # The run gate proves every period >= 1 us: never in the past.
            at_us = now + self.period_us[device]
            heappush(sched.heap, (at_us, sched.reserve(), self.generate, (device,)))

    # -- duty cycle guard (off by default) ---------------------------------

    def _duty_exceeded(self, device: int, now: int) -> bool:
        """Whether this packet's airtime, added to that of the device's starts
        in the past hour, exceeds 1% of it: iff all K kept starts lie there."""
        starts = self.duty_starts[device]
        return len(starts) == starts.maxlen and (not starts or starts[0] >= now - DUTY_WINDOW_US)
