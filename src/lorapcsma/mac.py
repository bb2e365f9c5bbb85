"""Per-device MAC: sensing over the vicinity set, FIFO claiming, persistence.

One :class:`PcsmaMac` instance owns the back-off state of every device in a
run, in array form, next to the per-device persistence values.  Whether a
device is on air is membership of the channel state's on-air map, and
nothing else: the MAC books it with its packet at air-start and the gateway
model frees it at air-end.  Both the p-CSMA behaviour and the pure-ALOHA
baseline live here.

Timing of the periodic traffic: a new generation is scheduled one period
after a transmission starts (a backed-off packet therefore shifts the
device's future schedule), and one period after a suppressed firing.  A
device holds at most one pending packet; firings that land while a packet
is pending or on air are counted as suppressed, never queued.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .gateway import TxRecord
from .kernel import Scheduler, RngStream, US_PER_S

if TYPE_CHECKING:
    from .gateway import GatewayPhy
    from .metrics import Counters

DUTY_CYCLE_LIMIT = 0.01
DUTY_WINDOW_US = 3600 * US_PER_S


class ChannelStateArray:
    """The devices on air, each mapped to the packet it is sending.

    Transitions follow idle -> occupied -> idle only; violating that is a
    logic bug and raises immediately.
    """

    def __init__(self, n_devices: int) -> None:
        if n_devices < 1:
            raise ValueError("need at least one device")
        self.on_air: dict[int, TxRecord] = {}
        self.book_count = 0
        self.free_count = 0

    def book(self, device: int, rec: TxRecord) -> None:
        if device in self.on_air:
            raise RuntimeError(f"device {device} booked while already transmitting")
        self.on_air[device] = rec
        self.book_count += 1

    def free(self, device: int) -> None:
        if device not in self.on_air:
            raise RuntimeError(f"device {device} freed while already idle")
        del self.on_air[device]
        self.free_count += 1

    def all_idle(self) -> bool:
        return not self.on_air


def shall_it_pass(p: float, rng: RngStream) -> bool:
    """Persistence gate for reclaim attempts: pass iff rand < p."""
    return rng.uniform() < p


class PcsmaMac:
    def __init__(
        self,
        sched: Scheduler,
        channel: ChannelStateArray,
        gateway: "GatewayPhy",
        persistence: list[float],
        vicinity: list[bytes],
        counters: "Counters",
        records: list[TxRecord] | None,
        persistence_rng: RngStream,
        *,
        sf: list[int],
        prx_dbm: list[float],
        toa_us: list[int],
        sense_us: list[int],
        period_us: list[int],
        periodic: bool,
        aloha: bool,
        duty_cycle_enforce: bool,
    ) -> None:
        n = len(vicinity)
        for device, p in enumerate(persistence):
            if not 0.0 < p <= 1.0:
                raise ValueError(f"persistence for device {device} must be in (0, 1], got {p}")
        self.sched = sched
        self.channel = channel
        self.gateway = gateway
        self.persistence = [float(p) for p in persistence]
        self.vicinity = vicinity
        self.counters = counters
        self.records = records  # transmission log; None keeps none
        self.rng = persistence_rng
        self.sf = sf
        self.prx_dbm = prx_dbm
        self.toa_us = toa_us
        self.sense_us = sense_us
        self.period_us = period_us
        self.periodic = periodic
        self.aloha = aloha
        self.duty_cycle_enforce = duty_cycle_enforce

        self.backoff = [False] * n
        self._duty_log: list[list[tuple[int, int]]] = [[] for _ in range(n)]

    # -- sensing ---------------------------------------------------------

    def sense(self, device: int) -> bool:
        """True iff some device in the vicinity set is transmitting.

        Checks who is on air against the sensor's vicinity row, whose own
        entry is 0; the transmitters' SFs are not consulted (energy-style).
        """
        row = self.vicinity[device]
        for j in self.channel.on_air:
            if row[j]:
                return True
        return False

    # -- generation entry point --------------------------------------------

    def generate(self, device: int) -> None:
        """Periodic firing (or traffic arrival).

        The ALOHA baseline transmits directly.  Under p-CSMA the first
        attempt on an idle channel transmits unconditionally; a busy channel
        starts a back-off, and persistence gates only the reclaim attempts.
        """
        self.counters.generated += 1
        if device in self.channel.on_air or self.backoff[device]:
            # One pending packet per device: drop the new one, keep the clock.
            self.counters.suppressed += 1
            self._schedule_next_generation(device)
        elif not self.aloha and self.sense(device):
            self.backoff[device] = True
            sched = self.sched
            sched.schedule(sched.now_us + self.sense_us[device], self.retry_claiming, device)
        else:
            self._start_transmission(device)

    # -- back-off / reclaim ----------------------------------------------

    def retry_claiming(self, device: int) -> None:
        """Re-sense after one sensing interval; reclaim gated by persistence.

        A busy channel or a failed draw waits one more sensing interval; the
        persistence draw happens only when the channel is idle.
        """
        if not self.sense(device) and shall_it_pass(self.persistence[device], self.rng):
            self._start_transmission(device)
        else:
            sched = self.sched
            sched.schedule(sched.now_us + self.sense_us[device], self.retry_claiming, device)

    # -- transmission ------------------------------------------------------

    def _start_transmission(self, device: int) -> None:
        sched = self.sched
        now = sched.now_us
        self.backoff[device] = False
        if self.duty_cycle_enforce and self._duty_exceeded(device, now):
            self.counters.suppressed += 1
            self._schedule_next_generation(device)
            return
        toa = self.toa_us[device]
        rec = TxRecord(device, self.sf[device], now, now + toa, self.prx_dbm[device])
        self.channel.book(device, rec)
        if self.records is not None:
            self.records.append(rec)
        gateway = self.gateway
        gateway.on_tx_start(rec)
        sched.schedule(now + toa, gateway.on_tx_end, rec)
        if self.duty_cycle_enforce:
            self._duty_log[device].append((now, toa))
        self._schedule_next_generation(device)

    def _schedule_next_generation(self, device: int) -> None:
        if self.periodic:
            sched = self.sched
            sched.schedule(sched.now_us + self.period_us[device], self.generate, device)

    # -- duty cycle guard (off by default) ---------------------------------

    def _duty_exceeded(self, device: int, now: int) -> bool:
        # Counts whole transmissions starting within the sliding hour.
        log = [(s, d) for s, d in self._duty_log[device] if s >= now - DUTY_WINDOW_US]
        self._duty_log[device] = log
        used = sum(d for _, d in log)
        return used + self.toa_us[device] > DUTY_CYCLE_LIMIT * DUTY_WINDOW_US
