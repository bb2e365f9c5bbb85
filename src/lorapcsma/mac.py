"""Per-device MAC: sensing over the vicinity set, FIFO claiming, persistence.

One :class:`PcsmaMac` instance owns the back-off state of every device in a
run, in array form, next to the per-device persistence values.  Whether a
device is on air is the channel-state array's busy flag, and nothing else:
the MAC books it at air-start and the gateway model frees it at air-end.
Both the p-CSMA behaviour and the pure-ALOHA baseline live here.

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
    """One busy flag per device: 0 idle, 1 transmitting.

    Transitions follow idle -> occupied -> idle only; violating that is a
    logic bug and raises immediately.
    """

    def __init__(self, n_devices: int) -> None:
        if n_devices < 1:
            raise ValueError("need at least one device")
        self.flags = [0] * n_devices
        self.book_count = 0
        self.free_count = 0

    def book(self, device: int) -> None:
        if self.flags[device]:
            raise RuntimeError(f"device {device} booked while already transmitting")
        self.flags[device] = 1
        self.book_count += 1

    def free(self, device: int) -> None:
        if not self.flags[device]:
            raise RuntimeError(f"device {device} freed while already idle")
        self.flags[device] = 0
        self.free_count += 1

    def is_busy(self, device: int) -> bool:
        return bool(self.flags[device])

    def all_idle(self) -> bool:
        return not any(self.flags)


def shall_it_pass(p: float, rng: RngStream) -> bool:
    """Persistence gate for reclaim attempts: pass iff rand < p."""
    return rng.uniform() < p


class PcsmaMac:
    def __init__(
        self,
        sched: Scheduler,
        channel: ChannelStateArray,
        persistence: list[float],
        neighbors: list[list[int]],
        counters: "Counters",
        records: list,
        persistence_rng: RngStream,
        *,
        sf: list[int],
        prx_dbm: list[float],
        toa_us: list[int],
        sense_us: list[int],
        period_us: list[int],
        periodic: bool = True,
        aloha: bool = False,
        duty_cycle_enforce: bool = False,
    ) -> None:
        n = len(neighbors)
        for device, p in enumerate(persistence):
            if not 0.0 < p <= 1.0:
                raise ValueError(f"persistence for device {device} must be in (0, 1], got {p}")
        self.sched = sched
        self.channel = channel
        self.persistence = [float(p) for p in persistence]
        self.neighbors = neighbors
        self.counters = counters
        self.records = records
        self.rng = persistence_rng
        self.sf = sf
        self.prx_dbm = prx_dbm
        self.toa_us = toa_us
        self.sense_us = sense_us
        self.period_us = period_us
        self.periodic = periodic
        self.aloha = aloha
        self.duty_cycle_enforce = duty_cycle_enforce
        self.gateway: "GatewayPhy | None" = None  # attached after construction

        self.backoff = [False] * n
        self._duty_log: list[list[tuple[int, int]]] = [[] for _ in range(n)]

    # -- sensing ---------------------------------------------------------

    def sense(self, device: int) -> bool:
        """True iff some device in the vicinity set is transmitting.

        The sensing device's own flag is ignored and the transmitters' SFs
        are not consulted (energy-style detection).
        """
        flags = self.channel.flags
        for j in self.neighbors[device]:
            if flags[j]:
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
        if self.channel.flags[device] or self.backoff[device]:
            # One pending packet per device: drop the new one, keep the clock.
            self.counters.suppressed += 1
            self._schedule_next_generation(device)
        elif not self.aloha and self.sense(device):
            self.backoff[device] = True
            self.sched.schedule_in(self.sense_us[device], self.retry_claiming, device)
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
            self.sched.schedule_in(self.sense_us[device], self.retry_claiming, device)

    # -- transmission ------------------------------------------------------

    def _start_transmission(self, device: int) -> None:
        now = self.sched.now_us
        self.backoff[device] = False
        if self.duty_cycle_enforce and self._duty_exceeded(device, now):
            self.counters.suppressed += 1
            self._schedule_next_generation(device)
            return
        self.channel.book(device)
        rec = TxRecord(
            device=device,
            sf=self.sf[device],
            air_start_us=now,
            air_end_us=now + self.toa_us[device],
            prx_dbm=self.prx_dbm[device],
        )
        self.records.append(rec)
        assert self.gateway is not None
        self.gateway.on_tx_start(rec)
        self.sched.schedule(rec.air_end_us, self.gateway.on_tx_end, rec)
        if self.duty_cycle_enforce:
            self._duty_log[device].append((now, self.toa_us[device]))
        self._schedule_next_generation(device)

    def _schedule_next_generation(self, device: int) -> None:
        if self.periodic:
            self.sched.schedule_in(self.period_us[device], self.generate, device)

    # -- duty cycle guard (off by default) ---------------------------------

    def _duty_exceeded(self, device: int, now: int) -> bool:
        # Counts whole transmissions starting within the sliding hour.
        log = [(s, d) for s, d in self._duty_log[device] if s >= now - DUTY_WINDOW_US]
        self._duty_log[device] = log
        used = sum(d for _, d in log)
        return used + self.toa_us[device] > DUTY_CYCLE_LIMIT * DUTY_WINDOW_US
