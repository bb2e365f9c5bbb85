"""Gateway receive model: who is on air, demodulation paths, the four outcomes."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from heapq import heappop

from .metrics import Counters
from .phy import SF_MAX, SF_MIN


class Outcome(enum.Enum):
    RECEIVED = "received"
    COLLIDED = "collided"
    UNDER_SENSITIVITY = "under_sensitivity"
    NO_DEMOD_PATH = "no_path"


# Plain names for the hot path: each ``Outcome.X`` lookup costs a call.
RECEIVED, COLLIDED, UNDER_SENSITIVITY, NO_DEMOD_PATH = Outcome


@dataclass(slots=True)
class TxRecord:
    """One transmission as seen at the gateway.

    ``outcome`` is set at air-start and final at air-end: a path-bound packet
    reads RECEIVED until a same-SF overlap marks it COLLIDED.  A packet cut
    off on air by the end of the run is left at None.
    """

    device: int
    sf: int
    air_start_us: int
    air_end_us: int
    prx_dbm: float
    outcome: Outcome | None = None


class GatewayPhy:
    """Holds the packets on air, assigns demodulation paths, classifies packets.

    ``on_air`` maps each device on air to its packet, from air-start to
    air-end (or the end of the run); it is the one record of who is on air,
    and the MAC senses over it.  ``bound`` is its subset that holds a
    demodulation path, also keyed by device.  ``row`` holds the
    gateway's sensitivities for SF7..SF12 (``cfg.gateway_sensitivity_dbm``).

    Model conventions:
    - below-sensitivity and path-rejected packets are drop categories, not
      interference sources;
    - any same-SF temporal overlap between two path-bound packets destroys
      both (no capture effect); different SFs are orthogonal;
    - a path is held from air-start to air-end regardless of outcome;
    - simultaneous arrivals bind paths in event (FIFO) order.
    """

    def __init__(self, n_paths: int, row: tuple[float, ...], counters: Counters) -> None:
        self.n_paths = n_paths
        self.on_air: dict[int, TxRecord] = {}
        self.bound: dict[int, TxRecord] = {}
        self.ends_due: list[tuple[int, int, TxRecord]] = []  # (air-end us, seq, packet)
        self.threshold_dbm = dict(zip(range(SF_MIN, SF_MAX + 1), row))
        self.counters = counters
        self.max_paths_bound = 0
        self.starts = 0
        self.ends = 0

    def on_tx_start(self, rec: TxRecord) -> None:
        """Put a transmission on air at its air-start and bind a path if one is free.

        Collision requires strictly positive overlap: a packet starting the
        same microsecond another ends does not collide with it.
        """
        device = rec.device
        if device in self.on_air:
            raise RuntimeError(f"device {device} started a packet while already on air")
        self.on_air[device] = rec
        self.starts += 1
        if rec.prx_dbm < self.threshold_dbm[rec.sf]:
            rec.outcome = UNDER_SENSITIVITY
            return
        bound = self.bound
        if len(bound) == self.n_paths:
            rec.outcome = NO_DEMOD_PATH
            return
        rec.outcome = RECEIVED
        sf, start = rec.sf, rec.air_start_us
        for other in bound.values():
            if other.sf == sf and other.air_end_us > start:
                other.outcome = rec.outcome = COLLIDED
        bound[device] = rec
        if len(bound) > self.max_paths_bound:
            self.max_paths_bound = len(bound)

    def expire(self, now_us: int, seq: int) -> None:
        """End every packet in ``ends_due`` that is due before the kernel event
        ``(now_us, seq)``: at an earlier us, or at ``now_us`` with a lower
        ``seq``.  Air-ends are not events; the MAC calls this before it acts."""
        ends, key = self.ends_due, (now_us, seq)
        while ends and ends[0] < key:
            self.on_tx_end(heappop(ends)[2])

    def on_tx_end(self, rec: TxRecord) -> None:
        """Take the sender off air, release its path and count its outcome."""
        self._take_off_air(rec)
        outcome = rec.outcome
        c = self.counters
        c.sent += 1
        if outcome is RECEIVED:
            c.received += 1
        elif outcome is COLLIDED:
            c.collided += 1
        elif outcome is UNDER_SENSITIVITY:
            c.under_sensitivity += 1
        else:
            c.no_path += 1

    def abort(self, rec: TxRecord) -> None:
        """Cut a packet off at the end of the run: take it off air and release
        its path without an outcome."""
        self._take_off_air(rec)
        rec.outcome = None

    def _take_off_air(self, rec: TxRecord) -> None:
        if self.on_air.pop(rec.device, None) is not rec:
            raise RuntimeError(f"air-end for unknown packet from device {rec.device}")
        self.bound.pop(rec.device, None)
        self.ends += 1
