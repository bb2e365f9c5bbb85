"""Gateway receive model: demodulation paths and the four packet outcomes."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from .metrics import Counters
from .phy import SF_MAX, SF_MIN, SensitivityTable


class Outcome(enum.Enum):
    RECEIVED = "received"
    COLLIDED = "collided"
    UNDER_SENSITIVITY = "under_sensitivity"
    NO_DEMOD_PATH = "no_path"


@dataclass(slots=True)
class TxRecord:
    """One transmission as seen at the gateway; outcome assigned at air-end."""

    device: int
    sf: int
    air_start_us: int
    air_end_us: int
    prx_dbm: float
    outcome: Outcome | None = None
    provisional: Outcome | None = None
    path: int | None = None
    tainted: bool = False
    registered: bool = False


class GatewayPhy:
    """Allocates demodulation paths, classifies packets, frees the channel.

    Model conventions:
    - below-sensitivity and path-rejected packets are drop categories, not
      interference sources;
    - any same-SF temporal overlap between two path-bound packets destroys
      both (no capture effect); different SFs are orthogonal;
    - a path is held from air-start to air-end regardless of outcome;
    - simultaneous arrivals bind paths in event (FIFO) order, lowest free
      path index first.
    """

    def __init__(
        self,
        n_paths: int,
        table: SensitivityTable,
        counters: Counters,
        free_channel: Callable[[int], None],
    ) -> None:
        if n_paths < 1:
            raise ValueError("the gateway needs at least one demodulation path")
        self.paths: list[TxRecord | None] = [None] * n_paths
        self.threshold_dbm = dict(zip(range(SF_MIN, SF_MAX + 1), table.gateway))
        self.counters = counters
        self.free_channel = free_channel
        self.max_paths_bound = 0
        self.binds = 0
        self.releases = 0

    def on_tx_start(self, rec: TxRecord) -> None:
        """Register a transmission at its air-start.

        Tainting requires strictly positive overlap: a packet starting the
        same microsecond another ends does not collide with it.
        """
        rec.registered = True
        if rec.prx_dbm < self.threshold_dbm[rec.sf]:
            rec.provisional = Outcome.UNDER_SENSITIVITY
            return
        paths = self.paths
        bound = self.binds - self.releases
        if bound == len(paths):
            rec.provisional = Outcome.NO_DEMOD_PATH
            return
        sf, start = rec.sf, rec.air_start_us
        for other in paths:
            if other is not None and other.sf == sf and other.air_end_us > start:
                other.tainted = True
                rec.tainted = True
        free = paths.index(None)
        paths[free] = rec
        rec.path = free
        self.binds += 1
        if bound >= self.max_paths_bound:
            self.max_paths_bound = bound + 1

    def on_tx_end(self, rec: TxRecord) -> Outcome:
        """Assign the final outcome and take the sender off air.

        All four cases free the channel.
        """
        if not rec.registered:
            raise RuntimeError(f"air-end for unknown packet from device {rec.device}")
        if rec.provisional is not None:
            outcome = rec.provisional
        elif rec.tainted:
            outcome = Outcome.COLLIDED
        else:
            outcome = Outcome.RECEIVED
        self._release(rec)
        rec.outcome = outcome
        c = self.counters
        c.sent += 1
        if outcome is Outcome.RECEIVED:
            c.received += 1
        elif outcome is Outcome.COLLIDED:
            c.collided += 1
        elif outcome is Outcome.UNDER_SENSITIVITY:
            c.under_sensitivity += 1
        else:
            c.no_path += 1
        self.free_channel(rec.device)
        return outcome

    def abort(self, rec: TxRecord) -> None:
        """Cut a packet off at the end of the run: release its path and free
        the channel without assigning an outcome."""
        self._release(rec)
        self.free_channel(rec.device)

    def _release(self, rec: TxRecord) -> None:
        if rec.path is not None:
            self.paths[rec.path] = None
            rec.path = None
            self.releases += 1
