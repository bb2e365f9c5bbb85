"""Deterministic discrete-event engine: virtual clock, event queue, RNG streams.

Time is kept as integer microseconds so that queue ordering is exact and
replays are bit-identical.  Events firing at the same microsecond execute in
insertion order (FIFO), which is what makes simultaneous channel claims
deterministic.
"""

from __future__ import annotations

import hashlib
from heapq import heappop, heappush
from typing import Callable

import numpy as np

US_PER_S = 1_000_000


def us_from_s(seconds: float) -> int:
    """Convert a duration in seconds to integer microseconds (nearest)."""
    return round(seconds * US_PER_S)


class Scheduler:
    """Event queue ordered by (fire time, insertion sequence).

    Each entry is an immutable ``(at_us, seq, fn, args)`` tuple; the
    sequence counter breaks ties FIFO.
    """

    def __init__(self) -> None:
        self.now_us = 0
        self._heap: list[tuple] = []
        self._seq = 0
        self.executed = 0

    def schedule(self, at_us: int, fn: Callable, *args) -> None:
        """Enqueue ``fn(*args)`` to run at ``at_us``.

        Scheduling in the past is a logic bug, not a recoverable condition.
        """
        if at_us < self.now_us:
            raise ValueError(
                f"cannot schedule event at {at_us} us: clock is at {self.now_us} us"
            )
        self._seq += 1
        heappush(self._heap, (at_us, self._seq, fn, args))

    def run_until(self, until_us: int) -> int:
        """Execute all events with fire time <= ``until_us`` in order.

        The clock ends at ``until_us`` even if the queue empties earlier;
        later events stay queued.  Returns the number of events executed.
        """
        heap = self._heap
        executed = 0
        while heap and heap[0][0] <= until_us:
            at_us, _, fn, args = heappop(heap)
            self.now_us = at_us
            fn(*args)
            executed += 1
        self.now_us = max(self.now_us, until_us)
        self.executed += executed
        return executed


def _label_key(label: str) -> int:
    # Stable across platforms and runs, unlike hash().
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")


# Values drawn from the generator per refill of a stream's block.
RNG_BLOCK = 256


class RngStream:
    """One named, independently seeded random stream.

    Backed by numpy's PCG64, a documented, seedable generator whose output
    is fully specified, so (seed, stream_id, draw index) -> value holds
    across platforms.  Distinct labels under the same seed give distinct
    sequences.

    Uniform and exponential values are drawn in blocks of ``RNG_BLOCK`` and
    served one by one; each equals the value a scalar draw would have
    returned.  A stream serves one distribution only, since a second block
    would take values out of the first one's order.
    """

    def __init__(self, seed: int, label: str) -> None:
        self.label = label
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, _label_key(label)]))
        )
        self._kind: str | None = None
        self._block: list[float] = []  # next value last

    def _claim(self, kind: str) -> None:
        if self._kind is None:
            self._kind = kind
        elif self._kind != kind:
            raise RuntimeError(
                f"stream {self.label!r} draws {self._kind} values, not {kind} values"
            )

    def _refill(self, kind: str) -> list[float]:
        self._claim(kind)
        gen = self._gen
        draws = gen.random(RNG_BLOCK) if kind == "uniform" else gen.standard_exponential(RNG_BLOCK)
        self._block = block = draws[::-1].tolist()
        return block

    def uniform(self) -> float:
        """Next value, uniform on [0, 1)."""
        block = self._block
        if not block or self._kind != "uniform":
            block = self._refill("uniform")
        return block.pop()

    def exponential(self, mean: float) -> float:
        block = self._block
        if not block or self._kind != "exponential":
            block = self._refill("exponential")
        return mean * block.pop()

    def normal(self, sigma: float) -> float:
        self._claim("normal")
        return float(self._gen.normal(0.0, sigma))

