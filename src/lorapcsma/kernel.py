"""Deterministic discrete-event engine: virtual clock, event queue, RNG streams.

Time is kept as integer microseconds so that queue ordering is exact and
replays are bit-identical.  Events firing at the same microsecond execute in
insertion order (FIFO), which is what makes simultaneous channel claims
deterministic.
"""

from __future__ import annotations

import math
from functools import lru_cache
from heapq import heappop, heappush
from typing import Callable

US_PER_S = 1_000_000


def us_from_s(seconds: float) -> int:
    """Convert a duration in seconds to integer microseconds (nearest)."""
    return round(seconds * US_PER_S)


def lasts_1us(seconds: float) -> bool:
    """Whether a duration is a whole number of at least 1 us: neither NaN nor
    past the float range in microseconds, nor rounding to 0 (a period of 0 us
    would reschedule at one tick forever)."""
    return math.isfinite(seconds * US_PER_S) and us_from_s(seconds) >= 1


class Scheduler:
    """Event queue ordered by (fire time, insertion sequence).

    Each entry is an immutable ``(at_us, seq, fn, args)`` tuple, the sequence
    counter breaking ties FIFO; the running event is ``(now_us, seq)``.  A
    caller that proves ``at_us >= now_us`` may push onto ``heap`` itself.
    """

    def __init__(self) -> None:
        self.now_us = 0
        self.seq = 0
        self.heap: list[tuple] = []
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
        heappush(self.heap, (at_us, self._seq, fn, args))

    def reserve(self) -> int:
        """The next sequence number, taken without queuing an event."""
        self._seq += 1
        return self._seq

    def run_until(self, until_us: int) -> None:
        """Execute all events with fire time <= ``until_us`` in order.

        The clock ends at ``until_us`` even if the queue empties earlier;
        later events stay queued.  ``executed`` grows by their number.
        """
        heap = self.heap
        executed = 0
        while heap and heap[0][0] <= until_us:
            self.now_us, self.seq, fn, args = heappop(heap)
            fn(*args)
            executed += 1
        self.now_us = max(self.now_us, until_us)
        self.executed += executed


_MASK32 = (1 << 32) - 1
_MASK53 = (1 << 53) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TWO_COPIES = (1 << 64) + 1


def _hasher(hash_const: int, mult: int):
    """numpy's ``SeedSequence`` hashmix: every call advances the constant."""

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return result ^ result >> 16


@lru_cache(maxsize=256)
def _pcg64_seed(entropy: tuple[int, ...]) -> tuple[int, int]:
    """The 128-bit state and increment of numpy's
    ``PCG64(SeedSequence(entropy))``.

    A port of numpy's ``SeedSequence`` (pool of four 32-bit words) and of
    the PCG64 seeding step; numpy's uniform draws serve as the test oracle.
    Memoised: a sweep seeds many streams from few (seed, key) pairs.
    """
    words = []  # each entry as little-endian 32-bit words; 0 is one word
    for value in entropy:
        if value < 0:
            raise ValueError(f"seed entropy must be >= 0, got {value}")
        words.append(value & _MASK32)
        while value := value >> 32:
            words.append(value & _MASK32)
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight 32-bit words, paired little-endian.
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    state_words = [hashmix(pool[i % 4]) for i in range(8)]
    s0, s1, s2, s3 = (state_words[k] | state_words[k + 1] << 32 for k in range(0, 8, 2))
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    # From state 0: one step (state = inc), add the seed, one more step.
    state = inc + (s0 << 64 | s1)
    return (state * _PCG64_MULT + inc) & _MASK128, inc


# Values drawn per refill of an exponential block.
RNG_BLOCK = 256
# The right edge of numpy's exponential ziggurat: strip 0 draws past it from
# the tail, and the tail at the largest uniform value, 1 - 2**-53, is the
# largest value a standard exponential draw can take.
ZIGGURAT_EXP_R = 7.69711747013104972
EXPONENTIAL_MAX = ZIGGURAT_EXP_R - math.log1p(-(1 - 2**-53))


class RngStream:
    """One independently seeded random stream, picked by an integer key.

    The generator is PCG64 (XSL-RR output) seeded by ``SeedSequence([seed,
    key])``, exactly as numpy builds it, so (seed, key, draw index) -> value
    holds across platforms.  Distinct keys under the same seed give
    distinct sequences.

    Uniform and exponential draws come from a pure-Python port of that
    generator, so a run that draws no normal values never imports numpy.
    Exponential draws port numpy's ziggurat (``random_standard_exponential``)
    over numpy's own tables in ``lorapcsma.ziggurat``, imported at the
    stream's first exponential draw; ``tests/test_kernel.py`` proves tables
    and port against numpy with a scripted bit generator.  They are drawn
    in blocks of ``RNG_BLOCK`` and served one by one, each equal to the
    value numpy's scalar draw would have returned.  Normal draws
    (shadowing) use numpy's ``Generator`` over the same seeding, imported
    at the first such draw.  A stream serves one distribution only.
    """

    def __init__(self, seed: int, key: int) -> None:
        self.key = key
        self._entropy = (seed, key)
        self._state, self._inc = _pcg64_seed(self._entropy)
        self._gen = None  # numpy's Generator, built at the first normal draw
        self._kind: str | None = None
        self._block: list[float] = []  # next value last

    def _claim(self, kind: str) -> None:
        if self._kind is None:
            self._kind = kind
        elif self._kind != kind:
            raise RuntimeError(
                f"stream {self.key:#x} draws {self._kind} values, not {kind} values"
            )

    def uniform(self) -> float:
        """Next value, uniform on [0, 1): the top 53 bits of the next output."""
        if self._kind != "uniform":
            self._claim("uniform")
        self._state = state = (self._state * _PCG64_MULT + self._inc) & _MASK128
        word = ((state >> 64) ^ state) & _MASK64
        # XSL-RR rotates word right by the state's top 6 bits; word * (2**64
        # + 1) puts two copies side by side, so one shift both rotates and
        # drops the 11 low bits, and the mask keeps the top 53.
        return ((word * _TWO_COPIES >> ((state >> 122) + 11)) & _MASK53) * 2.0**-53

    def exponential(self, mean: float) -> float:
        block = self._block
        if not block:
            self._claim("exponential")
            self._block = block = self._standard_exponentials()
        return mean * block.pop()

    def _standard_exponentials(self) -> list[float]:
        """The next ``RNG_BLOCK`` standard exponential values, next value last."""
        from .ziggurat import FE, KE, WE

        state, inc, out = self._state, self._inc, []
        while len(out) < RNG_BLOCK:
            state = (state * _PCG64_MULT + inc) & _MASK128
            word = ((state >> 64) ^ state) & _MASK64
            # As in uniform(): bits 3..10 of the output pick the strip, 11..63 are ri.
            bits = word * _TWO_COPIES >> ((state >> 122) + 3)
            idx = bits & 0xFF
            ri = bits >> 8 & _MASK53
            x = ri * WE[idx]
            if ri < KE[idx]:
                out.append(x)
                continue
            state = (state * _PCG64_MULT + inc) & _MASK128
            word = ((state >> 64) ^ state) & _MASK64
            u = (word * _TWO_COPIES >> ((state >> 122) + 11) & _MASK53) * 2.0**-53
            if idx == 0:
                out.append(ZIGGURAT_EXP_R - math.log1p(-u))
            elif (FE[idx - 1] - FE[idx]) * u + FE[idx] < math.exp(-x):
                out.append(x)
            # Otherwise numpy draws again from the start.
        self._state = state
        out.reverse()
        return out

    def normal(self, sigma: float) -> float:
        self._claim("normal")
        if self._gen is None:
            import numpy as np

            self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self._entropy)))
        return float(self._gen.normal(0.0, sigma))
