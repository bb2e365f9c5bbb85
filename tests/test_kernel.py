"""Event queue ordering and RNG stream contracts."""

import ctypes
import hashlib
import math
import threading

import numpy as np
import pytest

from lorapcsma import ziggurat
from lorapcsma.kernel import (
    _PCG64_MULT,
    EXPONENTIAL_MAX,
    RNG_BLOCK,
    ZIGGURAT_EXP_R,
    RngStream,
    Scheduler,
    us_from_s,
)
from lorapcsma.simulation import (
    STREAM_PERSISTENCE,
    STREAM_PLACEMENT,
    STREAM_SHADOWING,
    STREAM_TRAFFIC,
)

STREAMS = {
    "placement": STREAM_PLACEMENT,
    "traffic": STREAM_TRAFFIC,
    "persistence": STREAM_PERSISTENCE,
    "shadowing": STREAM_SHADOWING,
}


def _key(name):
    # The stream-key rule: the first 8 bytes of the name's SHA-256, big-endian.
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")


def test_fifo_tie_break():
    sched = Scheduler()
    order = []
    sched.schedule(us_from_s(5.0), order.append, "x")
    sched.schedule(us_from_s(5.0), order.append, "y")
    sched.run_until(us_from_s(10.0))
    assert order == ["x", "y"]


def test_past_scheduling_is_an_error():
    sched = Scheduler()
    sched.schedule(us_from_s(3.0), lambda: None)
    sched.run_until(us_from_s(3.0))
    with pytest.raises(ValueError):
        sched.schedule(us_from_s(2.0), lambda: None)


def test_scheduling_at_current_time_is_allowed():
    sched = Scheduler()
    hits = []
    def reschedule():
        sched.schedule(sched.now_us, hits.append, "same-time")
    sched.schedule(10, reschedule)
    sched.run_until(10)
    assert hits == ["same-time"]


def test_large_random_schedule_executes_in_time_seq_order():
    # Oracle: a stable sort of the schedule log by fire time, so ties keep
    # insertion order.  ~20 events per us make nearly every event a tie, and
    # the payloads count down, so a queue that broke ties by payload rather
    # than by insertion would run them in reverse.
    n = 100_000
    horizon_us = n // 20
    times = np.random.default_rng(42).integers(0, horizon_us, size=n).tolist()
    scheduled = list(zip(times, range(n, 0, -1)))
    sched = Scheduler()
    executed = []
    for entry in scheduled:
        sched.schedule(entry[0], executed.append, entry)
    sched.run_until(horizon_us)
    assert executed == sorted(scheduled, key=lambda entry: entry[0])


def test_run_until_boundaries():
    sched = Scheduler()
    hits = []
    sched.run_until(us_from_s(3600))
    assert (sched.executed, sched.now_us) == (0, us_from_s(3600))

    sched = Scheduler()
    sched.schedule(us_from_s(100), hits.append, 1)
    sched.run_until(us_from_s(3600))
    assert sched.executed == 1

    sched = Scheduler()
    sched.schedule(us_from_s(4000), hits.append, 2)
    sched.run_until(us_from_s(3600))
    assert sched.executed == 0
    sched.run_until(us_from_s(4000))
    assert sched.executed == 1  # stayed queued
    assert hits == [1, 2]


def test_events_spawned_during_run_within_horizon_execute():
    sched = Scheduler()
    hits = []
    sched.schedule(5, lambda: sched.schedule(7, hits.append, "spawned"))
    sched.run_until(10)
    assert hits == ["spawned"]


def test_rng_streams_are_reproducible():
    a = RngStream(123, STREAM_TRAFFIC)
    b = RngStream(123, STREAM_TRAFFIC)
    assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]


def test_rng_uniform_mean():
    stream = RngStream(7, STREAM_TRAFFIC)
    draws = [stream.uniform() for _ in range(100_000)]
    assert abs(sum(draws) / len(draws) - 0.5) < 0.01
    assert all(0.0 <= u < 1.0 for u in draws)


def test_distinct_stream_ids_give_distinct_sequences():
    traffic, persistence = RngStream(7, STREAM_TRAFFIC), RngStream(7, STREAM_PERSISTENCE)
    a = [traffic.uniform() for _ in range(1000)]
    b = [persistence.uniform() for _ in range(1000)]
    assert a != b


@pytest.mark.parametrize("name", STREAMS)
def test_stream_keys_are_the_first_8_bytes_of_sha256(name):
    # Precomputed in lorapcsma.simulation, so that a run never imports hashlib.
    assert STREAMS[name] == _key(name)


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match="seed entropy must be >= 0, got -1"):
        RngStream(-1, STREAM_PLACEMENT)


def _numpy_generator(seed, key):
    # The oracle: numpy's generator under the stream's documented seeding.
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, key])))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64, 2**100 + 12345])
@pytest.mark.parametrize("key", STREAMS.values(), ids=STREAMS)
def test_uniform_draws_equal_numpy_pcg64(seed, key):
    # The seeds cover one, two, three and four 32-bit entropy words, and the
    # keys are the simulation's four streams.
    stream = RngStream(seed, key)
    expected = _numpy_generator(seed, key).random(640).tolist()
    assert [stream.uniform() for _ in range(640)] == expected


def test_block_draws_equal_scalar_draws():
    # Exponential values are drawn RNG_BLOCK at a time and served one by
    # one; each must be the value numpy's scalar draw returns at that index.
    n = 3 * RNG_BLOCK + 5  # crosses several refills
    stream, gen = RngStream(11, _key("u")), _numpy_generator(11, _key("u"))
    assert [stream.uniform() for _ in range(n)] == [float(gen.random()) for _ in range(n)]
    means = [0.5 + k % 7 for k in range(n)]  # the mean may change per draw
    stream, gen = RngStream(11, _key("e")), _numpy_generator(11, _key("e"))
    assert [stream.exponential(m) for m in means] == [float(gen.exponential(m)) for m in means]
    stream, gen = RngStream(11, _key("n")), _numpy_generator(11, _key("n"))
    assert [stream.normal(2.0) for _ in range(10)] == [float(gen.normal(0.0, 2.0)) for _ in range(10)]


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64, 2**100 + 12345])
@pytest.mark.parametrize("key", STREAMS.values(), ids=STREAMS)
def test_exponential_draws_equal_numpy(seed, key):
    means = [0.25 + k % 13 for k in range(25_000)]
    stream = RngStream(seed, key)
    expected = _numpy_generator(seed, key).exponential(means).tolist()
    assert [stream.exponential(m) for m in means] == expected


# -- the ziggurat against numpy, word by word --------------------------------
#
# numpy's random_standard_exponential takes a 64-bit word w: bits 3..10 pick
# the strip idx, ri = w >> 11, and x = ri * WE[idx] is returned at once if
# ri < KE[idx].  Otherwise it draws u = next_double(): strip 0 returns the
# tail ZIGGURAT_EXP_R - log1p(-u); another strip returns x if
# (FE[idx-1] - FE[idx]) * u + FE[idx] < exp(-x), and else draws again.


class _BitGen(ctypes.Structure):
    _fields_ = [
        ("state", ctypes.c_void_p),
        ("next_uint64", ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)),
        ("next_uint32", ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)),
        ("next_double", ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)),
        ("next_raw", ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)),
    ]


class ScriptedBitGenerator:
    """A numpy bit generator that serves listed 64-bit words, first word
    first; ``next_double`` turns a word into ``(w >> 11) * 2**-53`` as PCG64
    does.  ``served`` counts the words taken."""

    def __init__(self) -> None:
        self.words: list[int] = []
        self.served = 0

        def next_uint64(_):
            self.served += 1
            return self.words.pop()

        def next_double(_):
            return (next_uint64(None) >> 11) * 2.0**-53

        types = dict(_BitGen._fields_)
        self._callbacks = (
            types["next_uint64"](next_uint64),
            types["next_uint32"](lambda _: next_uint64(None) >> 32),
            types["next_double"](next_double),
            types["next_raw"](next_uint64),
        )
        self._bitgen = _BitGen(None, *self._callbacks)
        new_capsule = ctypes.pythonapi.PyCapsule_New
        new_capsule.restype = ctypes.py_object
        new_capsule.argtypes = (ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p)
        self._name = b"BitGenerator"  # the capsule keeps only a pointer to it
        self.capsule = new_capsule(ctypes.addressof(self._bitgen), self._name, None)
        self.lock = threading.Lock()
        self.generator = np.random.Generator(self)

    def draw(self, *words: int) -> float:
        """numpy's standard exponential draw from ``words``."""
        self.words, self.served = list(reversed(words)), 0
        value = self.generator.standard_exponential()
        assert self.served <= len(words), "numpy asked for more words than listed"
        return value


def _word(idx: int, ri: int) -> int:
    return ri << 11 | idx << 3


def _u_word(u: float) -> int:
    return int(u * 2**53) << 11


# A word numpy and the port both return at once: strip 5, ri = 1.
_FAST_WORD = _word(5, 1)


@pytest.fixture(scope="module")
def scripted():
    return ScriptedBitGenerator()


def test_we_table_is_numpys(scripted):
    # ri = 1 gives x = WE[idx] exactly; strip 1 (KE[1] == 0) takes its
    # decision at u = 0, where it returns x.
    assert tuple(scripted.draw(_word(idx, 1), 0) for idx in range(256)) == ziggurat.WE


def test_ke_table_is_numpys(scripted):
    # KE[idx] is the smallest ri whose draw takes a second word.
    def takes_a_second_word(idx, ri):
        scripted.draw(_word(idx, ri), 0, _FAST_WORD)
        return scripted.served > 1

    table = []
    for idx in range(256):
        lo, hi = 0, 2**53
        while lo < hi:
            mid = (lo + hi) // 2
            if takes_a_second_word(idx, mid):
                hi = mid
            else:
                lo = mid + 1
        table.append(lo)
    assert tuple(table) == ziggurat.KE


_INVERSE_MULT = pow(_PCG64_MULT, -1, 2**128)


def _stream_and_numpy_serving(w1: int, w2: int):
    """The port's stream and numpy's PCG64 generator, both at one state whose
    next two outputs are ``w1`` and ``w2``."""
    # A state below 2**122 rotates by 0: high half h and low half w ^ h
    # output w.  The increment must be odd, which fixes h of the second.
    s1 = w1
    h = (w1 ^ w2 ^ 1) & 1
    s2 = h << 64 | (w2 ^ h)
    inc = (s2 - s1 * _PCG64_MULT) % 2**128
    state = (s1 - inc) * _INVERSE_MULT % 2**128
    stream = RngStream(0, _key("scripted"))
    stream._state, stream._inc = state, inc
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return stream, np.random.Generator(bit_generator)


def _port_block_equals_numpy(w1: int, w2: int) -> list[float]:
    stream, gen = _stream_and_numpy_serving(w1, w2)
    block = [stream.exponential(1.0) for _ in range(RNG_BLOCK)]
    assert block == gen.standard_exponential(RNG_BLOCK).tolist()
    return block


def test_the_port_takes_a_second_word_exactly_from_ri_equal_to_ke():
    # Which words end on the first word decides where every later draw
    # starts, so each block must match numpy's from there on.
    for idx in range(256):
        for ri in {max(ziggurat.KE[idx] - 1, 0), ziggurat.KE[idx]}:
            _port_block_equals_numpy(_word(idx, ri), _u_word(0.5))


def test_slow_path_decisions_match_numpy_on_both_sides_of_each_boundary(scripted):
    fe = ziggurat.FE
    for idx in range(1, 256):
        ri = (ziggurat.KE[idx] + 2**53) // 2  # mid-way through the slow region
        x = ri * ziggurat.WE[idx]

        def accepts(k):
            return (fe[idx - 1] - fe[idx]) * (k * 2.0**-53) + fe[idx] < math.exp(-x)

        # The port's boundary: the largest k accepted, by bisection.
        lo, hi = -1, 2**53 - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if accepts(mid):
                lo = mid
            else:
                hi = mid - 1
        assert 0 <= lo < 2**53 - 1, idx  # both sides lie in [0, 1)
        for k, accepted in ((lo, True), (lo + 1, False)):
            value = scripted.draw(_word(idx, ri), k << 11, _FAST_WORD)
            assert (value, scripted.served) == ((x, 2) if accepted else (ziggurat.WE[5], 3)), idx
            first = _port_block_equals_numpy(_word(idx, ri), k << 11)[0]
            assert (first == x) is accepted, idx


# u at its ends and in between, and where log(1 - u) and log1p(-u) round
# apart in glibc.
_TAIL_US = [0.0, 2.0**-53, 0.5, 1 - 2.0**-53, 7264191481562982 * 2.0**-53, 3242884225339846 * 2.0**-53]


@pytest.mark.parametrize("u", _TAIL_US)
def test_strip_0_tail_matches_numpy(scripted, u):
    w1 = _word(0, 2**53 - 1)  # past KE[0]: strip 0 draws from the tail
    assert scripted.draw(w1, _u_word(u)) == ZIGGURAT_EXP_R - math.log1p(-u)
    assert _port_block_equals_numpy(w1, _u_word(u))[0] == ZIGGURAT_EXP_R - math.log1p(-u)


def test_no_draw_exceeds_exponential_max():
    # The largest ri on every strip, and the tail at the largest u.
    for idx in range(256):
        assert max(_port_block_equals_numpy(_word(idx, 2**53 - 1), _u_word(1 - 2.0**-53))) <= EXPONENTIAL_MAX
    assert _port_block_equals_numpy(_word(0, 2**53 - 1), _u_word(1 - 2.0**-53))[0] == EXPONENTIAL_MAX


@pytest.mark.parametrize(
    "first, second",
    [("uniform", "exponential"), ("exponential", "uniform"), ("uniform", "normal"), ("normal", "exponential")],
)
def test_a_stream_serves_one_distribution(first, second):
    draw = {
        "uniform": lambda s: s.uniform(),
        "exponential": lambda s: s.exponential(1.0),
        "normal": lambda s: s.normal(1.0),
    }
    stream = RngStream(3, _key("mixed"))
    draw[first](stream)
    with pytest.raises(RuntimeError, match=f"stream {_key('mixed'):#x} draws"):
        draw[second](stream)
