"""Event queue ordering and RNG stream contracts."""

import numpy as np
import pytest

from lorapcsma.kernel import RNG_BLOCK, RngStream, Scheduler, _label_key, us_from_s


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
    assert sched.run_until(us_from_s(3600)) == 0
    assert sched.now_us == us_from_s(3600)

    sched = Scheduler()
    sched.schedule(us_from_s(100), hits.append, 1)
    assert sched.run_until(us_from_s(3600)) == 1

    sched = Scheduler()
    sched.schedule(us_from_s(4000), hits.append, 2)
    assert sched.run_until(us_from_s(3600)) == 0
    assert sched.run_until(us_from_s(4000)) == 1  # stayed queued


def test_events_spawned_during_run_within_horizon_execute():
    sched = Scheduler()
    hits = []
    sched.schedule(5, lambda: sched.schedule(7, hits.append, "spawned"))
    sched.run_until(10)
    assert hits == ["spawned"]


def test_rng_streams_are_reproducible():
    a = RngStream(123, "traffic")
    b = RngStream(123, "traffic")
    assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]


def test_rng_uniform_mean():
    stream = RngStream(7, "traffic")
    draws = [stream.uniform() for _ in range(100_000)]
    assert abs(sum(draws) / len(draws) - 0.5) < 0.01
    assert all(0.0 <= u < 1.0 for u in draws)


def test_distinct_stream_ids_give_distinct_sequences():
    traffic, persistence = RngStream(7, "traffic"), RngStream(7, "persistence")
    a = [traffic.uniform() for _ in range(1000)]
    b = [persistence.uniform() for _ in range(1000)]
    assert a != b


def _numpy_generator(seed, label):
    # The oracle: numpy's generator under the stream's documented seeding.
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _label_key(label)])))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64, 2**100 + 12345])
@pytest.mark.parametrize("label", ["placement", "traffic", "persistence", "shadowing"])
def test_uniform_draws_equal_numpy_pcg64(seed, label):
    # The seeds cover one, two, three and four 32-bit entropy words, and the
    # labels are the simulation's four streams.
    stream = RngStream(seed, label)
    expected = _numpy_generator(seed, label).random(640).tolist()
    assert [stream.uniform() for _ in range(640)] == expected


def test_block_draws_equal_scalar_draws():
    n = 3 * RNG_BLOCK + 5  # crosses several refills
    stream, gen = RngStream(11, "u"), _numpy_generator(11, "u")
    assert [stream.uniform() for _ in range(n)] == [float(gen.random()) for _ in range(n)]
    means = [0.5 + k % 7 for k in range(n)]  # the mean may change per draw
    stream, gen = RngStream(11, "e"), _numpy_generator(11, "e")
    assert [stream.exponential(m) for m in means] == [float(gen.exponential(m)) for m in means]
    stream, gen = RngStream(11, "n"), _numpy_generator(11, "n")
    assert [stream.normal(2.0) for _ in range(10)] == [float(gen.normal(0.0, 2.0)) for _ in range(10)]


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
    stream = RngStream(3, "mixed")
    draw[first](stream)
    with pytest.raises(RuntimeError, match="mixed"):
        draw[second](stream)
