"""The on-air map, demodulation paths and the four reception outcomes."""

import heapq

import pytest

from lorapcsma.gateway import GatewayPhy, Outcome, TxRecord
from lorapcsma.metrics import Counters
from lorapcsma.phy import DEFAULT_GATEWAY_SENSITIVITY_DBM

TOA = 102_912


def make_gateway(n_paths=8):
    counters = Counters()
    gw = GatewayPhy(n_paths, DEFAULT_GATEWAY_SENSITIVITY_DBM, counters)
    return gw, counters


def rec(device, start, sf=8, prx=-106.5, toa=TOA):
    return TxRecord(device=device, sf=sf, air_start_us=start, air_end_us=start + toa, prx_dbm=prx)


def test_gateway_starts_with_nobody_on_air():
    gw, _ = make_gateway()
    assert gw.on_air == {} and gw.bound == {}
    assert gw.starts == gw.ends == 0


def test_expire_ends_exactly_the_packets_booked_before_the_running_event():
    # Air-ends keep the kernel's (us, seq) order: at the running event's
    # microsecond, an end booked before it (lower seq) has happened, and one
    # booked after it has not.
    gw, counters = make_gateway()
    earlier, before, after, later = rec(0, 0), rec(1, 5), rec(2, 5), rec(3, 9)
    for r, seq in ((earlier, 4), (before, 6), (after, 8), (later, 3)):
        gw.on_tx_start(r)
        heapq.heappush(gw.ends_due, (r.air_end_us, seq, r))
    gw.expire(TOA + 5, 7)  # the running event
    assert sorted(gw.on_air) == [2, 3] and counters.sent == 2
    gw.expire(TOA + 5, 9)
    assert sorted(gw.on_air) == [3]
    gw.expire(TOA + 9, 0)  # the end of a run: nothing at its own microsecond
    assert sorted(gw.on_air) == [3] and [e[2] for e in gw.ends_due] == [later]
    gw.expire(TOA + 10, 0)
    assert gw.on_air == {} and gw.ends_due == [] and counters.sent == 4


def test_double_start_and_unknown_end_are_errors():
    gw, _ = make_gateway()
    first = rec(3, 0)
    gw.on_tx_start(first)
    assert list(gw.on_air) == [3]
    with pytest.raises(RuntimeError):
        gw.on_tx_start(rec(3, 10))
    gw.on_tx_end(first)
    assert gw.on_air == {}
    with pytest.raises(RuntimeError):
        gw.on_tx_end(first)
    assert gw.starts == 1 and gw.ends == 1


def test_on_air_maps_each_device_to_its_packet():
    gw, _ = make_gateway()
    first, second = rec(3, 0), rec(1, 0)
    gw.on_tx_start(first)
    gw.on_tx_start(second)
    assert gw.on_air == {3: first, 1: second}
    gw.on_tx_end(first)
    assert gw.on_air == {1: second}


def test_lone_packet_received():
    gw, counters = make_gateway()
    r = rec(0, 0)
    gw.on_tx_start(r)
    gw.on_tx_end(r)
    assert r.outcome is Outcome.RECEIVED
    assert counters.received == 1 and counters.sent == 1
    assert gw.on_air == {} and gw.bound == {}


def test_same_sf_overlap_collides_both():
    gw, counters = make_gateway()
    a, b = rec(0, 0), rec(1, TOA // 2)
    gw.on_tx_start(a)
    gw.on_tx_start(b)
    assert a.outcome is b.outcome is Outcome.COLLIDED  # symmetric
    gw.on_tx_end(a)
    assert a.outcome is Outcome.COLLIDED
    gw.on_tx_end(b)
    assert b.outcome is Outcome.COLLIDED
    assert counters.collided == 2
    assert gw.on_air == {}


def test_different_sf_overlap_is_orthogonal():
    gw, counters = make_gateway()
    a, b = rec(0, 0, sf=8), rec(1, 100, sf=9)
    gw.on_tx_start(a)
    gw.on_tx_start(b)
    gw.on_tx_end(a)
    assert a.outcome is Outcome.RECEIVED
    gw.on_tx_end(b)
    assert b.outcome is Outcome.RECEIVED


def test_under_sensitivity_drops_without_interfering():
    gw, counters = make_gateway()
    weak = rec(0, 0, prx=-140.0)  # SF8 gateway threshold is -132.5 dBm
    strong = rec(1, 10)
    gw.on_tx_start(weak)
    gw.on_tx_start(strong)
    assert list(gw.on_air) == [0, 1]
    assert list(gw.bound) == [1]  # the weak packet holds no path
    assert strong.outcome is Outcome.RECEIVED
    gw.on_tx_end(weak)
    assert weak.outcome is Outcome.UNDER_SENSITIVITY
    gw.on_tx_end(strong)
    assert strong.outcome is Outcome.RECEIVED
    assert counters.under_sensitivity == 1
    assert gw.on_air == {}  # every case takes the sender off air


def test_ninth_concurrent_packet_is_path_rejected():
    gw, counters = make_gateway()
    packets = [rec(i, 0) for i in range(9)]
    for r in packets:
        gw.on_tx_start(r)
    assert list(gw.bound) == list(range(8))  # bound in FIFO order
    assert len(gw.on_air) == 9
    assert packets[8].outcome is Outcome.NO_DEMOD_PATH
    for r in packets:
        gw.on_tx_end(r)
    outcomes = [r.outcome for r in packets]
    assert outcomes[:8] == [Outcome.COLLIDED] * 8
    assert outcomes[8] is Outcome.NO_DEMOD_PATH
    assert counters.no_path == 1 and counters.collided == 8
    assert gw.max_paths_bound == 8
    assert gw.on_air == {} and gw.bound == {}
    assert gw.starts == gw.ends == 9


def test_path_rejected_packet_does_not_taint():
    gw, _ = make_gateway(n_paths=1)
    a = rec(0, 0, sf=8)
    b = rec(1, 10, sf=8)
    gw.on_tx_start(a)
    gw.on_tx_start(b)
    assert b.outcome is Outcome.NO_DEMOD_PATH
    assert a.outcome is Outcome.RECEIVED
    gw.on_tx_end(a)
    assert a.outcome is Outcome.RECEIVED


def test_paths_are_released_and_reused():
    gw, _ = make_gateway(n_paths=1)
    a = rec(0, 0)
    gw.on_tx_start(a)
    gw.on_tx_end(a)
    b = rec(1, 2 * TOA)
    gw.on_tx_start(b)
    assert gw.bound == {1: b}  # the one path is free again
    assert b.outcome is Outcome.RECEIVED
    assert gw.starts == gw.ends + 1
    gw.on_tx_end(b)
    assert gw.starts == gw.ends == 2
    assert gw.max_paths_bound == 1


def test_abort_releases_the_path_without_an_outcome():
    gw, counters = make_gateway(n_paths=1)
    a = rec(0, 0)
    gw.on_tx_start(a)
    gw.abort(a)
    assert a.outcome is None  # the trace prints it as pending
    assert gw.on_air == {} and gw.bound == {}
    assert counters.sent == 0
    b = rec(1, 10)
    gw.on_tx_start(b)
    assert gw.bound == {1: b}
    gw.on_tx_end(b)
    assert b.outcome is Outcome.RECEIVED
    assert gw.starts == gw.ends == 2


def test_touching_intervals_do_not_collide():
    # B starts the same microsecond A ends; A's end event has not run yet.
    gw, _ = make_gateway()
    a = rec(0, 0)
    b = rec(1, TOA)
    gw.on_tx_start(a)
    gw.on_tx_start(b)
    assert a.outcome is b.outcome is Outcome.RECEIVED
    gw.on_tx_end(a)
    assert a.outcome is Outcome.RECEIVED
    gw.on_tx_end(b)
    assert b.outcome is Outcome.RECEIVED


def test_air_end_for_unknown_packet_is_an_error():
    gw, _ = make_gateway()
    with pytest.raises(RuntimeError):
        gw.on_tx_end(rec(0, 0))
    other = rec(0, 0)
    gw.on_tx_start(other)
    with pytest.raises(RuntimeError):
        gw.on_tx_end(rec(0, 0))  # same device, not the packet on air


def test_outcome_totals_balance():
    gw, counters = make_gateway()
    packets = [rec(i, 0) for i in range(3)] + [rec(3, 0, prx=-150.0)]
    for r in packets:
        gw.on_tx_start(r)
    for r in packets:
        gw.on_tx_end(r)
    c = counters
    assert c.sent == c.received + c.collided + c.under_sensitivity + c.no_path == 4
