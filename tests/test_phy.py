"""Airtime, path-loss, sensitivity, and detect-range oracles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import above_sensitivity
from lorapcsma import phy
from lorapcsma.phy import (
    END_DEVICE,
    GATEWAY,
    LossParams,
    RadioParams,
    SensitivityTable,
    detect_range_m,
    path_loss_db,
    received_power_dbm,
    sensing_interval_s,
    time_on_air,
)

DEFAULTS = RadioParams()
LOSS = LossParams()
TABLE = SensitivityTable()


def airtime_oracle(sf, payload, bw=125_000.0, cr=1, n_pre=8, header=True, crc=True, de=None):
    # Independent evaluation of the standard airtime formula, symbol counts first.
    if de is None:
        de = sf >= 11
    t_sym = 2.0**sf / bw
    n_pre_sym = n_pre + 4.25
    bits = 8 * payload - 4 * sf + 28 + (16 if crc else 0) - (0 if header else 20)
    n_pay = 8 + max(0, math.ceil(bits / (4 * (sf - (2 if de else 0)))) * (cr + 4))
    return (n_pre_sym + n_pay) * t_sym


@pytest.mark.parametrize(
    "sf,expected_s",
    [(8, 0.102912), (10, 0.329728), (12, 1.318912)],
)
def test_airtime_frozen_values(sf, expected_s):
    # 19-byte payload, BW 125 kHz, CR 4/5, 8-symbol preamble, explicit
    # header, CRC on, DE auto (on at SF12 only here).
    assert time_on_air(sf, DEFAULTS) == pytest.approx(expected_s, abs=1e-6)
    assert time_on_air(sf, DEFAULTS) == pytest.approx(airtime_oracle(sf, 19), abs=1e-12)


@pytest.mark.parametrize("sf", range(7, 13))
@pytest.mark.parametrize("payload", [1, 19, 51, 222])
def test_airtime_matches_oracle(sf, payload):
    params = RadioParams(payload_bytes=payload)
    assert time_on_air(sf, params) == pytest.approx(airtime_oracle(sf, payload), abs=1e-12)


def test_airtime_rejects_bad_sf():
    with pytest.raises(ValueError):
        time_on_air(6, DEFAULTS)
    with pytest.raises(ValueError):
        time_on_air(13, DEFAULTS)


def test_airtime_increasing_in_sf_with_de_fixed():
    params = RadioParams(low_data_rate_optimize=False)
    airtimes = [time_on_air(sf, params) for sf in range(7, 13)]
    assert all(a < b for a, b in zip(airtimes, airtimes[1:]))


@given(payload=st.integers(min_value=1, max_value=254), sf=st.integers(7, 12))
@settings(max_examples=60, deadline=None)
def test_airtime_nondecreasing_in_payload(payload, sf):
    shorter = RadioParams(payload_bytes=payload)
    longer = RadioParams(payload_bytes=payload + 1)
    assert time_on_air(sf, longer) >= time_on_air(sf, shorter)


def test_sensing_interval_is_half_airtime():
    assert sensing_interval_s(8, DEFAULTS) == pytest.approx(0.102912 / 2, abs=1e-9)


def test_path_loss_reference_and_formula():
    assert path_loss_db(1.0, LOSS) == pytest.approx(7.7)
    assert path_loss_db(1000.0, LOSS) == pytest.approx(7.7 + 37.6 * 3.0)
    free_space_like = LossParams(reference_loss_db=0.0, reference_distance_m=1.0, exponent=2.0)
    assert path_loss_db(10.0, free_space_like) == pytest.approx(20.0)


def test_path_loss_clamps_below_reference_distance():
    assert path_loss_db(0.2, LOSS) == pytest.approx(LOSS.reference_loss_db)


@given(st.floats(min_value=1.0, max_value=1e5), st.floats(min_value=1.0, max_value=1e5))
@settings(max_examples=60, deadline=None)
def test_path_loss_increasing_beyond_reference(d1, d2):
    lo, hi = sorted((d1, d2))
    if hi > lo:
        assert path_loss_db(hi, LOSS) > path_loss_db(lo, LOSS)


def test_received_power_cases():
    assert received_power_dbm(14.0, 1000.0, LOSS) == pytest.approx(-106.5)
    assert received_power_dbm(14.0, 1.0, LOSS) == pytest.approx(6.3)
    zero_ref = LossParams(reference_loss_db=0.0)
    assert received_power_dbm(0.0, 1.0, zero_ref) == pytest.approx(0.0)


def test_above_sensitivity_thresholds():
    assert TABLE.threshold_dbm(8, GATEWAY) == -132.5
    assert above_sensitivity(-106.5, 8, GATEWAY, TABLE)
    assert not above_sensitivity(-133.0, 8, GATEWAY, TABLE)
    assert above_sensitivity(-132.5, 8, GATEWAY, TABLE)  # boundary inclusive


def test_sensitivity_table_invariants_enforced():
    with pytest.raises(ValueError):
        SensitivityTable(end_device=(-124, -127, -130, -133, -135))  # wrong length
    with pytest.raises(ValueError):
        SensitivityTable(end_device=(-124, -124, -130, -133, -135, -137))  # not decreasing
    with pytest.raises(ValueError):
        SensitivityTable(gateway=(-120, -121, -122, -123, -124, -125))  # less sensitive than devices


def test_detect_range_against_inverse_formula():
    expected = 1.0 * 10.0 ** ((14.0 - 7.7 + 127.0) / 37.6)
    got = detect_range_m(8, END_DEVICE, 14.0, LOSS, TABLE)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(3509.0, abs=1.0)


def test_detect_range_monotonicity():
    sf8_dev = detect_range_m(8, END_DEVICE, 14.0, LOSS, TABLE)
    sf10_gw = detect_range_m(10, GATEWAY, 14.0, LOSS, TABLE)
    assert sf10_gw > sf8_dev
    steep = LossParams(exponent=2 * LOSS.exponent)
    assert detect_range_m(8, END_DEVICE, 14.0, steep, TABLE) < sf8_dev
    ranges = [detect_range_m(sf, END_DEVICE, 14.0, LOSS, TABLE) for sf in range(7, 13)]
    assert all(a < b for a, b in zip(ranges, ranges[1:]))


def test_detect_range_with_no_budget_collapses_to_reference():
    assert detect_range_m(7, END_DEVICE, -130.0, LOSS, TABLE) == LOSS.reference_distance_m


@pytest.mark.parametrize("role", [END_DEVICE, GATEWAY])
@pytest.mark.parametrize("sf", range(7, 13))
def test_detect_range_round_trip_within_1mm(sf, role):
    r = detect_range_m(sf, role, 14.0, LOSS, TABLE)
    assert above_sensitivity(received_power_dbm(14.0, r - 1e-3, LOSS), sf, role, TABLE)
    assert not above_sensitivity(received_power_dbm(14.0, r + 1e-3, LOSS), sf, role, TABLE)


def test_radio_params_validation():
    with pytest.raises(ValueError):
        RadioParams(bandwidth_hz=0)
    with pytest.raises(ValueError):
        RadioParams(coding_rate=5)
    with pytest.raises(ValueError):
        RadioParams(payload_bytes=0)


def test_low_dr_optimize_auto_rule():
    assert not DEFAULTS.low_dr_optimize(10)
    assert DEFAULTS.low_dr_optimize(11)
    assert RadioParams(low_data_rate_optimize=True).low_dr_optimize(7)
