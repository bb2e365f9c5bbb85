"""Airtime, path-loss, sensitivity, and detect-range oracles."""

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import above_sensitivity
from lorapcsma.config import RunConfig
from lorapcsma.phy import (
    detect_range_m,
    path_loss_db,
    received_power_dbm,
    sensing_interval_s,
    time_on_air,
)


def phy_config(**keys):
    """A config with the PHY defaults except ``keys``; its one device sits at
    the gateway, so any loss model passes the geometry check."""
    return RunConfig(n_devices=1, cluster_radius_m=0.0, **keys)


DEFAULTS = phy_config()
DEVICE_ROW = DEFAULTS.device_sensitivity_dbm
GATEWAY_ROW = DEFAULTS.gateway_sensitivity_dbm
# Detect ranges read the device row; this config's device row is the
# gateway's, so the gateway thresholds can be inverted too.
GATEWAY_AS_DEVICE = phy_config(device_sensitivity_dbm=GATEWAY_ROW)


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


@pytest.mark.parametrize("low_dr", ["auto", "on", "off"])
@pytest.mark.parametrize("sf", range(7, 13))
def test_airtime_matches_oracle_over_every_radio_key(sf, low_dr):
    # The oracle's DE: None for auto (on iff SF >= 11), else the forced value.
    de = {"auto": None, "on": True, "off": False}[low_dr]
    for header, crc, cr, payload, bw, n_pre in itertools.product(
        (True, False), (True, False), (1, 2, 3, 4), (1, 19, 51, 222), (125e3, 500e3), (8, 12)
    ):
        cfg = phy_config(
            low_data_rate_optimize=low_dr,
            explicit_header=header,
            crc=crc,
            coding_rate=cr,
            payload_bytes=payload,
            bandwidth_hz=bw,
            preamble_symbols=n_pre,
        )
        expected = airtime_oracle(sf, payload, bw, cr, n_pre, header, crc, de)
        assert time_on_air(sf, cfg) == pytest.approx(expected, rel=1e-12)
        # Airtime does not decrease with SF, so RunConfig.validate bounds
        # every device by SF7's sensing interval and SF12's airtime.
        if sf < 12:
            assert time_on_air(sf, cfg) <= time_on_air(sf + 1, cfg)


def test_low_data_rate_optimize_auto_is_on_from_sf11():
    on, off = phy_config(low_data_rate_optimize="on"), phy_config(low_data_rate_optimize="off")
    for sf in range(7, 13):
        forced = on if sf >= 11 else off
        assert time_on_air(sf, DEFAULTS) == time_on_air(sf, forced)
    assert time_on_air(7, on) > time_on_air(7, off)


def test_airtime_rejects_bad_sf():
    with pytest.raises(ValueError):
        time_on_air(6, DEFAULTS)
    with pytest.raises(ValueError):
        time_on_air(13, DEFAULTS)


def test_airtime_increasing_in_sf_with_de_fixed():
    cfg = phy_config(low_data_rate_optimize="off")
    airtimes = [time_on_air(sf, cfg) for sf in range(7, 13)]
    assert all(a < b for a, b in zip(airtimes, airtimes[1:]))


@given(payload=st.integers(min_value=1, max_value=254), sf=st.integers(7, 12))
@settings(max_examples=60, deadline=None)
def test_airtime_nondecreasing_in_payload(payload, sf):
    shorter = phy_config(payload_bytes=payload)
    longer = phy_config(payload_bytes=payload + 1)
    assert time_on_air(sf, longer) >= time_on_air(sf, shorter)


def test_sensing_interval_is_half_airtime():
    assert sensing_interval_s(8, DEFAULTS) == pytest.approx(0.102912 / 2, abs=1e-9)


def test_path_loss_reference_and_formula():
    assert path_loss_db(1.0, DEFAULTS) == pytest.approx(7.7)
    assert path_loss_db(1000.0, DEFAULTS) == pytest.approx(7.7 + 37.6 * 3.0)
    free_space_like = phy_config(
        reference_loss_db=0.0, reference_distance_m=1.0, path_loss_exponent=2.0
    )
    assert path_loss_db(10.0, free_space_like) == pytest.approx(20.0)


def test_path_loss_clamps_below_reference_distance():
    assert path_loss_db(0.2, DEFAULTS) == pytest.approx(DEFAULTS.reference_loss_db)


@given(st.floats(min_value=1.0, max_value=1e5), st.floats(min_value=1.0, max_value=1e5))
@example(1e5, 99999.99999999999)
@settings(max_examples=60, deadline=None)
def test_path_loss_increasing_beyond_reference(d1, d2):
    # log10 maps neighbouring floats to one value: 1e5 and 99999.99999999999
    # both lose 195.69999999999996 dB.  So the loss never decreases, and it
    # strictly increases past a relative step far above one ulp.
    lo, hi = sorted((d1, d2))
    assert path_loss_db(hi, DEFAULTS) >= path_loss_db(lo, DEFAULTS)
    if hi > lo * (1 + 1e-9):
        assert path_loss_db(hi, DEFAULTS) > path_loss_db(lo, DEFAULTS)


def test_received_power_cases():
    assert received_power_dbm(14.0, 1000.0, DEFAULTS) == pytest.approx(-106.5)
    assert received_power_dbm(14.0, 1.0, DEFAULTS) == pytest.approx(6.3)
    zero_ref = phy_config(reference_loss_db=0.0)
    assert received_power_dbm(0.0, 1.0, zero_ref) == pytest.approx(0.0)


def test_above_sensitivity_thresholds():
    assert GATEWAY_ROW[8 - 7] == -132.5
    assert above_sensitivity(-106.5, 8, GATEWAY_ROW)
    assert not above_sensitivity(-133.0, 8, GATEWAY_ROW)
    assert above_sensitivity(-132.5, 8, GATEWAY_ROW)  # boundary inclusive


def test_detect_range_against_inverse_formula():
    expected = 1.0 * 10.0 ** ((14.0 - 7.7 + 127.0) / 37.6)
    got = detect_range_m(8, 14.0, DEFAULTS)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(3509.0, abs=1.0)


def test_detect_range_monotonicity():
    sf8_dev = detect_range_m(8, 14.0, DEFAULTS)
    sf10_gw = detect_range_m(10, 14.0, GATEWAY_AS_DEVICE)
    assert sf10_gw > sf8_dev
    steep = phy_config(path_loss_exponent=2 * DEFAULTS.path_loss_exponent)
    assert detect_range_m(8, 14.0, steep) < sf8_dev
    ranges = [detect_range_m(sf, 14.0, DEFAULTS) for sf in range(7, 13)]
    assert all(a < b for a, b in zip(ranges, ranges[1:]))


def test_detect_range_with_no_budget_collapses_to_reference():
    assert detect_range_m(7, -130.0, DEFAULTS) == DEFAULTS.reference_distance_m


@pytest.mark.parametrize("cfg", [DEFAULTS, GATEWAY_AS_DEVICE], ids=["end_device", "gateway"])
@pytest.mark.parametrize("sf", range(7, 13))
def test_detect_range_round_trip_within_1mm(sf, cfg):
    row = cfg.device_sensitivity_dbm
    r = detect_range_m(sf, 14.0, cfg)
    assert above_sensitivity(received_power_dbm(14.0, r - 1e-3, DEFAULTS), sf, row)
    assert not above_sensitivity(received_power_dbm(14.0, r + 1e-3, DEFAULTS), sf, row)
