"""LoRa physical-layer arithmetic: airtime, path loss, ranges.

Every function reads the radio, path-loss and sensitivity keys of the run's
``RunConfig``; ``RunConfig.validate`` checks them when the config is built.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .config import RunConfig

SF_MIN = 7
SF_MAX = 12

DEFAULT_TX_POWER_DBM = 14.0  # EU868 ERP limit

# Per-SF sensitivities (SF7..SF12), dBm.  Standard transceiver/gateway
# datasheet values; the config keys device_sensitivity_dbm and
# gateway_sensitivity_dbm override them.
DEFAULT_DEVICE_SENSITIVITY_DBM = (-124.0, -127.0, -130.0, -133.0, -135.0, -137.0)
DEFAULT_GATEWAY_SENSITIVITY_DBM = (-130.0, -132.5, -135.0, -137.5, -140.0, -142.5)


def _check_sf(sf: int) -> None:
    if not SF_MIN <= sf <= SF_MAX:
        raise ValueError(f"spreading factor must be in {SF_MIN}..{SF_MAX}, got {sf}")


def time_on_air(sf: int, cfg: RunConfig) -> float:
    """Packet airtime in seconds for the standard LoRa modulation.

    Symbol time 2^SF/BW; preamble spans (n_pre + 4.25) symbols; the payload
    spans 8 + max(ceil((8 PL - 4 SF + 28 + 16 CRC - 20 IH) / (4 (SF - 2 DE)))
    * (CR + 4), 0) symbols, with IH = 0 for an explicit header.  DE is on
    for ``low_data_rate_optimize = on``, and for ``auto`` iff SF >= 11.
    """
    _check_sf(sf)
    t_sym = (2.0**sf) / cfg.bandwidth_hz
    t_preamble = (cfg.preamble_symbols + 4.25) * t_sym
    low_dr = cfg.low_data_rate_optimize
    de = 1 if low_dr == "on" or (low_dr == "auto" and sf >= 11) else 0
    ih = 0 if cfg.explicit_header else 1
    crc = 1 if cfg.crc else 0
    numerator = 8 * cfg.payload_bytes - 4 * sf + 28 + 16 * crc - 20 * ih
    n_payload = 8 + max(math.ceil(numerator / (4 * (sf - 2 * de))) * (cfg.coding_rate + 4), 0)
    return t_preamble + n_payload * t_sym


def sensing_interval_s(sf: int, cfg: RunConfig) -> float:
    """Back-off re-sensing cadence at ``sf``: ``cfg.sensing_interval_s`` when
    set, else (``auto``) half the packet airtime at ``sf``."""
    if cfg.sensing_interval_s is None:
        return time_on_air(sf, cfg) / 2.0
    return cfg.sensing_interval_s


def path_loss_db(distance_m: float, cfg: RunConfig) -> float:
    """Log-distance path loss; clamped to the reference loss below the
    reference distance."""
    if distance_m <= cfg.reference_distance_m:
        return cfg.reference_loss_db
    return cfg.reference_loss_db + 10.0 * cfg.path_loss_exponent * math.log10(
        distance_m / cfg.reference_distance_m
    )


def received_power_dbm(tx_power_dbm: float, distance_m: float, cfg: RunConfig) -> float:
    return tx_power_dbm - path_loss_db(distance_m, cfg)


def detect_range_m(sf: int, tx_power_dbm: float, cfg: RunConfig) -> float:
    """Distance at which the received power equals the end-device
    sensitivity at ``sf`` (``cfg.device_sensitivity_dbm``).

    Inverts the log-distance formula; with no positive link budget the range
    collapses to the reference distance, and past the float range it is
    infinite (heard at any distance).
    """
    _check_sf(sf)
    threshold_dbm = cfg.device_sensitivity_dbm[sf - SF_MIN]
    budget_db = tx_power_dbm - cfg.reference_loss_db - threshold_dbm
    if budget_db <= 0:
        return cfg.reference_distance_m
    try:
        return cfg.reference_distance_m * 10.0 ** (budget_db / (10.0 * cfg.path_loss_exponent))
    except OverflowError:
        return math.inf
