"""LoRa physical-layer arithmetic: airtime, path loss, sensitivities, ranges."""

from __future__ import annotations

import math
from dataclasses import dataclass

SF_MIN = 7
SF_MAX = 12

DEFAULT_TX_POWER_DBM = 14.0  # EU868 ERP limit

# Per-SF sensitivities (SF7..SF12), dBm.  Standard transceiver/gateway
# datasheet values; fully configurable through SensitivityTable.
DEFAULT_DEVICE_SENSITIVITY_DBM = (-124.0, -127.0, -130.0, -133.0, -135.0, -137.0)
DEFAULT_GATEWAY_SENSITIVITY_DBM = (-130.0, -132.5, -135.0, -137.5, -140.0, -142.5)

END_DEVICE = "end_device"
GATEWAY = "gateway"


@dataclass(frozen=True)
class RadioParams:
    """Modulation parameters shared by every device on the single channel."""

    bandwidth_hz: float = 125_000.0
    coding_rate: int = 1  # 1..4 for 4/5..4/8
    preamble_symbols: int = 8
    explicit_header: bool = True
    crc: bool = True
    low_data_rate_optimize: bool | None = None  # None: on iff SF >= 11
    payload_bytes: int = 19

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        if not 1 <= self.coding_rate <= 4:
            raise ValueError("coding_rate must be in 1..4")
        if self.payload_bytes < 1:
            raise ValueError("payload_bytes must be >= 1")
        if self.preamble_symbols < 1:
            raise ValueError("preamble_symbols must be >= 1")

    def low_dr_optimize(self, sf: int) -> bool:
        if self.low_data_rate_optimize is None:
            return sf >= 11
        return self.low_data_rate_optimize


@dataclass(frozen=True)
class LossParams:
    """Log-distance path-loss model parameters."""

    reference_loss_db: float = 7.7
    reference_distance_m: float = 1.0
    exponent: float = 3.76

    def __post_init__(self):
        if self.exponent <= 0:
            raise ValueError("path-loss exponent must be positive")
        if self.reference_distance_m <= 0:
            raise ValueError("reference distance must be positive")


@dataclass(frozen=True)
class SensitivityTable:
    """Receive thresholds in dBm for SF7..SF12, per receiver role.

    Rows must be strictly decreasing with SF (higher SF demodulates weaker
    signals) and the gateway row must be at least as sensitive as the
    end-device row at every SF.
    """

    end_device: tuple[float, ...] = DEFAULT_DEVICE_SENSITIVITY_DBM
    gateway: tuple[float, ...] = DEFAULT_GATEWAY_SENSITIVITY_DBM

    def __post_init__(self):
        for name, row in (("end_device", self.end_device), ("gateway", self.gateway)):
            if len(row) != SF_MAX - SF_MIN + 1:
                raise ValueError(f"{name} sensitivity row needs 6 values (SF7..SF12)")
            if any(a <= b for a, b in zip(row, row[1:])):
                raise ValueError(f"{name} sensitivities must strictly decrease with SF")
        if any(g > d for g, d in zip(self.gateway, self.end_device)):
            raise ValueError("gateway must be at least as sensitive as end devices")

    def threshold_dbm(self, sf: int, role: str) -> float:
        _check_sf(sf)
        row = self.gateway if role == GATEWAY else self.end_device
        return row[sf - SF_MIN]


def _check_sf(sf: int) -> None:
    if not SF_MIN <= sf <= SF_MAX:
        raise ValueError(f"spreading factor must be in {SF_MIN}..{SF_MAX}, got {sf}")


def time_on_air(sf: int, params: RadioParams) -> float:
    """Packet airtime in seconds for the standard LoRa modulation.

    Symbol time 2^SF/BW; preamble spans (n_pre + 4.25) symbols; the payload
    spans 8 + max(ceil((8 PL - 4 SF + 28 + 16 CRC - 20 IH) / (4 (SF - 2 DE)))
    * (CR + 4), 0) symbols, with IH = 0 for an explicit header.
    """
    _check_sf(sf)
    t_sym = (2.0**sf) / params.bandwidth_hz
    t_preamble = (params.preamble_symbols + 4.25) * t_sym
    de = 1 if params.low_dr_optimize(sf) else 0
    ih = 0 if params.explicit_header else 1
    crc = 1 if params.crc else 0
    numerator = 8 * params.payload_bytes - 4 * sf + 28 + 16 * crc - 20 * ih
    n_payload = 8 + max(
        math.ceil(numerator / (4 * (sf - 2 * de))) * (params.coding_rate + 4), 0
    )
    return t_preamble + n_payload * t_sym


def sensing_interval_s(sf: int, params: RadioParams) -> float:
    """Back-off re-sensing cadence: half the packet airtime for this SF."""
    return time_on_air(sf, params) / 2.0


def path_loss_db(distance_m: float, loss: LossParams) -> float:
    """Log-distance path loss; clamped to the reference loss below the
    reference distance."""
    if distance_m <= loss.reference_distance_m:
        return loss.reference_loss_db
    return loss.reference_loss_db + 10.0 * loss.exponent * math.log10(
        distance_m / loss.reference_distance_m
    )


def received_power_dbm(tx_power_dbm: float, distance_m: float, loss: LossParams) -> float:
    return tx_power_dbm - path_loss_db(distance_m, loss)


def detect_range_m(
    sf: int,
    role: str,
    tx_power_dbm: float,
    loss: LossParams,
    table: SensitivityTable,
) -> float:
    """Distance at which the received power equals the role's threshold.

    Inverts the log-distance formula; with no positive link budget the range
    collapses to the reference distance, and past the float range it is
    infinite (heard at any distance).
    """
    budget_db = tx_power_dbm - loss.reference_loss_db - table.threshold_dbm(sf, role)
    if budget_db <= 0:
        return loss.reference_distance_m
    try:
        return loss.reference_distance_m * 10.0 ** (budget_db / (10.0 * loss.exponent))
    except OverflowError:
        return math.inf
