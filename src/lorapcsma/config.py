"""Scenario and sweep-grid configuration: a flat key=value document.

Lists use brace syntax ``{a,b,c}``; integer lists additionally accept range
sugar ``a..b``.  Unknown keys are errors so that typos cannot silently fall
back to defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from . import phy
from .kernel import EXPONENTIAL_MAX, US_PER_S, lasts_1us


class ConfigError(ValueError):
    """Invalid or malformed configuration or device file; the message names
    the key or the file line."""


# The largest magnitude of a coordinate, which keeps every squared distance
# of a run finite, and of a power level in dBm or dB, which keeps the
# effective and received powers finite.
MAX_COORD_M = 1e150
MAX_LEVEL_DB = 1e300

# The allowed values of every enumerated key, for the parser and validate().
_CHOICES = {
    "mac": ("pcsma", "aloha"),
    "traffic": ("periodic", "poisson"),
    "offsets": ("zero", "uniform"),
    "low_data_rate_optimize": ("auto", "on", "off"),
}


# What each scalar in a field annotation admits: a bool is no number here.
_SCALAR_TYPES = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "None": lambda v: v is None,
}


def _admits(annotation: str, value) -> bool:
    """Whether ``value`` matches a field annotation such as ``int``,
    ``float | None`` or ``tuple[tuple[int, ...], ...]``; a tuple type
    admits a tuple only, never a (mutable) list."""
    for option in annotation.split(" | "):
        if option.startswith("tuple["):
            item = option[len("tuple[") : -len(", ...]")]
            if isinstance(value, tuple) and all(_admits(item, v) for v in value):
                return True
        elif _SCALAR_TYPES[option](value):
            return True
    return False


def _check_types(config) -> None:
    """Refuse, naming the key, a field whose value its annotation does not
    admit: say a float or a bool for an int, or a list for a tuple."""
    for f in fields(config):
        value = getattr(config, f.name)
        if not _admits(f.type, value):
            raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """One run's scenario; immutable, and checked whenever built (``replace`` too)."""

    n_devices: int = 0
    sim_time_s: float = 3600.0
    mac: str = "pcsma"
    traffic: str = "periodic"
    period_set_s: tuple[float, ...] = (100.0, 200.0, 300.0, 400.0, 500.0)
    sf_set: tuple[int, ...] = (8,)
    p: float | tuple[float, ...] = 1.0
    n_areas: int = 1
    cluster_radius_m: float = 150.0
    ring_radius_m: float = 4000.0
    tx_power_dbm: float = phy.DEFAULT_TX_POWER_DBM
    bandwidth_hz: float = 125_000.0
    coding_rate: int = 1
    preamble_symbols: int = 8
    explicit_header: bool = True
    crc: bool = True
    low_data_rate_optimize: str = "auto"
    payload_bytes: int = 19
    reference_loss_db: float = 7.7
    reference_distance_m: float = 1.0
    path_loss_exponent: float = 3.76
    shadowing_sigma_db: float = 0.0
    device_sensitivity_dbm: tuple[float, ...] = phy.DEFAULT_DEVICE_SENSITIVITY_DBM
    gateway_sensitivity_dbm: tuple[float, ...] = phy.DEFAULT_GATEWAY_SENSITIVITY_DBM
    gateway_paths: int = 8
    seed: int = 1
    offsets: str = "uniform"
    sensing_interval_s: float | None = None  # None: half the per-SF airtime
    offered_load: float = 1.0  # Poisson G, packets per packet-time
    duty_cycle_enforce: bool = False
    device_file: str | None = None

    def __post_init__(self) -> None:
        self.validate()

    def packet_time_s(self) -> float:
        """One airtime at the ``sf_set``'s first SF: the time unit of Poisson
        traffic, whose ``sf_set`` holds that one SF."""
        return phy.time_on_air(self.sf_set[0], self)

    def poisson_mean_gap_s(self) -> float:
        """Mean gap between aggregate Poisson arrivals: one packet-time
        divided by ``offered_load``."""
        gap_s = self.packet_time_s() / self.offered_load
        # A gap that rounds to 0 us would schedule every arrival at one tick,
        # and a drawn gap (at most EXPONENTIAL_MAX means) must convert to us.
        if not (lasts_1us(gap_s) and math.isfinite(gap_s * EXPONENTIAL_MAX * US_PER_S)):
            raise ConfigError(
                f"offered_load {self.offered_load:g} makes the mean Poisson gap "
                f"{gap_s:.3g} s at SF{self.sf_set[0]}: it must be at least 1 us, and "
                f"{EXPONENTIAL_MAX:.4g} times it finite in microseconds"
            )
        return gap_s

    def validate(self) -> None:
        _check_types(self)
        for f in fields(self):
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        for key, allowed in _CHOICES.items():
            if getattr(self, key) not in allowed:
                raise ConfigError(f"{key} must be one of {allowed}, got {getattr(self, key)!r}")
        if self.n_devices < 1:
            raise ConfigError("n_devices is required and must be >= 1")
        if not 0 < self.sim_time_s * US_PER_S < math.inf:
            raise ConfigError("sim_time_s must be positive and finite in microseconds")
        if not self.period_set_s or not all(lasts_1us(t) for t in self.period_set_s):
            raise ConfigError("period_set_s must be non-empty with periods of at least 1 us")
        if not self.sf_set:
            raise ConfigError("sf_set must be non-empty")
        if len(set(self.sf_set)) != len(self.sf_set):
            raise ConfigError("sf_set must not contain duplicates")
        for sf in self.sf_set:
            if not phy.SF_MIN <= sf <= phy.SF_MAX:
                raise ConfigError(f"sf_set entries must be in {phy.SF_MIN}..{phy.SF_MAX}, got {sf}")
        p_values = self.p if isinstance(self.p, tuple) else (self.p,)
        if isinstance(self.p, tuple) and len(self.p) != self.n_devices:
            raise ConfigError(
                f"per-device p needs exactly n_devices={self.n_devices} values, got {len(self.p)}"
            )
        for p in p_values:
            if not 0.0 < p <= 1.0:
                raise ConfigError(f"p must be in (0, 1], got {p}")
        if self.n_areas < 1:
            raise ConfigError("n_areas must be >= 1")
        if self.gateway_paths < 1:
            raise ConfigError("gateway_paths must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # Every device takes tx_power_dbm and a fade drawn with sigma, and a
        # received power is it less the path loss: all keep the device level
        # bound, sigma with room for a 100-sigma fade.
        if not 0 <= self.shadowing_sigma_db <= MAX_LEVEL_DB / 100:
            raise ConfigError(f"shadowing_sigma_db must be in [0, {MAX_LEVEL_DB / 100:g}]")
        for key in ("tx_power_dbm", "reference_loss_db"):
            value = getattr(self, key)
            if not abs(value) <= MAX_LEVEL_DB:
                raise ConfigError(
                    f"{key} must be at most {MAX_LEVEL_DB:g} in magnitude, got {value:g}"
                )
        for key, ok, rule in (
            ("bandwidth_hz", self.bandwidth_hz > 0, "be positive"),
            ("coding_rate", 1 <= self.coding_rate <= 4, "be in 1..4 (4/5..4/8)"),
            ("payload_bytes", self.payload_bytes >= 1, "be >= 1"),
            ("preamble_symbols", self.preamble_symbols >= 1, "be >= 1"),
            ("path_loss_exponent", self.path_loss_exponent > 0, "be positive"),
            ("reference_distance_m", self.reference_distance_m > 0, "be positive"),
        ):
            if not ok:
                raise ConfigError(f"{key} must {rule}, got {getattr(self, key)!r}")
        # A higher SF demodulates weaker signals, and the gateway hears at
        # least what a device hears.
        device, gateway = self.device_sensitivity_dbm, self.gateway_sensitivity_dbm
        for key, row in (("device_sensitivity_dbm", device), ("gateway_sensitivity_dbm", gateway)):
            if len(row) != phy.SF_MAX - phy.SF_MIN + 1:
                raise ConfigError(f"{key} needs 6 values (SF7..SF12), got {len(row)}")
            if any(a <= b for a, b in zip(row, row[1:])):
                raise ConfigError(f"{key} must strictly decrease with SF, got {row}")
        if any(g > d for g, d in zip(gateway, device)):
            raise ConfigError(
                "gateway_sensitivity_dbm must be at most device_sensitivity_dbm at every SF "
                "(the gateway at least as sensitive)"
            )
        # Airtime does not decrease with SF, so SF12's airtime and SF7's
        # sensing interval bound those of any device, whatever its SF.
        if not math.isfinite(phy.time_on_air(phy.SF_MAX, self) * US_PER_S):
            raise ConfigError(
                f"bandwidth_hz {self.bandwidth_hz:g} makes the SF{phy.SF_MAX} airtime not finite "
                "in microseconds"
            )
        interval_s = phy.sensing_interval_s(phy.SF_MIN, self)
        if not lasts_1us(interval_s):
            raise ConfigError(
                f"sensing_interval_s gives {interval_s:.3g} s at SF{phy.SF_MIN}, below 1 us or not "
                "finite in microseconds (auto is half the airtime)"
            )
        if self.traffic == "poisson":
            if self.offered_load <= 0:
                raise ConfigError("offered_load must be positive for poisson traffic")
            if len(self.sf_set) != 1:
                raise ConfigError("poisson traffic needs a single-SF sf_set (one packet-time)")
            self.poisson_mean_gap_s()
        if self.device_file == "":
            raise ConfigError("device_file must name a file, got ''")
        if self.device_file is not None:
            return  # the file fixes the placement
        # Generated clusters must fit the float range, and be mutually hidden
        # (by the largest end-device detect range across the assigned SFs)
        # yet gateway-covered: the gateway's own test passes for the farthest
        # possible member at the least sensitive assigned SF, so any
        # round-robin SF assignment is covered.
        cluster, ring, tx = self.cluster_radius_m, self.ring_radius_m, self.tx_power_dbm
        max_gw_dist = cluster + (ring if self.n_areas > 1 else 0.0)  # the gateway is at the origin
        if min(cluster, ring) < 0 or max_gw_dist > MAX_COORD_M:
            raise ConfigError(
                "cluster and ring radii must be non-negative and keep every member within "
                f"{MAX_COORD_M:g} m of the gateway"
            )
        if self.n_areas > 1:
            max_device_range = max(phy.detect_range_m(sf, tx, self) for sf in self.sf_set)
            min_separation = 2.0 * ring * math.sin(math.pi / self.n_areas) - 2.0 * cluster
            if min_separation <= max_device_range:
                raise ConfigError(
                    f"minimum inter-cluster member distance {min_separation:.4g} m does not "
                    f"exceed the maximum end-device detect range {max_device_range:.4g} m; "
                    "increase ring_radius_m or decrease cluster_radius_m"
                )
        prx_dbm = phy.received_power_dbm(tx, max_gw_dist, self)
        threshold_dbm, sf = max((gateway[sf - phy.SF_MIN], sf) for sf in self.sf_set)
        if prx_dbm < threshold_dbm:
            raise ConfigError(
                f"cluster members may sit up to {max_gw_dist:.4g} m from the gateway and arrive at "
                f"{prx_dbm:.4g} dBm, below the SF{sf} gateway sensitivity {threshold_dbm:.4g} dBm; "
                "shrink ring_radius_m or cluster_radius_m, or raise tx_power_dbm"
            )


@dataclass(frozen=True)
class SweepGrid:
    """Sweep dimensions, checked when built; a missing one falls back to the base config."""

    device_counts: tuple[int, ...] | None = None
    p_values: tuple[float, ...] | None = None
    sf_sets: tuple[tuple[int, ...], ...] | None = None
    n_areas_values: tuple[int, ...] | None = None
    seeds: tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        _check_types(self)
        # An empty list would fall back to the base config unnoticed, and a
        # repeated value would count one run twice.
        for f in fields(self):
            values = getattr(self, f.name)
            if values == ():
                raise ConfigError(f"{f.name} must be non-empty")
            if values is not None and len(set(values)) != len(values):
                raise ConfigError(f"{f.name} must not contain duplicates, got {values}")
        if any(seed < 0 for seed in self.seeds):
            raise ConfigError(f"seeds must be >= 0, got {self.seeds}")


def _split_list(value: str, key: str, lineno: int) -> list[str]:
    if not (value.startswith("{") and value.endswith("}")):
        raise ConfigError(f"line {lineno}: {key} expects a braced list like {{a,b,c}}")
    inner = value[1:-1].strip()
    if not inner:
        return []
    return [tok.strip() for tok in inner.split(",")]


def _parse_int(tok: str, key: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key}: {tok!r} is not an integer") from None


def _parse_float(tok: str, key: str, lineno: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key}: {tok!r} is not a number") from None


def _parse_bool(tok: str, key: str, lineno: int) -> bool:
    low = tok.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"line {lineno}: {key}: expected true/false, got {tok!r}")


def _parse_int_list(value: str, key: str, lineno: int) -> tuple[int, ...]:
    out: list[int] = []
    for tok in _split_list(value, key, lineno):
        if ".." in tok:
            lo_s, hi_s = tok.split("..", 1)
            lo = _parse_int(lo_s.strip(), key, lineno)
            hi = _parse_int(hi_s.strip(), key, lineno)
            if hi < lo:
                raise ConfigError(f"line {lineno}: {key}: empty range {tok!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(_parse_int(tok, key, lineno))
    return tuple(out)


def _parse_float_list(value: str, key: str, lineno: int) -> tuple[float, ...]:
    return tuple(_parse_float(tok, key, lineno) for tok in _split_list(value, key, lineno))


def _parse_p(value: str, key: str, lineno: int):
    if value.startswith("{"):
        return _parse_float_list(value, key, lineno)
    return _parse_float(value, key, lineno)


def _parse_sensing(value: str, key: str, lineno: int):
    if value.lower() == "auto":
        return None
    return _parse_float(value, key, lineno)


def _parse_choice(value: str, key: str, lineno: int) -> str:
    low = value.lower()
    if low not in _CHOICES[key]:
        raise ConfigError(f"line {lineno}: {key}: expected one of {_CHOICES[key]}, got {value!r}")
    return low


def _parse_sf_sets(value: str, key: str, lineno: int) -> tuple[tuple[int, ...], ...]:
    # Each cell is one SF set; multiple SFs inside a cell join with '+',
    # e.g. sf_sets = {8, 8+9+10}.
    sets = []
    for tok in _split_list(value, key, lineno):
        sets.append(tuple(_parse_int(part.strip(), key, lineno) for part in tok.split("+")))
    return tuple(sets)


# One parser per field annotation, so each key is declared once: as a
# field of RunConfig or SweepGrid.  An annotation without a parser fails
# here, at import.
_ANNOTATION_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "bool": _parse_bool,
    "str": _parse_choice,
    "str | None": lambda value, key, lineno: value,
    "float | None": _parse_sensing,
    "float | tuple[float, ...]": _parse_p,
    "tuple[int, ...]": _parse_int_list,
    "tuple[float, ...]": _parse_float_list,
    "tuple[int, ...] | None": _parse_int_list,
    "tuple[float, ...] | None": _parse_float_list,
    "tuple[tuple[int, ...], ...] | None": _parse_sf_sets,
}
_PARSERS = {
    cls: {f.name: _ANNOTATION_PARSERS[f.type] for f in fields(cls)}
    for cls in (RunConfig, SweepGrid)
}


def _assign(text: str, cls, kind: str):
    """Build ``cls`` from the ``key = value`` lines of ``text``, parsing each
    value by its field's annotation; keys left out keep their defaults.

    ``kind`` names the document's keys in errors ("key" or "grid key").
    """
    parsers = _PARSERS[cls]
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in parsers:
            raise ConfigError(f"line {lineno}: unknown {kind} {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate {kind} {key!r}")
        values[key] = parsers[key](value, key, lineno)
    return cls(**values)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a scenario document; all defaults applied."""
    return _assign(text, RunConfig, "key")


def load_config(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text())


def parse_grid(text: str) -> SweepGrid:
    return _assign(text, SweepGrid, "grid key")


def load_grid(path: str | Path) -> SweepGrid:
    return parse_grid(Path(path).read_text())
