"""Device placement and the vicinity (non-hidden) matrix."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from . import phy
from .kernel import US_PER_S, RngStream, lasts_1us

if TYPE_CHECKING:
    import numpy

    from .config import RunConfig


class ConfigError(ValueError):
    """Invalid or malformed configuration or device file; the message names
    the key or the file line."""


@dataclass
class DeviceSpec:
    """One stationary end-device; positions are fixed for the whole run.

    A device is known by its index in the run's device list.  It transmits at
    the run's ``cfg.tx_power_dbm`` less its fade ``shadow_db``.  ``offset_s``
    is its first firing in seconds; None follows ``cfg.offsets``.
    """

    x: float
    y: float
    z: float
    sf: int
    period_s: float
    persistence: float
    shadow_db: float = 0.0  # static per-device fade, drawn once at placement
    offset_s: float | None = None


# Device fields that enter the received powers and detect ranges of a run.
FINITE_FIELDS = ("x", "y", "z", "shadow_db")
# The largest magnitude of a coordinate, which keeps every squared distance
# of a run finite, and of a power level in dBm or dB, which keeps the
# effective and received powers finite.
MAX_COORD_M = 1e150
MAX_LEVEL_DB = 1e300


def device_problem(d: DeviceSpec, cfg: RunConfig) -> tuple[str, str] | None:
    """The first device rule of a run under ``cfg`` that ``d`` breaks, as
    (field, what is wrong), or None.  The run gate and ``load_device_file``
    both apply it."""
    for name in FINITE_FIELDS:
        value = getattr(d, name)
        if not math.isfinite(value):
            return name, f"must be finite, got {value}"
        limit = MAX_COORD_M if name in ("x", "y", "z") else MAX_LEVEL_DB
        if abs(value) > limit:
            return name, f"must be at most {limit:g} in magnitude, got {value:g}"
    if not phy.SF_MIN <= d.sf <= phy.SF_MAX:
        return "sf", f"must be in {phy.SF_MIN}..{phy.SF_MAX}, got {d.sf}"
    if cfg.traffic == "poisson" and d.sf != cfg.sf_set[0]:
        # Poisson arrivals are timed in packet-times at the sf_set's SF.
        return "sf", f"must be the sf_set's SF{cfg.sf_set[0]} under poisson traffic, got {d.sf}"
    if not 0.0 < d.persistence <= 1.0:
        return "persistence", f"must be in (0, 1], got {d.persistence}"
    if not lasts_1us(d.period_s):
        return "period", f"must be finite and >= 1 us, got {d.period_s}"
    if d.offset_s is not None and not 0.0 <= d.offset_s * US_PER_S < math.inf:
        return "offset", f"must be finite and >= 0, got {d.offset_s}"
    return None


def cluster_sizes(n_devices: int, n_areas: int) -> list[int]:
    """Even split; remainder devices go to the lowest-indexed clusters."""
    base, extra = divmod(n_devices, n_areas)
    return [base + (1 if k < extra else 0) for k in range(n_areas)]


def validate_geometry(cfg: RunConfig) -> None:
    """Check that generated clusters fit the float range, and are mutually
    hidden yet gateway-covered.

    Mutual hiding uses the largest end-device detect range across the
    assigned SFs.  Coverage applies the gateway's own test to the farthest
    possible member at the least sensitive assigned SF, so any round-robin
    SF assignment is covered.
    """
    # The farthest a member may sit from the gateway, at the origin.
    max_gw_dist = cfg.cluster_radius_m + (cfg.ring_radius_m if cfg.n_areas > 1 else 0.0)
    if min(cfg.cluster_radius_m, cfg.ring_radius_m) < 0 or max_gw_dist > MAX_COORD_M:
        raise ConfigError(
            "cluster and ring radii must be non-negative and keep every member within "
            f"{MAX_COORD_M:g} m of the gateway"
        )
    max_device_range = max(phy.detect_range_m(sf, cfg.tx_power_dbm, cfg) for sf in cfg.sf_set)
    if cfg.n_areas > 1:
        min_separation = (
            2.0 * cfg.ring_radius_m * math.sin(math.pi / cfg.n_areas) - 2.0 * cfg.cluster_radius_m
        )
        if min_separation <= max_device_range:
            raise ConfigError(
                f"minimum inter-cluster member distance {min_separation:.4g} m does not "
                f"exceed the maximum end-device detect range {max_device_range:.4g} m; "
                "increase ring_radius_m or decrease cluster_radius_m"
            )
    prx_dbm = phy.received_power_dbm(cfg.tx_power_dbm, max_gw_dist, cfg)
    gateway = cfg.gateway_sensitivity_dbm
    threshold_dbm, sf = max((gateway[sf - phy.SF_MIN], sf) for sf in cfg.sf_set)
    if prx_dbm < threshold_dbm:
        raise ConfigError(
            f"cluster members may sit up to {max_gw_dist:.4g} m from the gateway and arrive at "
            f"{prx_dbm:.4g} dBm, below the SF{sf} gateway sensitivity {threshold_dbm:.4g} dBm; "
            "shrink ring_radius_m or cluster_radius_m, or raise tx_power_dbm"
        )


def place_clusters(cfg: RunConfig, rng: RngStream) -> list[DeviceSpec]:
    """``cfg.n_devices`` devices, uniform in each of ``cfg.n_areas`` discs of
    ``cfg.cluster_radius_m``: their centres sit at equal angles on a ring of
    ``cfg.ring_radius_m`` around the gateway, or on it for a single area.

    SFs and periods are dealt round-robin by device index from ``cfg.sf_set``
    and ``cfg.period_set_s``, which spreads them equally across the devices
    and, as each area takes a block of indices, within each area.
    Persistence is ``cfg.p``, per device when it is a tuple.
    """
    n_areas, sfs, periods = cfg.n_areas, cfg.sf_set, cfg.period_set_s
    p = cfg.p if isinstance(cfg.p, tuple) else (cfg.p,) * cfg.n_devices
    devices = []
    for k, size in enumerate(cluster_sizes(cfg.n_devices, n_areas)):
        cx, cy = 0.0, 0.0
        if n_areas > 1:
            cx = cfg.ring_radius_m * math.cos(2.0 * math.pi * k / n_areas)
            cy = cfg.ring_radius_m * math.sin(2.0 * math.pi * k / n_areas)
        for _ in range(size):
            r = cfg.cluster_radius_m * math.sqrt(rng.uniform())
            theta = 2.0 * math.pi * rng.uniform()
            i = len(devices)
            x, y = cx + r * math.cos(theta), cy + r * math.sin(theta)
            sf, period = sfs[i % len(sfs)], periods[i % len(periods)]
            devices.append(DeviceSpec(x, y, 0.0, sf, period, float(p[i])))
    return devices


def build_vicinity(devices: list[DeviceSpec], cfg: RunConfig) -> numpy.ndarray:
    """Boolean matrix: entry (i, j) true iff device i can detect device j.

    Detection of j's transmissions uses j's SF with the end-device
    sensitivity row (``cfg.device_sensitivity_dbm``) and ``cfg``'s path loss,
    so mixed-SF topologies may be asymmetric.  The diagonal is false: a
    device is not in its own vicinity set.

    Runs do not build it: ``PcsmaMac.sense`` evaluates the same test for the
    devices on air, with the same distance ``sqrt((dx**2 + dy**2) + dz**2)``.
    This is the reference "who hears whom", for tests and analysis, and
    needs numpy.
    """
    import numpy as np

    x, y, z = np.array([[d.x, d.y, d.z] for d in devices]).T
    tx = cfg.tx_power_dbm
    ranges = np.array([phy.detect_range_m(d.sf, tx - d.shadow_db, cfg) for d in devices])
    # One N x N distance buffer and one scratch, summed in sense()'s order above.
    dist = np.subtract.outer(x, x)
    dist *= dist
    scratch = np.empty_like(dist)
    for c in (y, z):
        np.subtract.outer(c, c, out=scratch)
        dist += np.multiply(scratch, scratch, out=scratch)
    del scratch  # freed before the boolean result is allocated
    matrix = np.sqrt(dist, out=dist) <= ranges
    np.fill_diagonal(matrix, False)
    return matrix


def load_device_file(path: str | Path, cfg: RunConfig) -> list[DeviceSpec]:
    """Explicit device list: one device per line ``id x y z sf period_s p``.

    Fields may be separated by whitespace or commas; ``#`` starts a comment.
    Ids must be the consecutive indices 0..N-1 (any input order).  Devices send
    at ``cfg.tx_power_dbm``, and each row meets ``device_problem`` under
    ``cfg``.
    """
    rows = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 7:
            raise ConfigError(f"{path}:{lineno}: expected 7 fields (id x y z sf period_s p)")
        try:
            dev_id = int(parts[0])
            x, y, z = (float(v) for v in parts[1:4])
            sf = int(parts[4])
            period_s = float(parts[5])
            p = float(parts[6])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        if dev_id in rows:
            raise ConfigError(f"{path}:{lineno}: duplicate device id {dev_id}")
        rows[dev_id] = DeviceSpec(x, y, z, sf, period_s, p)
        problem = device_problem(rows[dev_id], cfg)
        if problem is not None:
            raise ConfigError(f"{path}:{lineno}: {' '.join(problem)}")
    if sorted(rows) != list(range(len(rows))):
        raise ConfigError(f"{path}: device ids must be consecutive from 0")
    return [rows[i] for i in range(len(rows))]
