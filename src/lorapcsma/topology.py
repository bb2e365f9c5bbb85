"""Device placement, attribute assignment, and the vicinity (non-hidden) matrix."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from . import phy
from .kernel import RngStream, us_from_s

if TYPE_CHECKING:
    import numpy


class ConfigError(ValueError):
    """Invalid or malformed configuration or device file; the message names
    the key or the file line."""


class GeometryError(ConfigError):
    """Requested cluster geometry cannot satisfy hiding/coverage bounds."""


@dataclass
class DeviceSpec:
    """One stationary end-device; positions are fixed for the whole run."""

    id: int
    x: float
    y: float
    z: float
    sf: int
    tx_power_dbm: float
    period_s: float
    persistence: float
    shadow_db: float = 0.0  # static per-device fade, drawn once at placement

    @property
    def effective_tx_dbm(self) -> float:
        return self.tx_power_dbm - self.shadow_db


@dataclass(frozen=True)
class ClusterGeometry:
    """Hidden-area layout: cluster centres at equal angles on a ring around
    the gateway at the origin; a single area sits directly on the gateway."""

    n_areas: int = 1
    cluster_radius_m: float = 150.0
    ring_radius_m: float = 4000.0

    def __post_init__(self):
        if self.n_areas < 1:
            raise GeometryError("n_areas must be >= 1")
        if self.cluster_radius_m < 0 or self.ring_radius_m < 0:
            raise GeometryError("cluster and ring radii must be non-negative")

    def centers(self) -> list[tuple[float, float]]:
        if self.n_areas == 1:
            return [(0.0, 0.0)]
        return [
            (
                self.ring_radius_m * math.cos(2.0 * math.pi * k / self.n_areas),
                self.ring_radius_m * math.sin(2.0 * math.pi * k / self.n_areas),
            )
            for k in range(self.n_areas)
        ]


def cluster_sizes(n_devices: int, n_areas: int) -> list[int]:
    """Even split; remainder devices go to the lowest-indexed clusters."""
    base, extra = divmod(n_devices, n_areas)
    return [base + (1 if k < extra else 0) for k in range(n_areas)]


def validate_geometry(
    geom: ClusterGeometry,
    sf_set: tuple[int, ...],
    tx_power_dbm: float,
    loss: phy.LossParams,
    table: phy.SensitivityTable,
) -> None:
    """Check that clusters are mutually hidden yet gateway-covered.

    Mutual hiding uses the largest end-device detect range across the
    assigned SFs.  Coverage applies the gateway's own test to the farthest
    possible member at the least sensitive assigned SF, so any round-robin
    SF assignment is covered.
    """
    max_device_range = max(
        phy.detect_range_m(sf, phy.END_DEVICE, tx_power_dbm, loss, table) for sf in sf_set
    )
    if geom.n_areas == 1:
        max_gw_dist = geom.cluster_radius_m
    else:
        max_gw_dist = geom.ring_radius_m + geom.cluster_radius_m
        min_separation = (
            2.0 * geom.ring_radius_m * math.sin(math.pi / geom.n_areas)
            - 2.0 * geom.cluster_radius_m
        )
        if min_separation <= max_device_range:
            raise GeometryError(
                f"minimum inter-cluster member distance {min_separation:.1f} m does not "
                f"exceed the maximum end-device detect range {max_device_range:.1f} m; "
                "increase ring_radius_m or decrease cluster_radius_m"
            )
    prx_dbm = phy.received_power_dbm(tx_power_dbm, max_gw_dist, loss)
    threshold_dbm, sf = max((table.threshold_dbm(sf, phy.GATEWAY), sf) for sf in sf_set)
    if prx_dbm < threshold_dbm:
        raise GeometryError(
            f"cluster members may sit up to {max_gw_dist:.1f} m from the gateway and arrive at "
            f"{prx_dbm:.1f} dBm, below the SF{sf} gateway sensitivity {threshold_dbm:.1f} dBm; "
            "shrink ring_radius_m or cluster_radius_m, or raise tx_power_dbm"
        )


def place_clusters(
    n_devices: int, geom: ClusterGeometry, rng: RngStream
) -> list[tuple[float, float, float]]:
    """Positions for ``n_devices`` split across the clusters, uniform in each disc."""
    positions = []
    centers = geom.centers()
    for size, (cx, cy) in zip(cluster_sizes(n_devices, geom.n_areas), centers):
        for _ in range(size):
            r = geom.cluster_radius_m * math.sqrt(rng.uniform())
            theta = 2.0 * math.pi * rng.uniform()
            positions.append((cx + r * math.cos(theta), cy + r * math.sin(theta), 0.0))
    return positions


def assign_attributes(
    positions: list[tuple[float, float, float]],
    sf_set: tuple[int, ...],
    period_set_s: tuple[float, ...],
    p_policy: float | list[float],
    tx_power_dbm: float = phy.DEFAULT_TX_POWER_DBM,
) -> list[DeviceSpec]:
    """Round-robin SFs and periods by device index; persistence from policy.

    Round-robin realizes the equal distribution of SFs and periods across
    devices (and, with block cluster assignment, within each area).
    """
    if not sf_set or not period_set_s:
        raise ValueError("sf_set and period_set_s must be non-empty")
    n = len(positions)
    if isinstance(p_policy, (int, float)):
        p_values = [float(p_policy)] * n
    else:
        if len(p_policy) != n:
            raise ValueError(f"per-device p list has {len(p_policy)} entries for {n} devices")
        p_values = [float(p) for p in p_policy]
    return [
        DeviceSpec(
            id=i,
            x=pos[0],
            y=pos[1],
            z=pos[2],
            sf=sf_set[i % len(sf_set)],
            tx_power_dbm=tx_power_dbm,
            period_s=period_set_s[i % len(period_set_s)],
            persistence=p_values[i],
        )
        for i, pos in enumerate(positions)
    ]


# Float cells per row block of the vicinity build (2 MB per temporary).
VICINITY_BLOCK_CELLS = 1 << 18


def build_vicinity(
    devices: list[DeviceSpec],
    loss: phy.LossParams,
    table: phy.SensitivityTable,
) -> numpy.ndarray:
    """Boolean matrix: entry (i, j) true iff device i can detect device j.

    Detection of j's transmissions uses j's SF with the end-device
    sensitivity row, so mixed-SF topologies may be asymmetric.  The diagonal
    is false: a device is not in its own vicinity set.

    Runs do not build it: ``PcsmaMac.sense`` evaluates the same test for the
    devices on air.  This is the reference "who hears whom", for tests and
    analysis, and needs numpy.

    Distances are computed a block of rows at a time, as
    ``sqrt((dx**2 + dy**2) + dz**2)``, so no N x N float matrix is kept.
    """
    import numpy as np

    n = len(devices)
    x, y, z = np.array([[d.x, d.y, d.z] for d in devices]).T
    ranges = np.array(
        [
            phy.detect_range_m(d.sf, phy.END_DEVICE, d.effective_tx_dbm, loss, table)
            for d in devices
        ]
    )
    matrix = np.empty((n, n), dtype=bool)
    rows = max(1, VICINITY_BLOCK_CELLS // n)
    for lo in range(0, n, rows):
        block = slice(lo, lo + rows)
        dist = np.subtract.outer(x[block], x)
        dist *= dist
        sq = np.subtract.outer(y[block], y)
        sq *= sq
        dist += sq
        np.subtract.outer(z[block], z, out=sq)
        sq *= sq
        dist += sq
        np.sqrt(dist, out=dist)
        np.less_equal(dist, ranges, out=matrix[block])
    np.fill_diagonal(matrix, False)
    return matrix


def gateway_rx_dbm(devices: list[DeviceSpec], loss: phy.LossParams) -> list[float]:
    """Received power at the gateway (origin) per device; constant per run."""
    return [
        phy.received_power_dbm(
            d.effective_tx_dbm, math.sqrt(d.x**2 + d.y**2 + d.z**2), loss
        )
        for d in devices
    ]


def load_device_file(
    path: str | Path,
    tx_power_dbm: float = phy.DEFAULT_TX_POWER_DBM,
) -> list[DeviceSpec]:
    """Explicit device list: one device per line ``id x y z sf period_s p``.

    Fields may be separated by whitespace or commas; ``#`` starts a comment.
    Ids must be the consecutive indices 0..N-1 (any input order).
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
        for name, value in zip(("x", "y", "z", "period_s", "p"), (x, y, z, period_s, p)):
            if not math.isfinite(value):
                raise ConfigError(f"{path}:{lineno}: {name} must be finite, got {value}")
        if not phy.SF_MIN <= sf <= phy.SF_MAX:
            raise ConfigError(f"{path}:{lineno}: spreading factor {sf} out of range")
        if not 0.0 < p <= 1.0:
            raise ConfigError(f"{path}:{lineno}: persistence {p} not in (0, 1]")
        if us_from_s(period_s) < 1:
            raise ConfigError(f"{path}:{lineno}: period must be at least 1 us")
        if dev_id in rows:
            raise ConfigError(f"{path}:{lineno}: duplicate device id {dev_id}")
        rows[dev_id] = DeviceSpec(dev_id, x, y, z, sf, tx_power_dbm, period_s, p)
    if sorted(rows) != list(range(len(rows))):
        raise ConfigError(f"{path}: device ids must be consecutive from 0")
    return [rows[i] for i in range(len(rows))]


@dataclass
class Topology:
    """A run's input besides its config.  ``offsets_s``, one first firing per
    device in seconds, overrides ``cfg.offsets`` when given."""

    devices: list[DeviceSpec]
    prx_dbm: list[float]
    offsets_s: list[float] | None = None
