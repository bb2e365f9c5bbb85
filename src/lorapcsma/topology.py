"""Device placement and the vicinity (non-hidden) matrix."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from . import phy
from .config import MAX_COORD_M, MAX_LEVEL_DB, ConfigError, RunConfig
from .kernel import US_PER_S, RngStream, lasts_1us

if TYPE_CHECKING:
    import numpy


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
    Ids must be the consecutive indices 0..N-1 (any input order), with N
    ``cfg.n_devices``.  Devices send at ``cfg.tx_power_dbm``, and each row
    meets ``device_problem`` under ``cfg``.
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
    if cfg.n_devices != len(rows):
        raise ConfigError(f"n_devices={cfg.n_devices} but {str(path)!r} defines {len(rows)} devices")
    return [rows[i] for i in range(len(rows))]
