"""Placement, round-robin attributes, and vicinity-matrix behaviour."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import device_areas
from lorapcsma import phy
from lorapcsma.config import ConfigError, RunConfig
from lorapcsma.kernel import RngStream
from lorapcsma.simulation import STREAM_PLACEMENT
from lorapcsma.topology import (
    DeviceSpec,
    build_vicinity,
    cluster_sizes,
    load_device_file,
    place_clusters,
)

CFG = RunConfig(n_devices=1)  # the PHY defaults


def _devices(positions, sfs):
    sfs = sfs if isinstance(sfs, list) else [sfs] * len(positions)
    return [DeviceSpec(x, y, 0.0, sf, 100.0, 1.0) for (x, y), sf in zip(positions, sfs)]


def test_cluster_sizes():
    assert cluster_sizes(6, 3) == [2, 2, 2]
    assert cluster_sizes(7, 2) == [4, 3]
    assert cluster_sizes(5, 1) == [5]
    assert device_areas(7, 2) == [0, 0, 0, 0, 1, 1, 1]


def test_place_clusters_respects_geometry():
    cfg = RunConfig(n_devices=30, n_areas=3, cluster_radius_m=100.0)
    rng = RngStream(11, STREAM_PLACEMENT)
    devices = place_clusters(cfg, rng)
    assert len(devices) == 30
    for k in range(3):
        angle = 2.0 * math.pi * k / 3
        cx, cy = cfg.ring_radius_m * math.cos(angle), cfg.ring_radius_m * math.sin(angle)
        for d in devices[10 * k : 10 * (k + 1)]:
            assert d.z == 0.0
            assert np.hypot(d.x - cx, d.y - cy) <= cfg.cluster_radius_m + 1e-9


def test_mutual_visibility_and_hiding():
    close = _devices([(0.0, 0.0), (1.0, 0.0)], 8)
    matrix = build_vicinity(close, CFG)
    assert matrix[0, 1] and matrix[1, 0]
    assert not matrix[0, 0] and not matrix[1, 1]

    far = _devices([(0.0, 0.0), (5000.0, 0.0)], 8)  # SF8 range ~3509 m
    matrix = build_vicinity(far, CFG)
    assert not matrix[0, 1] and not matrix[1, 0]


def test_mixed_sf_vicinity_can_be_asymmetric():
    # 4000 m apart: the SF10 transmitter (range ~5068 m) is audible to the
    # SF8 device, whose own transmissions (range ~3509 m) do not reach back.
    devices = _devices([(0.0, 0.0), (4000.0, 0.0)], [8, 10])
    matrix = build_vicinity(devices, CFG)
    assert matrix[0, 1]
    assert not matrix[1, 0]


def test_vicinity_is_a_pure_function_of_inputs():
    rng = RngStream(5, STREAM_PLACEMENT)
    cfg = RunConfig(n_devices=12, n_areas=2, sf_set=(8, 9), period_set_s=(100.0, 200.0), p=0.5)
    devices = place_clusters(cfg, rng)
    first = build_vicinity(devices, CFG)
    second = build_vicinity(devices, CFG)
    assert np.array_equal(first, second)


def _full_distance_matrix(xyz):
    # The distance formula over an N x N x 3 temporary: the oracle.
    diff = xyz[:, None, :] - xyz[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def test_vicinity_matches_the_full_distance_matrix(monkeypatch):
    # Each device's detect range is set to its exact oracle distance from
    # another device, so a last-bit difference in a distance flips an entry.
    # Device i has fade i dB, so its power less the fade names its range.
    rng = np.random.default_rng(2024)
    for _ in range(20):
        n = int(rng.integers(1, 401))
        xyz = rng.uniform(-6000.0, 6000.0, size=(n, 3))
        dist = _full_distance_matrix(xyz)
        ranges = dist[rng.integers(0, n, size=n), np.arange(n)]
        devices = [
            DeviceSpec(*map(float, xyz[i]), 8, 100.0, 1.0, float(i)) for i in range(n)
        ]
        monkeypatch.setattr(
            phy, "detect_range_m", lambda sf, tx, cfg: ranges[round(cfg.tx_power_dbm - tx)]
        )
        expected = dist <= ranges[None, :]
        np.fill_diagonal(expected, False)
        assert np.array_equal(build_vicinity(devices, CFG), expected)


def test_vicinity_keeps_one_distance_buffer_and_one_scratch():
    # Each N x N float temporary costs 8 MB at N = 1000; the squared
    # differences and their sums as separate arrays would need five.
    n = 1000
    cfg = RunConfig(n_devices=n, n_areas=3, sf_set=(8, 9, 10))
    devices = place_clusters(cfg, RngStream(1, STREAM_PLACEMENT))
    tracemalloc.start()
    try:
        build_vicinity(devices, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * n * 8


@pytest.mark.parametrize("sf", [6, 13])
def test_vicinity_refuses_a_spreading_factor_without_a_sensitivity(sf):
    # SF6 would otherwise read the row's last entry, SF12's, by a negative index.
    with pytest.raises(ValueError, match="spreading factor must be in 7..12"):
        build_vicinity(_devices([(0.0, 0.0), (1.0, 0.0)], sf), CFG)


def test_single_cluster_uniform_sf_matrix_symmetric():
    rng = RngStream(6, STREAM_PLACEMENT)
    devices = place_clusters(RunConfig(n_devices=15), rng)
    matrix = build_vicinity(devices, CFG)
    assert np.array_equal(matrix, matrix.T)
    assert matrix.sum() == 15 * 14  # 150 m disc: everyone hears everyone


def test_hidden_areas_make_block_diagonal_matrix():
    cfg = RunConfig(n_devices=10, n_areas=2)  # building it checks the geometry
    rng = RngStream(9, STREAM_PLACEMENT)
    devices = place_clusters(cfg, rng)
    matrix = build_vicinity(devices, CFG)
    areas = device_areas(10, 2)
    for i in range(10):
        for j in range(10):
            if areas[i] != areas[j]:
                assert not matrix[i, j]


def test_place_clusters_deals_attributes_round_robin():
    rng = RngStream(1, STREAM_PLACEMENT)
    devices = place_clusters(RunConfig(n_devices=10, p=0.25), rng)  # five default periods
    assert [d.period_s for d in devices] == [100.0, 200.0, 300.0, 400.0, 500.0] * 2
    assert all(d.persistence == 0.25 for d in devices)

    devices = place_clusters(RunConfig(n_devices=9, n_areas=3, sf_set=(8, 9, 10)), rng)
    assert [d.sf for d in devices] == [8, 9, 10] * 3  # and so one of each per area

    # A per-device p is taken by index; validate() owns its length.
    p = (0.1, 0.2, 0.3)
    assert [d.persistence for d in place_clusters(RunConfig(n_devices=3, p=p), rng)] == list(p)


def test_geometry_error_names_the_violated_bound():
    with pytest.raises(ConfigError, match="detect range"):
        RunConfig(n_devices=2, n_areas=2, cluster_radius_m=100.0, ring_radius_m=1000.0)
    with pytest.raises(ConfigError, match="gateway"):
        RunConfig(n_devices=2, n_areas=2, cluster_radius_m=100.0, ring_radius_m=6000.0)


@pytest.mark.parametrize("keywords", [{"cluster_radius_m": 1e100}, {"tx_power_dbm": -1e299}])
def test_geometry_error_stays_short_for_huge_values(keywords):
    with pytest.raises(ConfigError) as info:
        RunConfig(n_devices=1, **keywords)
    message = str(info.value)
    assert len(message) < 200 and "ring_radius_m or cluster_radius_m" in message


@pytest.mark.parametrize(
    "radii",
    [
        {"cluster_radius_m": -1.0},
        {"ring_radius_m": -1.0},
        {"n_areas": 2, "ring_radius_m": -4000.0},
        # With no path loss up to the reference distance, any radius is
        # covered, but placed coordinates would square past the float range.
        {"reference_distance_m": 1e300, "cluster_radius_m": 1e200},
    ],
)
def test_radii_must_be_non_negative_and_keep_members_in_float_range(tmp_path, radii):
    with pytest.raises(ConfigError, match="cluster and ring radii must be non-negative"):
        RunConfig(n_devices=2, **radii)
    # A device file fixes the placement, so the radii are not read.
    path = tmp_path / "devices.txt"
    path.write_text("0 0 0 0 8 100 1.0\n1 10 0 0 8 100 1.0\n")
    RunConfig(n_devices=2, device_file=str(path), **radii)


def test_default_geometry_feasible_for_common_sf_sets():
    RunConfig(n_devices=3, n_areas=3)
    RunConfig(n_devices=3, n_areas=3, sf_set=(8, 9, 10))


def test_device_file_round_trip(tmp_path):
    path = tmp_path / "devices.txt"
    path.write_text(
        "# id x y z sf period p\n"
        "0 0 0 0 8 100 1.0\n"
        "1, 5000, 0, 0, 9, 200, 0.5\n"
    )
    devices = load_device_file(path, RunConfig(n_devices=2))
    assert [d.sf for d in devices] == [8, 9]
    assert devices[1].x == 5000.0 and devices[1].persistence == 0.5


@pytest.mark.parametrize(
    "line,match",
    [
        ("0 0 0 0 8 100", "7 fields"),
        ("0 0 0 0 6 100 1.0", "devices.txt:1: sf must be in 7..12, got 6"),
        ("0 0 0 0 8 100 0.0", "persistence"),
        ("0 0 0 0 8 -5 1.0", "period"),
        ("0 0 0 0 8 1e-7 1.0", "devices.txt:1: period must be finite and >= 1 us"),
        ("5 0 0 0 8 100 1.0", "consecutive"),
        ("0 nan 0 0 8 100 1.0", "devices.txt:1: x must be finite"),
        ("0 0 0 0 8 inf 1.0", "devices.txt:1: period must be finite"),
        ("0 0 0 0 8 nan 1.0", "devices.txt:1: period must be finite"),
        # Finite values that overflow later, as the square of a coordinate or
        # a period in microseconds.
        ("0 1e200 0 0 8 100 1.0", "devices.txt:1: x must be at most 1e\\+150 in magnitude"),
        ("0 0 -1e200 0 8 100 1.0", "devices.txt:1: y must be at most"),
        ("0 0 0 1e200 8 100 1.0", "devices.txt:1: z must be at most"),
        ("0 0 0 0 8 1e303 1.0", "devices.txt:1: period must be finite and >= 1 us"),
        ("0 a 0 0 8 100 1.0", "devices.txt:1: could not convert"),
        ("0 0 0 0 8 100 1.0\n0 1 0 0 8 100 1.0", "devices.txt:2: duplicate device id 0"),
    ],
)
def test_device_file_rejects_bad_rows(tmp_path, line, match):
    path = tmp_path / "devices.txt"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match=match):
        load_device_file(path, RunConfig(n_devices=1))


def test_the_automatic_sensing_interval_is_checked_at_sf7_when_built(tmp_path):
    # Under a 10 GHz bandwidth, half the SF7 airtime rounds to 0 us while
    # SF12's (the config's sf_set) lasts: SF7 is any device's shortest, so
    # the config is refused before any device file is read.
    wide = dict(n_devices=2, sf_set=(12,), bandwidth_hz=1e10)
    with pytest.raises(ConfigError, match="sensing_interval_s gives .* at SF7, below 1 us"):
        RunConfig(**wide)
    # A set interval is checked with the config and holds for every SF.
    path = tmp_path / "devices.txt"
    path.write_text("0 0 0 0 12 100 1.0\n1 0 0 0 7 100 1.0\n")
    cfg = RunConfig(**wide, sensing_interval_s=0.01)
    assert len(load_device_file(path, cfg)) == 2
    assert {phy.sensing_interval_s(sf, cfg) for sf in range(7, 13)} == {0.01}
