"""Parameter-sweep runner and the pure-ALOHA throughput validation."""

from __future__ import annotations

import math
import os
import pickle
import signal
import statistics
from contextlib import suppress
from dataclasses import replace
from itertools import product
from typing import BinaryIO

from . import phy
from .config import ConfigError, RunConfig, SweepGrid
from .metrics import Counters, compute_prr
from .simulation import run_scenario


def _fmt_set(values) -> str:
    return "{" + ",".join(f"{v:g}" for v in values) + "}"


def _fmt_p(p) -> str:
    if isinstance(p, tuple):
        return "{" + "|".join(f"{v:.6f}" for v in p) + "}"
    return f"{p:.6f}"


def _cell_row(scenario: str, seed, cfg: RunConfig) -> dict:
    """The columns that name a run or a summary row: scenario, seed, cell."""
    return {
        "scenario": scenario,
        "seed": seed,
        "mac": cfg.mac,
        "n_devices": cfg.n_devices,
        "sf_set": _fmt_set(cfg.sf_set),
        "p": _fmt_p(cfg.p),
        "n_areas": cfg.n_areas,
        "period_set": _fmt_set(cfg.period_set_s),
    }


def result_row(scenario: str, seed, cfg: RunConfig, counters: Counters) -> dict:
    prr_generated, prr_sent = compute_prr(counters)
    return {
        **_cell_row(scenario, seed, cfg),
        "generated": counters.generated,
        "sent": counters.sent,
        "suppressed": counters.suppressed,
        "received": counters.received,
        "collided": counters.collided,
        "under_sensitivity": counters.under_sensitivity,
        "no_path": counters.no_path,
        "prr_generated": prr_generated,
        "prr_sent": prr_sent,
    }


def scenario_name(n_devices: int, sf_set, p, n_areas: int) -> str:
    sfs = "-".join(str(sf) for sf in sf_set)
    p_label = f"{p:g}" if isinstance(p, (int, float)) else "custom"
    return f"n{n_devices}_sf{sfs}_p{p_label}_a{n_areas}"


def _cpu_count() -> int:
    """CPUs this process may run on: the size of its affinity mask, or 1
    on a platform without one (macOS, Windows), which then runs serially."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _run_share(points: list[RunConfig]) -> list[Counters]:
    return [run_scenario(point, keep_records=False).counters for point in points]


def _fork_worker(points: list[RunConfig]) -> tuple[int, BinaryIO]:
    """Fork a child that runs ``points`` and pickles into a pipe either
    ``(True, counters)`` or ``(False, exception)``; return its pid and the
    pipe's read end.  The child never returns into the caller's code."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                reply = pickle.dumps((True, _run_share(points)))
            except BaseException as exc:  # re-raised by the parent
                try:
                    reply = pickle.dumps((False, exc))
                except Exception:
                    reply = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(reply)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _run_all(points: list[RunConfig]) -> list[Counters]:
    """Run each point without its transmission log.

    The runs are split over the CPUs in the affinity mask, at most one
    worker per point: worker k runs ``points[k::n]``, worker 0 in this
    process and the others in forked children, and the counters come back
    in point order, so the result does not depend on the number of workers.
    If anything raises here, every child still running is killed and every
    child is reaped before the error propagates."""
    n = max(1, min(_cpu_count(), len(points)))
    workers: list[tuple[int, BinaryIO]] = []  # children not yet reaped
    try:
        for k in range(1, n):
            workers.append(_fork_worker(points[k::n]))
        shares = [_run_share(points[::n])]
        while workers:
            pid, pipe = workers[0]
            with pipe:
                reply = pipe.read()
            _, status = os.waitpid(pid, 0)
            del workers[0]
            if not reply:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"sweep worker {pid} died without a result (exit code {code})")
            ok, payload = pickle.loads(reply)
            if not ok:
                raise payload
            shares.append(payload)
    finally:
        # A child reaped just before an interrupt is still listed.  Kill a
        # pid only while it is still an unreaped child of this process: once
        # reaped, it may name another process.
        for pid, pipe in workers:
            pipe.close()
            with suppress(ChildProcessError):
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    return [shares[i % n][i // n] for i in range(len(points))]


def run_sweep(base_cfg: RunConfig, grid: SweepGrid) -> list[dict]:
    """Cartesian product of grid cells x seeds, one independent run each.

    Every run's config and cell name is built, and so checked, before the
    first run.  Appends a mean and a population-stddev summary row of
    prr_generated per cell (seed column ``mean``/``stddev``).
    """
    if base_cfg.device_file is not None and grid != SweepGrid(seeds=grid.seeds):
        raise ConfigError(
            f"device_file {base_cfg.device_file!r} fixes the devices: a sweep may vary only seeds"
        )
    device_counts = grid.device_counts or (base_cfg.n_devices,)
    p_values = grid.p_values or (base_cfg.p,)
    sf_sets = grid.sf_sets or (base_cfg.sf_set,)
    n_areas_values = grid.n_areas_values or (base_cfg.n_areas,)
    cells: dict[str, list[RunConfig]] = {}  # name -> one point per seed
    for n_devices, sf_set, p, n_areas in product(device_counts, sf_sets, p_values, n_areas_values):
        name = scenario_name(n_devices, sf_set, p, n_areas)
        # Only p is rounded in a name; two cells of one name give rows that
        # cannot be told apart.
        if name in cells:
            raise ConfigError(f"p_values {p_values} give two cells the name {name!r}")
        cells[name] = [
            replace(base_cfg, n_devices=n_devices, sf_set=sf_set, p=p, n_areas=n_areas, seed=seed)
            for seed in grid.seeds
        ]
    counters = iter(_run_all([point for points in cells.values() for point in points]))
    rows: list[dict] = []
    for name, points in cells.items():
        prrs = []
        for point in points:
            row = result_row(name, point.seed, point, next(counters))
            rows.append(row)
            if row["prr_generated"] is not None:
                prrs.append(row["prr_generated"])
        for label, value in (
            ("mean", statistics.mean(prrs) if prrs else None),
            ("stddev", statistics.pstdev(prrs) if prrs else None),
        ):
            rows.append({**_cell_row(name, label, points[0]), "prr_generated": value})
    return rows


def aloha_validation(g_values, cfg: RunConfig) -> list[dict]:
    """Throughput S (received per packet-time) per offered load G.

    Each point reruns the scenario at aggregate Poisson load G and reports
    S next to the pure-ALOHA reference G*exp(-2G).
    """
    if cfg.mac != "aloha":
        raise ConfigError("aloha_validation requires mac = aloha")
    if cfg.traffic != "poisson":
        raise ConfigError("aloha_validation requires traffic = poisson")
    gs = [float(g) for g in g_values]
    counters = _run_all([replace(cfg, offered_load=g, seed=cfg.seed + i) for i, g in enumerate(gs)])
    packet_times = cfg.sim_time_s / phy.time_on_air(cfg.sf_set[0], cfg.radio_params())
    return [
        {"g": g, "throughput": c.received / packet_times, "theoretical": g * math.exp(-2.0 * g)}
        for g, c in zip(gs, counters)
    ]


def aloha_csv_text(rows: list[dict]) -> str:
    lines = ["g,throughput,theoretical"]
    for row in rows:
        lines.append(
            f"{row['g']:.6f},{row['throughput']:.6f},{row['theoretical']:.6f}"
        )
    return "\n".join(lines) + "\n"
