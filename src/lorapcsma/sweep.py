"""Parameter-sweep runner and the pure-ALOHA throughput validation."""

from __future__ import annotations

import math
import os
from contextlib import suppress
from dataclasses import fields, replace
from itertools import product
from typing import BinaryIO

from .config import ConfigError, RunConfig, SweepGrid
from .kernel import RngStream
from .metrics import Counters, cell_row, result_row
from .simulation import STREAM_PERSISTENCE, run_scenario


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


# The fields a run depends on besides a scalar p, in RunConfig order.
_NOT_P = tuple(f.name for f in fields(RunConfig) if f.name != "p")


def _group_key(point: RunConfig) -> tuple | None:
    """What ``point``'s run depends on besides its p, or None if p is per
    device."""
    if isinstance(point.p, tuple):
        return None
    return tuple(getattr(point, name) for name in _NOT_P)


def _alike_p(point: RunConfig, draws: int) -> tuple[float, float]:
    """The interval (lo, hi] of p under which each of the first ``draws``
    values of ``point``'s persistence stream decides ``u < p`` as it does
    under ``point.p``: the p whose run is ``point``'s run."""
    rng = RngStream(point.seed, STREAM_PERSISTENCE)
    lo, hi = 0.0, 1.0  # every p lies in (0, 1]
    for _ in range(draws):
        u = rng.uniform()
        if u < point.p:
            lo = max(lo, u)
        else:
            hi = min(hi, u)
    return lo, hi


def _run_group(points: list[RunConfig]) -> list[Counters]:
    """The counters of ``points``, which differ at most in a scalar p.

    p enters a run only at the persistence gate (``mac.shall_it_pass``),
    and every value drawn there comes from the run's one persistence
    stream.  So a point whose p decides every value a run drew as that
    run's p did is that run, value for value: it takes the run's counters
    instead of simulating.
    """
    runs: list[tuple[float, float, Counters]] = []  # (lo, hi, counters) per run
    out = []
    for k, point in enumerate(points):
        counters = next((c for lo, hi, c in runs if lo < point.p <= hi), None)
        if counters is None:
            result = run_scenario(point, keep_records=False)
            counters = result.counters
            if k + 1 < len(points):  # else no point is left to reuse it
                runs.append((*_alike_p(point, result.audit.persistence_draws), counters))
        out.append(counters)
    return out


def _run_share(points: list[RunConfig], share: list[list[int]]) -> list[Counters]:
    """The counters of each group in ``share`` (indices into ``points``),
    group after group."""
    return [c for members in share for c in _run_group([points[i] for i in members])]


def _fork_worker(points: list[RunConfig], share: list[list[int]]) -> tuple[int, BinaryIO]:
    """Fork a child that runs ``share`` and pickles into a pipe either
    ``(True, counters)`` or ``(False, exception)``; return its pid and the
    pipe's read end.  The child never returns into the caller's code."""
    import pickle

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
                reply = pickle.dumps((True, _run_share(points, share)))
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

    Points that differ only in a scalar p form a group, which one worker
    runs (see ``_run_group``).  The groups are dealt over the CPUs in the
    affinity mask, at most one worker per group, in serpentine order (two
    workers take groups 0, 1, 1, 0, 0, 1, ...), so neither gets every
    other group of a grid whose last dimension is the seed.  Worker 0 runs
    in this process and the others in forked children, and the counters
    come back in point order, so the result does not depend on the number
    of workers.  If anything raises here, every child still running is
    killed and every child is reaped before the error propagates."""
    groups: dict = {}  # key -> indices of the points, in point order
    for i, point in enumerate(points):
        key = _group_key(point)
        groups.setdefault(i if key is None else key, []).append(i)
    n = max(1, min(_cpu_count(), len(groups)))
    shares: list[list[list[int]]] = [[] for _ in range(n)]
    for g, members in enumerate(groups.values()):
        lap, k = divmod(g, n)
        shares[n - 1 - k if lap % 2 else k].append(members)
    counters: list[Counters] = []  # in share order
    workers: list[tuple[int, BinaryIO]] = []  # children not yet reaped
    try:
        for share in shares[1:]:
            workers.append(_fork_worker(points, share))
        counters += _run_share(points, shares[0])
        while workers:
            pid, pipe = workers[0]
            with pipe:
                reply = pipe.read()
            _, status = os.waitpid(pid, 0)
            del workers[0]
            # A finished worker exits 0, so any other exit (say a kill in
            # mid-write, which leaves a partial pickle) is a death.
            code = os.waitstatus_to_exitcode(status)
            if code or not reply:
                raise RuntimeError(f"sweep worker {pid} died without a result (exit code {code})")
            import pickle

            ok, payload = pickle.loads(reply)
            if not ok:
                raise payload
            counters += payload
    finally:
        # A child reaped just before an interrupt is still listed.  Kill a
        # pid only while it is still an unreaped child of this process: once
        # reaped, it may name another process.
        for pid, pipe in workers:
            pipe.close()
            with suppress(ChildProcessError):
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    import signal

                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    order = [i for share in shares for members in share for i in members]
    by_point = dict(zip(order, counters))
    return [by_point[i] for i in range(len(points))]


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
    import statistics

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
            rows.append({**cell_row(name, label, points[0]), "prr_generated": value})
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
    packet_times = cfg.sim_time_s / cfg.packet_time_s()
    return [
        {"g": g, "throughput": c.received / packet_times, "theoretical": g * math.exp(-2.0 * g)}
        for g, c in zip(gs, counters)
    ]
