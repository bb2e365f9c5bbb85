"""The benchmark's workloads: inputs generated from a seed, and the argv a
user would type to run them.

Each workload writes its inputs into a working directory and returns the
``lorapcsma`` argv (relative to that directory) plus the names of the output
files the run leaves there.  ``small=True`` shrinks every workload to a size
that finishes in about a second, for the harness self-test.
"""

from __future__ import annotations

from pathlib import Path

# The seed whose outputs are compared against the digests in golden.json.
DEFAULT_SEED = 1

# configs/example_run.cfg, verbatim.
PAPER_BASE = """\
# 60 devices, three mutually hidden areas, SF8 only, p = 0.25
n_devices = 60
mac = pcsma
sf_set = {8}
period_set_s = {100, 200, 300, 400, 500}
p = 0.25
n_areas = 3
sim_time_s = 3600
seed = 1
"""

# configs/prr_sweep_grid.cfg with two seeds per repetition, taken from the
# benchmark seed.  All ten seeds take ~15 s, too long a repetition to
# take the fastest of several within one run on a noisy host.
PAPER_GRID = """\
# Default PRR sweep dimensions: device counts x persistence x SF mix x hidden areas
device_counts = {20, 40, 60, 80}
p_values = {0.25, 0.5, 0.75, 1.0}
sf_sets = {8, 8+9+10}
n_areas_values = {1, 2, 3}
seeds = {%d..%d}
"""

SMALL_GRID = """\
device_counts = {20}
p_values = {0.5}
sf_sets = {8, 8+9+10}
n_areas_values = {1, 3}
seeds = {%d..%d}
"""


def _scenario(n_devices: int, p: float, n_areas: int, period_set: str, sim_time_s: int, seed: int) -> str:
    return (
        f"n_devices = {n_devices}\nmac = pcsma\nsf_set = {{8}}\n"
        f"period_set_s = {{{period_set}}}\np = {p}\nn_areas = {n_areas}\n"
        f"sim_time_s = {sim_time_s}\nseed = {seed}\n"
    )


def sweep_paper(seed: int, small: bool, workdir: Path) -> tuple[list[str], list[str]]:
    (workdir / "example_run.cfg").write_text(PAPER_BASE)
    grid = SMALL_GRID if small else PAPER_GRID
    (workdir / "prr_sweep_grid.cfg").write_text(grid % (seed, seed + 1))
    argv = ["sweep", "--config", "example_run.cfg", "--grid", "prr_sweep_grid.cfg", "--out", "sweep.csv"]
    return argv, ["sweep.csv"]


def dense_pcsma(seed: int, small: bool, workdir: Path) -> tuple[list[str], list[str]]:
    # One dense run's cost swings by half from seed to seed (how fast the
    # cell desynchronises after start-up decides the back-off polls), so a
    # repetition sweeps eight seeds of a 225 s run, which averages the swing
    # down to about 3% at about twice the events of one 3600 s run.
    n, sim_time_s, n_seeds = (50, 60, 2) if small else (500, 225, 8)
    (workdir / "dense_pcsma.cfg").write_text(_scenario(n, 0.1, 1, "60", sim_time_s, seed))
    first = n_seeds * seed
    (workdir / "dense_seeds.cfg").write_text(f"seeds = {{{first}..{first + n_seeds - 1}}}\n")
    argv = ["sweep", "--config", "dense_pcsma.cfg", "--grid", "dense_seeds.cfg", "--out", "sweep.csv"]
    return argv, ["sweep.csv"]


def aloha_g05(seed: int, small: bool, workdir: Path) -> tuple[list[str], list[str]]:
    argv = ["validate-aloha", "--g", "0.5", "--seed", str(seed), "--out", "aloha.csv"]
    if small:
        argv += ["--packet-times", "2000"]
    return argv, ["aloha.csv"]


def large_3k(seed: int, small: bool, workdir: Path) -> tuple[list[str], list[str]]:
    n, sim_time_s = (300, 60) if small else (3000, 600)
    (workdir / "large_3k.cfg").write_text(_scenario(n, 0.25, 3, "100, 200, 300, 400, 500", sim_time_s, seed))
    argv = ["run", "--config", "large_3k.cfg", "--out", "run.csv", "--trace", "trace.tsv"]
    return argv, ["run.csv", "trace.tsv"]


# name -> make(seed, small, workdir) -> (argv, output file names)
WORKLOADS = {
    "sweep_paper": sweep_paper,
    "dense_pcsma": dense_pcsma,
    "aloha_g05": aloha_g05,
    "large_3k": large_3k,
}
