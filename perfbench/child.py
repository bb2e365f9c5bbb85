"""One benchmark repetition: a fresh process that calls ``lorapcsma.cli.main``.

Usage: python3 child.py SPEC_JSON T0

``T0`` is the parent's ``time.perf_counter()`` taken just before it spawned
this process (the clock is system-wide), so ``wall_s`` and ``setup_s`` count
interpreter start and imports.  SPEC_JSON names the source tree, the argv,
the mode and where to write the result:

- ``plain``: two coarse hooks only, one call per run_until / Simulation.run,
  to time set-up and the event loop and to collect each run's audit;
- ``probe``: stop at the first entry into ``Scheduler.run_until`` (set-up only);
- ``trace``: additionally wrap the public callables of every module, at the
  name their caller looks them up by, and write spans and per-name
  aggregates when the run ends.

Nothing under ``src/`` is modified; every hook is installed from here.
"""

import sys
import time

T0 = float(sys.argv[2])

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

SPEC = json.loads(Path(sys.argv[1]).read_text())
sys.path.insert(0, SPEC["src"])

from lorapcsma import cli, config, gateway, kernel, mac, simulation, sweep, topology  # noqa: E402


class SetupReached(BaseException):
    """Raised in probe mode at the first run_until; passes cli's handlers."""


class Tracer:
    """Spans for coarse calls, per-name aggregates for every traced call.

    Per name: [calls, total_s, self_s, outer_s, events, truthy], where
    ``outer_s`` counts only calls whose nearest traced caller is in another
    layer (so a layer's time is the sum of its names' outer_s), ``events``
    counts calls made directly by ``run_until`` (one per kernel event) and
    ``truthy`` counts calls that returned a true value.
    """

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, layer, start, child_s, span_index]
        self.stats: dict[str, list] = {}
        self.spans: list[list] = []  # [name, start, end, parent_span]
        self.schedules = 0
        self.vicinity_true = 0
        self.vicinity_pairs = 0

    def wrap(self, layer, name, fn, *, span=False, truthy=False, on_result=None):
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0, 0, 0])

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_ix = parent[4] if parent else -1
            if span:
                spans.append([name, 0.0, 0.0, span_ix])
                span_ix = len(spans) - 1
            frame = [name, layer, 0.0, 0.0, span_ix]
            stack.append(frame)
            frame[2] = start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[3]
                if parent is None or parent[1] != layer:
                    stat[3] += dur
                if parent is not None:
                    parent[3] += dur
                    if parent[0] == "run_until":
                        stat[4] += 1
                if truthy and result:
                    stat[5] += 1
                if span:
                    spans[span_ix][1:3] = [start - T0, end - T0]
                if on_result is not None and result is not None:
                    on_result(result)

        return traced

    def count_vicinity(self, matrix) -> None:
        n = len(matrix)
        self.vicinity_true += int(matrix.sum())
        self.vicinity_pairs += n * (n - 1)

    def install(self) -> None:
        sched = kernel.Scheduler
        original_schedule = sched.schedule

        def schedule(*args):
            self.schedules += 1
            return original_schedule(*args)

        sched.schedule = schedule
        # (layer, name, owners, attribute, options); owners are every
        # namespace the callers look the attribute up in.
        targets = [
            ("config", "load_config", [cli], "load_config", {"span": True}),
            ("config", "load_grid", [cli], "load_grid", {"span": True}),
            ("config", "RunConfig.validate", [config.RunConfig], "validate", {}),
            ("sweep", "run_scenario", [cli, sweep], "run_scenario", {"span": True}),
            ("topology", "build_topology", [simulation], "build_topology", {"span": True}),
            ("topology", "place_clusters", [topology], "place_clusters", {"span": True}),
            (
                "topology",
                "build_vicinity",
                [topology],
                "build_vicinity",
                {"span": True, "on_result": self.count_vicinity},
            ),
            ("simulation", "Simulation.__init__", [simulation.Simulation], "__init__", {"span": True}),
            ("simulation", "Simulation.run", [simulation.Simulation], "run", {"span": True}),
            ("simulation", "Simulation._arrival", [simulation.Simulation], "_arrival", {}),
            ("kernel", "run_until", [sched], "run_until", {"span": True}),
            ("kernel", "RngStream.__init__", [kernel.RngStream], "__init__", {}),
            ("mac", "generate", [mac.PcsmaMac], "generate", {}),
            ("mac", "sense", [mac.PcsmaMac], "sense", {"truthy": True}),
            ("mac", "retry_claiming", [mac.PcsmaMac], "retry_claiming", {}),
            ("mac", "shall_it_pass", [mac], "shall_it_pass", {"truthy": True}),
            ("gateway", "on_tx_start", [gateway.GatewayPhy], "on_tx_start", {}),
            ("gateway", "on_tx_end", [gateway.GatewayPhy], "on_tx_end", {}),
            # Output writers as the CLI calls them; aloha_csv_text formats the
            # validate-aloha CSV.
            ("metrics", "write_csv", [cli], "write_csv", {"span": True}),
            ("metrics", "write_trace", [cli], "write_trace", {"span": True}),
            ("metrics", "aloha_csv_text", [cli], "aloha_csv_text", {"span": True}),
        ]
        for layer, name, owners, attr, options in targets:
            wrapped = self.wrap(layer, name, getattr(owners[0], attr), **options)
            for owner in owners:
                setattr(owner, attr, wrapped)

    def dump(self) -> dict:
        return {
            "stats": self.stats,
            "schedules": self.schedules,
            "vicinity_true": self.vicinity_true,
            "vicinity_pairs": self.vicinity_pairs,
            "spans": self.spans,
        }


def install_coarse_hooks(state: dict, probe: bool) -> None:
    """Time set-up and the event loop; keep each run's audit (numbers only)."""
    original_run_until = kernel.Scheduler.run_until
    original_run = simulation.Simulation.run

    def run_until(self, until_us):
        start = time.perf_counter()
        if state["setup_s"] is None:
            state["setup_s"] = start - T0
            if probe:
                raise SetupReached
        try:
            return original_run_until(self, until_us)
        finally:
            state["loop_s"] += time.perf_counter() - start

    def run(self):
        result = original_run(self)
        a, c = result.audit, result.counters
        c.check()
        state["runs"].append(
            [a.events_executed, a.book_count, a.free_count, a.channel_clear, c.sent, c.collided, c.no_path]
        )
        return result

    kernel.Scheduler.run_until = run_until
    simulation.Simulation.run = run


def main() -> None:
    mode = SPEC["mode"]
    state = {"setup_s": None, "loop_s": 0.0, "runs": []}
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    install_coarse_hooks(state, probe=mode == "probe")
    if tracer is not None:
        cli.main = tracer.wrap("cli", "cli.main", cli.main, span=True)
    try:
        rc = cli.main(SPEC["argv"])
    except SetupReached:
        rc = 0
    wall_s = time.perf_counter() - T0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        with open(SPEC["trace_out"], "w") as fh:
            json.dump(tracer.dump(), fh)
    result = {
        "rc": rc,
        "wall_s": wall_s,
        "setup_s": state["setup_s"],
        "rss_mb": rss_mb,
        "loop_s": state["loop_s"],
        "runs": state["runs"],
        "module": cli.__file__,
    }
    with open(SPEC["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
