"""Run counters and every output format: result rows and their CSV, the
transmission trace, and the ALOHA validation CSV."""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, TextIO

if TYPE_CHECKING:
    from .config import RunConfig


@dataclass
class Counters:
    """Per-run packet tallies.

    ``sent`` counts transmissions whose air time completed within the run,
    so the outcome identity is exact even when the clock cuts a packet off
    mid-air; such packets count toward ``pending_at_end`` instead.
    """

    generated: int = 0
    sent: int = 0
    suppressed: int = 0
    received: int = 0
    collided: int = 0
    under_sensitivity: int = 0
    no_path: int = 0
    pending_at_end: int = 0

    def check(self) -> None:
        if self.sent != self.received + self.collided + self.under_sensitivity + self.no_path:
            raise RuntimeError(f"counter identity violated: sent != sum of outcomes in {self}")
        if self.generated != self.sent + self.suppressed + self.pending_at_end:
            raise RuntimeError(f"counter identity violated: generated mismatch in {self}")


# A result row: the cell a run belongs to, its counts (every counter but
# ``pending_at_end``) and its two PRRs.
CELL_COLUMNS = ("scenario", "seed", "mac", "n_devices", "sf_set", "p", "n_areas", "period_set")
COUNTED = tuple(f.name for f in fields(Counters) if f.name != "pending_at_end")
PRR_COLUMNS = ("prr_generated", "prr_sent")
RESULT_COLUMNS = [*CELL_COLUMNS, *COUNTED, *PRR_COLUMNS]

TRACE_COLUMNS = ["device", "sf", "air_start_s", "air_end_s", "prx_dbm", "outcome"]


def compute_prr(c: Counters) -> tuple[float | None, float | None]:
    """(received/generated, received/sent); None marks an empty denominator."""
    c.check()
    prr_generated = c.received / c.generated if c.generated else None
    prr_sent = c.received / c.sent if c.sent else None
    return prr_generated, prr_sent


def _fmt_set(values) -> str:
    return "{" + ",".join(f"{v:g}" for v in values) + "}"


def _fmt_p(p) -> str:
    if isinstance(p, tuple):
        return "{" + "|".join(f"{v:.6f}" for v in p) + "}"
    return f"{p:.6f}"


def cell_row(scenario: str, seed, cfg: RunConfig) -> dict:
    """The columns that name a run or a summary row: scenario, seed, cell."""
    values = (
        scenario, seed, cfg.mac, cfg.n_devices, _fmt_set(cfg.sf_set), _fmt_p(cfg.p),
        cfg.n_areas, _fmt_set(cfg.period_set_s),
    )
    return dict(zip(CELL_COLUMNS, values, strict=True))


def result_row(scenario: str, seed, cfg: RunConfig, counters: Counters) -> dict:
    """One run's row: its cell, its counts and its two PRRs."""
    row = cell_row(scenario, seed, cfg)
    row.update((name, getattr(counters, name)) for name in COUNTED)
    row.update(zip(PRR_COLUMNS, compute_prr(counters)))
    return row


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _row_sort_key(row: dict):
    seed = row["seed"]
    if isinstance(seed, int):
        return (str(row["scenario"]), 0, seed, "")
    return (str(row["scenario"]), 1, 0, seed)  # summary rows after the runs


def write_csv(rows: list[dict], out: TextIO) -> None:
    """Result CSV: fixed columns, reals with 6 decimals, rows sorted by
    (scenario, seed) with summary rows after each scenario's runs."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    for row in sorted(rows, key=_row_sort_key):
        writer.writerow([_fmt(row.get(col)) for col in RESULT_COLUMNS])


def write_trace(records, out: TextIO) -> None:
    """Tab-separated transmission log, one record per started transmission.

    Packets still on air when the clock stops carry the outcome ``pending``.
    """
    lines = ["\t".join(TRACE_COLUMNS)]
    for rec in records:
        outcome = rec.outcome.value if rec.outcome is not None else "pending"
        lines.append(
            "\t".join(
                (
                    str(rec.device),
                    str(rec.sf),
                    f"{rec.air_start_us / 1e6:.6f}",
                    f"{rec.air_end_us / 1e6:.6f}",
                    f"{rec.prx_dbm:.6f}",
                    outcome,
                )
            )
        )
    out.write("\n".join(lines) + "\n")


def aloha_csv_text(rows: list[dict]) -> str:
    """The ALOHA validation CSV: offered load, measured and theoretical throughput."""
    lines = ["g,throughput,theoretical"]
    for row in rows:
        lines.append(f"{row['g']:.6f},{row['throughput']:.6f},{row['theoretical']:.6f}")
    return "\n".join(lines) + "\n"
