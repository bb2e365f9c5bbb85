"""Command-line interface: run, sweep, validate-aloha."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import phy
from .config import ConfigError, RunConfig, load_config, load_grid
from .metrics import PRR_COLUMNS, Counters, aloha_csv_text, result_row, write_csv, write_trace
from .simulation import run_scenario
from .sweep import aloha_validation, run_sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorapcsma",
        description="Discrete-event LoRa network simulator with p-CSMA and ALOHA MACs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a single scenario")
    run_p.add_argument("--config", required=True, help="scenario file (key = value)")
    run_p.add_argument("--seed", type=int, help="override the config seed")
    run_p.add_argument("--out", help="write a one-row result CSV")
    run_p.add_argument("--trace", help="dump the transmission log (TSV)")
    run_p.add_argument("--mode", choices=("pcsma", "aloha"), help="override the MAC mode")

    sweep_p = sub.add_parser("sweep", help="run a parameter grid")
    sweep_p.add_argument("--config", required=True, help="base scenario file")
    sweep_p.add_argument("--grid", required=True, help="grid file (sweep dimensions)")
    sweep_p.add_argument("--out", required=True, help="result CSV destination")
    sweep_p.add_argument("--mode", choices=("pcsma", "aloha"), help="override the MAC mode")

    val_p = sub.add_parser("validate-aloha", help="pure-ALOHA throughput curve")
    val_p.add_argument("--g", required=True, help="comma-separated offered loads, e.g. 0.1,0.5,1.0")
    val_p.add_argument("--out", help="CSV destination (default: stdout only)")
    val_p.add_argument("--sf", type=int, default=8)
    val_p.add_argument("--devices", type=int, default=100)
    val_p.add_argument(
        "--packet-times",
        type=float,
        default=200_000,
        help="simulated duration in packet airtimes per point",
    )
    val_p.add_argument("--seed", type=int, default=1)
    return parser


def _cmd_run(args) -> int:
    overrides = {"mac": args.mode, "seed": args.seed}
    cfg = replace(load_config(args.config), **{k: v for k, v in overrides.items() if v is not None})
    result = run_scenario(cfg, keep_records=bool(args.trace))
    scenario = Path(args.config).stem
    row = result_row(scenario, cfg.seed, cfg, result.counters)
    print(f"scenario={scenario} seed={cfg.seed} mac={cfg.mac} devices={cfg.n_devices}")
    print(*(f"{f.name}={getattr(result.counters, f.name)}" for f in fields(Counters)))
    print(*(f"{k}=undefined" if row[k] is None else f"{k}={row[k]:.6f}" for k in PRR_COLUMNS))
    if args.out:
        with open(args.out, "w") as out:
            write_csv([row], out)
    if args.trace:
        with open(args.trace, "w") as out:
            write_trace(result.records, out)
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.mode:
        cfg = replace(cfg, mac=args.mode)
    grid = load_grid(args.grid)
    rows = run_sweep(cfg, grid)
    with open(args.out, "w") as out:
        write_csv(rows, out)
    n_runs = sum(1 for row in rows if isinstance(row["seed"], int))
    print(f"{n_runs} runs -> {args.out}")
    return 0


def _cmd_validate_aloha(args) -> int:
    try:
        g_values = [float(tok) for tok in args.g.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--g expects comma-separated numbers, got {args.g!r}") from None
    if not g_values:
        raise ConfigError("--g needs at least one offered-load value")
    if not phy.SF_MIN <= args.sf <= phy.SF_MAX:
        raise ConfigError(f"--sf must be in {phy.SF_MIN}..{phy.SF_MAX}, got {args.sf}")
    cfg = RunConfig(
        n_devices=args.devices, mac="aloha", traffic="poisson", sf_set=(args.sf,), seed=args.seed
    )
    cfg = replace(cfg, sim_time_s=args.packet_times * cfg.packet_time_s())
    rows = aloha_validation(g_values, cfg)
    text = aloha_csv_text(rows)
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_validate_aloha(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
