"""Command-line entry point.

    halftrap lambda   --K 64 --out table.csv
    halftrap sweep    --config run.cfg --out sweep.csv [--plot-data plot.csv]
    halftrap validate [--config run.cfg]
    halftrap sample   --config run.cfg --shots 10000
    halftrap accept   [target ...] [--config run.cfg]

Every subcommand accepts repeated `--set key=value` overrides on top of the
config file. Exit code 0 on success, 1 on configuration or input errors, 2
when acceptance targets fail.
"""

from __future__ import annotations

import argparse
import sys

from ..measurement import NoExtractionError, sample_outcomes
from ..orbitals import build_overlap_table, write_table_csv
from . import accept as accept_mod
from .config import ExperimentConfig, apply_overrides, parse_config_text
from .sweep import run_sweep, run_validation, single_block, write_plot_data, write_sweep_csv

__all__ = ["main"]

# reported as one `error:` line with exit code 1
_INPUT_ERRORS = (ValueError, NoExtractionError, OSError, MemoryError)


def _load_config(args) -> ExperimentConfig:
    entries: dict[str, str] = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            entries = parse_config_text(fh.read())
    entries = apply_overrides(entries, getattr(args, "set", None) or [])
    return ExperimentConfig.from_entries(entries)


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config entry (repeatable)",
    )


def _cmd_lambda(args) -> int:
    table = build_overlap_table(args.K)
    write_table_csv(table, args.out)
    print(f"wrote {args.out}: K={table.K}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    results = run_sweep(cfg)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_sweep_csv(results, fh, timing=cfg.timing)
    if args.plot_data:
        with open(args.plot_data, "w", encoding="utf-8", newline="") as fh:
            write_plot_data(results, fh)
    bad = sum(1 for r in results if r.error)
    print(f"wrote {args.out}: {len(results)} points, {bad} with errors")
    return 0


def _cmd_validate(args) -> int:
    cfg = _load_config(args)
    report = run_validation(cfg)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(report)
    return 0


def _cmd_sample(args) -> int:
    cfg = _load_config(args)
    block = single_block(cfg)
    seed = args.seed if args.seed is not None else cfg.seed
    counts = sample_outcomes(block, args.shots, seed)
    print(f"p_succ = {block.p_succ:.17g}")
    print(f"success = {counts['success']}")
    print(f"failure = {counts['failure']}")
    return 0


def _cmd_accept(args) -> int:
    cfg = _load_config(args)
    return accept_mod.run_accept(cfg, args.targets, sys.stdout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halftrap",
        description="half-trap overlap tables, state sweeps, and acceptance checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda", help="build an overlap table and write it as CSV")
    p.add_argument("--K", type=int, required=True, help="number of trap modes")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=_cmd_lambda)

    p = sub.add_parser("sweep", help="run the configured parameter sweep")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--plot-data", default=None, help="optional long-form companion CSV")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("validate", help="print the supporting-evidence report")
    _add_config_args(p)
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("sample", help="draw seeded extraction outcomes")
    _add_config_args(p)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help="defaults to the config seed")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("accept", help="run acceptance targets (default: all)")
    _add_config_args(p)
    p.add_argument(
        "targets",
        nargs="*",
        help="subset of targets to run: " + ", ".join([*accept_mod.TARGETS, "all"]),
    )
    p.set_defaults(fn=_cmd_accept)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
