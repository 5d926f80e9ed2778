"""Command line interface.

Three subcommands:

  splap run --config FILE [--seed N] [--workers N] [--out DIR]
      run the configured experiment and write all artifacts
  splap validate --config FILE
      parse and validate a config, print its canonical echo
  splap plot --csv FILE [--out DIR]
      re-render the per-exponent figures from a persisted results.csv,
      with the regression steps and reference step of the summary.json
      next to it

Exit codes: 0 clean run; 1 completed, but with failed replicates, a
mean curve that admits no fit, or a bias relation with no root; 2 bad
usage or invalid configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path
from types import SimpleNamespace

from .config import ConfigError, echo_config, parse_config, validate_config
from .experiment import read_results_csv, run_experiment, summarize_table
from .svgfig import render_loglog


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="splap", description="Stochastic p-Laplace space-time convergence experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the configured experiment")
    run.add_argument("--config", required=True, help="path to a key = value config file")
    run.add_argument("--seed", type=int, default=None, help="override master_seed")
    run.add_argument("--workers", type=int, default=None, help="override worker count (0 = machine parallelism)")
    run.add_argument("--out", default=None, help="override output directory")

    val = sub.add_parser("validate", help="validate a config and print its canonical echo")
    val.add_argument("--config", required=True, help="path to a key = value config file")

    plot = sub.add_parser("plot", help="re-render figures from a persisted results.csv")
    plot.add_argument("--csv", required=True, help="path to results.csv")
    plot.add_argument("--out", default=None, help="output directory (default: next to the csv)")
    return parser


def _load_config(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config(text)


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.out is not None:
        overrides["out_dir"] = args.out
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
        validate_config(cfg)
    return run_experiment(cfg)


def _cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    sys.stdout.write(echo_config(cfg))
    return 0


def _cmd_plot(args) -> int:
    csv_path = Path(args.csv)
    try:
        tables = read_results_csv(csv_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read results from {csv_path}: {exc}") from exc
    summary_path = csv_path.parent / "summary.json"
    try:
        per_p = json.loads(summary_path.read_text(encoding="utf-8"))["per_p"]
        protocols = {p: (per_p[repr(p)]["taus_fit"], per_p[repr(p)]["tau_ref_effective"]) for p in tables}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read the fit protocol from {summary_path}: {exc!r}") from exc
    out = Path(args.out) if args.out is not None else csv_path.parent
    out.mkdir(parents=True, exist_ok=True)
    for p, rec in tables.items():
        fit_taus, tau_tilde = protocols[p]
        summary = summarize_table(rec["taus"], rec["totals"], rec["max_l2"], rec["quasi"], fit_taus, tau_tilde)
        table = SimpleNamespace(p=p, taus=rec["taus"], totals=rec["totals"])
        (out / f"fig_p{p:g}.svg").write_bytes(render_loglog(table, summary).encode("utf-8"))
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_plot(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
