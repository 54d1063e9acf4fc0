"""Command-line entry point.

Subcommands name the experiment to run (or `all`); outputs land in
<out>/<experiment>/{report.json,curves.csv}. Exit status: 0 when every check
passed, 1 on any failed check, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config, resolve_out_dir
from .experiments import EXPERIMENTS, run_experiment

SUBCOMMANDS = (*EXPERIMENTS, "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radonlik",
        description="Likelihood checks against named dominating measures.")
    parser.add_argument("experiment", choices=SUBCOMMANDS,
                        help="experiment suite to run")
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="YAML config file (defaults are built in)")
    parser.add_argument("--seed", type=int, default=None, metavar="U64",
                        help="override the config seed")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (overrides RADONLIK_OUT and config)")
    parser.add_argument("--tol", type=float, default=None, metavar="FLOAT",
                        help="override the config's proportionality tolerance")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed must be nonnegative")
            config["seed"] = args.seed
        if args.tol is not None:
            if args.tol <= 0:
                raise ConfigError("tol must be positive")
            config["tol"] = args.tol
        out_dir = resolve_out_dir(config, args.out)
        report = run_experiment(args.experiment, config, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    status = "PASS" if report.passed else "FAIL"
    print(f"{report.experiment}: {status} "
          f"({sum(c.passed for c in report.checks)}/{len(report.checks)} checks, "
          f"{report.runtime_seconds:.2f}s, seed {report.seed})")
    for check in report.checks:
        print(f"  [{'ok' if check.passed else 'FAIL'}] {check.name}")
    print(f"outputs in {out_dir}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
