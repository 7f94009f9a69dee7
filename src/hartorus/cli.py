"""Command-line entry point: one subcommand per experiment kind."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import EXPERIMENT_KINDS, ConfigError, parse_config
from .runner import PreflightError, run_experiment

USAGE_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hartorus",
        description="Spectral experiments for mean-field dynamics on a torus.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--out", default=None, help="output directory (default $HARTORUS_OUT or ./out)")
        p.add_argument("--seed", type=int, default=None, help="RNG seed override")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0,) else 0

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return USAGE_ERROR

    try:
        cfg = parse_config(text, args.kind)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return USAGE_ERROR

    out_dir = args.out or os.environ.get("HARTORUS_OUT") or "out"
    try:
        env = run_experiment(cfg, out_dir, seed=args.seed)
    except (PreflightError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR if isinstance(exc, PreflightError) else 1
    for name, ok in env.verdicts.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    print(f"envelope: {Path(out_dir) / 'envelope.json'}")
    return env.exit_code


if __name__ == "__main__":
    sys.exit(main())
