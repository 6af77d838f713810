"""Command-line interface: ``homlab <command> --config cfg.json``."""

from __future__ import annotations

import argparse
import os
import sys

from .config import COMMANDS, ConfigError, parse_config
from .runner import run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homlab",
        description="Cell-problem laboratory for degenerate linear-growth "
                    "random energies.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--workers", type=int, default=None,
                       help="worker threads (default: HOMLAB_WORKERS or 1); "
                            "solves hold the GIL, so more are rarely faster")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        for msg in exc.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    if cfg.command != args.command:
        print(f"config error: config names command {cfg.command!r} but "
              f"{args.command!r} was invoked", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.canonical["seed"] = args.seed
    workers = args.workers
    if workers is None:
        env = os.environ.get("HOMLAB_WORKERS", "")
        workers = int(env) if env.isdigit() and int(env) > 0 else cfg.workers
    code, csv_path, summary_path = run(cfg, workers=workers, out_dir=args.out)
    print(f"wrote {csv_path}")
    print(f"wrote {summary_path}")
    print("verdict:", "pass" if code == 0 else "FAIL")
    return code


if __name__ == "__main__":
    sys.exit(main())
