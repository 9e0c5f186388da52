"""Command-line entry point for running the experiment studies."""

from __future__ import annotations

import argparse
import logging
import sys

from .config import load_config
from .exceptions import ConfigurationError, SimulationError
from .studies import STUDIES, run_all


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xrmimo",
        description="Multi-user XR offloading simulator: latency, BER, "
                    "localisation-error sensitivity, and device power studies.",
    )
    sub = parser.add_subparsers(dest="study", required=True)
    for name, study in (*STUDIES.items(), ("all", run_all)):
        help_text = (study.__doc__ or name).splitlines()[0].rstrip(".")
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="YAML/JSON config file; defaults used if omitted")
        cmd.add_argument("--seed", type=int, help="master seed override")
        cmd.add_argument("--out", help="output directory override")
        cmd.add_argument("--trials", type=int,
                         help="override latency and sensitivity trial counts")
        cmd.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def _overrides_from_args(args) -> dict:
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.trials is not None:
        overrides["latency"] = {"trials": args.trials}
        overrides["sensitivity"] = {"trials": args.trials}
    return overrides


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.ERROR if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = load_config(args.config, overrides=_overrides_from_args(args))
        if args.study == "all":
            paths = run_all(config)
        else:
            paths = [STUDIES[args.study](config)]
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        for path in paths:
            print(path)
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
