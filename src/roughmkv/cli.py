"""Command line front end.

    roughmkv --scenario FILE --out DIR [--seed-override N] [--threads N]
             [--no-timestamp]

Runs the experiment named inside the scenario file and writes CSV artifacts
plus ``summary.json`` into the output directory.  Verbosity is controlled by
the ``ROUGHMKV_LOG`` environment variable (DEBUG, INFO, WARNING, ERROR;
default WARNING).

Every run is serial: ``--threads`` is accepted for callers that pass it and
must be at least 1, but no run starts a worker thread.

Exit codes: 0 success, 1 scenario parse error, 2 invariant violation,
3 numerical abort (non-finite particle state).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .experiments import EXIT_PARSE, RunContext, run_scenario
from .scenario import ScenarioError, parse_scenario_file

log = logging.getLogger("roughmkv")


def _setup_logging() -> None:
    level_name = os.environ.get("ROUGHMKV_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughmkv",
        description="Run a particle/signal experiment described by a scenario file.",
    )
    parser.add_argument("--scenario", required=True, help="path to scenario file")
    parser.add_argument("--out", required=True, help="output directory for reports")
    parser.add_argument(
        "--seed-override", type=int, default=None,
        help="replace the scenario seed without editing the file",
    )
    parser.add_argument(
        "--threads", type=int, default=1,
        help="accepted and checked (>= 1); every run is serial",
    )
    parser.add_argument(
        "--no-timestamp", action="store_true",
        help="suppress timestamp headers so reports are byte-reproducible",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_PARSE
    if args.seed_override is not None and args.seed_override < 0:
        print("error: --seed-override must be >= 0", file=sys.stderr)
        return EXIT_PARSE
    try:
        sc = parse_scenario_file(args.scenario)
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    ctx = RunContext(
        out_dir=args.out,
        timestamp=not args.no_timestamp,
        seed_override=args.seed_override,
    )
    code = run_scenario(sc, ctx)
    if code == 0:
        log.info("done: all invariants passed")
    return code


if __name__ == "__main__":
    sys.exit(main())
