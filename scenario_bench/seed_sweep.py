#!/usr/bin/env python3
"""Invariant pass rates of scenario files across seed overrides.

    python3 scenario_bench/seed_sweep.py --first 1 --last 12 FILE.ini [FILE.ini ...]

Runs each scenario once per seed override through ``roughmkv.cli.main``
(``--threads 1``, ``--no-timestamp``), the way the benchmark does, and prints
per scenario how many seeds passed every checked invariant and which
invariants failed on the others.  For chaos scans it also prints the
tightest margin of the strict-decrease invariant: the smallest ratio of one
rung's W2 distance to the next larger rung's, over all seeds (below 1 fails).
Exit code 0 when every run passed.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

import run as bench


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", type=int, default=1)
    parser.add_argument("--last", type=int, default=12)
    parser.add_argument("scenarios", nargs="+", type=Path)
    args = parser.parse_args(argv)
    if not 0 <= args.first <= args.last:
        parser.error("need 0 <= --first <= --last")

    work = bench.ROOT / ".bench_build" / "seed_sweep" / str(os.getpid())
    seeds = range(args.first, args.last + 1)
    all_passed = True
    try:
        for ini in args.scenarios:
            failures = []
            margin = None
            for seed in seeds:
                result = bench.run_once([ini.resolve()], seed, work)
                summary = result.summaries[ini.stem] or {}
                ladder = summary.get("w2_to_ref")
                if ladder:
                    w2 = [d for _, d in sorted((int(n), d) for n, d in ladder.items())]
                    ratio = min(a / b for a, b in zip(w2, w2[1:]))
                    if margin is None or ratio < margin[0]:
                        margin = (ratio, seed)
                if result.problems(None):
                    failed = sorted(
                        name for name, inv in summary.get("invariants", {}).items()
                        if not inv.get("passed")
                    )
                    code = result.codes[ini.stem]
                    failures.append(f"{seed} ({', '.join(failed) or f'exit {code}'})")
            all_passed = all_passed and not failures
            print(f"{ini.name}: {len(seeds) - len(failures)}/{len(seeds)} seeds "
                  f"{args.first}-{args.last} passed"
                  + (f"; failed: {'; '.join(failures)}" if failures else "")
                  + (f"; tightest W2 rung ratio {margin[0]:.3f} at seed {margin[1]}"
                     if margin else ""), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
