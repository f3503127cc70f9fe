"""Run the bundled example scenarios end to end.

Each scenario in scenarios/ is executed through the command line entry
point into its own subdirectory of the output root.  The script's exit
code is the worst exit code seen, so it can gate a smoke run in CI.

    python3 scripts/run_experiments.py --out out
    python3 scripts/run_experiments.py --only duality --seed-override 9
"""

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from roughmkv.cli import main as run_cli  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--out", default="out", help="output root directory")
    ap.add_argument("--only", help="run just the scenario with this file stem")
    ap.add_argument("--seed-override", type=int, help="forwarded to every run")
    ap.add_argument("--threads", type=int, default=1, help="forwarded to every run")
    ap.add_argument("--no-timestamp", action="store_true",
                    help="make the reports byte-reproducible")
    args = ap.parse_args(argv)

    files = sorted((ROOT / "scenarios").glob("*.ini"))
    if args.only is not None:
        files = [p for p in files if p.stem == args.only]
        if not files:
            ap.error(f"no scenario named {args.only!r} in {ROOT / 'scenarios'}")

    extra = ["--threads", str(args.threads)]
    if args.seed_override is not None:
        extra += ["--seed-override", str(args.seed_override)]
    if args.no_timestamp:
        extra += ["--no-timestamp"]

    worst = 0
    for path in files:
        out_dir = pathlib.Path(args.out) / path.stem
        code = run_cli(["--scenario", str(path), "--out", str(out_dir), *extra])
        print(f"{path.stem}: exit {code} -> {out_dir}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
