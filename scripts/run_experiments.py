"""Run the bundled example scenarios end to end.

Each scenario in scenarios/ (or in the directory given by --scenarios) is
executed through the command line entry point into its own subdirectory of
the output root, one serial run after another.  The script's exit code is
the worst exit code seen, so it can gate a smoke run in CI.  With --digests
it then prints ``sha256  relative/path`` for every file the runs wrote,
sorted by path, and nothing else on stdout (the per-run lines go to
stderr), so two trees' artifacts compare with one ``diff`` of two listings.

    python3 scripts/run_experiments.py --out out
    python3 scripts/run_experiments.py --only duality --seed-override 9
    python3 scripts/run_experiments.py --no-timestamp --digests > a.txt
"""

import argparse
import hashlib
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from roughmkv.cli import main as run_cli  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--out", default="out", help="output root directory")
    ap.add_argument("--scenarios", default=str(ROOT / "scenarios"),
                    help="directory of *.ini scenario files to run")
    ap.add_argument("--digests", action="store_true",
                    help="print the sha256 of every file written, by path")
    ap.add_argument("--only", help="run just the scenario with this file stem")
    ap.add_argument("--seed-override", type=int, help="forwarded to every run")
    ap.add_argument("--no-timestamp", action="store_true",
                    help="make the reports byte-reproducible")
    args = ap.parse_args(argv)

    scenarios = pathlib.Path(args.scenarios)
    files = sorted(scenarios.glob("*.ini"))
    if args.only is not None:
        files = [p for p in files if p.stem == args.only]
    if not files:
        what = "*.ini files" if args.only is None else f"scenario named {args.only!r}"
        ap.error(f"no {what} in {scenarios}")

    extra = []
    if args.seed_override is not None:
        extra += ["--seed-override", str(args.seed_override)]
    if args.no_timestamp:
        extra += ["--no-timestamp"]

    root = pathlib.Path(args.out)
    worst = 0
    for path in files:
        out_dir = root / path.stem
        code = run_cli(["--scenario", str(path), "--out", str(out_dir), *extra])
        # with --digests, stdout carries the listing alone
        print(f"{path.stem}: exit {code} -> {out_dir}",
              file=sys.stderr if args.digests else sys.stdout)
        worst = max(worst, code)
    if args.digests:
        written = (f for path in files for f in (root / path.stem).rglob("*") if f.is_file())
        for rel, digest in sorted(
            (f.relative_to(root).as_posix(), hashlib.sha256(f.read_bytes()).hexdigest())
            for f in written
        ):
            print(f"{digest}  {rel}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
