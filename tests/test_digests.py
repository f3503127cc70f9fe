"""The bundled scenarios still write the bytes recorded in ``digests/``.

``digests/seed21.txt`` holds, for ``scenarios/`` and
``scenario_bench/workloads/``, what ``scripts/run_experiments.py
--no-timestamp --digests --seed-override 21`` reports: the worst and the
per-run exit codes, and the sha256 of every file the runs wrote.  Another
Python, numpy or CPU may round a float differently, so the check runs only
in the environment the file records and skips elsewhere.  A change that
moves bytes on purpose rewrites the file in the same commit with

    python tests/test_digests.py

and names every moved file in CHANGES.md.
"""

import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
LISTING = ROOT / "digests" / "seed21.txt"
DIRECTORIES = ("scenarios", "scenario_bench/workloads")
COMMAND = ("scripts/run_experiments.py", "--no-timestamp", "--digests", "--seed-override", "21")
RUN_LINE = re.compile(r"^(\S+: exit \d+) -> ")


def environment() -> str:
    """The line that names where the listing was made."""
    simd = " ".join(np.show_config(mode="dicts")["SIMD Extensions"]["found"])
    return (
        f"# made with python {platform.python_version()}, numpy {np.__version__}, "
        f"machine {platform.machine()} (SIMD {simd})"
    )


def listing(out: Path) -> list[str]:
    """The listing of both directories, their runs writing under ``out``."""
    lines = [f"# python3 {' '.join(COMMAND)} --scenarios DIR, for each DIR", environment()]
    for directory in DIRECTORIES:
        run = subprocess.run(
            [sys.executable, *COMMAND, "--scenarios", directory, "--out", str(out / directory)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        runs = [m.group(1) for m in map(RUN_LINE.match, run.stderr.splitlines()) if m]
        lines += [f"[{directory}] exit {run.returncode}", *runs, *run.stdout.splitlines()]
    return lines


def test_bundled_scenarios_write_the_recorded_bytes(tmp_path):
    recorded = LISTING.read_text(encoding="utf-8").splitlines()
    if recorded[1] != environment():
        pytest.skip(f"the listing was made elsewhere: {recorded[1]!r}, here {environment()!r}")
    assert listing(tmp_path) == recorded


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        LISTING.parent.mkdir(exist_ok=True)
        LISTING.write_text("\n".join(listing(Path(out))) + "\n", encoding="utf-8")
