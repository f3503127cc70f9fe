#!/usr/bin/env python3
"""Scenario benchmark for roughmkv.

    python3 scenario_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in-process through the public entry point
``roughmkv.cli.main``, as a closed loop.  A workload is two scenario files
under ``scenario_bench/workloads``; one run calls ``cli.main`` on each in
turn, with ``--threads 1``, ``--no-timestamp``, and ``--seed`` forwarded as
``--seed-override``.  Every run is checked: exit code 0, ``passed: true`` in
each ``summary.json``, and artifacts byte-identical to the first run of the
invocation.

``--trace 0`` reports the end-to-end metrics: the trimmed mean time of the
runs that follow a checked warm-up run, set-up time of a fresh interpreter
(median of several timed back to back before the runs) and peak resident
memory.
``--trace 1`` starts with a particle-count sweep of the private-increment and
forward-step layers, then alternates untraced and traced runs, reports
per-layer metrics from the outside-in tracer in ``tracer.py``, checks their
work counts against what the scenario implies and checks that the reported
time metrics cover the traced run.

The package is imported from ``src/`` next to this directory; nothing is
installed.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import os

# Single-threaded BLAS; must be set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Each workload pairs the scenarios whose layers ROADMAP directions 2 and 5
# (streams, diagnostics replay) or 3 and 4 (weak-form engine, backward
# solver) speed up, so every one of those layers dominates in one workload
# and is idle in the other.
WORKLOADS = {
    "forward": ("chaos_ladder", "diagnostics_trace"),
    "solvers": ("weak_scan", "duality_mc"),
}

MIN_RUNS = 3            # timed runs per invocation, whatever --seconds says
MIN_TRACED_RUNS = 2     # traced runs, so counts can be compared exactly
SETUP_REPEATS = 9       # fresh interpreters timed back to back for setup_s
SWEEP_COUNTS = (1000, 8000, 64000)
SWEEP_REPEATS = 2       # timings per N in the sweep; the best is reported

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import roughmkv; "
    "from roughmkv.scenario import parse_scenario_file; "
    "print(' '.join(parse_scenario_file(f).name for f in sys.argv[2:]))"
)


def fail_setup(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "roughmkv" / "__init__.py").is_file():
    fail_setup(f"no roughmkv package under {SRC}; run from a full checkout")
try:
    SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
except (OSError, ValueError) as exc:
    fail_setup(f"cannot read BENCHMARK.json: {exc}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import roughmkv  # noqa: E402
from roughmkv import cli  # noqa: E402
from roughmkv.grids import TimeGrid  # noqa: E402
from roughmkv.scenario import (  # noqa: E402
    build_coefficients,
    build_driver,
    build_initial_sampler,
    parse_scenario_file,
)
from roughmkv.simulate import SimulationConfig, idiosyncratic_increments, simulate  # noqa: E402
from roughmkv.weakcheck import default_bank  # noqa: E402

import tracer  # noqa: E402

if Path(roughmkv.__file__).resolve().parent != (SRC / "roughmkv").resolve():
    fail_setup(f"imported roughmkv from {roughmkv.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# one checked run


def artifact_digest(out_dir: Path) -> str:
    # Streamed in blocks: reading a large CSV whole would raise peak_rss_mb.
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        with path.open("rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        h.update(b"\0")
    return h.hexdigest()


def figures_of_merit(summary: dict) -> dict:
    """Sampled numbers a change could move; reported, never gated here."""
    figures = {}
    for name, inv in summary.get("invariants", {}).items():
        if "value" in inv:
            figures[name] = [inv["value"], inv["direction"], inv["tolerance"]]
        else:
            figures[name] = inv.get("detail", "")
    for key in ("slopes", "w2_to_ref", "budget_parts"):
        if key in summary:
            figures[key] = summary[key]
    return figures


@dataclass
class Run:
    """Outcome of one run: ``roughmkv.cli.main`` on each scenario in turn."""

    seconds: float
    codes: dict[str, int | None]
    summaries: dict[str, dict | None]
    digest: str | None
    error: str | None

    def problems(self, reference_digest: str | None) -> list[str]:
        found = []
        if self.error:
            found.append(f"raised {self.error}")
        for name, code in self.codes.items():
            if code != 0:
                found.append(f"{name}: exit code {code}")
            summary = self.summaries[name]
            if summary is None or summary.get("passed") is not True:
                found.append(f"{name}: summary.json does not report passed: true")
        if reference_digest is not None and self.digest != reference_digest:
            found.append("artifacts differ from the first run")
        return found


def run_once(inis: list[Path], seed: int, out_dir: Path, call=None) -> Run:
    """Run the scenarios once, in order, each into ``out_dir/<file stem>``.

    ``call`` wraps the whole sequence (the tracer's root).
    """
    if out_dir.exists():
        shutil.rmtree(out_dir)
    codes: dict[str, int | None] = {ini.stem: None for ini in inis}

    def sequence():
        for ini in inis:
            codes[ini.stem] = cli.main([
                "--scenario", str(ini), "--out", str(out_dir / ini.stem),
                "--seed-override", str(seed), "--threads", "1", "--no-timestamp",
            ])

    error = None
    start = time.perf_counter()
    try:
        call(sequence) if call else sequence()
    except Exception:  # a crashing run is a failed run, not a crashed benchmark
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    summaries = {}
    for ini in inis:
        path = out_dir / ini.stem / "summary.json"
        summaries[ini.stem] = (
            json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None)
    digest = artifact_digest(out_dir) if out_dir.is_dir() else None
    return Run(seconds, codes, summaries, digest, error)


class Checker:
    """Counts attempted and failed runs and keeps every problem found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: str | None = None

    def record(self, label: str, run: Run, trace_problems: list[str] = ()) -> None:
        self.attempted += 1
        found = run.problems(self.reference) + list(trace_problems)
        if self.reference is None and run.digest is not None and not found:
            self.reference = run.digest
        if found:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in found)
        codes = " ".join(str(code) for code in run.codes.values())
        print(f"{label}: {run.seconds:.4f} s, exit {codes}, "
              f"digest {str(run.digest)[:16]}{'' if not found else ', FAILED: ' + '; '.join(found)}")

    def fail(self, message: str) -> None:
        self.problems.append(message)


# ---------------------------------------------------------------------------
# end-to-end metrics


def setup_once(inis: list[Path], expected_names: str) -> float:
    """Wall time for a fresh interpreter to import roughmkv and parse ``inis``."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, inis)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0 or proc.stdout.strip() != expected_names:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
    return seconds


def trimmed_mean(times: list[float]) -> float:
    """Mean without the fastest and the slowest run.

    This host's speed drifts by tens of per cent over tens of seconds, so
    the estimate that varies least between invocations averages over the
    whole invocation; dropping the two extremes keeps one stray run from
    moving it.  The best run depends on whether a brief fast spell fell
    inside the invocation (see NOTES.md).
    """
    return statistics.mean(sorted(times)[1:-1])


def tail(times: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(times)
    if n < 11:
        return f"undefined with n={n} (needs n >= 11)"
    return f"p{100.0 * (n - 10) / n:.1f} = {sorted(times)[n - 11]:.4f} s (n={n})"


def measure_end_to_end(inis: list[Path], seed: int, seconds: float, work: Path,
                       check: Checker) -> dict:
    # Set-up samples are taken back to back before the first run.  Timed
    # between runs they read faster but spread more between invocations.
    names = " ".join(parse_scenario_file(str(ini)).name for ini in inis)
    start = time.perf_counter()
    setups = [setup_once(inis, names) for _ in range(SETUP_REPEATS)]
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    # The first run of a process is among its slowest (first calls, first
    # large allocations); it is checked but kept out of run_s.
    warm = run_once(inis, seed, work / "run")
    check.record("warm-up run", warm)
    for name, summary in warm.summaries.items():
        print(f"figures {name}:", json.dumps(figures_of_merit(summary or {}), sort_keys=True))
    times: list[float] = []
    while len(times) < MIN_RUNS or (
        time.perf_counter() - start + statistics.median(times) <= seconds
    ):
        run = run_once(inis, seed, work / "run")
        check.record(f"run {len(times)}", run)
        times.append(run.seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"run_s samples: {' '.join(f'{t:.4f}' for t in times)}")
    print(f"run_s_median: {statistics.median(times):.4f} s (n={len(times)})")
    print(f"run_s_best: {min(times):.4f} s (n={len(times)})")
    print(f"run_s_tail: {tail(times)}")
    print(f"failed_frac: {check.failed / check.attempted:.4f} "
          f"({check.failed} of {check.attempted})")
    print(f"artifact digest: {check.reference}")
    return {
        "run_s": {"value": trimmed_mean(times), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


# ---------------------------------------------------------------------------
# traced run


def expected_work(inis: list[Path]) -> dict:
    """Work counts the scenarios imply, summed; they do not depend on the code."""
    total: dict[str, int] = {}
    for ini in inis:
        for key, value in scenario_work(parse_scenario_file(str(ini))).items():
            total[key] = total.get(key, 0) + value
    return total


def scenario_work(sc) -> dict:
    """Work counts of one parsed scenario."""
    K = sc.cells
    work = {"particle_steps": 0, "grid_steps": 0, "path_steps": 0,
            "cell_probes": 0, "rows": 0, "calls.wasserstein2_1d": 0}
    if sc.experiment == "chaos_scan":
        sims = [(n, K) for n in list(sc.particle_counts) + [max(sc.particle_counts)]]
        work["calls.wasserstein2_1d"] = len(sc.particle_counts)
    elif sc.experiment == "residual_scan":
        copies = 1 if sc.sigma[0] == "none" else 3
        sims = [(sc.particles, K * 2**level) for level in range(sc.levels)] * copies
        work["cell_probes"] = len(default_bank(sc.dim)) * sum(k for _, k in sims)
    else:
        sims = [(sc.particles, K)]
    work["particle_steps"] = sum(n * k for n, k in sims)
    work["grid_steps"] = sum(k for _, k in sims)
    if sc.experiment == "duality":
        starts = np.unique(np.round(np.linspace(0, K, sc.time_points)).astype(int))
        steps = int(sum(K - s for s in starts))
        work["path_steps"] = sc.x_points**sc.dim * sc.backward_samples * steps
    if sc.experiment == "diagnostics":
        work["rows"] = (K + 1) * sc.particles
    return work


def measure_layers(inis: list[Path], seed: int, seconds: float, work: Path,
                   check: Checker) -> dict:
    # The sweep runs first and its time counts against --seconds.  Untraced
    # and traced runs then alternate, so the overhead ratio compares runs
    # made under the same load.
    start = time.perf_counter()
    sweep = particle_sweep(seed)
    want_work = expected_work(inis)
    tr = tracer.Tracer()
    per_run: list[dict] = []
    untraced_s: list[float] = []
    traced_s: list[float] = []
    first_counts = None
    while len(traced_s) < MIN_TRACED_RUNS or (
        time.perf_counter() - start
        + statistics.median(untraced_s) + statistics.median(traced_s) <= seconds
    ):
        base = run_once(inis, seed, work / "run")
        check.record(f"untraced run {len(untraced_s)}", base)
        untraced_s.append(base.seconds)

        label = f"traced run {len(traced_s)}"
        with tr:
            run = run_once(inis, seed, work / "run", call=lambda fn: tr.root("run", fn))
        traced_s.append(run.seconds)
        metrics = tracer.layer_metrics(tr.spans)
        metrics["experiments.invariant_failures"] = sum(
            1 for summary in run.summaries.values()
            for inv in (summary or {}).get("invariants", {}).values()
            if not inv.get("passed")
        )
        counts = tracer.work_counts(tr.spans)
        found = []
        # Root self time plus the self times of covered calls must reach
        # the wall time measured outside the root.
        covered = tr.spans[0].duration - tracer.uncovered_s(tr.spans)
        if covered < 0.99 * run.seconds:
            found.append(f"reported time metrics cover {covered / run.seconds:.2%} "
                         f"of the traced run, under 99 %")
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            found.append("counts differ from traced run 0")
        for key, want in want_work.items():
            if counts.get(key, 0) != want:
                found.append(f"work count {key} = {counts.get(key, 0)}, scenario implies {want}")
        for key in ("simulate.blowups", "experiments.invariant_failures"):
            if metrics[key]:
                found.append(f"{key} = {metrics[key]}")
        check.record(label, run, found)
        per_run.append(metrics)
        tr.spans = []  # freed here, not inside the next timed run
    for key in ("substream", "weak_residual", "area_coefficient", "step_davie"):
        print(f"count calls.{key}: {first_counts.get(f'calls.{key}', 0)}")
    for key, want in want_work.items():
        print(f"count {key}: {first_counts.get(key, 0)}, scenario implies {want}")

    layer = {key: statistics.median(m[key] for m in per_run) for key in per_run[0]}
    layer["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(untraced_s)
    print(f"untraced run_s samples: {' '.join(f'{t:.4f}' for t in untraced_s)}")
    print(f"traced run_s samples: {' '.join(f'{t:.4f}' for t in traced_s)}")
    layer.update(sweep)
    return layer


def particle_sweep(seed: int) -> dict:
    """Unit costs of private increments and forward steps as N grows.

    Uses the chaos_ladder signal and coefficients.  Increments are timed
    directly; the forward pass gets them precomputed and runs under the
    tracer, so its figure is forward self time per particle-step, defined as
    ``simulate.forward_ns_per_particle_step`` (coefficients and streams
    excluded).  Each N is timed ``SWEEP_REPEATS`` times and the best kept.
    """
    sc = parse_scenario_file(str(HERE / "workloads" / "chaos_ladder.ini"))
    grid = TimeGrid.uniform(sc.horizon, sc.cells)
    rp = build_driver(sc, grid, driver_seed=seed + 1)
    coeffs = build_coefficients(sc)
    tr = tracer.Tracer()
    out = {}
    for n in SWEEP_COUNTS:
        config = SimulationConfig(
            particle_count=n, grid=grid, seed=seed, dim=sc.dim,
            brownian_dim=sc.brownian_dim, driver_dim=sc.driver_dim,
            scheme=sc.scheme, initial_sampler=build_initial_sampler(sc),
        )
        inc_s, fwd_s = [], []
        for _ in range(SWEEP_REPEATS):
            start = time.perf_counter()
            incs = idiosyncratic_increments(seed, n, grid, sc.brownian_dim)
            inc_s.append(time.perf_counter() - start)
            with tr:
                flow, _ = tr.root("sweep", simulate,
                                  config, coeffs, rp, brownian=incs)
            if not np.all(np.isfinite(flow.states)):
                raise RuntimeError(f"sweep forward pass at N={n} is not finite")
            fwd_s.append(tracer.layer_metrics(tr.spans)["simulate.forward_self_s"])
        out[f"streams.increments_us_per_particle.n{n}"] = min(inc_s) * 1e6 / n
        out[f"simulate.forward_ns_per_particle_step.n{n}"] = (
            min(fwd_s) * 1e9 / (n * grid.num_cells))
    return out


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    inis = [HERE / "workloads" / f"{name}.ini" for name in WORKLOADS[args.workload]]
    work = ROOT / ".bench_build" / "scenario_bench" / f"{args.workload}-{os.getpid()}"
    print("env:", json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    check = Checker()
    try:
        if args.trace:
            layer = measure_layers(inis, args.seed, args.seconds, work, check)
            declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
            if set(layer) != set(declared):
                check.fail(f"per-layer metrics differ from BENCHMARK.json: "
                           f"{sorted(set(layer) ^ set(declared))}")
            metrics = {k: {"value": layer[k], "unit": unit}
                       for k, unit in declared.items() if k in layer}
        else:
            metrics = measure_end_to_end(inis, args.seed, args.seconds, work, check)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in check.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not check.problems
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
