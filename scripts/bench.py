"""Layer micro-benchmarks of the package, timed in process time.

Five layers that dominate the bundled runs, each timed in this process on
fixed inputs:

``increments``  ``simulate.idiosyncratic_increments``, microseconds per particle
``forward``     ``simulate.simulate`` on increments drawn beforehand, keeping
                the last cloud only, nanoseconds per particle-step
``backward``    ``backward.solve_backward_fk`` from one start time,
                nanoseconds per path-step; ``backward.starts`` from the
                workload's 5 start times, per path-step of every start time
``area``        ``coefficients.area_tensor`` at 32 000 points of a cloud,
                from the order-1 jet taken beforehand, nanoseconds per point
``weak``        ``weakcheck.residual_order_scan`` over five levels of flows
                simulated beforehand, microseconds per cell and probe

The first two sweep the particle count N from 250 to 64 000 on the bundle
read from the scenario benchmark's ``workloads/chaos_ladder.ini`` (64 cells,
``moment_sin`` signal coefficient); the backward sampler runs the bundle read
from ``workloads/duality_mc.ini`` on 33 lattice points x 1 024 samples x 64
cells (the workload itself runs 128).  Every lattice point and start time
reads the same M/2 normal rows of each cell, so either case draws 64 x 512
normals, against 33 x 64 x 1 024 path-steps of ``backward``.  The area
tensor is formed from the ``chaos_ladder`` bundle as its forward step forms
it: the points are the cloud of the measure, so the jet's value is the
coefficient at the cloud.
The residual scan reads ``workloads/weak_scan.ini`` (16 to 256 cells, 1 024
particles, five probes); each level's flow runs on the workload's sinusoid
lifted on that level's grid.
Each round times every case once, in a fixed round-robin order, so a drift
of the host's speed spreads over all of them; one untimed round runs first.
One timed sample repeats its case until it has run at least 50 ms and is
divided by the number of calls, so a short case is not read off one call of
a few milliseconds.  Each case reports the best and the median of its rounds
and the spread, (q75 - q25) / median, and keeps every sample.  The JSON file
also records the core count and the Python, numpy and scipy versions.

``--compare`` reads both files' quartiles from their samples and calls a case
``faster`` only when the new q75 lies below the old q25, ``slower`` only when
the new q25 lies above the old q75, and ``within spread`` otherwise.  Two
files taken at different times also differ by the host's drift, which the
unchanged cases show.

    python3 scripts/bench.py --out BENCH.json
    python3 scripts/bench.py --compare OLD.json
"""

import argparse
import importlib.metadata
import json
import os
import pathlib
import platform
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from roughmkv.backward import solve_backward_fk  # noqa: E402
from roughmkv.coefficients import area_tensor  # noqa: E402
from roughmkv.grids import TimeGrid  # noqa: E402
from roughmkv.measures import EmpiricalMeasure  # noqa: E402
from roughmkv.scenario import (  # noqa: E402
    build_coefficients,
    build_driver,
    build_initial_sampler,
    build_simulation_config,
    build_terminal,
    parse_scenario_file,
)
from roughmkv.simulate import idiosyncratic_increments, simulate  # noqa: E402
from roughmkv.weakcheck import default_bank, residual_order_scan  # noqa: E402

COUNTS = (250, 1000, 4000, 16000, 64000)

WORKLOADS = ROOT / "scenario_bench" / "workloads"
BACKWARD_CELLS = 64
LATTICE_POINTS, SAMPLES = 33, 1024
AREA_POINTS = 32_000
MIN_SAMPLE_S = 0.05


def forward_cases() -> list:
    """``(name, unit, work, scale, run)`` per increments and forward case."""
    sc = parse_scenario_file(str(WORKLOADS / "chaos_ladder.ini"))
    grid = TimeGrid.uniform(sc.horizon, sc.cells)
    rp = build_driver(sc, grid)
    coeffs = build_coefficients(sc)
    cases = []
    for n in COUNTS:
        config = build_simulation_config(sc, grid, 1, n)

        def increments(n=n):
            return idiosyncratic_increments(1, n, grid, sc.brownian_dim)

        def forward(config=config, incs=increments()):   # drawn once, untimed
            return simulate(config, coeffs, rp, brownian=incs, final_only=True)

        cases.append((f"increments.n{n}", "us/particle", n, 1e6, increments))
        cases.append((f"forward.n{n}", "ns/particle-step", n * grid.num_cells, 1e9, forward))
    return cases


def backward_cases() -> list:
    """``backward`` from one start time; ``backward.starts`` from the
    workload's ``time_points`` start times, which share each cell's draws."""
    sc = parse_scenario_file(str(WORKLOADS / "duality_mc.ini"))
    grid = TimeGrid.uniform(sc.horizon, BACKWARD_CELLS)
    rp = build_driver(sc, grid)
    coeffs = build_coefficients(sc)
    name, terminal = build_terminal(sc)
    axes = [np.linspace(-2.0, 2.0, LATTICE_POINTS)]
    nodes = np.round(np.linspace(0, grid.num_cells, sc.time_points)).astype(int)
    cases = []
    for case, starts in (("backward", np.array([0])), ("backward.starts", nodes)):
        def run(times=grid.points[starts]):
            return solve_backward_fk(coeffs, rp, terminal, axes, times, SAMPLES, seed=7,
                                     terminal_name=name)

        # path-steps as the scenario tracer counts them: each start time's own cells
        steps = int(np.sum(grid.num_cells - starts))
        cases.append((case, "ns/path-step", LATTICE_POINTS * SAMPLES * steps, 1e9, run))
    return cases


def area_case() -> tuple:
    """``area`` on the cloud of a ``chaos_ladder`` ensemble of AREA_POINTS."""
    sc = parse_scenario_file(str(WORKLOADS / "chaos_ladder.ini"))
    fam = build_coefficients(sc).rough
    x = build_initial_sampler(sc)(np.random.default_rng(1), AREA_POINTS)
    mu = EmpiricalMeasure(x)
    jet = fam.jet(0.0, x, mu, 1)

    def run():
        return area_tensor(fam, jet, jet[0])

    return ("area", "ns/point", AREA_POINTS, 1e9, run)


def weak_case() -> tuple:
    """``weak``: the residual scan of ``weak_scan`` over its levels' flows."""
    sc = parse_scenario_file(str(WORKLOADS / "weak_scan.ini"))
    coeffs = build_coefficients(sc)
    runs = []
    for level in range(sc.levels):
        grid = TimeGrid.uniform(sc.horizon, sc.cells * 2**level)
        config = build_simulation_config(sc, grid, 1, sc.particles)
        rp = build_driver(sc, grid)
        runs.append((simulate(config, coeffs, rp)[0], rp))
    bank = default_bank(sc.dim)
    # cell-probes as the scenario tracer counts them
    cell_probes = len(bank) * sum(flow.grid.num_cells for flow, _ in runs)

    def run():
        return residual_order_scan(runs, bank, coeffs)

    return ("weak", "us/cell-probe", cell_probes, 1e6, run)


def per_call(run) -> float:
    """Process seconds per call of ``run``, over calls filling MIN_SAMPLE_S."""
    calls, start = 0, time.process_time()
    while True:
        run()
        calls += 1
        elapsed = time.process_time() - start
        if elapsed >= MIN_SAMPLE_S:
            return elapsed / calls


def measure(rounds: int) -> dict:
    cases = forward_cases() + backward_cases() + [area_case(), weak_case()]
    samples = {name: [] for name, *_ in cases}
    for r in range(rounds + 1):
        for name, _, work, scale, run in cases:
            seconds = per_call(run)
            if r:                                   # round 0 warms up
                samples[name].append(seconds * scale / work)
    out = {}
    for name, unit, work, _, _ in cases:
        s = np.array(samples[name])
        q25, median, q75 = np.percentile(s, [25, 50, 75])
        out[name] = {"unit": unit, "work": work, "best": float(s.min()),
                     "median": float(median), "spread": float((q75 - q25) / median),
                     "samples": s.tolist()}
    return out


def environment() -> dict:
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": importlib.metadata.version("scipy"),
            "clock": "process_time"}


def compare(old: dict, new: dict) -> list[str]:
    """One line per case in both files: the new/old ratios of median and best,
    each side's spread, and a verdict that needs the two files' quartile
    ranges, read from their samples, to be apart."""
    lines = [f"{'case':<18}{'unit':<18}{'old med':>10}{'new med':>10}"
             f"{'ratio':>8}{'best':>8}{'old spr':>9}{'new spr':>9}  verdict"]
    for name, b in new["cases"].items():
        a = old["cases"].get(name)
        if a is None:
            continue
        (a25, a50, a75), (b25, b50, b75) = (
            np.percentile(c["samples"], [25, 50, 75]) for c in (a, b))
        verdict = "faster" if b75 < a25 else "slower" if b25 > a75 else "within spread"
        lines.append(
            f"{name:<18}{b['unit']:<18}{a50:>10.4g}{b50:>10.4g}"
            f"{b50 / a50:>8.3f}{b['best'] / a['best']:>8.3f}"
            f"{(a75 - a25) / a50:>9.3f}{(b75 - b25) / b50:>9.3f}  {verdict}"
        )
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--rounds", type=int, default=7, help="timed rounds per case")
    ap.add_argument("--out", help="write the results as JSON here")
    ap.add_argument("--compare", metavar="OLD.json", help="print ratios against an earlier file")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")

    result = {"environment": environment(), "rounds": args.rounds,
              "cases": measure(args.rounds)}
    for name, c in result["cases"].items():
        print(f"{name:<18}{c['unit']:<18}best {c['best']:10.4g}  median {c['median']:10.4g}"
              f"  spread {c['spread']:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            old = json.load(fh)
        print(f"against {args.compare} ({old['environment']})")
        print("the two files were taken apart, so every ratio includes the host's drift "
              "between them; the unchanged cases read it")
        print("\n".join(compare(old, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
