"""The five runnable experiments behind the command line.

Each runner takes a parsed scenario plus the run's report, and writes its CSV
artifacts into the output directory.  ``run_scenario`` then writes
``summary.json`` and returns a process exit code: 0 on success, 2 when a
checked invariant fails, 3 when the simulation aborted on a non-finite state.
(Exit code 1, scenario parse failure, never reaches a runner.)  All floats in
reports are written with ``repr`` and JSON keys are sorted, so two runs of the
same scenario produce byte-identical artifacts up to the optional timestamp
header.

The registry is closed: these five names are the whole surface, and the
scenario parser already rejects anything else.
"""

from __future__ import annotations

import datetime
import json
import logging
import os
from dataclasses import dataclass

import numpy as np

from .backward import duality_drift, lattice_from_flow, save_backward_csv, solve_backward_fk
from .grids import TimeGrid
from .measures import (
    EmpiricalMeasure,
    flow_holder_diagnostic,
    flow_w2_holder,
    save_flow_csv,
    wasserstein2_1d,
    wasserstein2_exact_small,
)
from .roughpath import (
    GridRoughPath,
    chen_residual,
    holder_norms,
    ito_from_stratonovich,
    load_roughpath_csv,
    restrict,
    roughpath_checksum,
    save_roughpath_csv,
    stratonovich_from_ito,
    sym_defect,
)
from .scenario import (
    Scenario,
    build_coefficients,
    build_driver,
    build_simulation_config,
    build_terminal,
    scenario_checksum,
)
from .simulate import (
    NumericalBlowup,
    StepReport,
    coarsen_increments,
    controlled_diagnostics,
    idiosyncratic_increments,
    simulate,
)
from .streams import TAG_CHECKS, derive_seed, substream
from .tables import write_table
from .weakcheck import default_bank, residual_order_scan, save_residual_csv

__all__ = ["RunContext", "run_scenario", "EXIT_OK", "EXIT_PARSE", "EXIT_INVARIANT", "EXIT_BLOWUP"]

log = logging.getLogger("roughmkv")

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVARIANT = 2
EXIT_BLOWUP = 3

_CHEN_TOL = 1e-12
_SYM_TOL = 1e-12
_ROUNDTRIP_TOL = 1e-13


@dataclass(frozen=True)
class RunContext:
    out_dir: str
    timestamp: bool = True
    seed_override: int | None = None


def _driver(sc: Scenario, grid: TimeGrid, seed: int) -> GridRoughPath:
    """The scenario's signal on ``grid``, its seed mixed with the run seed."""
    return build_driver(sc, grid, driver_seed=derive_seed(seed, sc.driver_seed))


class _Report:
    """Accumulates invariants and artifact names for summary.json."""

    def __init__(self, sc: Scenario, ctx: RunContext):
        self.sc = sc
        self.ctx = ctx
        self.seed = sc.seed if ctx.seed_override is None else int(ctx.seed_override)
        # one clock reading stamps every artifact of the run
        self.stamp = (
            datetime.datetime.now(datetime.timezone.utc).isoformat() if ctx.timestamp else None
        )
        self.driver_checksum: str | None = None    # set once the run's driver exists
        self.invariants: dict[str, dict] = {}
        self.artifacts: list[str] = []
        self.extra: dict[str, object] = {}

    def check(self, name: str, value: float, tolerance: float, larger_ok: bool = False) -> bool:
        passed = value >= tolerance if larger_ok else value <= tolerance
        self.invariants[name] = {
            "value": float(value),
            "tolerance": float(tolerance),
            "direction": ">=" if larger_ok else "<=",
            "passed": bool(passed),
        }
        if not passed:
            log.warning("invariant %s failed: %r vs %r", name, value, tolerance)
        return passed

    def note(self, name: str, flag: bool, detail: str = "") -> bool:
        self.invariants[name] = {"passed": bool(flag), "detail": detail}
        return flag

    def path(self, filename: str) -> str:
        self.artifacts.append(filename)
        return os.path.join(self.ctx.out_dir, filename)

    def table(self, filename: str, header: tuple[str, ...], *columns) -> None:
        """Write one table artifact; columns as in ``tables.write_table``."""
        write_table(self.path(filename), header, [columns], stamp=self.stamp)

    def finish(self, aborted_at: float | None = None) -> int:
        passed = all(inv["passed"] for inv in self.invariants.values())
        summary = {
            "scenario_name": self.sc.name,
            "experiment": self.sc.experiment,
            "scenario_checksum": scenario_checksum(self.sc),
            "driver_checksum": self.driver_checksum,
            "seed": self.seed,
            "invariants": self.invariants,
            "artifacts": sorted(self.artifacts),
            "passed": passed and aborted_at is None,
        }
        summary.update(self.extra)
        if aborted_at is not None:
            summary["aborted_at"] = aborted_at
        if self.stamp is not None:
            summary["generated"] = self.stamp
        with open(os.path.join(self.ctx.out_dir, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
        if aborted_at is not None:
            return EXIT_BLOWUP
        return EXIT_OK if passed else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# lift_checks


def _run_lift_checks(sc: Scenario, rep: _Report) -> None:
    grid = TimeGrid.uniform(sc.horizon, sc.cells)
    rp = _driver(sc, grid, rep.seed)
    rep.driver_checksum = roughpath_checksum(rp)

    # deterministic triple sample across the grid
    rng = substream(rep.seed, TAG_CHECKS)
    P = grid.num_cells + 1
    worst_chen = 0.0
    for _ in range(32):
        i, u, j = sorted(rng.integers(0, P, size=3))
        worst_chen = max(
            worst_chen,
            chen_residual(
                rp, float(grid.points[i]), float(grid.points[u]), float(grid.points[j])
            ),
        )
    sym = sym_defect(rp)
    q1, q2 = holder_norms(rp)

    ito = ito_from_stratonovich(rp)
    back = stratonovich_from_ito(ito)
    round_trip = float(np.max(np.abs(back.cell_areas - rp.cell_areas)))

    path_csv = rep.path("driver.csv")
    save_roughpath_csv(rp, path_csv, stamp=rep.stamp)
    reloaded = load_roughpath_csv(path_csv)
    reload_err = max(
        float(np.max(np.abs(reloaded.values - rp.values))),
        float(np.max(np.abs(reloaded.cell_areas - rp.cell_areas))),
    )

    rep.check("chen_max_residual", worst_chen, _CHEN_TOL)
    rep.check("sym_defect", sym, _SYM_TOL)
    rep.check("convention_round_trip", round_trip, _ROUNDTRIP_TOL)
    rep.check("csv_round_trip", reload_err, 0.0)
    rep.note("holder_quotients_finite", bool(np.isfinite(q1) and np.isfinite(q2)),
             f"first={q1!r} second={q2!r}")

    rep.table(
        "checks.csv", ("check", "value", "tolerance"),
        ("chen_max_residual", "sym_defect", "convention_round_trip",
         "holder_first", "holder_second"),
        np.array([worst_chen, sym, round_trip, q1, q2]),
        (repr(_CHEN_TOL), repr(_SYM_TOL), repr(_ROUNDTRIP_TOL), "", ""),
    )


# ---------------------------------------------------------------------------
# residual_scan


def _coupled_runs(sc: Scenario, seed: int):
    """Flows and drivers on dyadic refinements sharing all randomness.

    The driver is built once on the finest grid and restricted down; private
    increments are drawn once at the finest resolution and pair-summed, so
    coarse runs see exactly the coarse-graining of the fine randomness.
    """
    finest_factor = 2 ** (sc.levels - 1)
    fine_grid = TimeGrid.uniform(sc.horizon, sc.cells * finest_factor)
    fine_rp = _driver(sc, fine_grid, seed)
    coeffs = build_coefficients(sc)
    fine_incs = idiosyncratic_increments(
        seed, sc.particles, fine_grid, sc.brownian_dim
    )
    runs = []
    for level in range(sc.levels):
        factor = 2 ** (sc.levels - 1 - level)
        grid = fine_grid.coarsen(factor) if factor > 1 else fine_grid
        rp = restrict(fine_rp, grid) if factor > 1 else fine_rp
        config = build_simulation_config(sc, grid, seed, sc.particles)
        incs = coarsen_increments(fine_incs, factor) if factor > 1 else fine_incs
        flow, _ = simulate(config, coeffs, rp, brownian=incs)
        runs.append((flow, rp))
    return runs, coeffs


def _run_residual_scan(sc: Scenario, rep: _Report) -> None:
    runs, coeffs = _coupled_runs(sc, rep.seed)
    # a run is noisy when its diffusion moves some particle of the finest
    # flow; then two replicate seeds estimate the sampling floor
    fine = runs[-1][0]
    noisy = any(np.any(coeffs.diffusion(t, x, None)) for t, x in zip(fine.grid.points, fine.states))
    extras = (1, 2) if noisy else ()
    replicates = [_coupled_runs(sc, derive_seed(rep.seed, 1000 + e))[0] for e in extras]
    # set only now: a scan that blows up reports no driver
    rep.driver_checksum = roughpath_checksum(runs[-1][1])

    scan = residual_order_scan(runs, default_bank(sc.dim), coeffs, replicates=replicates)
    save_residual_csv(scan, rep.path("residuals.csv"), stamp=rep.stamp)

    target = 3.0 * sc.alpha * 0.8
    if noisy:
        rep.note("slopes_reported", True, "stochastic run; slopes informational")
    else:
        for name, slope in scan.slopes.items():
            rep.check(f"slope[{name}]", slope, target, larger_ok=True)
    rep.extra["slopes"] = {k: (None if np.isinf(v) else v) for k, v in scan.slopes.items()}
    rep.extra["exact"] = {k: bool(np.isinf(v)) for k, v in scan.slopes.items()}


# ---------------------------------------------------------------------------
# chaos_scan


def _run_chaos_scan(sc: Scenario, rep: _Report) -> None:
    grid = TimeGrid.uniform(sc.horizon, sc.cells)
    rp = _driver(sc, grid, rep.seed)
    rep.driver_checksum = roughpath_checksum(rp)
    coeffs = build_coefficients(sc)

    def one_run(job: tuple[int, int]):
        count, copy = job
        config = build_simulation_config(sc, grid, derive_seed(rep.seed, count, copy), count)
        _, last = simulate(config, coeffs, rp, final_only=True)
        return EmpiricalMeasure(last)

    # Every ensemble is measured against one independent reference ensemble
    # at the largest requested particle count, so the reported distances
    # isolate the small-N fluctuation of the scanned ensembles.
    ref_count = max(sc.particle_counts)
    jobs = [(count, 0) for count in sc.particle_counts] + [(ref_count, 1)]
    results = dict(zip(jobs, map(one_run, jobs)))

    reference = results[(ref_count, 1)]

    def dist(mu: EmpiricalMeasure) -> float:
        if sc.dim == 1:
            return wasserstein2_1d(mu, reference)
        # duplicating every atom the same number of times leaves the
        # empirical measure unchanged, and makes the assignment square
        reps = reference.size // mu.size
        blown = EmpiricalMeasure(np.repeat(mu.points, reps, axis=0))
        return wasserstein2_exact_small(blown, reference)

    distances = [(count, dist(results[(count, 0)])) for count in sc.particle_counts]

    counts, w2 = zip(*distances)
    rep.table("chaos.csv", ("particles", "w2_to_ref"), map(str, counts), np.array(w2))

    decreasing = all(b < a for (_, a), (_, b) in zip(distances, distances[1:]))
    rep.note(
        "w2_strictly_decreasing",
        decreasing,
        " ".join(f"{c}:{d!r}" for c, d in distances),
    )
    rep.extra["w2_to_ref"] = {str(c): d for c, d in distances}
    rep.extra["reference_particles"] = ref_count


# ---------------------------------------------------------------------------
# duality


def _run_duality(sc: Scenario, rep: _Report) -> None:
    grid = TimeGrid.uniform(sc.horizon, sc.cells)
    rp = _driver(sc, grid, rep.seed)
    rep.driver_checksum = roughpath_checksum(rp)
    coeffs = build_coefficients(sc)
    config = build_simulation_config(sc, grid, rep.seed, sc.particles)
    flow, _ = simulate(config, coeffs, rp)

    name, terminal = build_terminal(sc)
    axes = lattice_from_flow(flow, sc.x_points)
    t_idx = np.unique(np.round(np.linspace(0, grid.num_cells, sc.time_points)).astype(int))
    times = [float(grid.points[i]) for i in t_idx]
    solution = solve_backward_fk(
        coeffs, rp, terminal, axes, times, sc.backward_samples,
        seed=derive_seed(rep.seed, 31), terminal_name=name,
    )
    report = duality_drift(flow, solution)

    delta = sc.horizon / sc.cells
    budget_parts = {
        "delta_order": delta ** (3 * sc.alpha - 1),
        "mc": 1.0 / np.sqrt(sc.backward_samples),
        "cloud": 1.0 / np.sqrt(sc.particles),
    }
    scale = max(1.0, float(np.max(np.abs(report.pairings))))
    budget = 4.0 * scale * sum(budget_parts.values())

    save_backward_csv(solution, rep.path("backward.csv"), stamp=rep.stamp)
    rep.table("duality_curve.csv", ("t", "pairing"), report.times, report.pairings)

    rep.check("duality_drift", report.drift, budget)
    rep.extra["budget_parts"] = budget_parts


# ---------------------------------------------------------------------------
# diagnostics


def _run_diagnostics(sc: Scenario, rep: _Report) -> None:
    grid = TimeGrid.uniform(sc.horizon, sc.cells)
    rp = _driver(sc, grid, rep.seed)
    rep.driver_checksum = roughpath_checksum(rp)
    coeffs = build_coefficients(sc)
    config = build_simulation_config(sc, grid, rep.seed, sc.particles)
    steps: list[StepReport] = []
    flow, _ = simulate(config, coeffs, rp, observer=steps.append)

    save_flow_csv(flow, rep.path("flow.csv"), stamp=rep.stamp)

    # per-step magnitude trace, as observed during the run
    parts = [(s.time, s.drift_part, s.brownian_part, s.signal_part, s.area_part) for s in steps]
    rep.table("steps.csv", ("t", "drift", "brownian", "signal", "area"), *np.array(parts).T)

    ctrl = controlled_diagnostics(flow, rp, coeffs)
    # the remainder depends on no power; both rows keep the table's layout
    rows = [
        ("increment_quotient_p2", ctrl.increment_quotient_p2),
        ("remainder_quotient_p2", ctrl.remainder_quotient),
        ("increment_quotient_p4", ctrl.increment_quotient_p4),
        ("remainder_quotient_p4", ctrl.remainder_quotient),
        ("dual_lipschitz_quotient", flow_holder_diagnostic(flow, rp.alpha)),
    ]
    if sc.dim == 1:
        rows.append(("w2_quotient", flow_w2_holder(flow, rp.alpha)))
    names, values = zip(*rows)
    rep.table("diagnostics.csv", ("diagnostic", "value"), names, np.array(values))

    rep.note(
        "diagnostics_finite",
        all(np.isfinite(v) for _, v in rows),
        " ".join(f"{k}={v!r}" for k, v in rows),
    )


_RUNNERS = {
    "lift_checks": _run_lift_checks,
    "residual_scan": _run_residual_scan,
    "chaos_scan": _run_chaos_scan,
    "duality": _run_duality,
    "diagnostics": _run_diagnostics,
}


def run_scenario(sc: Scenario, ctx: RunContext) -> int:
    os.makedirs(ctx.out_dir, exist_ok=True)
    log.info("running %s experiment %r into %s", sc.experiment, sc.name, ctx.out_dir)
    rep = _Report(sc, ctx)
    try:
        _RUNNERS[sc.experiment](sc, rep)
    except NumericalBlowup as exc:
        return rep.finish(aborted_at=exc.time)
    return rep.finish()
