"""The five runnable experiments behind the command line.

Each runner takes a parsed scenario plus a run context, writes its CSV
artifacts and a ``summary.json`` into the output directory, and returns a
process exit code: 0 on success, 2 when a checked invariant fails, 3 when the
simulation aborted on a non-finite state.  (Exit code 1, scenario parse
failure, never reaches a runner.)  All floats in reports are written with
``repr`` and JSON keys are sorted, so two runs of the same scenario produce
byte-identical artifacts up to the optional timestamp header.

The registry is closed: these five names are the whole surface, and the
scenario parser already rejects anything else.
"""

from __future__ import annotations

import concurrent.futures
import datetime
import json
import logging
import os
from dataclasses import dataclass, replace

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
    build_initial_sampler,
    build_terminal,
    scenario_checksum,
)
from .simulate import (
    NumericalBlowup,
    SimulationConfig,
    coarsen_increments,
    controlled_diagnostics,
    idiosyncratic_increments,
    simulate,
    step_davie,
)
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
    threads: int = 1
    timestamp: bool = True
    seed_override: int | None = None


def _derive_seed(*parts: int) -> int:
    """Stable small integer from mixed entropy; keeps config seeds plain ints."""
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


def _effective_seed(sc: Scenario, ctx: RunContext) -> int:
    return sc.seed if ctx.seed_override is None else int(ctx.seed_override)


class _Report:
    """Accumulates invariants and artifact names for summary.json."""

    def __init__(self, sc: Scenario, ctx: RunContext):
        self.sc = sc
        self.ctx = ctx
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

    def finish(self, driver_checksum: str | None, aborted_at: float | None = None) -> int:
        passed = all(inv["passed"] for inv in self.invariants.values())
        summary = {
            "scenario_name": self.sc.name,
            "experiment": self.sc.experiment,
            "scenario_checksum": scenario_checksum(self.sc),
            "driver_checksum": driver_checksum,
            "seed": _effective_seed(self.sc, self.ctx),
            "invariants": self.invariants,
            "artifacts": sorted(self.artifacts),
            "passed": passed and aborted_at is None,
        }
        summary.update(self.extra)
        if aborted_at is not None:
            summary["aborted_at"] = aborted_at
        if self.ctx.timestamp:
            summary["generated"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        with open(os.path.join(self.ctx.out_dir, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
        if aborted_at is not None:
            return EXIT_BLOWUP
        return EXIT_OK if passed else EXIT_INVARIANT


def _stamp(ctx: RunContext) -> str | None:
    if not ctx.timestamp:
        return None
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _csv_header(fh, ctx: RunContext) -> None:
    stamp = _stamp(ctx)
    if stamp is not None:
        fh.write(f"# generated {stamp}\n")


# ---------------------------------------------------------------------------
# lift_checks


def _run_lift_checks(sc: Scenario, ctx: RunContext) -> int:
    rep = _Report(sc, ctx)
    seed = _effective_seed(sc, ctx)
    grid = TimeGrid.uniform(sc.horizon, sc.cells)
    rp = build_driver(sc, grid, driver_seed=_derive_seed(seed, sc.driver_seed))

    # deterministic triple sample across the grid
    rng = np.random.default_rng(_derive_seed(seed, 7))
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
    geo = sym_defect(rp)
    q1, q2 = holder_norms(rp)

    ito = ito_from_stratonovich(rp)
    back = stratonovich_from_ito(ito)
    round_trip = float(np.max(np.abs(back.cell_areas - rp.cell_areas)))

    path_csv = rep.path("driver.csv")
    save_roughpath_csv(rp, path_csv, stamp=_stamp(ctx))
    reloaded = load_roughpath_csv(path_csv)
    reload_err = max(
        float(np.max(np.abs(reloaded.values - rp.values))),
        float(np.max(np.abs(reloaded.cell_areas - rp.cell_areas))),
    )

    rep.check("chen_max_residual", worst_chen, _CHEN_TOL)
    rep.check("sym_defect", geo.max_defect, _SYM_TOL)
    rep.check("convention_round_trip", round_trip, _ROUNDTRIP_TOL)
    rep.check("csv_round_trip", reload_err, 0.0)
    rep.note("holder_quotients_finite", bool(np.isfinite(q1) and np.isfinite(q2)),
             f"first={q1!r} second={q2!r}")

    with open(rep.path("checks.csv"), "w", encoding="utf-8") as fh:
        _csv_header(fh, ctx)
        fh.write("check,value,tolerance\n")
        fh.write(f"chen_max_residual,{worst_chen!r},{_CHEN_TOL!r}\n")
        fh.write(f"sym_defect,{geo.max_defect!r},{_SYM_TOL!r}\n")
        fh.write(f"convention_round_trip,{round_trip!r},{_ROUNDTRIP_TOL!r}\n")
        fh.write(f"holder_first,{q1!r},\n")
        fh.write(f"holder_second,{q2!r},\n")
    return rep.finish(roughpath_checksum(rp))


# ---------------------------------------------------------------------------
# residual_scan


def _coupled_runs(sc: Scenario, seed: int, base_cells: int):
    """Flows and drivers on dyadic refinements sharing all randomness.

    The driver is built once on the finest grid and restricted down; private
    increments are drawn once at the finest resolution and pair-summed, so
    coarse runs see exactly the coarse-graining of the fine randomness.
    """
    finest_factor = 2 ** (sc.levels - 1)
    fine_grid = TimeGrid.uniform(sc.horizon, base_cells * finest_factor)
    fine_rp = build_driver(sc, fine_grid, driver_seed=_derive_seed(seed, sc.driver_seed))
    coeffs = build_coefficients(sc)
    sampler = build_initial_sampler(sc)
    fine_incs = idiosyncratic_increments(
        seed, sc.particles, fine_grid, sc.brownian_dim
    )
    runs = []
    for level in range(sc.levels):
        factor = 2 ** (sc.levels - 1 - level)
        grid = fine_grid.coarsen(factor) if factor > 1 else fine_grid
        rp = restrict(fine_rp, grid) if factor > 1 else fine_rp
        config = SimulationConfig(
            particle_count=sc.particles,
            grid=grid,
            seed=seed,
            dim=sc.dim,
            brownian_dim=sc.brownian_dim,
            driver_dim=sc.driver_dim,
            scheme=sc.scheme,
            initial_sampler=sampler,
        )
        incs = coarsen_increments(fine_incs, factor) if factor > 1 else fine_incs
        flow, _ = simulate(config, coeffs, rp, brownian=incs)
        runs.append((flow, rp))
    return runs, coeffs


def _run_residual_scan(sc: Scenario, ctx: RunContext) -> int:
    rep = _Report(sc, ctx)
    seed = _effective_seed(sc, ctx)
    try:
        runs, coeffs = _coupled_runs(sc, seed, sc.cells)
        replicates = []
        if sc.sigma[0] != "none":
            # noisy runs: two replicate seeds estimate the sampling floor
            for extra in (1, 2):
                rruns, _ = _coupled_runs(sc, _derive_seed(seed, 1000 + extra), sc.cells)
                replicates.append(rruns)
    except NumericalBlowup as exc:
        return rep.finish(None, aborted_at=exc.time)

    scan = residual_order_scan(runs, default_bank(sc.dim), coeffs, replicates=replicates)
    with open(rep.path("residuals.csv"), "w", encoding="utf-8") as fh:
        _csv_header(fh, ctx)
        fh.write("phi,level,delta,max_residual,noise_floor\n")
        for name, level, delta, stat, floor in scan.table:
            fh.write(f"{name},{level},{delta!r},{stat!r},{floor!r}\n")

    target = 3.0 * sc.alpha * 0.8
    if sc.sigma[0] == "none":
        for name, slope in scan.slopes.items():
            rep.check(f"slope[{name}]", slope, target, larger_ok=True)
    else:
        rep.note("slopes_reported", True, "stochastic run; slopes informational")
    rep.extra["slopes"] = {k: (None if np.isinf(v) else v) for k, v in scan.slopes.items()}
    rep.extra["exact"] = scan.exact
    return rep.finish(roughpath_checksum(runs[-1][1]))


# ---------------------------------------------------------------------------
# chaos_scan


def _run_chaos_scan(sc: Scenario, ctx: RunContext) -> int:
    rep = _Report(sc, ctx)
    seed = _effective_seed(sc, ctx)
    grid = TimeGrid.uniform(sc.horizon, sc.cells)
    rp = build_driver(sc, grid, driver_seed=_derive_seed(seed, sc.driver_seed))
    coeffs = build_coefficients(sc)
    sampler = build_initial_sampler(sc)

    def one_run(count: int, copy: int):
        config = SimulationConfig(
            particle_count=count,
            grid=grid,
            seed=_derive_seed(seed, count, copy),
            dim=sc.dim,
            brownian_dim=sc.brownian_dim,
            driver_dim=sc.driver_dim,
            scheme=sc.scheme,
            initial_sampler=sampler,
        )
        flow, _ = simulate(config, coeffs, rp)
        return EmpiricalMeasure(flow.states[-1])

    # Every ensemble is measured against one independent reference ensemble
    # at the largest requested particle count, so the reported distances
    # isolate the small-N fluctuation of the scanned ensembles.
    ref_count = max(sc.particle_counts)
    jobs = [(count, 0) for count in sc.particle_counts] + [(ref_count, 1)]
    results: dict[tuple[int, int], EmpiricalMeasure] = {}
    try:
        if ctx.threads > 1:
            with concurrent.futures.ThreadPoolExecutor(max_workers=ctx.threads) as pool:
                futs = {pool.submit(one_run, c, k): (c, k) for c, k in jobs}
                for fut in concurrent.futures.as_completed(futs):
                    results[futs[fut]] = fut.result()
        else:
            for c, k in jobs:
                results[(c, k)] = one_run(c, k)
    except NumericalBlowup as exc:
        return rep.finish(roughpath_checksum(rp), aborted_at=exc.time)

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

    with open(rep.path("chaos.csv"), "w", encoding="utf-8") as fh:
        _csv_header(fh, ctx)
        fh.write("particles,w2_to_ref\n")
        for count, d in distances:
            fh.write(f"{count},{d!r}\n")

    decreasing = all(b < a for (_, a), (_, b) in zip(distances, distances[1:]))
    rep.note(
        "w2_strictly_decreasing",
        decreasing,
        " ".join(f"{c}:{d!r}" for c, d in distances),
    )
    rep.extra["w2_to_ref"] = {str(c): d for c, d in distances}
    rep.extra["reference_particles"] = ref_count
    return rep.finish(roughpath_checksum(rp))


# ---------------------------------------------------------------------------
# duality


def _run_duality(sc: Scenario, ctx: RunContext) -> int:
    rep = _Report(sc, ctx)
    seed = _effective_seed(sc, ctx)
    grid = TimeGrid.uniform(sc.horizon, sc.cells)
    rp = build_driver(sc, grid, driver_seed=_derive_seed(seed, sc.driver_seed))
    coeffs = build_coefficients(sc)
    config = SimulationConfig(
        particle_count=sc.particles,
        grid=grid,
        seed=seed,
        dim=sc.dim,
        brownian_dim=sc.brownian_dim,
        driver_dim=sc.driver_dim,
        scheme=sc.scheme,
        initial_sampler=build_initial_sampler(sc),
    )
    try:
        flow, _ = simulate(config, coeffs, rp)
    except NumericalBlowup as exc:
        return rep.finish(roughpath_checksum(rp), aborted_at=exc.time)

    name, terminal = build_terminal(sc)
    axes = lattice_from_flow(flow, sc.x_points)
    t_idx = np.unique(np.round(np.linspace(0, grid.num_cells, sc.time_points)).astype(int))
    times = [float(grid.points[i]) for i in t_idx]
    try:
        solution = solve_backward_fk(
            coeffs, rp, terminal, axes, times, sc.backward_samples,
            seed=_derive_seed(seed, 31), terminal_name=name,
        )
    except NumericalBlowup as exc:
        return rep.finish(roughpath_checksum(rp), aborted_at=exc.time)
    report = duality_drift(flow, solution)

    delta = sc.horizon / sc.cells
    budget_parts = (
        delta ** (3 * sc.alpha - 1)
        + 1.0 / np.sqrt(sc.backward_samples)
        + 1.0 / np.sqrt(sc.particles)
    )
    scale = max(1.0, float(np.max(np.abs(report.pairings))))
    budget = 4.0 * scale * budget_parts

    save_backward_csv(solution, rep.path("backward.csv"), stamp=_stamp(ctx))
    with open(rep.path("duality_curve.csv"), "w", encoding="utf-8") as fh:
        _csv_header(fh, ctx)
        fh.write("t,pairing\n")
        for t, p in zip(report.times, report.pairings):
            fh.write(f"{t!r},{p!r}\n")

    rep.check("duality_drift", report.drift, budget)
    rep.extra["budget_parts"] = {
        "delta_order": delta ** (3 * sc.alpha - 1),
        "mc": 1.0 / np.sqrt(sc.backward_samples),
        "cloud": 1.0 / np.sqrt(sc.particles),
    }
    return rep.finish(roughpath_checksum(rp))


# ---------------------------------------------------------------------------
# diagnostics


def _run_diagnostics(sc: Scenario, ctx: RunContext) -> int:
    rep = _Report(sc, ctx)
    seed = _effective_seed(sc, ctx)
    grid = TimeGrid.uniform(sc.horizon, sc.cells)
    rp = build_driver(sc, grid, driver_seed=_derive_seed(seed, sc.driver_seed))
    coeffs = build_coefficients(sc)
    config = SimulationConfig(
        particle_count=sc.particles,
        grid=grid,
        seed=seed,
        dim=sc.dim,
        brownian_dim=sc.brownian_dim,
        driver_dim=sc.driver_dim,
        scheme=sc.scheme,
        initial_sampler=build_initial_sampler(sc),
    )
    try:
        flow, _ = simulate(config, coeffs, rp)
    except NumericalBlowup as exc:
        return rep.finish(roughpath_checksum(rp), aborted_at=exc.time)

    save_flow_csv(flow, rep.path("flow.csv"), stamp=_stamp(ctx))

    # per-step magnitude trace, replayed with reports switched on
    from .simulate import initial_ensemble

    ens = initial_ensemble(config)
    with open(rep.path("steps.csv"), "w", encoding="utf-8") as fh:
        _csv_header(fh, ctx)
        fh.write("t,drift,brownian,signal,area\n")
        for k in range(grid.num_cells):
            ens, step = step_davie(
                ens, coeffs, rp, float(grid.points[k]), float(grid.points[k + 1]),
                scheme=sc.scheme, want_report=True,
            )
            fh.write(
                f"{step.time!r},{step.drift_part!r},{step.brownian_part!r},"
                f"{step.signal_part!r},{step.area_part!r}\n"
            )

    ctrl2 = controlled_diagnostics(flow, rp, coeffs, p=2)
    ctrl4 = controlled_diagnostics(flow, rp, coeffs, p=4)
    dual_lip = flow_holder_diagnostic(flow, lip_const=1.0, alpha=rp.alpha)
    rows = [
        ("increment_quotient_p2", ctrl2.increment_quotient),
        ("remainder_quotient_p2", ctrl2.remainder_quotient),
        ("increment_quotient_p4", ctrl4.increment_quotient),
        ("remainder_quotient_p4", ctrl4.remainder_quotient),
        ("dual_lipschitz_quotient", dual_lip),
    ]
    if sc.dim == 1:
        rows.append(("w2_quotient", flow_w2_holder(flow, rp.alpha)))
    with open(rep.path("diagnostics.csv"), "w", encoding="utf-8") as fh:
        _csv_header(fh, ctx)
        fh.write("diagnostic,value\n")
        for key, val in rows:
            fh.write(f"{key},{val!r}\n")

    rep.note(
        "diagnostics_finite",
        all(np.isfinite(v) for _, v in rows),
        " ".join(f"{k}={v!r}" for k, v in rows),
    )
    return rep.finish(roughpath_checksum(rp))


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
    return _RUNNERS[sc.experiment](sc, ctx)
