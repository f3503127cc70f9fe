"""Outside-in span tracer for the scenario benchmark.

The tracer wraps named public functions of ``roughmkv`` without editing the
package: for each target it takes the function from its defining module and
rebinds every ``roughmkv`` module attribute that holds that function object,
which covers the names other modules imported (``experiments.step_davie``,
``simulate.idiosyncratic_increments``, ``weakcheck.area_coefficient``, ...).
Each call records one span (name, start, end, parent) plus optional
work quantities read from the call's arguments.  Spans stay in memory until
the caller derives metrics from them; leaving the ``with`` block restores
every original binding.

The benchmark runs single-threaded, so one call stack gives each span its
parent.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


@dataclass
class Span:
    name: str
    parent: int            # index into Tracer.spans; -1 for the root
    start: float
    end: float = 0.0
    qty: dict | None = None
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    module: str
    function: str
    # Called with the traced call's arguments; returns work quantities.
    qty: Callable[..., dict] | None = None


def _points(x) -> int:
    return int(np.shape(x)[0]) if np.ndim(x) == 2 else 1


def _path_steps(coeffs, rp, terminal, axes, times, mc_samples, *args, **kwargs):
    lattice = int(np.prod([len(a) for a in axes]))
    steps = sum(rp.grid.num_cells - rp.grid.index_of(float(t)) for t in times)
    return {"path_steps": lattice * int(mc_samples) * steps}


def _cell_probes(runs, bank, coeffs, replicates=()):
    flows = [flow for flow, _ in runs] + [flow for reps in replicates for flow, _ in reps]
    return {"cell_probes": len(bank) * sum(f.grid.num_cells for f in flows)}


TARGETS = (
    Target("roughmkv.streams", "substream"),
    Target(
        "roughmkv.simulate", "idiosyncratic_increments",
        lambda seed, n_particles, grid, brownian_dim: {
            "particles": n_particles,
            "draws": n_particles * grid.num_cells * brownian_dim,
        },
    ),
    Target("roughmkv.scenario", "build_driver"),
    Target(
        "roughmkv.roughpath", "brownian_lift",
        lambda seed, dim, grid, *args, **kwargs: {"cells": grid.num_cells},
    ),
    Target(
        "roughmkv.roughpath", "lift_piecewise_linear",
        lambda grid, *args, **kwargs: {"cells": grid.num_cells},
    ),
    Target("roughmkv.roughpath", "restrict"),
    Target(
        "roughmkv.coefficients", "area_coefficient",
        lambda coeffs, t, x, mu: {"points": _points(x)},
    ),
    Target(
        "roughmkv.simulate", "simulate",
        lambda config, *args, **kwargs: {
            "particle_steps": config.particle_count * config.grid.num_cells,
            "grid_steps": config.grid.num_cells,
        },
    ),
    Target("roughmkv.simulate", "step_davie"),
    Target("roughmkv.simulate", "controlled_diagnostics"),
    Target("roughmkv.weakcheck", "residual_order_scan", _cell_probes),
    Target("roughmkv.weakcheck", "weak_residual"),
    Target("roughmkv.backward", "solve_backward_fk", _path_steps),
    Target("roughmkv.backward", "duality_drift"),
    Target("roughmkv.measures", "wasserstein2_1d"),
    Target("roughmkv.measures", "wasserstein2_exact_small"),
    Target("roughmkv.measures", "flow_holder_diagnostic"),
    Target("roughmkv.measures", "flow_w2_holder"),
    Target(
        "roughmkv.measures", "save_flow_csv",
        lambda flow, *args, **kwargs: {
            "rows": int(flow.states.shape[0] * flow.states.shape[1])
        },
    ),
    Target("roughmkv.scenario", "parse_scenario_file"),
)


class Tracer:
    """Records spans for every target while installed (``with tracer:``)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, target: Target):
        tracer = self

        def traced(*args, **kwargs):
            span = Span(
                target.function,
                tracer._stack[-1] if tracer._stack else -1, 0.0,
                qty=target.qty(*args, **kwargs) if target.qty else None,
            )
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                tracer._stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        for target in TARGETS:
            original = getattr(importlib.import_module(target.module), target.function)
            wrapper = self._wrap(original, target)
            for name, module in list(sys.modules.items()):
                if name != "roughmkv" and not name.startswith("roughmkv."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def root(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` as the root span of a fresh trace; returns its result."""
        self.spans = []
        self._stack = [0]
        span = Span(name, -1, perf_counter())
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack = []


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


# Time metrics that sum the whole duration of the named calls, children
# included.  ``simulate.forward_self_s`` and ``experiments.self_s`` are self
# times and are derived separately.
INCLUSIVE_S = {
    "streams.increments_s": ("idiosyncratic_increments",),
    "roughpath.driver_s": ("build_driver",),
    "roughpath.restrict_s": ("restrict",),
    "coefficients.area_s": ("area_coefficient",),
    "simulate.controlled_s": ("controlled_diagnostics",),
    "weakcheck.scan_s": ("residual_order_scan",),
    "backward.solve_s": ("solve_backward_fk",),
    "backward.pairing_s": ("duality_drift",),
    "measures.w2_s": ("wasserstein2_1d", "wasserstein2_exact_small"),
    "measures.span_s": ("flow_holder_diagnostic", "flow_w2_holder"),
    "measures.flow_csv_s": ("save_flow_csv",),
}
LIFTS = ("brownian_lift", "lift_piecewise_linear")
PARSE = "parse_scenario_file"
# Forward stepping wherever it runs: inside ``simulate`` and in the
# diagnostics replay, which calls ``step_davie`` from ``experiments``.
FORWARD = ("simulate", "step_davie")


def uncovered_s(spans: list[Span]) -> float:
    """Self time of traced calls that no reported time metric includes.

    A call is covered when a time metric names it or it runs inside a call
    that an inclusive time metric names.  The root's self time is
    ``experiments.self_s``, so root self time plus the covered self times
    account for the traced run exactly when this is 0.
    """
    inclusive = {n for names in INCLUSIVE_S.values() for n in names} | set(LIFTS) | {PARSE}
    own = self_times(spans)
    inside = [False] * len(spans)
    gap = 0.0
    for i, s in enumerate(spans[1:], start=1):
        inside[i] = s.name in inclusive or inside[s.parent]
        if not (inside[i] or s.name in FORWARD):
            gap += own[i]
    return gap


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced run whose root is ``spans[0]``."""
    own = self_times(spans)
    counts = work_counts(spans)
    busy: dict[str, float] = {}
    forward_self = 0.0
    increment_streams = 0
    for i, s in enumerate(spans):
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
        if s.name in FORWARD:
            forward_self += own[i]
        if s.name == "substream" and s.parent >= 0 and spans[s.parent].name == "idiosyncratic_increments":
            increment_streams += 1

    def n(name):
        return counts.get(f"calls.{name}", 0)

    def t(*names):
        return sum(busy.get(name, 0.0) for name in names)

    def per(numerator, denominator, scale=1.0):
        return numerator * scale / denominator if denominator else 0.0

    grid_steps = counts.get("grid_steps", 0)
    particle_steps = counts.get("particle_steps", 0)
    path_steps = counts.get("path_steps", 0)
    metrics = {name: t(*names) for name, names in INCLUSIVE_S.items()}
    metrics.update({
        "streams.substreams": n("substream"),
        "streams.increments_us_per_particle": per(
            t("idiosyncratic_increments"), counts.get("particles", 0), 1e6),
        "streams.draws_per_substream": per(counts.get("draws", 0), increment_streams),
        "roughpath.lift_us_per_cell": per(t(*LIFTS), counts.get("cells", 0), 1e6),
        "coefficients.area_calls": n("area_coefficient"),
        "coefficients.area_ns_per_point": per(
            t("area_coefficient"), counts.get("points", 0), 1e9),
        "coefficients.area_calls_per_node": per(n("area_coefficient"), grid_steps),
        "simulate.forward_self_s": forward_self,
        "simulate.particle_steps": particle_steps,
        "simulate.forward_ns_per_particle_step": per(forward_self, particle_steps, 1e9),
        "simulate.steps_per_grid_step": per(n("step_davie"), grid_steps),
        "simulate.blowups": sum(
            1 for s in spans if s.name == "simulate" and s.error == "NumericalBlowup"),
        "weakcheck.residual_calls": n("weak_residual"),
        "weakcheck.residual_us_per_cell_probe": per(
            t("residual_order_scan"), counts.get("cell_probes", 0), 1e6),
        "backward.path_steps": path_steps,
        "backward.ns_per_path_step": per(t("solve_backward_fk"), path_steps, 1e9),
        "measures.w2_pairs": n("wasserstein2_1d") + n("wasserstein2_exact_small"),
        "measures.flow_csv_us_per_row": per(t("save_flow_csv"), counts.get("rows", 0), 1e6),
        "scenario.parse_ms": t(PARSE) * 1e3,
        "experiments.self_s": own[0],
    })
    return metrics


def work_counts(spans: list[Span]) -> dict[str, int]:
    """Work quantities and call counts of one traced run, for exact checks."""
    counts: dict[str, int] = {}
    for s in spans[1:]:
        counts[f"calls.{s.name}"] = counts.get(f"calls.{s.name}", 0) + 1
        for key, value in (s.qty or {}).items():
            counts[key] = counts.get(key, 0) + value
    return counts
