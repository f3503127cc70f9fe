"""Interacting particle simulator driven by a shared level-2 signal.

One step of the scheme advances every particle by

    X  <-  X + b h + sigma dB + f dW + area : WW,

with all coefficients frozen at the left endpoint and the current empirical
cloud, ``dB`` the particle's private Brownian increment, ``dW`` and ``WW``
the shared signal increment and its cell tensor, and ``area`` the tensor from
``coefficients.area_coefficient``, built from the same jet of the signal
coefficient whose value drives ``f dW``.  Dropping the ``area : WW`` term
gives the first-order variant, which loses the second-level information and
is kept around as a control.

Private randomness is materialised up front as one increment block per
particle drawn from a counter-based stream keyed ``(seed, particle)``, so a
run is a pure function of ``(config, coefficients, signal)`` and permuting
particles together with their increment rows permutes trajectories exactly
(all cloud reductions are order-invariant by construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import CoefficientSet, _area_tensor
from .grids import TimeGrid, span_sup
from .measures import EmpiricalMeasure, MeasureFlow
from .roughpath import GridRoughPath, roughpath_checksum
from .streams import TAG_INITIAL, TAG_PARTICLE, normal_rows, substream

__all__ = [
    "SCHEME_FULL",
    "SCHEME_NO_LIFT",
    "NumericalBlowup",
    "check_finite",
    "SimulationConfig",
    "StepReport",
    "ControlledReport",
    "idiosyncratic_increments",
    "coarsen_increments",
    "initial_states",
    "step_davie",
    "simulate",
    "controlled_diagnostics",
]

SCHEME_FULL = "davie_full"
SCHEME_NO_LIFT = "davie_no_lift"
_SCHEMES = (SCHEME_FULL, SCHEME_NO_LIFT)


class NumericalBlowup(RuntimeError):
    """A particle state left the float range; carries the first bad time."""

    def __init__(self, time: float):
        super().__init__(f"non-finite particle state at t={time!r}")
        self.time = float(time)


def check_finite(states: np.ndarray, time: float) -> None:
    """Raise ``NumericalBlowup(time)`` unless every state entry is finite."""
    if not np.all(np.isfinite(states)):
        raise NumericalBlowup(time)


@dataclass(frozen=True)
class SimulationConfig:
    particle_count: int
    grid: TimeGrid
    seed: int
    dim: int
    brownian_dim: int
    driver_dim: int
    scheme: str = SCHEME_FULL
    initial_sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.particle_count < 1:
            raise ValueError("need at least one particle")
        if min(self.dim, self.brownian_dim, self.driver_dim) < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; pick one of {_SCHEMES}")


@dataclass(frozen=True)
class StepReport:
    """Per-term max displacement magnitudes for one step."""

    time: float
    drift_part: float
    brownian_part: float
    signal_part: float
    area_part: float


# ---------------------------------------------------------------------------
# randomness


def idiosyncratic_increments(
    seed: int, n_particles: int, grid: TimeGrid, brownian_dim: int
) -> np.ndarray:
    """Per-particle Brownian increments, shape ``(N, K, m)``.

    Particle ``i`` consumes the stream keyed ``(seed, particle-tag, i)``; its
    draws do not depend on how many particles run alongside it.
    """
    out = np.empty((n_particles, grid.num_cells, brownian_dim))
    normal_rows(out, seed, TAG_PARTICLE)
    out *= np.sqrt(grid.dt)[:, None]
    return out


def coarsen_increments(fine: np.ndarray, factor: int) -> np.ndarray:
    """Sum groups of ``factor`` consecutive cells; couples dyadic resolutions."""
    N, K, m = fine.shape
    if K % factor != 0:
        raise ValueError(f"cannot coarsen {K} cells by factor {factor}")
    return fine.reshape(N, K // factor, factor, m).sum(axis=2)


def initial_states(config: SimulationConfig) -> np.ndarray:
    """Sample the initial cloud, shape ``(N, d)``."""
    rng = substream(config.seed, TAG_INITIAL)
    if config.initial_sampler is None:
        states = rng.standard_normal((config.particle_count, config.dim))
    else:
        states = np.asarray(
            config.initial_sampler(rng, config.particle_count), dtype=np.float64
        )
    if states.shape != (config.particle_count, config.dim):
        raise ValueError(
            f"initial sampler returned {states.shape}, expected "
            f"({config.particle_count}, {config.dim})"
        )
    return states


# ---------------------------------------------------------------------------
# stepping


def advance_states(
    states: np.ndarray,
    coeffs: CoefficientSet,
    mu: EmpiricalMeasure | None,
    t0: float,
    h: float,
    dw: np.ndarray,
    area: np.ndarray | None,
    db: np.ndarray,
    want_report: bool = False,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, StepReport | None]:
    """One-step map on raw state arrays; shared by forward and backward runs.

    ``mu`` is the cloud of ``states`` (or None for a measure-free bundle), so
    one jet of the signal coefficient serves ``f dW``, the area tensor and
    its cloud average.  The new states are accumulated into ``out`` (a new
    array when None; ``states`` itself is allowed) and returned.
    """
    fam = coeffs.rough
    drift = coeffs.drift(t0, states, mu) * h
    brown = np.einsum("ail,al->ai", coeffs.diffusion(t0, states, mu), db)
    jet = fam.jet(t0, states, mu, 0 if area is None else 1)
    f = jet[0]
    sig = np.einsum("aik,k->ai", f, dw)
    if area is not None:
        areapart = np.einsum("aikl,kl->ai", _area_tensor(fam, t0, states, mu, jet, f), area)
    else:
        areapart = np.zeros_like(states)
    out = np.add(states, drift, out=out)
    out += brown
    out += sig
    out += areapart
    report = None
    if want_report:
        report = StepReport(
            time=t0,
            drift_part=float(np.max(np.abs(drift))),
            brownian_part=float(np.max(np.abs(brown))),
            signal_part=float(np.max(np.abs(sig))),
            area_part=float(np.max(np.abs(areapart))),
        )
    return out, report


def step_davie(
    states: np.ndarray,
    coeffs: CoefficientSet,
    rp: GridRoughPath,
    k: int,
    db: np.ndarray,
    scheme: str = SCHEME_FULL,
    want_report: bool = False,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, StepReport | None]:
    """Advance ``states`` over grid cell ``k`` of the signal, ``[t_k, t_k+1]``.

    ``db`` holds each particle's private increment over the cell, ``(N, m)``;
    ``out`` receives the new states, as in ``advance_states``.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    K = rp.grid.num_cells
    if not 0 <= k < K:
        raise ValueError(f"cell index {k!r} is outside [0, {K})")
    mu = None if coeffs.measure_free else EmpiricalMeasure(states)
    dw, area = rp.span(k, k + 1)
    return advance_states(
        states,
        coeffs,
        mu,
        float(rp.grid.points[k]),
        float(rp.grid.dt[k]),
        dw,
        area if scheme == SCHEME_FULL else None,
        db,
        want_report=want_report,
        out=out,
    )


def simulate(
    config: SimulationConfig,
    coeffs: CoefficientSet,
    rp: GridRoughPath,
    brownian: np.ndarray | None = None,
    observer: Callable[[StepReport], None] | None = None,
) -> tuple[MeasureFlow, np.ndarray]:
    """Run the scheme over the whole grid.

    Returns the measure flow and the raw trajectory block ``(K+1, N, d)``;
    the block is the flow's own read-only ``states``, not a copy.
    Pass ``brownian`` to override the materialised private increments (the
    coupled-refinement experiments do, with sums of finer draws); shape must
    be ``(N, K, m)``.  With an ``observer``, every step computes its
    ``StepReport`` and passes it to ``observer`` in grid order, before the
    step's finiteness check, so the step that blew up is observed too.
    Raises ``NumericalBlowup`` at the first non-finite state.
    """
    if rp.grid is not config.grid and not np.array_equal(
        rp.grid.points, config.grid.points
    ):
        raise ValueError("signal and simulation grid differ")
    if rp.dim != config.driver_dim:
        raise ValueError(
            f"signal dimension {rp.dim} != configured driver_dim {config.driver_dim}"
        )
    if coeffs.dim != config.dim or coeffs.brownian_dim != config.brownian_dim:
        raise ValueError("coefficient bundle dimensions disagree with config")

    N, K = config.particle_count, config.grid.num_cells
    history = np.empty((K + 1, N, config.dim))
    history[0] = initial_states(config)
    if brownian is None:
        brownian = idiosyncratic_increments(config.seed, N, config.grid, config.brownian_dim)
    brownian = np.asarray(brownian, dtype=np.float64)
    if brownian.shape != (N, K, config.brownian_dim):
        raise ValueError(
            f"brownian block must be (N={N}, K={K}, m={config.brownian_dim}), "
            f"got {brownian.shape}"
        )
    pts = config.grid.points
    for k in range(K):
        _, report = step_davie(
            history[k], coeffs, rp, k, brownian[:, k], scheme=config.scheme,
            want_report=observer is not None, out=history[k + 1],
        )
        if observer is not None:
            observer(report)
        check_finite(history[k + 1], float(pts[k + 1]))
    history.setflags(write=False)
    flow = MeasureFlow(
        grid=config.grid, states=history, driver_checksum=roughpath_checksum(rp)
    )
    return flow, history


# ---------------------------------------------------------------------------
# pathwise regularity diagnostics


@dataclass(frozen=True)
class ControlledReport:
    """Grid quotients measuring how well the signal controls the ensemble."""

    increment_quotient: float      # sup |dX|_{Lp} / |t-s|^alpha
    remainder_quotient: float      # sup |avg residual| / |t-s|^(2 alpha)
    p: float


def controlled_diagnostics(
    flow: MeasureFlow,
    rp: GridRoughPath,
    coeffs: CoefficientSet,
    powers: tuple[int, ...] = (2,),
) -> tuple[ControlledReport, ...]:
    """Estimate the two quotients behind the controlled-path ansatz.

    The candidate derivative of a trajectory at time ``s`` is the signal
    coefficient there, so the residual over ``[s, t]`` is
    ``dX - f(s, X_s, mu_s) dW(s, t)``.  Its cross-particle average stands in
    for the conditional expectation given the shared signal; the quotient
    divides by ``|t-s|^(2 alpha)``.  Quadratic in the node count.

    Returns one report per entry of ``powers`` (each 2 or 4), in that order;
    one pass over the spans serves every power, and the remainder quotient,
    which does not depend on the power, is shared.
    """
    if not powers or any(p not in (2, 4) for p in powers):
        raise ValueError(f"powers must be a non-empty tuple of 2 and 4, got {powers!r}")
    X = flow.states                                 # (K+1, N, d)
    pts = flow.grid.points
    fvals = np.empty(X.shape[:2] + (coeffs.dim, coeffs.driver_dim))
    for k in range(pts.size):
        if coeffs.measure_free:
            mu = None
        elif np.all(np.isfinite(X[k])):
            mu = flow.measure(k)
        else:
            # no measure at a cloud with a non-finite point; the NaN reaches
            # every span from this node, as the state's own NaN does
            fvals[k] = np.nan
            continue
        fvals[k] = coeffs.rough.jet(float(pts[k]), X[k], mu, 0)[0]

    # Buffers sized for the longest span; start node i uses the first J rows.
    # The reductions are np.linalg.norm and np.mean spelled out in place.
    K, N = X.shape[0] - 1, X.shape[1]
    dX_buf, work_buf = np.empty((2, K) + X.shape[1:])
    norms_buf, pow_buf = np.empty((2, K, N))

    def rows():
        for i, gap in flow.grid.spans():
            J = gap.size
            dX, work, norms, pw = dX_buf[:J], work_buf[:J], norms_buf[:J], pow_buf[:J]
            np.subtract(X[i + 1 :], X[i], out=dX)          # (J, N, d)
            np.add.reduce(np.multiply(dX, dX, out=work), axis=2, out=norms)
            np.sqrt(norms, out=norms)
            gap_a = gap**rp.alpha
            inc = []
            for p in powers:
                if p == 2:
                    np.square(norms, out=pw)
                else:
                    np.power(norms, 4, out=pw)
                inc.append((np.add.reduce(pw, axis=1) / N) ** (1.0 / p) / gap_a)
            dw = rp.values[i + 1 :] - rp.values[i]         # (J, n)
            np.einsum("aik,jk->jai", fvals[i], dw, out=work)
            avg = np.add.reduce(np.subtract(dX, work, out=work), axis=1) / N   # (J, d)
            yield *inc, np.linalg.norm(avg, axis=1) / gap ** (2 * rp.alpha)

    *q_inc, q_rem = span_sup(rows())
    return tuple(
        ControlledReport(increment_quotient=q, remainder_quotient=q_rem, p=p)
        for q, p in zip(q_inc, powers)
    )
