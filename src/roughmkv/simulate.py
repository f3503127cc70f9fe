"""Interacting particle simulator driven by a shared level-2 signal.

One step of the scheme advances every particle by

    X  <-  X + b h + sigma dB + f dW + area : WW,

with all coefficients frozen at the left endpoint and the current empirical
cloud, ``dB`` the particle's private Brownian increment, ``dW`` and ``WW``
the shared signal increment and its cell tensor, and ``area`` the tensor from
``coefficients.area_coefficient``.  Dropping the ``area : WW`` term gives the
first-order variant, which loses the second-level information and is kept
around as a control.

Private randomness is materialised up front as one increment block per
particle drawn from a counter-based stream keyed ``(seed, particle)``, so a
run is a pure function of ``(config, coefficients, signal)`` and permuting
particles together with their increment rows permutes trajectories exactly
(all cloud reductions are order-invariant by construction).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .coefficients import CoefficientSet, area_coefficient
from .grids import TimeGrid
from .measures import EmpiricalMeasure, MeasureFlow
from .roughpath import GridRoughPath, roughpath_checksum
from .streams import TAG_INITIAL, TAG_PARTICLE, normal_rows, substream

__all__ = [
    "SCHEME_FULL",
    "SCHEME_NO_LIFT",
    "NumericalBlowup",
    "check_finite",
    "SimulationConfig",
    "ParticleEnsemble",
    "StepReport",
    "ControlledReport",
    "idiosyncratic_increments",
    "coarsen_increments",
    "initial_ensemble",
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


@dataclass(frozen=True, eq=False)
class ParticleEnsemble:
    """Particle states plus their materialised private increments."""

    grid: TimeGrid
    states: np.ndarray        # (N, d)
    brownian: np.ndarray      # (N, K, m), increments per grid cell

    def __post_init__(self) -> None:
        st = np.asarray(self.states, dtype=np.float64)
        db = np.asarray(self.brownian, dtype=np.float64)
        if st.ndim != 2:
            raise ValueError("states must be (N, d)")
        if db.shape[:2] != (st.shape[0], self.grid.num_cells):
            raise ValueError(
                f"brownian block must be (N={st.shape[0]}, K={self.grid.num_cells}, m), "
                f"got {db.shape}"
            )
        object.__setattr__(self, "states", st)
        object.__setattr__(self, "brownian", db)

    @property
    def size(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class StepReport:
    """Per-term max displacement magnitudes for one step."""

    time: float
    drift_part: float
    brownian_part: float
    signal_part: float
    area_part: float

    @property
    def max_increment(self) -> float:
        return max(self.drift_part, self.brownian_part, self.signal_part, self.area_part)


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


def initial_ensemble(
    config: SimulationConfig, brownian: np.ndarray | None = None
) -> ParticleEnsemble:
    """Sample the initial cloud and materialise private increments."""
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
    if brownian is None:
        brownian = idiosyncratic_increments(
            config.seed, config.particle_count, config.grid, config.brownian_dim
        )
    return ParticleEnsemble(grid=config.grid, states=states, brownian=brownian)


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
) -> tuple[np.ndarray, StepReport | None]:
    """One-step map on raw state arrays; shared by forward and backward runs."""
    drift = coeffs.drift(t0, states, mu) * h
    brown = np.einsum("ail,al->ai", coeffs.diffusion(t0, states, mu), db)
    sig = np.einsum("aik,k->ai", coeffs.rough.eval(t0, states, mu), dw)
    if area is not None:
        areapart = np.einsum(
            "aikl,kl->ai", area_coefficient(coeffs, t0, states, mu), area
        )
    else:
        areapart = np.zeros_like(states)
    new = states + drift + brown + sig + areapart
    report = None
    if want_report:
        report = StepReport(
            time=t0,
            drift_part=float(np.max(np.abs(drift))),
            brownian_part=float(np.max(np.abs(brown))),
            signal_part=float(np.max(np.abs(sig))),
            area_part=float(np.max(np.abs(areapart))),
        )
    return new, report


def step_davie(
    ensemble: ParticleEnsemble,
    coeffs: CoefficientSet,
    rp: GridRoughPath,
    s: float,
    t: float,
    scheme: str = SCHEME_FULL,
    want_report: bool = False,
) -> tuple[ParticleEnsemble, StepReport | None]:
    """Advance the ensemble over the single grid cell ``[s, t]``."""
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    i, j = ensemble.grid.span_indices(s, t)
    if j != i + 1:
        raise ValueError(f"[{s!r}, {t!r}] is not a single grid cell")
    mu = None if coeffs.measure_free else EmpiricalMeasure(ensemble.states)
    h = float(ensemble.grid.dt[i])
    area = rp.second(s, t) if scheme == SCHEME_FULL else None
    new, report = advance_states(
        ensemble.states,
        coeffs,
        mu,
        float(s),
        h,
        rp.increment(s, t),
        area,
        ensemble.brownian[:, i, :],
        want_report=want_report,
    )
    return replace(ensemble, states=new), report


def simulate(
    config: SimulationConfig,
    coeffs: CoefficientSet,
    rp: GridRoughPath,
    brownian: np.ndarray | None = None,
) -> tuple[MeasureFlow, np.ndarray]:
    """Run the scheme over the whole grid.

    Returns the measure flow and the raw trajectory block ``(K+1, N, d)``.
    Pass ``brownian`` to override the materialised private increments (the
    coupled-refinement experiments do, with sums of finer draws); shape must
    be ``(N, K, m)``.  Raises ``NumericalBlowup`` at the first non-finite
    state.
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

    ens = initial_ensemble(config, brownian)
    K = config.grid.num_cells
    history = np.empty((K + 1, config.particle_count, config.dim))
    history[0] = ens.states
    pts = config.grid.points
    for k in range(K):
        ens, _ = step_davie(
            ens, coeffs, rp, float(pts[k]), float(pts[k + 1]), scheme=config.scheme
        )
        check_finite(ens.states, float(pts[k + 1]))
        history[k + 1] = ens.states
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
    p: int = 2,
) -> ControlledReport:
    """Estimate the two quotients behind the controlled-path ansatz.

    The candidate derivative of a trajectory at time ``s`` is the signal
    coefficient there, so the residual over ``[s, t]`` is
    ``dX - f(s, X_s, mu_s) dW(s, t)``.  Its cross-particle average stands in
    for the conditional expectation given the shared signal; the quotient
    divides by ``|t-s|^(2 alpha)``.  Quadratic in the node count.
    """
    if p not in (2, 4):
        raise ValueError(f"p must be 2 or 4, got {p}")
    X = flow.states                                 # (K+1, N, d)
    pts = flow.grid.points
    K1 = pts.size
    fvals = np.empty(X.shape[:2] + (coeffs.dim, coeffs.driver_dim))
    for k in range(K1):
        mu = None if coeffs.measure_free else flow.measure(k)
        fvals[k] = coeffs.rough.eval(float(pts[k]), X[k], mu)
    w = rp.values
    q_inc, q_rem = 0.0, 0.0
    for i in range(K1 - 1):
        gap = pts[i + 1 :] - pts[i]
        dX = X[i + 1 :] - X[i]                      # (J, N, d)
        norms = np.linalg.norm(dX, axis=2)
        lp = np.mean(norms**p, axis=1) ** (1.0 / p)
        q_inc = max(q_inc, float(np.max(lp / gap**rp.alpha)))
        dw = w[i + 1 :] - w[i]                      # (J, n)
        resid = dX - np.einsum("aik,jk->jai", fvals[i], dw)
        avg = resid.mean(axis=1)                    # (J, d)
        q_rem = max(
            q_rem,
            float(np.max(np.linalg.norm(avg, axis=1) / gap ** (2 * rp.alpha))),
        )
    return ControlledReport(increment_quotient=q_inc, remainder_quotient=q_rem, p=p)
