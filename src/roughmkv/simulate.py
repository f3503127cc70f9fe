"""Interacting particle simulator driven by a shared level-2 signal.

One step of the scheme advances every particle by

    X  <-  X + b h + sigma dB + f dW + area : WW,

with all coefficients frozen at the left endpoint and the current empirical
cloud, ``dB`` the particle's private Brownian increment, ``dW`` and ``WW``
the shared signal increment and its cell tensor, and ``area`` the
``coefficients.area_tensor`` of the step's own jet of the signal
coefficient, the jet whose value drives ``f dW``.  Dropping the
``area : WW`` term gives the first-order variant, which loses the
second-level information and is kept around as a control.

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

from .coefficients import CoefficientSet, area_tensor, ordered_sum
from .grids import TimeGrid, span_sup
from .measures import EmpiricalMeasure, MeasureFlow, symmetric_mean
from .roughpath import GridRoughPath, check_signal, roughpath_checksum
from .streams import TAG_INITIAL, TAG_PARTICLE, normal_rows, substream

__all__ = [
    "SCHEME_FULL",
    "SCHEME_NO_LIFT",
    "SCHEMES",
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
SCHEMES = (SCHEME_FULL, SCHEME_NO_LIFT)


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
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")


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

    The three contractions, ``f dW``, the area term and ``sigma dB``, are
    ``ordered_sum``s, whose docstring gives their rounding; the area term
    sums over the first channel inside and the second outside,
    ``sum_l (sum_k area_tensor[a, i, k, l] W[k, l])``, the order in which
    it keeps einsum's bits at two channels.
    """
    # The jet terms come first, and the jet (with the area tensor, a
    # temporary) is dropped before the drift and Brownian terms are formed,
    # so the two groups of cloud-sized arrays are never alive together.
    fam = coeffs.rough
    n = len(dw)
    jet = fam.jet(t0, states, mu, 0 if area is None else 1)
    f = jet[0]
    sig = ordered_sum(f[:, :, k] * dw[k] for k in range(n))
    if area is not None:
        at = area_tensor(fam, jet, f)
        areapart = ordered_sum(
            ordered_sum(at[:, :, k, l] * area[k, l] for k in range(n)) for l in range(n)
        )
        del at
    else:
        areapart = np.zeros_like(states)
    del jet, f
    drift = coeffs.drift(t0, states, mu) * h
    s = coeffs.diffusion(t0, states, mu)
    brown = ordered_sum(s[:, :, l] * db[:, l, None] for l in range(db.shape[1]))
    del s
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
    if scheme not in SCHEMES:
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
    final_only: bool = False,
) -> tuple[MeasureFlow | None, np.ndarray]:
    """Run the scheme over the whole grid.

    Returns the measure flow and the raw trajectory block ``(K+1, N, d)``;
    the block is the flow's own read-only ``states``, not a copy.  With
    ``final_only`` the cloud is stepped in place and only the read-only
    ``(N, d)`` cloud at the horizon is kept: the return is ``(None, last)``,
    and ``last`` owns its memory, so ``EmpiricalMeasure(last)`` keeps it
    without a copy.
    Pass ``brownian`` to override the materialised private increments (the
    coupled-refinement experiments do, with sums of finer draws); shape must
    be ``(N, K, m)``.  With an ``observer``, every step computes its
    ``StepReport`` and passes it to ``observer`` in grid order, before the
    step's finiteness check, so the step that blew up is observed too.
    Raises ``NumericalBlowup`` at the first non-finite state, initial cloud included.
    """
    if (coeffs.dim, coeffs.brownian_dim, coeffs.driver_dim) != (
        config.dim, config.brownian_dim, config.driver_dim
    ):
        raise ValueError("coefficient bundle dimensions disagree with config")
    check_signal(rp, config.grid, coeffs.driver_dim)

    N, K, d = config.particle_count, config.grid.num_cells, config.dim
    # Step k reads row k % rows and writes row (k + 1) % rows: with one row
    # the cloud is stepped in place, which advance_states allows.  The rows
    # are a view of ``buf``, the array returned, so it owns its memory.
    buf = np.empty((N, d) if final_only else (K + 1, N, d))
    history = buf.reshape(-1, N, d)
    rows = history.shape[0]
    history[0] = initial_states(config)
    check_finite(history[0], float(config.grid.points[0]))
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
        nxt = history[(k + 1) % rows]
        _, report = step_davie(
            history[k % rows], coeffs, rp, k, brownian[:, k], scheme=config.scheme,
            want_report=observer is not None, out=nxt,
        )
        if observer is not None:
            observer(report)
        check_finite(nxt, float(pts[k + 1]))
    buf.setflags(write=False)
    if final_only:
        return None, buf
    flow = MeasureFlow(
        grid=config.grid, states=buf, driver_checksum=roughpath_checksum(rp)
    )
    return flow, buf


# ---------------------------------------------------------------------------
# pathwise regularity diagnostics


@dataclass(frozen=True)
class ControlledReport:
    """Grid quotients measuring how well the signal controls the ensemble."""

    increment_quotient_p2: float   # sup |dX|_{L2} / |t-s|^alpha
    increment_quotient_p4: float   # sup |dX|_{L4} / |t-s|^alpha
    remainder_quotient: float      # sup |avg residual| / |t-s|^(2 alpha)


def controlled_diagnostics(
    flow: MeasureFlow, rp: GridRoughPath, coeffs: CoefficientSet
) -> ControlledReport:
    """Estimate the quotients behind the controlled-path ansatz.

    The candidate derivative of a trajectory at time ``s`` is the signal
    coefficient there, so the residual over ``[s, t]`` is
    ``dX - f(s, X_s, mu_s) dW(s, t)``.  Its cross-particle average stands in
    for the conditional expectation given the shared signal; the quotient
    divides by ``|t-s|^(2 alpha)``.  Quadratic in the node count.

    One pass over the spans gives the L^2 and L^4 increment quotients and
    the remainder quotient, which depends on no power.
    """
    # The averaged residual is linear in the particles, so it is the node
    # means' residual xbar_j - xbar_i - fbar_i dW(i, j): order-invariant, and
    # no O(K^2 N) pass.
    check_signal(rp, flow.grid, coeffs.driver_dim)
    X = flow.states                                 # (K+1, N, d)
    pts = flow.grid.points
    xbar = symmetric_mean(X, axis=1)                # (K+1, d)
    fbar = np.empty((pts.size, coeffs.dim, coeffs.driver_dim))
    for k in range(pts.size):
        mu = None if coeffs.measure_free else flow.measure(k)
        fbar[k] = symmetric_mean(coeffs.rough.jet(float(pts[k]), X[k], mu, 0)[0], axis=0)

    # The L^p increments reduce squared norms (p = 2) or their squares
    # (p = 4) and take the root on the row, so no span array sees sqrt or
    # pow.  The squared norms add up one coordinate at a time on (J, N)
    # slices, which measured several times faster than reducing a (J, N, d)
    # array over its short last axis.
    # Buffers sized for the longest span; start node i uses the first J rows.
    K, N = X.shape[0] - 1, X.shape[1]
    sq_buf, tmp_buf = np.empty((2, K, N))

    def rows():
        for i, gap in flow.grid.spans():
            J = gap.size
            sq, tmp = sq_buf[:J], tmp_buf[:J]
            for a in range(X.shape[2]):
                da = tmp if a else sq
                np.subtract(X[i + 1 :, :, a], X[i, :, a], out=da)
                np.multiply(da, da, out=da)
                if a:
                    sq += tmp
            gap_a = gap**rp.alpha
            inc2 = (np.add.reduce(sq, axis=1) / N) ** 0.5 / gap_a
            inc4 = (np.add.reduce(np.square(sq, out=tmp), axis=1) / N) ** 0.25 / gap_a
            dw = rp.values[i + 1 :] - rp.values[i]         # (J, n)
            avg = xbar[i + 1 :] - xbar[i] - dw @ fbar[i].T  # (J, d)
            yield inc2, inc4, np.linalg.norm(avg, axis=1) / gap ** (2 * rp.alpha)

    return ControlledReport(*span_sup(rows()))
