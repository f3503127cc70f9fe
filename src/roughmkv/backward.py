"""Backward value functions along a frozen signal, and the duality probe.

For measure-free coefficient bundles the terminal-value problem paired to the
particle dynamics admits a sampling representation: the value at ``(s, x)``
is the mean of ``g`` applied to states launched at ``x`` and driven forward
to the horizon by the *same* signal cells, with fresh private Brownian noise.
The solver evaluates that representation on a spatial lattice for a set of
start times.

The duality probe interpolates the value function onto the particles of a
forward flow sharing the identical signal (checksums are compared, not
trusted) and tracks the pairing ``<mu_t, u_t>`` along the grid.  Up to
discretisation, sampling and interpolation error the pairing is constant in
time; its drift is the reported figure of merit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import CubicSpline, RectBivariateSpline

from .coefficients import CoefficientSet
from .measures import MeasureFlow, symmetric_mean
from .roughpath import GridRoughPath, roughpath_checksum
from .simulate import advance_states, check_finite
from .streams import TAG_BACKWARD, substream

__all__ = [
    "BackwardSolution",
    "DualityReport",
    "lattice_from_flow",
    "solve_backward_fk",
    "duality_drift",
    "save_backward_csv",
]


@dataclass(frozen=True, eq=False)
class BackwardSolution:
    """Value function on ``times x lattice`` with per-node sampling error.

    ``axes`` holds one sorted coordinate array per state dimension; the
    lattice is their product, flattened C-order into the last axis of ``u``.
    ``stderr`` is the standard error of the per-node Monte Carlo mean.
    """

    axes: tuple[np.ndarray, ...]
    times: np.ndarray            # (S,)
    u: np.ndarray                # (S, P)
    stderr: np.ndarray           # (S, P)
    mc_samples: int
    driver_checksum: str
    terminal_name: str = "terminal"

    @property
    def dim(self) -> int:
        return len(self.axes)

    def lattice_points(self) -> np.ndarray:
        """Product lattice as a flat ``(P, d)`` array (C-order)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def interpolant(self, time_index: int) -> Callable[[np.ndarray], np.ndarray]:
        """Cubic interpolant of ``u`` at one start time; extrapolates beyond."""
        vals = self.u[time_index]
        if self.dim == 1:
            spline = CubicSpline(self.axes[0], vals)
            return lambda x: spline(x[:, 0])
        if self.dim == 2:
            grid_vals = vals.reshape(self.axes[0].size, self.axes[1].size)
            spline = RectBivariateSpline(self.axes[0], self.axes[1], grid_vals)
            return lambda x: spline.ev(x[:, 0], x[:, 1])
        raise ValueError("interpolation implemented for d in {1, 2}")


@dataclass(frozen=True, eq=False)
class DualityReport:
    times: np.ndarray
    pairings: np.ndarray
    drift: float


def lattice_from_flow(
    flow: MeasureFlow,
    points_per_dim: int,
    pad_sigmas: float = 4.0,
    tail: float = 1e-4,
) -> tuple[np.ndarray, ...]:
    """Axes spanning the flow's quantile envelope, padded by whole stds.

    The padding keeps interpolation local for lattice-free particles in the
    far tail; anything beyond is handled by the interpolant's extrapolation.
    """
    if points_per_dim < 4:
        raise ValueError("need at least 4 lattice points per dimension (cubic)")
    axes = []
    for j in range(flow.dim):
        coord = flow.states[:, :, j].ravel()
        lo, hi = np.quantile(coord, [tail, 1.0 - tail])
        pad = pad_sigmas * float(np.std(coord))
        if hi - lo + 2 * pad <= 0:
            pad = max(pad, 1.0)
        axes.append(np.linspace(lo - pad, hi + pad, points_per_dim))
    return tuple(axes)


def solve_backward_fk(
    coeffs: CoefficientSet,
    rp: GridRoughPath,
    terminal: Callable[[np.ndarray], np.ndarray],
    axes: Sequence[np.ndarray],
    times: Sequence[float],
    mc_samples: int,
    seed: int,
    terminal_name: str = "terminal",
) -> BackwardSolution:
    """Sample the backward value function on a lattice of start points.

    Requires a measure-free bundle: with measure dependence the backward
    problem stops being a per-path expectation and this representation is
    wrong, so the solver refuses rather than silently drifting.  Raises
    ``NumericalBlowup`` at the first non-finite sampled state.
    """
    if not coeffs.measure_free:
        raise ValueError(
            "backward sampling representation needs measure-free coefficients; "
            "this bundle depends on the cloud"
        )
    if mc_samples < 2:
        raise ValueError("mc_samples must be >= 2 for a standard error")
    axes = tuple(np.asarray(a, dtype=np.float64) for a in axes)
    if len(axes) != coeffs.dim:
        raise ValueError(f"need {coeffs.dim} lattice axes, got {len(axes)}")
    for a in axes:
        if a.ndim != 1 or a.size < 2 or np.any(np.diff(a) <= 0):
            raise ValueError("each lattice axis must be sorted and non-trivial")

    grid = rp.grid
    pts = grid.points
    t_idx = [grid.index_of(float(t)) for t in times]
    mesh = np.meshgrid(*axes, indexing="ij")
    lattice = np.stack([m.ravel() for m in mesh], axis=1)       # (P, d)
    P = lattice.shape[0]
    M = int(mc_samples)

    u = np.empty((len(t_idx), P))
    se = np.empty((len(t_idx), P))
    for row, start in enumerate(t_idx):
        rng = substream(seed, TAG_BACKWARD, start)
        states = np.repeat(lattice, M, axis=0)                  # (P*M, d)
        for k in range(start, grid.num_cells):
            h = float(grid.dt[k])
            db = rng.standard_normal((states.shape[0], coeffs.brownian_dim)) * np.sqrt(h)
            s_t, t_t = float(pts[k]), float(pts[k + 1])
            states, _ = advance_states(
                states, coeffs, None, s_t, h,
                rp.increment(s_t, t_t), rp.second(s_t, t_t), db,
            )
            check_finite(states, t_t)
        vals = np.asarray(terminal(states), dtype=np.float64).reshape(P, M)
        u[row] = vals.mean(axis=1)
        se[row] = vals.std(axis=1, ddof=1) / np.sqrt(M)
    return BackwardSolution(
        axes=axes,
        times=np.asarray([float(pts[i]) for i in t_idx]),
        u=u,
        stderr=se,
        mc_samples=M,
        driver_checksum=roughpath_checksum(rp),
        terminal_name=terminal_name,
    )


def duality_drift(
    flow: MeasureFlow, solution: BackwardSolution, interpolation: str = "cubic"
) -> DualityReport:
    """Drift of ``<mu_t, u_t>`` along the shared time points.

    Both inputs must have been produced against the same signal; the stored
    checksums are compared and a mismatch is an error, because a constant
    pairing is only meaningful under one common signal realisation.
    """
    if interpolation != "cubic":
        raise ValueError(f"unknown interpolation {interpolation!r}")
    if flow.driver_checksum is None or solution.driver_checksum != flow.driver_checksum:
        raise ValueError("flow and backward solution were driven by different signals")
    pairings = np.empty(solution.times.size)
    for row, t in enumerate(solution.times):
        k = flow.grid.index_of(float(t))
        interp = solution.interpolant(row)
        vals = np.asarray(interp(flow.states[k]), dtype=np.float64)
        pairings[row] = float(symmetric_mean(vals))
    drift = float(np.max(np.abs(pairings - pairings[0])))
    return DualityReport(times=solution.times.copy(), pairings=pairings, drift=drift)


def save_backward_csv(solution: BackwardSolution, path: str, stamp: str | None = None) -> None:
    """Rows ``t, x_1..x_d, u, stderr`` with repr-exact floats."""
    lattice = solution.lattice_points()
    d = solution.dim
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# roughmkv-backward v1 dim={d} samples={solution.mc_samples} "
            f"terminal={solution.terminal_name}\n"
        )
        if stamp is not None:
            fh.write(f"# generated {stamp}\n")
        fh.write(",".join(["t"] + [f"x_{j + 1}" for j in range(d)] + ["u", "stderr"]) + "\n")
        for row, t in enumerate(solution.times):
            for p in range(lattice.shape[0]):
                cells = (
                    [repr(float(t))]
                    + [repr(float(v)) for v in lattice[p]]
                    + [repr(float(solution.u[row, p])), repr(float(solution.stderr[row, p]))]
                )
                fh.write(",".join(cells) + "\n")
