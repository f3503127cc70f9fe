"""Backward value functions along a frozen signal, and the duality probe.

For measure-free coefficient bundles the terminal-value problem paired to the
particle dynamics admits a sampling representation: the value at ``(s, x)``
is the mean of ``g`` applied to states launched at ``x`` and driven forward
to the horizon by the *same* signal cells, with fresh private Brownian noise.
The solver evaluates that representation on a spatial lattice for a set of
start times.  Its paths come in antithetic pairs: the two paths of a pair
see the same signal and opposite Brownian increments, so each path is still
an exact sample, and the independent pair means give the standard error.
Every start time and every lattice point reads the same noise rows of each
cell it crosses, so one solve draws each cell's normals once.

The duality probe interpolates the value function onto the particles of a
forward flow sharing the identical signal (checksums are compared, not
trusted) and tracks the pairing ``<mu_t, u_t>`` along the grid.  Up to
discretisation, sampling and interpolation error the pairing is constant in
time; its drift is the reported figure of merit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .coefficients import CoefficientSet
from .grids import read_only
from .measures import MeasureFlow, symmetric_mean
from .roughpath import GridRoughPath, check_signal, roughpath_checksum
from .simulate import NumericalBlowup, advance_states, check_finite
from .streams import TAG_BACKWARD, substream
from .tables import check_shape, read_table, write_table

__all__ = [
    "BackwardSolution",
    "DualityReport",
    "lattice_axes",
    "lattice_from_flow",
    "solve_backward_fk",
    "duality_drift",
    "save_backward_csv",
    "load_backward_csv",
]

# Sampled states advance through each grid cell in chunks of about this many
# rows per start time, so the one-step map's per-point temporaries stay
# cache-sized: a chunk is _BLOCK_ROWS // 2P antithetic pairs of every one of
# the P lattice points (at least one pair).  No draw or value depends on it.
_BLOCK_ROWS = 16384

_BACKWARD_MAGIC = "# roughmkv-backward v1"

_LATTICE_TAIL = 1e-4
_LATTICE_PAD_SIGMAS = 4.0
_CUBIC_POINTS = "need at least 4 lattice points per dimension (cubic)"


def lattice_axes(axes: Sequence) -> tuple[np.ndarray, ...]:
    """``axes`` held under ``grids.read_only``; each must be 1-d and strictly
    increasing."""
    held = tuple(read_only(a) for a in axes)
    if any(a.ndim != 1 or np.any(np.diff(a) <= 0) for a in held):
        raise ValueError("each lattice axis must be sorted")
    return held


def _product_lattice(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Product of ``axes`` as a flat ``(P, d)`` array (C-order)."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _spline_slopes(knots: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Knot slopes of the not-a-knot cubic through ``values`` of shape ``(n, ...)``.

    Needs ``n >= 4`` knots; one solve covers every column.  The system is the
    one ``scipy.interpolate.CubicSpline`` assembles; its right-hand side is
    built from divided differences, so constant columns get exactly zero
    slopes.
    """
    n = knots.size
    dx = np.diff(knots)
    dxr = dx.reshape((n - 1,) + (1,) * (values.ndim - 1))
    slope = np.diff(values, axis=0) / dxr
    a = np.zeros((n, n))
    i = np.arange(1, n - 1)
    a[i, i - 1] = dx[1:]
    a[i, i] = 2.0 * (dx[:-1] + dx[1:])
    a[i, i + 1] = dx[:-1]
    b = np.empty(values.shape)
    b[1:-1] = 3.0 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    # not-a-knot: the third derivative is continuous at the second and the
    # last-but-one knot
    d = knots[2] - knots[0]
    a[0, :2] = dx[1], d
    b[0] = ((dxr[0] + 2.0 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
    d = knots[-1] - knots[-3]
    a[-1, -2:] = d, dx[-2]
    b[-1] = (dxr[-1] ** 2 * slope[-2] + (2.0 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
    return np.linalg.solve(a, b.reshape(n, -1)).reshape(values.shape)


def _spline_eval(
    knots: np.ndarray, values: np.ndarray, slopes: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Cubic through ``values`` with knot ``slopes`` (both ``(n, ...)``), at ``q``.

    ``q`` broadcasts against the trailing shape of ``values``; each column is
    evaluated at the ``q`` it lines up with.  The end cubics extend beyond
    the knots.
    """
    i = np.clip(np.searchsorted(knots, q, side="right") - 1, 0, knots.size - 2)
    at = (i, *np.indices(values.shape[1:], sparse=True))
    nxt = (i + 1, *at[1:])
    h = knots[i + 1] - knots[i]
    y0, s0 = values[at], slopes[at]
    slope = (values[nxt] - y0) / h
    t = (s0 + slopes[nxt] - 2.0 * slope) / h
    cubic, quadratic = t / h, (slope - s0) / h - t
    z = q - knots[i]
    return ((cubic * z + quadratic) * z + s0) * z + y0


@dataclass(frozen=True, eq=False)
class BackwardSolution:
    """Value function on ``times x lattice`` with per-node sampling error.

    ``axes`` holds one coordinate array per state dimension (``lattice_axes``);
    the lattice is their product, flattened C-order into the last axis of
    ``u``.  ``stderr`` is the standard error of the per-node Monte Carlo
    mean.  ``times``, ``u`` and ``stderr`` are held under ``grids.read_only``,
    and ``times`` names at least one start time.
    """

    axes: tuple[np.ndarray, ...]
    times: np.ndarray            # (S,)
    u: np.ndarray                # (S, P)
    stderr: np.ndarray           # (S, P)
    mc_samples: int
    driver_checksum: str
    terminal_name: str = "terminal"

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", lattice_axes(self.axes))
        for name in ("times", "u", "stderr"):
            object.__setattr__(self, name, read_only(getattr(self, name)))
        shape = (self.times.size, int(np.prod([a.size for a in self.axes])))
        if self.times.ndim != 1 or self.u.shape != shape or self.stderr.shape != shape:
            raise ValueError(f"u and stderr must have shape (times, lattice points) = {shape}")
        if self.times.size == 0:
            raise ValueError("a backward solution needs at least one start time")

    @property
    def dim(self) -> int:
        return len(self.axes)

    def lattice_points(self) -> np.ndarray:
        """Product lattice as a flat ``(P, d)`` array (C-order)."""
        return _product_lattice(self.axes)

    def interpolant(self, time_index: int) -> Callable[[np.ndarray], np.ndarray]:
        """Cubic interpolant of ``u`` at one start time; extrapolates beyond.

        The not-a-knot cubic spline of each axis as a tensor product, last
        axis first: the splines through the lattice lines of the last axis
        are evaluated at the points' last coordinate, and each earlier axis's
        splines through the values so far at its own coordinate.
        """
        axes = self.axes
        if min(a.size for a in axes) < 4:
            raise ValueError(_CUBIC_POINTS)
        # the last axis's lines as columns: (n_last, other axes..., 1)
        cube = self.u[time_index].reshape([a.size for a in axes])
        lines = np.moveaxis(cube, -1, 0)[..., None]
        slopes = _spline_slopes(axes[-1], lines)

        def interp(x: np.ndarray) -> np.ndarray:
            vals = _spline_eval(axes[-1], lines, slopes, x[:, -1])  # (other axes..., N)
            for j in range(len(axes) - 2, -1, -1):
                vals = np.moveaxis(vals, -2, 0)                      # axis j first
                vals = _spline_eval(axes[j], vals, _spline_slopes(axes[j], vals), x[:, j])
            return vals

        return interp


@dataclass(frozen=True, eq=False)
class DualityReport:
    times: np.ndarray
    pairings: np.ndarray
    drift: float


def lattice_from_flow(flow: MeasureFlow, points_per_dim: int) -> tuple[np.ndarray, ...]:
    """Axes spanning the flow's quantile envelope, padded by whole stds.

    The padding keeps interpolation local for lattice-free particles in the
    far tail; anything beyond is handled by the interpolant's extrapolation.
    """
    if points_per_dim < 4:
        raise ValueError(_CUBIC_POINTS)
    axes = []
    for j in range(flow.dim):
        coord = flow.states[:, :, j].ravel()
        lo, hi = np.quantile(coord, [_LATTICE_TAIL, 1.0 - _LATTICE_TAIL])
        pad = _LATTICE_PAD_SIGMAS * float(np.std(coord))
        if hi - lo + 2 * pad <= 0:
            pad = max(pad, 1.0)
        axes.append(np.linspace(lo - pad, hi + pad, points_per_dim))
    return tuple(axes)


def _add_pair_sums(
    sums: np.ndarray, shift: np.ndarray, pair_means: np.ndarray, first: bool
) -> None:
    """Add a chunk's ``(P, c)`` pair means to the running ``(P, 2)`` sums of
    ``dev`` and ``dev^2``, ``dev`` being a pair mean less the point's first
    pair mean ``shift``, which the ``first`` chunk sets."""
    if first:
        shift[:] = pair_means[:, 0]
    acc = np.empty((pair_means.shape[0], pair_means.shape[1] + 1, 2))
    acc[:, 0] = sums
    dev = np.subtract(pair_means, shift[:, None], out=acc[:, 1:, 0])
    np.multiply(dev, dev, out=acc[:, 1:, 1])
    # np.cumsum adds left to right, so the sums carried across chunks are
    # those of one pass over all pairs
    sums[:] = np.cumsum(acc, axis=1, out=acc)[:, -1]


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

    ``terminal`` maps ``(n, d)`` states to ``(n,)`` values row by row.  The
    axes are held under the rule of ``lattice_axes``, and each needs at least
    4 points, as the cubic interpolant does; ``rp`` needs the bundle's
    channels, and ``terminal_name`` may hold no whitespace, so
    ``save_backward_csv`` can write it into its magic line.  All are refused
    before any sampling.

    ``mc_samples`` must be even and at least 4: the paths come in antithetic
    pairs, and a standard error needs at least two pairs.  Grid cell ``k``
    draws its noise from its own Philox stream, ``substream(seed,
    TAG_BACKWARD, k)``, one normal row ``z_r`` per pair, M/2 rows in all;
    at every lattice point, path rows ``2r`` and ``2r + 1`` take ``+sqrt(h)
    z_r`` and ``-sqrt(h) z_r``, and every start time that crosses the cell
    reads the same rows.  So a cell's normals are drawn once per solve, not
    once per start time or lattice point: (K - min s) M / 2 rows of m
    normals in all.  These are common random numbers: each ``u`` is still
    an exact Monte Carlo mean with an exact standard error, but the errors
    of two start times, or of two lattice points, are positively
    correlated.  Compare them through the differences of their paired
    values, not through two independent standard errors.

    The pairs are walked in chunks of ``c = _BLOCK_ROWS // 2P`` pairs of
    every lattice point (at least one); each start time holds its own
    states for one chunk, so the states take S x max(``_BLOCK_ROWS``, 2P)
    rows.  A chunk walks the cells from the earliest start time to the
    horizon, draws each cell's next c rows and advances every start time
    that has begun.  Each cell's stream is read in row order, and the sums
    below are carried across chunks with ``np.cumsum``, which adds left to
    right, so neither the chunk length, the order of ``times`` nor the
    other start times change a bit.

    The n = M/2 pair means of a lattice point are independent.  With
    ``dev`` a pair mean less the point's first pair mean ``shift``, ``u =
    shift + sum(dev) / n`` and ``stderr = sqrt((sum(dev^2) - sum(dev)^2 /
    n) / (n - 1)) / sqrt(n)``: the mean over the point's M rows and its
    exact standard error.  The shift keeps the two sums from cancelling, so
    a point whose pair means agree gets ``stderr`` exactly 0.

    Requires a measure-free bundle: with measure dependence the backward
    problem stops being a per-path expectation and this representation is
    wrong, so the solver refuses rather than silently drifting.  Raises
    ``NumericalBlowup`` at the earliest grid time at which any sampled state
    of any start time is non-finite, counting a non-finite terminal value,
    which ``u`` could not hold, as the horizon.  Once a blow-up is seen,
    later chunks walk only the cells that could give an earlier one.
    """
    if not coeffs.measure_free:
        raise ValueError(
            "backward sampling representation needs measure-free coefficients; "
            "this bundle depends on the cloud"
        )
    if mc_samples < 4 or mc_samples % 2:
        raise ValueError(
            f"mc_samples must be even and >= 4 (antithetic pairs, two for a "
            f"standard error), got {mc_samples}"
        )
    check_signal(rp, rp.grid, coeffs.driver_dim)
    axes = lattice_axes(axes)
    if len(axes) != coeffs.dim:
        raise ValueError(f"need {coeffs.dim} lattice axes, got {len(axes)}")
    if min(a.size for a in axes) < 4:
        raise ValueError(_CUBIC_POINTS)
    if any(c.isspace() for c in terminal_name):
        # the name is one token of the whitespace-split magic line
        raise ValueError(f"terminal_name {terminal_name!r} holds whitespace")

    grid = rp.grid
    pts = grid.points
    K = grid.num_cells
    t_idx = [grid.index_of(float(t)) for t in times]
    S = len(t_idx)
    first = min(t_idx, default=K)
    lattice = _product_lattice(axes)                             # (P, d)
    P = lattice.shape[0]
    M = int(mc_samples)
    n = M // 2                                                   # pairs per point
    d, m = coeffs.dim, coeffs.brownian_dim

    pairs = max(1, min(n, _BLOCK_ROWS // (2 * P)))              # pairs of every point per chunk
    cells = [
        (substream(seed, TAG_BACKWARD, k), float(grid.dt[k]), float(pts[k]), *rp.span(k, k + 1))
        for k in range(first, K)
    ]
    z = np.empty((pairs, m))                                    # one normal row per pair
    db_buf = np.empty(P * pairs * 2 * m)                        # every point's +/- increments
    state_buf = np.empty(S * P * pairs * 2 * d)                 # one chunk per start time
    shift = np.empty((S, P))                                    # each point's first pair mean
    sums = np.zeros((S, P, 2))                                  # of dev and dev^2 (_add_pair_sums)
    blowup = K + 1                     # grid index of the earliest non-finite state seen
    for lo in range(0, n, pairs):
        c = min(pairs, n - lo)
        held = state_buf[: S * P * c * 2 * d].reshape(S, P * c * 2, d)
        held.reshape(S, P, c * 2, d)[...] = lattice[:, None, :]
        db = db_buf[: P * c * 2 * m].reshape(P, c, 2, m)
        try:
            # only a cell that ends before the earliest blow-up so far can move it
            for k in range(first, min(K, blowup - 1)):
                rng, h, s_t, dw, area = cells[k - first]
                # chunks take each cell's rows in order, so no draw depends on
                # the chunk length
                rng.standard_normal(out=z[:c])
                np.multiply(z[:c], np.sqrt(h), out=db[:, :, 0])
                np.negative(db[:, :, 0], out=db[:, :, 1])
                for i, start in enumerate(t_idx):
                    if start <= k:
                        advance_states(
                            held[i], coeffs, None, s_t, h, dw, area,
                            db.reshape(-1, m), out=held[i],
                        )
                        check_finite(held[i], float(pts[k + 1]))
            if blowup <= K:
                continue
            for i in range(S):
                vals = np.asarray(terminal(held[i]), dtype=np.float64)
                check_finite(vals, grid.horizon)
                _add_pair_sums(sums[i], shift[i], vals.reshape(P, c, 2).mean(axis=2), lo == 0)
        except NumericalBlowup as exc:
            blowup = grid.index_of(exc.time)
    if blowup <= K:
        raise NumericalBlowup(float(pts[blowup]))
    total, square = sums[..., 0], sums[..., 1]
    return BackwardSolution(
        axes=axes,
        times=np.asarray([float(pts[i]) for i in t_idx]),
        u=shift + total / n,
        stderr=np.sqrt((square - total * total / n) / (n - 1)) / np.sqrt(n),
        mc_samples=M,
        driver_checksum=roughpath_checksum(rp),
        terminal_name=terminal_name,
    )


def duality_drift(flow: MeasureFlow, solution: BackwardSolution) -> DualityReport:
    """Drift of ``<mu_t, u_t>`` along the shared time points.

    Both inputs must have been produced against the same signal; the stored
    checksums are compared and a mismatch is an error, because a constant
    pairing is only meaningful under one common signal realisation.  A flow
    without a checksum (an old ``flow.csv``) cannot be matched and is refused
    as such.
    """
    if flow.driver_checksum is None:
        raise ValueError("the flow carries no driver checksum to match the backward solution's")
    if solution.driver_checksum != flow.driver_checksum:
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
    """Rows ``t, x_1..x_d, u, stderr``, one block per start time.

    The magic line carries the lattice shape (``points=13x9``) and the number
    of start times, so a cut file is refused on load, and the driver checksum,
    so a reloaded solution still pairs with its flow.
    """
    lattice = solution.lattice_points().T
    d = solution.dim
    write_table(
        path,
        ["t"] + [f"x_{j + 1}" for j in range(d)] + ["u", "stderr"],
        ((itertools.repeat(repr(t)), *lattice, u, se)
         for t, u, se in zip(solution.times.tolist(), solution.u, solution.stderr)),
        magic=(
            f"{_BACKWARD_MAGIC} dim={d} samples={solution.mc_samples} "
            f"terminal={solution.terminal_name} "
            f"points={'x'.join(str(a.size) for a in solution.axes)} "
            f"times={solution.times.size} driver={solution.driver_checksum}"
        ),
        stamp=stamp,
    )


def load_backward_csv(path: str) -> BackwardSolution:
    """The solution :func:`save_backward_csv` wrote; refuses a cut or edited file."""
    keys = ("dim", "samples", "times", "points", "terminal", "driver")
    with read_table(path, _BACKWARD_MAGIC, keys) as (meta, data):
        d, samples, times = (int(meta[key]) for key in keys[:3])
        shape = tuple(int(n) for n in meta["points"].split("x"))
        if len(shape) != d:
            raise ValueError(f"points={meta['points']} does not name {d} axes")
        P = int(np.prod(shape))
        check_shape(data, times * P, 3 + d, f"{times} times x {P} lattice points")
        lattice = data[:P, 1 : 1 + d].reshape(*shape, d)
        sol = BackwardSolution(
            axes=tuple(
                lattice[(0,) * j + (slice(None),) + (0,) * (d - 1 - j) + (j,)] for j in range(d)
            ),
            times=data[::P, 0],
            u=data[:, 1 + d].reshape(times, P),
            stderr=data[:, 2 + d].reshape(times, P),
            mc_samples=samples,
            driver_checksum=meta["driver"],
            terminal_name=meta["terminal"],
        )
        blocks = data[:, : 1 + d].reshape(times, P, 1 + d)
        if np.any(blocks[:, :, 0] != sol.times[:, None]) or np.any(
            blocks[:, :, 1:] != sol.lattice_points()
        ):
            raise ValueError("each block must repeat its start time t and the lattice x_j")
        return sol
