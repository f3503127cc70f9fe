"""Empirical measures, measure flows, pairings and transport distances.

An empirical measure is a uniformly weighted cloud of ``N`` points in R^d,
given as an ``(N, d)`` array; a measure flow is one cloud per grid node,
produced by the particle simulator.  Two clouds are compared by W2: by
quantile coupling in d = 1, and otherwise by an exact assignment of at most
``EXACT_W2_MAX`` points, the smaller cloud's atoms repeated to make it
square.
Pairings ``<mu, phi>`` and all other particle reductions here go through a
sorted summation, so their values are invariant under any permutation of the
particle axis (np.sum is not, because pairwise summation depends on operand
order).  That property is what makes exchangeability tests exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grids import TimeGrid, read_only, span_sup
from .tables import check_shape, read_table, write_table

__all__ = [
    "EmpiricalMeasure",
    "MeasureFlow",
    "symmetric_mean",
    "pairing",
    "wasserstein2_1d",
    "wasserstein2_exact_small",
    "EXACT_W2_MAX",
    "wasserstein2_bruteforce",
    "lipschitz_bank",
    "flow_holder_diagnostic",
    "flow_w2_holder",
    "save_flow_csv",
    "load_flow_csv",
]

EXACT_W2_MAX = 512
_BRUTE_MAX = 8
_BANK_MAX_FREQUENCY = 3


def symmetric_mean(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """Mean along ``axis`` whose float value ignores the order of entries."""
    return np.sort(a, axis=axis).sum(axis=axis) / a.shape[axis]


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Uniform point cloud; ``points`` has shape ``(N, d)``, held under the
    rule of ``grids.read_only``.  A 1-d array is refused, not read as a
    cloud in d = 1."""

    points: np.ndarray
    _mean: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be a non-empty (N, d) array")
        object.__setattr__(self, "points", read_only(pts))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def mean(self) -> np.ndarray:
        """Order-invariant cloud mean, computed on first use and kept
        (read-only, as the points are)."""
        if self._mean is None:
            m = symmetric_mean(self.points, axis=0)
            m.setflags(write=False)
            object.__setattr__(self, "_mean", m)
        return self._mean


def pairing(mu: EmpiricalMeasure, phi: Callable[[np.ndarray], np.ndarray]) -> float:
    """``<mu, phi>``: permutation-invariant particle average of ``phi``."""
    vals = np.asarray(phi(mu.points), dtype=np.float64)
    if vals.shape != (mu.size,):
        raise ValueError(
            f"test function returned shape {vals.shape}, expected ({mu.size},)"
        )
    return float(symmetric_mean(vals))


@dataclass(frozen=True, eq=False)
class MeasureFlow:
    """One empirical measure per grid node: ``states[k]`` is cloud at ``t_k``.

    ``states`` is held under the rule of ``grids.read_only``.
    """

    grid: TimeGrid
    states: np.ndarray            # (K+1, N, d)
    driver_checksum: str | None = None

    def __post_init__(self) -> None:
        st = read_only(self.states)
        if st.ndim != 3 or st.shape[0] != self.grid.num_cells + 1:
            raise ValueError(
                f"states must have shape (K+1, N, d), got {st.shape} for "
                f"{self.grid.num_cells} cells"
            )
        object.__setattr__(self, "states", st)

    @property
    def num_particles(self) -> int:
        return self.states.shape[1]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    def measure(self, k: int) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.states[k])


# ---------------------------------------------------------------------------
# quadratic transport distance


def wasserstein2_1d(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Quadratic transport distance in one dimension via quantile coupling.

    Equal sizes pair the order statistics directly.  Unequal sizes integrate
    the squared gap between the two (piecewise constant) quantile functions
    over the merged set of jump locations, which is still the exact optimal
    cost for uniform weights.
    """
    if mu.dim != 1 or nu.dim != 1:
        raise ValueError("only d=1 supported here; use wasserstein2_exact_small")
    a = np.sort(mu.points[:, 0])
    b = np.sort(nu.points[:, 0])
    n, m = a.size, b.size
    if n == m:
        return float(np.sqrt(np.mean((a - b) ** 2)))
    edges = np.union1d(np.arange(1, n) / n, np.arange(1, m) / m)
    lo = np.concatenate([[0.0], edges])
    hi = np.concatenate([edges, [1.0]])
    mid = 0.5 * (lo + hi)
    qa = a[np.minimum((mid * n).astype(int), n - 1)]
    qb = b[np.minimum((mid * m).astype(int), m - 1)]
    return float(np.sqrt(np.sum((hi - lo) * (qa - qb) ** 2)))


def wasserstein2_exact_small(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Exact quadratic transport distance between clouds of at most
    ``EXACT_W2_MAX`` points, the size of ``mu`` dividing that of ``nu``.

    For uniform weights on equal sizes the optimal plan can be taken to be a
    permutation (the transport polytope has permutation matrices as
    vertices), so the problem reduces to a linear assignment on squared
    distances.  A smaller ``mu`` first repeats each of its atoms
    ``nu.size // mu.size`` times, which leaves its empirical measure
    unchanged and makes the assignment square.
    """
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if nu.size % mu.size:
        raise ValueError(f"cloud size {mu.size} does not divide {nu.size}")
    if nu.size > EXACT_W2_MAX:
        raise ValueError(f"exact assignment limited to N <= {EXACT_W2_MAX}")
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    atoms = np.repeat(mu.points, nu.size // mu.size, axis=0)
    cost = cdist(atoms, nu.points, metric="sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def wasserstein2_bruteforce(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """All-permutations reference; only for tiny clouds."""
    if mu.dim != nu.dim or mu.size != nu.size:
        raise ValueError(f"clouds must have equal shape: {mu.points.shape} vs {nu.points.shape}")
    if mu.size > _BRUTE_MAX:
        raise ValueError(f"brute force limited to N <= {_BRUTE_MAX}")
    from scipy.spatial.distance import cdist

    cost = cdist(mu.points, nu.points, metric="sqeuclidean")
    idx = range(mu.size)
    best = min(sum(cost[i, p] for i, p in zip(idx, perm))
               for perm in itertools.permutations(idx))
    return float(np.sqrt(best / mu.size))


# ---------------------------------------------------------------------------
# flow regularity diagnostics


def lipschitz_bank(dim: int) -> list[Callable[[np.ndarray], np.ndarray]]:
    """Deterministic bank of test functions with Lipschitz constant <= 1.

    Sinusoids of linear forms normalised by the frequency norm, plus smoothly
    clipped coordinate projections.  Used to probe a lower bound on the dual
    Lipschitz distance between snapshots; with finitely many probes upward
    (so the diagnostic under-reports, never over-reports).
    """
    bank: list[Callable] = []
    for axis in range(dim):
        for freq in range(1, _BANK_MAX_FREQUENCY + 1):
            for shift in (0.0, 0.5 * np.pi):
                k = np.zeros(dim)
                k[axis] = freq
                norm = np.linalg.norm(k)

                def probe(x, k=k, shift=shift, norm=norm):
                    return (1.0 / norm) * np.sin(x @ k + shift)

                bank.append(probe)
        scale = 2.0

        def clip(x, axis=axis, scale=scale):
            return scale * np.tanh(x[:, axis] / scale)

        bank.append(clip)
    return bank


def flow_holder_diagnostic(flow: MeasureFlow, alpha: float) -> float:
    """sup over grid spans and bank probes of ``|<mu_t - mu_s, phi>| / |t-s|^a``.

    A finite-bank lower bound for the Holder quotient of the flow in the dual
    Lipschitz metric.
    """
    bank = lipschitz_bank(flow.dim)
    clouds = flow.states.reshape(-1, flow.dim)               # every node's cloud, stacked
    vals = np.array([symmetric_mean(phi(clouds).reshape(flow.states.shape[:2]), axis=1)
                     for phi in bank])
    (worst,) = span_sup(
        (np.abs(vals[:, i + 1 :] - vals[:, i : i + 1]) / gap[None, :] ** alpha,)
        for i, gap in flow.grid.spans()
    )
    return worst


def flow_w2_holder(flow: MeasureFlow, alpha: float) -> float:
    """sup over grid spans of ``W2(mu_s, mu_t) / |t-s|^a`` (d=1 flows)."""
    if flow.dim != 1:
        raise ValueError("transport-quotient diagnostic implemented for d=1")
    sorted_states = np.sort(flow.states[:, :, 0], axis=1)    # (K+1, N)
    (worst,) = span_sup(
        (np.sqrt(np.mean((sorted_states[i + 1 :] - sorted_states[i]) ** 2, axis=1))
         / gap**alpha,)
        for i, gap in flow.grid.spans()
    )
    return worst


# ---------------------------------------------------------------------------
# serialisation

_FLOW_MAGIC = "# roughmkv-flow v1"


def save_flow_csv(flow: MeasureFlow, path: str, stamp: str | None = None) -> None:
    """Rows ``t, particle, x_1..x_d``, one block per grid node.

    The magic line carries the node count, so a cut file is refused on load,
    and ``driver=<checksum>`` when the flow has one, so a reloaded flow can
    still be paired with a backward solution.
    """
    d = flow.dim
    tokens = {"dim": d, "particles": flow.num_particles, "nodes": len(flow.grid)}
    if flow.driver_checksum is not None:
        tokens["driver"] = flow.driver_checksum
    idx = [str(i) for i in range(flow.num_particles)]
    write_table(
        path,
        ["t", "particle"] + [f"x_{a + 1}" for a in range(d)],
        ((itertools.repeat(repr(t)), idx, *node.T)
         for t, node in zip(flow.grid.points.tolist(), flow.states)),
        magic=(_FLOW_MAGIC, tokens),
        stamp=stamp,
    )


def load_flow_csv(path: str) -> MeasureFlow:
    """The flow :func:`save_flow_csv` wrote; refuses a cut or edited file."""
    keys = ("dim", "particles", "nodes")
    with read_table(path, _FLOW_MAGIC, keys) as (meta, data):
        d, N, nodes = (int(meta[key]) for key in keys)
        check_shape(data, nodes * N, 2 + d, f"{nodes} nodes x {N} particles")
        grid = TimeGrid(data[::N, 0])
        t, particle = data[:, 0].reshape(nodes, N), data[:, 1].reshape(nodes, N)
        if np.any(t != grid.points[:, None]) or np.any(particle != np.arange(N)):
            raise ValueError(f"each node block must repeat its t and count particle 0..{N - 1}")
        return MeasureFlow(grid, data[:, 2:].reshape(nodes, N, d), meta.get("driver"))
