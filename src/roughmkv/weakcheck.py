"""Weak-form consistency checks for simulated measure flows.

For a smooth test function ``phi`` the flow should satisfy, over a grid span
``[s, t]``,

    <mu_t, phi> - <mu_s, phi> =  integral of <mu_r, L_r phi> dr
                               + <mu_s, G_k phi> dW^k(s, t)
                               + <mu_s, (G_k G_l + G'_{lk}) phi> WW^{kl}(s, t)
                               + (higher order),

where ``L`` is the diffusion generator built from drift and diffusion, ``G_k``
differentiates along channel ``k`` of the signal coefficient, and ``G'`` adds
the measure-derivative and time-control contributions.  The defect of this
identity on single cells shrinks like ``|t-s|^(3 alpha)`` when the scheme and
the operators are mutually consistent, which is what the order scan measures.

The time integral is discretised by the composite trapezoid rule on grid
nodes; its error is quadratic in the cell width and sits below the target
order for every admissible ``alpha``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .coefficients import CoefficientSet, area_tensor, diffusion_square, ordered_sum
from .measures import EmpiricalMeasure, MeasureFlow, symmetric_mean
from .roughpath import GridRoughPath, check_signal
from .tables import write_table

__all__ = [
    "TestFunction",
    "constant_function",
    "linear_function",
    "quadratic_function",
    "gaussian_bump",
    "gaussian_linear",
    "sinusoid_function",
    "default_bank",
    "gradient_consistency",
    "weak_residual",
    "ResidualScan",
    "residual_order_scan",
    "save_residual_csv",
]


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Scalar test function with closed-form gradient and Hessian.

    ``jet`` maps points ``(N, d)`` to ``(value (N,), grad (N, d), hess (N, d, d))``,
    computing the subexpressions the three share once.
    """

    __test__ = False  # keep pytest from collecting the mathematical name

    name: str
    jet: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


# ---------------------------------------------------------------------------
# bank constructors


def constant_function(c: float = 1.0) -> TestFunction:
    def jet(x):
        return np.full(x.shape[0], float(c)), np.zeros_like(x), np.zeros(x.shape + x.shape[1:])

    return TestFunction(f"const_{c}", jet)


def linear_function(a: np.ndarray) -> TestFunction:
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))

    def jet(x):
        return x @ a, np.broadcast_to(a, x.shape).copy(), np.zeros(x.shape + x.shape[1:])

    return TestFunction("linear", jet)


def quadratic_function(Q: np.ndarray) -> TestFunction:
    """``phi(x) = 0.5 x^T Q x`` with ``Q`` symmetrised."""
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    Q = 0.5 * (Q + Q.T)

    def jet(x):
        hess = np.broadcast_to(Q, x.shape + x.shape[1:]).copy()
        return 0.5 * np.einsum("ai,ij,aj->a", x, Q, x), x @ Q, hess

    return TestFunction("quadratic", jet)


def gaussian_bump(center: np.ndarray, width: float, amp: float = 1.0) -> TestFunction:
    c = np.atleast_1d(np.asarray(center, dtype=np.float64))
    w2 = float(width) ** 2
    eye = np.eye(c.size) / w2

    def jet(x):
        diff = x - c
        value = amp * np.exp(-0.5 * np.sum(diff**2, axis=1) / w2)
        r = diff / w2
        hess = value[:, None, None] * (r[:, :, None] * r[:, None, :] - eye)
        return value, value[:, None] * -r, hess

    return TestFunction(f"bump_w{width}", jet)


def gaussian_linear(
    center: np.ndarray, width: float, slope: np.ndarray, amp: float = 1.0
) -> TestFunction:
    """Gaussian bump times a linear factor: mixes odd and even derivatives."""
    base = gaussian_bump(center, width, amp).jet
    a = np.atleast_1d(np.asarray(slope, dtype=np.float64))

    def jet(x):
        value, grad, hess = base(x)
        lin = x @ a
        cross = grad[:, :, None] * a
        hess = hess * lin[:, None, None] + cross + np.swapaxes(cross, 1, 2)
        return value * lin, grad * lin[:, None] + value[:, None] * a, hess

    return TestFunction(f"bump_lin_w{width}", jet)


def sinusoid_function(freq: np.ndarray, phase: float = 0.0) -> TestFunction:
    k = np.atleast_1d(np.asarray(freq, dtype=np.float64))
    kk = k[:, None] * k

    def jet(x):
        arg = x @ k + phase
        value = np.sin(arg)
        return value, np.cos(arg)[:, None] * k, -value[:, None, None] * kk

    return TestFunction(f"sin_k{np.linalg.norm(k):.3g}", jet)


def default_bank(dim: int) -> list[TestFunction]:
    """Bounded smooth probes used by the order scans."""
    e0 = np.zeros(dim)
    e0[0] = 1.0
    bank = [
        gaussian_bump(np.zeros(dim), 1.0),
        gaussian_bump(0.5 * e0, 1.5, amp=0.8),
        gaussian_linear(np.zeros(dim), 1.2, e0),
        sinusoid_function(1.0 * e0),
        sinusoid_function(2.0 * e0, phase=0.7),
    ]
    if dim > 1:
        e1 = np.zeros(dim)
        e1[1] = 1.0
        bank.append(sinusoid_function(e0 + e1, phase=0.3))
    return bank


def gradient_consistency(phi: TestFunction, points: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error of grad/hess against central differences."""
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    d = x.shape[1]
    _, g, H = phi.jet(x)
    worst = 0.0
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        (v_up, g_up, _), (v_dn, g_dn, _) = phi.jet(x + e), phi.jet(x - e)
        fd_g = (v_up - v_dn) / (2 * h)
        fd_H = (g_up - g_dn) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(g))), float(np.max(np.abs(H))))
        worst = max(
            worst,
            float(np.max(np.abs(fd_g - g[:, j]))) / scale,
            float(np.max(np.abs(fd_H - H[:, :, j]))) / scale,
        )
    return worst


# ---------------------------------------------------------------------------
# node-curve engine: operators paired against the empirical measure

# Particle rows evaluated per block of grid nodes.  It bounds the stacked node
# tensors and probe derivatives held at once (a whole flow would raise peak
# memory); every reduction is per node, so the block length changes no number.
_BLOCK_POINTS = 16384


def _node_tensors(
    coeffs: CoefficientSet, t: float, cloud: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Probe-independent tensors at one node: ``b``, ``sigma sigma^T``, ``f``, area.

    ``cloud`` is a flow's node, so it is finite and has its empirical measure.
    """
    marg = None if coeffs.measure_free else EmpiricalMeasure(cloud)
    jet = coeffs.rough.jet(t, cloud, marg, 1)
    return (
        coeffs.drift(t, cloud, marg),
        diffusion_square(coeffs, t, cloud, marg),
        jet[0],
        area_tensor(coeffs.rough, jet, jet[0]),
    )


def _node_curves(
    times: np.ndarray,
    states: np.ndarray,
    bank: Sequence[TestFunction],
    coeffs: CoefficientSet,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Node curves of ``bank`` along the clouds ``states[k]`` at ``times[k]``.

    Returns ``(value, generator, first, second)``, views of one ``(P, K,
    2 + n + n^2)`` array: for probe ``p`` and node ``k``, ``value[p, k] =
    <mu_k, phi>``, ``generator[p, k] = <mu_k, L phi>``, ``first[p, k, kap] =
    <mu_k, G_kap phi>`` and ``second[p, k, kap, lam]`` the second-order
    pairing of the channel pair, all with the coefficients frozen at the
    node time.

    The coefficient tensors are evaluated once per node (the callables take a
    scalar time and the node's measure); each probe's jet (value, gradient
    and Hessian) is evaluated once per block on the stacked particle rows.  The
    integrands are written once, here, each an ``ordered_sum`` over the state
    index in the orders its docstring names:

        generator:  0.5 a:Hess phi + b . grad phi,    a = sigma sigma^T,
        first:      grad phi . f_kap,
        second:     f^i_kap f^j_lam Hess_ij phi + area[., kap, lam] . grad phi,

    the last through the area tensor so it matches the one-step scheme
    identically.  They fill one ``(2 + n + n^2, rows)`` buffer per probe and
    block, which one ``symmetric_mean`` reduces node by node.
    """
    K, N, d = states.shape
    n = coeffs.driver_dim
    ij = list(itertools.product(range(d), repeat=2))       # i outer
    out = np.empty((len(bank), K, 2 + n + n * n))
    per_block = max(1, _BLOCK_POINTS // N)
    for lo in range(0, K, per_block):
        hi = min(lo + per_block, K)
        # the node tensors with the rows axis last: b (d, R), a (d, d, R),
        # f (d, n, R) and area (d, n, n, R)
        b, a, f, area = (
            np.moveaxis(np.concatenate(parts), 0, -1)
            for parts in zip(
                *(_node_tensors(coeffs, float(times[k]), states[k]) for k in range(lo, hi))
            )
        )
        x = states[lo:hi].reshape(-1, d)
        buf = np.empty((2 + n + n * n, x.shape[0]))
        for p, phi in enumerate(bank):
            value, grad, hess = (np.moveaxis(t, 0, -1) for t in phi.jet(x))
            buf[0] = value
            buf[1] = 0.5 * ordered_sum(
                ordered_sum(a[i, j] * hess[i, j] for i in range(d)) for j in range(d)
            ) + ordered_sum(b[i] * grad[i] for i in range(d))
            buf[2 : 2 + n] = ordered_sum(grad[i] * f[i] for i in range(d))
            buf[2 + n :] = (
                ordered_sum((f[i, :, None] * f[j]) * hess[i, j] for i, j in ij)
                + ordered_sum(area[i] * grad[i] for i in range(d))
            ).reshape(n * n, -1)
            out[p, lo:hi] = symmetric_mean(buf.reshape(-1, hi - lo, N), axis=-1).T
    return out[..., 0], out[..., 1], out[..., 2 : 2 + n], out[..., 2 + n :].reshape(-1, K, n, n)


def _defect(lhs, time_part, first, second, dw: np.ndarray, ww: np.ndarray):
    """``lhs - time_part - first . dW - second : WW`` per span, channel axes
    last; ``first`` and ``second`` are frozen at the span's start."""
    n = dw.shape[-1]
    first_part = ordered_sum(first[..., k] * dw[..., k] for k in range(n))
    second_part = ordered_sum(
        second[..., k, l] * ww[..., k, l] for k in range(n) for l in range(n)
    )
    return lhs - time_part - first_part - second_part


def weak_residual(
    flow: MeasureFlow,
    rp: GridRoughPath,
    phi: TestFunction,
    coeffs: CoefficientSet,
    s: float,
    t: float,
) -> float:
    """Defect of the weak-form expansion over the grid span ``[s, t]``.

    The time integral is the trapezoid rule over the span's nodes; the first-
    and second-order signal terms are frozen at ``s``.  ``flow`` and ``rp``
    must share one grid, and ``rp`` must have the bundle's channels.
    """
    check_signal(rp, flow.grid, coeffs.driver_dim)
    i, j = flow.grid.span_indices(s, t)
    if i == j:
        return 0.0
    pts = flow.grid.points[i : j + 1]
    curves = _node_curves(pts, flow.states[i : j + 1], [phi], coeffs)
    value, gen, first, second = (c[0] for c in curves)
    time_part = float(np.sum(0.5 * np.diff(pts) * (gen[:-1] + gen[1:])))
    return float(_defect(value[-1] - value[0], time_part, first[0], second[0], *rp.span(i, j)))


def _cell_residuals(
    flow: MeasureFlow, rp: GridRoughPath, bank: Sequence[TestFunction],
    coeffs: CoefficientSet,
) -> np.ndarray:
    """``weak_residual`` of every probe on every single cell, shape ``(P, K)``."""
    pts = flow.grid.points
    value, gen, first, second = _node_curves(pts, flow.states, bank, coeffs)
    cells = np.arange(flow.grid.num_cells)
    return _defect(
        value[:, 1:] - value[:, :-1],
        0.5 * np.diff(pts) * (gen[:, :-1] + gen[:, 1:]),
        first[:, :-1],                                    # signal terms at s = t_k
        second[:, :-1],
        *rp.span(cells, cells + 1),                       # (K, n), (K, n, n)
    )


# ---------------------------------------------------------------------------
# order scan


@dataclass(frozen=True, eq=False)
class ResidualScan:
    """Single-cell residual maxima per dyadic level, with fitted decay order.

    ``table`` rows are ``(phi, level, delta, max_residual, noise_floor)``;
    ``slopes[name]`` is the log-log fitted order, or ``inf`` for probes whose
    residual never leaves machine zero (reported as exact).
    """

    table: list[tuple[str, int, float, float, float]]
    slopes: dict[str, float]


_MACHINE_FLOOR = 1e-13


def residual_order_scan(
    runs: Sequence[tuple[MeasureFlow, GridRoughPath]],
    bank: Sequence[TestFunction],
    coeffs: CoefficientSet,
    replicates: Sequence[Sequence[tuple[MeasureFlow, GridRoughPath]]] = (),
) -> ResidualScan:
    """Fit the single-cell residual decay across dyadic resolutions.

    ``runs[l]`` is the flow/signal pair at level ``l`` (finer with ``l``); the
    statistic per level is the max over that grid's cells of the absolute
    weak-form defect.  Optional ``replicates`` are re-runs with different
    seeds; the spread of their statistics is reported as a noise floor next
    to each residual.
    """
    if len(runs) < 2:
        raise ValueError("need at least two resolutions to fit a slope")
    for reps in replicates:
        if len(reps) != len(runs):
            raise ValueError("every replicate needs one run per level")
    for flow, rp in itertools.chain(runs, *replicates):
        check_signal(rp, flow.grid, coeffs.driver_dim)

    def level_stats(flow: MeasureFlow, rp: GridRoughPath) -> np.ndarray:
        return np.max(np.abs(_cell_residuals(flow, rp, bank, coeffs)), axis=1)

    main = [level_stats(flow, rp) for flow, rp in runs]
    reps = [[level_stats(f, r) for f, r in rep_runs] for rep_runs in replicates]

    table: list[tuple[str, int, float, float, float]] = []
    slopes: dict[str, float] = {}
    for p, phi in enumerate(bank):
        deltas, stats = [], []
        for level, (flow, _) in enumerate(runs):
            stat = float(main[level][p])
            rep_stats = [float(rep[level][p]) for rep in reps]
            floor = 0.0
            if rep_stats:
                allstats = rep_stats + [stat]
                floor = 0.5 * (max(allstats) - min(allstats))
            delta = float(np.max(flow.grid.dt))
            table.append((phi.name, level, delta, stat, floor))
            deltas.append(delta)
            stats.append(stat)
        if max(stats) < _MACHINE_FLOOR:
            slopes[phi.name] = float("inf")
        else:
            clipped = np.maximum(stats, 1e-300)
            slopes[phi.name] = float(
                np.polyfit(np.log(deltas), np.log(clipped), 1)[0]
            )
    return ResidualScan(table=table, slopes=slopes)


def save_residual_csv(scan: ResidualScan, path: str, stamp: str | None = None) -> None:
    """Rows ``phi, level, delta, max_residual, noise_floor``."""
    names, levels, deltas, stats, floors = zip(*scan.table)
    write_table(
        path,
        ["phi", "level", "delta", "max_residual", "noise_floor"],
        [(names, map(str, levels), np.array(deltas), np.array(stats), np.array(floors))],
        stamp=stamp,
    )
