"""Backward value function by path sampling, and the forward pairing drift."""

import dataclasses
import re

import numpy as np
import pytest

from conftest import (
    assert_refused_naming,
    drop_magic_token,
    edit_cell,
    edit_magic,
    linear_signal_family,
    mean_coupled_sin_family,
    traced_peak,
)

from roughmkv import backward
from roughmkv.backward import (
    BackwardSolution,
    duality_drift,
    lattice_from_flow,
    load_backward_csv,
    save_backward_csv,
    solve_backward_fk,
)
from roughmkv.coefficients import (
    coefficient_set,
    constant_rough,
    linear_state_family,
    measure_free_family,
)
from roughmkv.grids import TimeGrid
from roughmkv.measures import MeasureFlow, load_flow_csv, save_flow_csv
from roughmkv.roughpath import brownian_lift
from roughmkv.simulate import (
    NumericalBlowup,
    SimulationConfig,
    advance_states,
    check_finite,
    simulate,
)
from roughmkv.streams import TAG_BACKWARD, substream


def grid_and_driver(cells=16, seed=5, dim=1):
    grid = TimeGrid.uniform(1.0, cells)
    return grid, brownian_lift(seed, dim, grid, refinement_factor=8)


def shift_setup(c=0.7, cells=16):
    grid, rp = grid_and_driver(cells)
    cs = coefficient_set(1, 1, 1, rough=constant_rough(np.array([[c]])))
    return grid, rp, cs


# ---------------------------------------------------------------------------
# closed-form solves


def test_zero_dynamics_reproduce_the_terminal_condition():
    grid, rp = grid_and_driver()
    cs = coefficient_set(1, 1, 1)
    axes = (np.linspace(-2, 2, 9),)
    times = grid.points[[0, 4, 8, 16]]
    sol = solve_backward_fk(cs, rp, lambda x: np.sin(x[:, 0]), axes, times, 16, 1)
    for row in range(len(times)):
        assert np.array_equal(sol.u[row], np.sin(axes[0]))
        assert np.all(sol.stderr[row] == 0.0)


def test_rigid_shift_closed_form_no_mc_variance():
    c = 0.7
    grid, rp, cs = shift_setup(c)
    axes = (np.linspace(-1, 1, 7),)
    times = grid.points[[0, 8, 16]]
    sol = solve_backward_fk(cs, rp, lambda x: x[:, 0], axes, times, 8, 2)
    T = grid.horizon
    for row, s in enumerate(times):
        want = axes[0] + c * (rp.values[-1, 0] - rp.values[grid.index_of(float(s)), 0])
        assert np.max(np.abs(sol.u[row] - want)) <= 1e-12
        assert np.all(sol.stderr[row] <= 1e-15)


def test_brownian_second_moment_within_error_bars():
    grid, rp = grid_and_driver(cells=32)
    cs = coefficient_set(1, 1, 1, diffusion=lambda t, x, mu: np.ones((x.shape[0], 1, 1)))
    axes = (np.linspace(-1.5, 1.5, 5),)
    times = grid.points[[0, 16]]
    sol = solve_backward_fk(cs, rp, lambda x: x[:, 0] ** 2, axes, times, 4096, 3)
    for row, s in enumerate(times):
        want = axes[0] ** 2 + (grid.horizon - float(s))
        gap = np.abs(sol.u[row] - want)
        assert np.all(gap <= 3.0 * sol.stderr[row] + 1e-12)
        assert np.all(sol.stderr[row] > 0.0)


def test_constant_terminal_is_exact_and_pairs_flat():
    grid, rp = grid_and_driver()
    cs = coefficient_set(
        1, 1, 1,
        drift=lambda t, x, mu: -0.2 * x,
        diffusion=lambda t, x, mu: 0.3 * np.ones((x.shape[0], 1, 1)),
    )
    flow, _ = simulate(SimulationConfig(64, grid, 4, 1, 1, 1), cs, rp)
    axes = lattice_from_flow(flow, 17)
    times = grid.points[[0, 8, 16]]
    sol = solve_backward_fk(cs, rp, lambda x: np.ones(x.shape[0]), axes, times, 32, 5)
    assert np.all(sol.u == 1.0)
    rep = duality_drift(flow, sol)
    assert rep.drift == 0.0


@pytest.mark.parametrize("x0", [(0.5,), (0.5, -1.25)], ids=["d1", "d2"])
def test_a_flow_held_at_one_point_gets_a_lattice_padded_by_one_unit(x0):
    # no diffusion, zero drift and signal, and a point initial law: every
    # state is x0, so the quantile envelope and the std both vanish
    d = len(x0)
    grid, rp = grid_and_driver(cells=4, dim=d)
    cfg = SimulationConfig(
        16, grid, 3, d, d, d, initial_sampler=lambda rng, k: np.full((k, d), x0)
    )
    flow, _ = simulate(cfg, coefficient_set(d, d, d), rp)
    assert np.all(flow.states == np.array(x0))
    axes = lattice_from_flow(flow, 9)
    assert len(axes) == d
    for ax, x in zip(axes, x0):
        assert ax.size == 9 and np.all(np.diff(ax) > 0.0)
        assert (ax[0], ax[-1]) == (x - 1.0, x + 1.0)


# ---------------------------------------------------------------------------
# error estimates


def test_stderr_shrinks_like_sqrt_mc_budget():
    grid, rp = grid_and_driver()
    cs = coefficient_set(1, 1, 1, diffusion=lambda t, x, mu: np.ones((x.shape[0], 1, 1)))
    axes = (np.linspace(-0.5, 0.5, 4),)
    times = grid.points[[0]]
    small = solve_backward_fk(cs, rp, lambda x: x[:, 0] ** 2, axes, times, 512, 9)
    big = solve_backward_fk(cs, rp, lambda x: x[:, 0] ** 2, axes, times, 2048, 9)
    ratio = float(big.stderr[0, 0] / small.stderr[0, 0])
    assert abs(ratio - 0.5) <= 0.15  # 4x samples, about half the error


def test_antithetic_pairs_cancel_on_a_linear_terminal():
    # diffusion only: the two paths of a pair end at x + S and x - S, so every
    # pair mean is the start point, up to rounding
    grid, rp = grid_and_driver()
    cs = coefficient_set(1, 1, 1, diffusion=lambda t, x, mu: 0.3 * np.ones((x.shape[0], 1, 1)))
    axes = (np.linspace(-1.0, 1.0, 5),)
    times = grid.points[[0, 8]]
    sol = solve_backward_fk(cs, rp, lambda x: x[:, 0], axes, times, 64, 4)
    for row in range(len(times)):
        assert np.max(np.abs(sol.u[row] - axes[0])) <= 1e-14
        assert np.all(sol.stderr[row] <= 1e-14)


def nonlinear_bundle():
    """State-dependent drift, diffusion and signal term; 16 cells."""
    grid, rp = grid_and_driver(cells=16)
    cs = coefficient_set(
        1, 1, 1,
        drift=lambda t, x, mu: -0.4 * x + np.sin(3.0 * x),
        diffusion=lambda t, x, mu: (0.3 + 0.2 * np.cos(x))[:, :, None],
        rough=linear_state_family(0.25, 1, 1),
    )
    return grid, rp, cs


@pytest.mark.parametrize(
    "terminal",
    [lambda x: x[:, 0] ** 2, lambda x: np.cos(x[:, 0]), lambda x: np.tanh(x[:, 0])],
    ids=["square", "cosine", "tanh"],
)
def test_stderr_matches_the_seed_to_seed_spread(terminal):
    # the reported standard error is that of u: over 40 seeds the spread of u
    # is its mean, within the error of a 40-sample spread
    grid, rp, cs = nonlinear_bundle()
    axes = (np.linspace(-1.5, 1.5, 5),)
    sols = [solve_backward_fk(cs, rp, terminal, axes, grid.points[[0]], 256, seed)
            for seed in range(40)]
    u = np.array([sol.u[0] for sol in sols])
    se = np.array([sol.stderr[0] for sol in sols]).mean(axis=0)
    live = se > 0.0
    assert np.any(live)
    ratio = u.std(axis=0, ddof=1)[live] / se[live]
    assert np.all((0.7 <= ratio) & (ratio <= 1.4)), ratio


# ---------------------------------------------------------------------------
# row blocking changes no number


def one_shot_reference(coeffs, rp, terminal, axes, times, mc_samples, seed):
    """Oracle: every sampled state advanced as one batch, one draw per cell.

    Cell ``k`` draws one ``(M/2, m)`` normal block from its own stream,
    ``substream(seed, TAG_BACKWARD, k)``, and every lattice point of every
    start time that crosses it reads that block; row ``r`` drives path rows
    ``2r`` (plus) and ``2r + 1`` (minus) of each point.  ``u`` and
    ``stderr`` come from the sums of the pair means less the point's first
    pair mean, each one ``cumsum`` over all pairs.  A blow-up raises the
    earliest time any start time reaches.
    """
    grid, pts = rp.grid, rp.grid.points
    mesh = np.meshgrid(*axes, indexing="ij")
    lattice = np.stack([m.ravel() for m in mesh], axis=1)
    P, M, n = lattice.shape[0], mc_samples, mc_samples // 2
    starts = [grid.index_of(float(t)) for t in times]
    noise = {
        k: substream(seed, TAG_BACKWARD, k).standard_normal((n, coeffs.brownian_dim))
        for k in range(min(starts), grid.num_cells)
    }
    u, se, blowups = [], [], []
    for start in starts:
        states = np.repeat(lattice, M, axis=0)
        try:
            for k in range(start, grid.num_cells):
                h = float(grid.dt[k])
                z = noise[k] * np.sqrt(h)
                db = np.empty((P, n, 2, coeffs.brownian_dim))
                db[:, :, 0], db[:, :, 1] = z, -z
                s_t, t_t = float(pts[k]), float(pts[k + 1])
                states, _ = advance_states(
                    states, coeffs, None, s_t, h, rp.increment(s_t, t_t), rp.second(s_t, t_t),
                    db.reshape(P * M, -1),
                )
                check_finite(states, t_t)
            vals = terminal(states)
            check_finite(vals, grid.horizon)
        except NumericalBlowup as exc:
            blowups.append(exc.time)
            continue
        vals = vals.reshape(P, n, 2)
        pair_means = (vals[:, :, 0] + vals[:, :, 1]) / 2.0
        shift = pair_means[:, 0]
        dev = pair_means - shift[:, None]
        total = np.cumsum(dev, axis=1)[:, -1]
        square = np.cumsum(dev * dev, axis=1)[:, -1]
        u.append(shift + total / n)
        se.append(np.sqrt((square - total * total / n) / (n - 1)) / np.sqrt(n))
    if blowups:
        raise NumericalBlowup(min(blowups))
    return np.array(u), np.array(se)


def scalar_bundle():
    """d = m = n = 1 with a state-dependent signal term, so the area acts."""
    grid, rp = grid_and_driver(cells=8)
    cs = coefficient_set(
        1, 1, 1,
        drift=lambda t, x, mu: -0.3 * x,
        diffusion=lambda t, x, mu: (0.4 + 0.1 * np.sin(x))[:, :, None],
        rough=linear_signal_family(0.5),
    )
    return rp, cs, (np.linspace(-1.0, 1.0, 5),), 6           # 30 rows


def planar_bundle():
    """d = m = 2, one signal channel, measure-free; 16 lattice points."""
    grid = TimeGrid.uniform(1.0, 8)
    rp = brownian_lift(12, 1, grid, refinement_factor=4)
    sel = np.array([1.0, 0.0])

    def jet(t, x):
        return (
            0.3 * np.sin(x)[:, :, None] * sel[None, :, None],
            0.3 * (np.cos(x) * sel)[:, :, None, None] * np.eye(2)[None, :, :, None],
        )

    cs = coefficient_set(
        2, 2, 1,
        drift=lambda t, x, mu: -0.2 * x[:, ::-1],
        diffusion=lambda t, x, mu: np.einsum("ai,ij->aij", 1.0 + 0.1 * x**2, 0.3 * np.eye(2)),
        rough=measure_free_family(2, 1, jet),
    )
    return rp, cs, (np.linspace(-1.0, 1.0, 4), np.linspace(-2.0, 2.0, 4)), 6   # 96 rows


# case: (_BLOCK_ROWS from the lattice size P and the pairs per point n, start nodes)
BLOCKINGS = {
    "above": (lambda P, n: 2 * P * n + 4, [0, 5, 8]),
    "exact": (lambda P, n: 2 * P * n, [0, 5, 8]),
    "ragged": (lambda P, n: 2 * P * (n - 1) + 1, [0, 5, 8]),
    "one_pair_per_chunk": (lambda P, n: 2 * P - 1, [0, 5, 8]),
    "one_pair_odd_block": (lambda P, n: 2 * P + 1, [0, 5, 8]),
    "times_out_of_order": (lambda P, n: 2 * P * (n - 1) + 1, [8, 0, 5]),
}


@pytest.mark.parametrize("bundle", [scalar_bundle, planar_bundle])
@pytest.mark.parametrize("block", list(BLOCKINGS))
def test_blocked_sampler_equals_one_shot_draw(monkeypatch, bundle, block):
    # a chunk is _BLOCK_ROWS // 2P pairs of every lattice point (at least
    # one); "ragged" leaves a shorter last chunk
    rp, cs, axes, M = bundle()
    P, n = int(np.prod([a.size for a in axes])), M // 2
    block_rows, nodes = BLOCKINGS[block]
    size = block_rows(P, n)
    pairs = max(1, min(n, size // (2 * P)))
    assert block != "ragged" or n % pairs != 0
    assert block != "one_pair_per_chunk" or size < 2 * P
    monkeypatch.setattr(backward, "_BLOCK_ROWS", size)
    times = rp.grid.points[nodes]
    terminal = lambda x: np.sum(x**2, axis=1)
    sol = solve_backward_fk(cs, rp, terminal, axes, times, M, 17)
    u, se = one_shot_reference(cs, rp, terminal, axes, times, M, 17)
    assert np.array_equal(sol.u, u)
    assert np.array_equal(sol.stderr, se)


def test_each_cell_draws_its_normals_once(monkeypatch):
    # four start times and every lattice point share the cells they cross:
    # (K - min s) M / 2 normals per channel in all, one stream per cell from
    # the earliest start on
    rp, cs, axes, M = scalar_bundle()
    K = rp.grid.num_cells
    opened, drawn = [], []

    class Counted:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, *args, **kw):
            out = self.gen.standard_normal(*args, **kw)
            drawn.append(out.size)
            return out

    def counted_stream(seed, *tags):
        opened.append(tags)
        return Counted(substream(seed, *tags))

    monkeypatch.setattr(backward, "substream", counted_stream)
    monkeypatch.setattr(backward, "_BLOCK_ROWS", 14)
    starts = [5, 2, 8, 3]
    solve_backward_fk(cs, rp, lambda x: x[:, 0], axes, rp.grid.points[starts], M, 17)
    assert sum(drawn) == (K - min(starts)) * M // 2 * cs.brownian_dim
    assert opened == [(TAG_BACKWARD, k) for k in range(min(starts), K)]


@pytest.mark.parametrize("bundle", [scalar_bundle, planar_bundle])
def test_each_start_time_equals_its_solve_alone(bundle):
    # start times share each cell's stream, every one reading the same rows
    # of it, and each holds its own chunk of states, so the others change
    # none of its numbers
    rp, cs, axes, M = bundle()
    times = rp.grid.points[[0, 3, 5, 8]]
    terminal = lambda x: np.sum(x**2, axis=1)
    sol = solve_backward_fk(cs, rp, terminal, axes, times, M, 17)
    for row, t in enumerate(times):
        alone = solve_backward_fk(cs, rp, terminal, axes, [t], M, 17)
        assert np.array_equal(sol.u[row], alone.u[0])
        assert np.array_equal(sol.stderr[row], alone.stderr[0])


@pytest.mark.parametrize("bundle", [scalar_bundle, planar_bundle])
def test_the_order_of_the_start_times_changes_no_bit(bundle):
    # the solver walks its start times earliest first and answers in the
    # caller's order
    rp, cs, axes, M = bundle()
    times = rp.grid.points[[5, 0, 8, 3]]
    terminal = lambda x: np.sum(x**2, axis=1)
    mixed = solve_backward_fk(cs, rp, terminal, axes, times, M, 17)
    ordered = solve_backward_fk(cs, rp, terminal, axes, np.sort(times), M, 17)
    rank = np.argsort(np.argsort(times))
    assert np.array_equal(mixed.times, times)
    assert np.array_equal(mixed.u, ordered.u[rank])
    assert np.array_equal(mixed.stderr, ordered.stderr[rank])


def constant_bundle(sigma):
    """Zero drift, constant sigma and a constant signal coefficient: a path's
    move does not depend on its start point."""
    grid, rp = grid_and_driver()
    cs = coefficient_set(
        1, 1, 1,
        diffusion=lambda t, x, mu: sigma * np.ones((x.shape[0], 1, 1)),
        rough=constant_rough(np.array([[0.7]])),
    )
    return grid, rp, cs


def test_lattice_points_share_each_cells_noise(monkeypatch):
    # every point's paths take the same moves, so on integer points a
    # terminal of period 1 gives one u and one stderr across the lattice;
    # blocks below 2P give one pair of every point per chunk
    grid, rp, cs = constant_bundle(0.4)
    axes = (np.arange(-4.0, 5.0),)
    monkeypatch.setattr(backward, "_BLOCK_ROWS", 2 * axes[0].size - 1)
    terminal = lambda x: np.sin(2.0 * np.pi * x[:, 0])
    sol = solve_backward_fk(cs, rp, terminal, axes, grid.points[[0, 8]], 16, 3)
    for row in range(2):
        assert np.ptp(sol.u[row]) <= 1e-12
        assert np.ptp(sol.stderr[row]) <= 1e-12
        assert np.all(sol.stderr[row] > 1e-3)


def test_a_noise_free_bundle_has_exact_values_and_zero_stderr():
    # sigma = 0: both paths of every pair follow the noise-free step, so
    # every pair mean is the terminal value of that path
    grid, rp, cs = constant_bundle(0.0)
    axes = (np.linspace(-1.0, 1.0, 7),)
    terminal = lambda x: np.sin(2.0 * np.pi * x[:, 0])
    starts = [0, 8]
    sol = solve_backward_fk(cs, rp, terminal, axes, grid.points[starts], 8, 2)
    for row, start in enumerate(starts):
        x = axes[0][:, None]
        for k in range(start, grid.num_cells):
            dw, area = rp.span(k, k + 1)
            x, _ = advance_states(
                x, cs, None, float(grid.points[k]), float(grid.dt[k]), dw, area,
                np.zeros((x.shape[0], 1)),
            )
        assert np.array_equal(sol.u[row], terminal(x))
        assert np.all(sol.stderr[row] == 0.0)


def test_blowup_in_a_later_block_keeps_its_time(monkeypatch):
    grid, rp = grid_and_driver()
    cs = coefficient_set(1, 1, 1, drift=lambda t, x, mu: 1e3 * x**3)
    # blocks of 5 rows, fewer than 2P = 8: each of the two chunks holds one
    # pair of every point; only the node at 50 explodes, in the first chunk,
    # and the second walks only the cells before the blow-up
    axes = (np.array([0.0, 1e-3, 2e-3, 50.0]),)
    monkeypatch.setattr(backward, "_BLOCK_ROWS", 5)
    times = grid.points[[0, 8]]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalBlowup) as want:
            one_shot_reference(cs, rp, lambda x: x[:, 0], axes, times, 4, 1)
        with pytest.raises(NumericalBlowup) as got:
            solve_backward_fk(cs, rp, lambda x: x[:, 0], axes, times, 4, 1)
    assert 0.0 < want.value.time < grid.horizon
    assert got.value.time == want.value.time


def overflow_step(x, grid):
    """Cells the noise-free x <- x + 1e3 x^3 h takes to leave the float range."""
    x, k = np.float64(x), 0
    while np.isfinite(x):
        x = x + 1e3 * x**3 * float(grid.dt[k])
        k += 1
    return k


@pytest.mark.parametrize("nodes", [[0, 8], [8, 0]])
@pytest.mark.parametrize("block", [5, 9])
def test_the_earliest_blowup_of_any_chunk_is_raised(monkeypatch, block, nodes):
    # M = 4 and blocks of 5 or 9 rows: one pair of every point per chunk.
    # The node at -2 overflows a cell later than the node at 50, so the
    # first point to blow up in row order is not the earliest.
    grid, rp = grid_and_driver()
    cs = coefficient_set(1, 1, 1, drift=lambda t, x, mu: 1e3 * x**3)
    axes = (np.array([-2.0, 0.0, 1e-3, 50.0]),)
    monkeypatch.setattr(backward, "_BLOCK_ROWS", block)
    times = grid.points[nodes]
    with np.errstate(over="ignore", invalid="ignore"):
        early, late = overflow_step(50.0, grid), overflow_step(-2.0, grid)
        with pytest.raises(NumericalBlowup) as want:
            one_shot_reference(cs, rp, lambda x: x[:, 0], axes, times, 4, 1)
        with pytest.raises(NumericalBlowup) as got:
            solve_backward_fk(cs, rp, lambda x: x[:, 0], axes, times, 4, 1)
    assert early < late < grid.num_cells
    assert got.value.time == want.value.time == grid.points[early]


def test_a_later_chunk_can_hold_the_earliest_blowup(monkeypatch):
    # one pair of every point per chunk, with noise: the first pair leaves
    # the float range a cell or two later than some later pairs, so the
    # chunks after a blow-up must still walk the cells before it
    grid, rp = grid_and_driver()
    cs = coefficient_set(
        1, 1, 1,
        drift=lambda t, x, mu: 1e3 * x**3,
        diffusion=lambda t, x, mu: np.ones((x.shape[0], 1, 1)),
    )
    axes = (np.array([-0.05, 0.0, 0.02, 0.05]),)
    monkeypatch.setattr(backward, "_BLOCK_ROWS", 2 * axes[0].size - 1)
    times = grid.points[[0]]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalBlowup) as want:
            one_shot_reference(cs, rp, lambda x: x[:, 0], axes, times, 16, 1)
        with pytest.raises(NumericalBlowup) as got:
            solve_backward_fk(cs, rp, lambda x: x[:, 0], axes, times, 16, 1)
    assert got.value.time == want.value.time == grid.points[7]


def test_sampler_memory_is_the_paths_plus_a_few_blocks():
    # the bound allows the (P*M, 1) states, three arrays of M rows and four
    # blocks; each start time holds a chunk of about _BLOCK_ROWS rows, and
    # the one-step map's temporaries stay within blocks of _BLOCK_ROWS rows
    # (unblocked, they add ~80 blocks)
    grid, rp = grid_and_driver(cells=8)
    cs = coefficient_set(
        1, 1, 1,
        drift=lambda t, x, mu: -0.3 * x,
        diffusion=lambda t, x, mu: 0.5 * np.ones((x.shape[0], 1, 1)),
        rough=linear_state_family(0.25, 1, 1),
    )
    axes, M = (np.linspace(-1.0, 1.0, 4),), 16 * backward._BLOCK_ROWS // 4
    states_bytes = 4 * M * 8
    block_bytes = backward._BLOCK_ROWS * 8
    _, peak = traced_peak(
        lambda: solve_backward_fk(cs, rp, lambda x: x[:, 0] ** 2, axes, grid.points[[0, 4]], M, 1)
    )
    assert peak <= states_bytes + 3 * M * 8 + 4 * block_bytes


def test_sampler_memory_does_not_grow_with_the_lattice():
    # d = 2 and a terminal that reads a view, so the states dominate the
    # peak; each start time holds one chunk of _BLOCK_ROWS // 2P pairs of
    # every point, _BLOCK_ROWS rows whatever the lattice size
    grid, rp = grid_and_driver(cells=4, dim=2)
    cs = coefficient_set(
        2, 2, 2,
        drift=lambda t, x, mu: -0.3 * x,
        diffusion=lambda t, x, mu: 0.5 * np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)),
        rough=linear_state_family(0.25, 2, 2),
    )
    M = backward._BLOCK_ROWS

    def peak(second_axis_points, nodes):
        axes = (np.linspace(-1.0, 1.0, 4), np.linspace(-1.0, 1.0, second_axis_points))
        solve = lambda: solve_backward_fk(cs, rp, lambda x: x[:, 0], axes, grid.points[nodes], M, 1)
        return traced_peak(solve)[1]

    one = peak(4, [0])
    assert peak(8, [0]) <= one + backward._BLOCK_ROWS * 8
    # one chunk of (M, 2) states, and a page for the views that walk it
    assert peak(4, [0, 2]) <= one + M * 2 * 8 + 4096


# ---------------------------------------------------------------------------
# refusals


def test_measure_dependent_coefficients_are_refused():
    grid, rp = grid_and_driver()
    cs = coefficient_set(1, 1, 1, rough=mean_coupled_sin_family(0.5, 0.4))
    with pytest.raises(ValueError, match="measure-free"):
        solve_backward_fk(cs, rp, lambda x: x[:, 0], (np.linspace(-1, 1, 4),), grid.points[[0]], 8, 1)


def test_tiny_mc_budget_is_refused():
    grid, rp, cs = shift_setup()
    with pytest.raises(ValueError, match="mc_samples"):
        solve_backward_fk(cs, rp, lambda x: x[:, 0], (np.linspace(-1, 1, 4),), grid.points[[0]], 1, 1)


@pytest.mark.parametrize("M", [2, 3, 5])
def test_an_odd_or_single_pair_budget_is_refused_before_sampling(M):
    # antithetic pairs need an even M, and a spread needs two pairs
    grid, rp = grid_and_driver()
    calls = []

    def drift(t, x, mu):
        calls.append(x.shape[0])
        return 0.0 * x

    cs = coefficient_set(1, 1, 1, drift=drift)
    with pytest.raises(ValueError, match=rf"^mc_samples must be even and >= 4 .*, got {M}$"):
        solve_backward_fk(cs, rp, lambda x: x[:, 0], (np.linspace(-1, 1, 4),), grid.points[[0]], M, 1)
    assert calls == []


@pytest.mark.parametrize("sizes", [(2,), (3,), (5, 3), (3, 5)])
def test_an_axis_below_four_points_is_refused_before_sampling(sizes):
    grid, rp = grid_and_driver(dim=len(sizes))
    calls = []

    def drift(t, x, mu):
        calls.append(x.shape[0])
        return 0.0 * x

    d = len(sizes)
    cs = coefficient_set(d, d, d, drift=drift)
    axes = tuple(np.linspace(-1.0, 1.0, n) for n in sizes)
    with pytest.raises(ValueError) as want:
        lattice_from_flow(None, 3)
    with pytest.raises(ValueError) as got:
        solve_backward_fk(cs, rp, lambda x: x[:, 0], axes, grid.points[[0]], 8, 1)
    assert str(got.value) == str(want.value)
    assert calls == []


def counted_bundle(d=1, **kw):
    """A measure-free bundle whose drift records every call, so a test can
    tell a refusal before sampling from one after it."""
    calls = []

    def drift(t, x, mu):
        calls.append(x.shape[0])
        return 0.0 * x

    return coefficient_set(d, d, d, drift=drift, **kw), calls


@pytest.mark.parametrize(
    "axis", [[-1.0, np.nan, 0.5, 1.0], [-1.0, 0.0, 0.5, np.inf]], ids=["nan", "inf"]
)
def test_a_non_finite_axis_is_refused_before_sampling(axis):
    # np.diff(axis) <= 0 is False at a NaN, so the sorted test cannot see it
    grid, rp = grid_and_driver()
    cs, calls = counted_bundle()
    with pytest.raises(ValueError, match="finite"):
        solve_backward_fk(cs, rp, lambda x: x[:, 0], (axis,), grid.points[[0]], 8, 1)
    assert calls == []


def test_a_solution_keeps_frozen_axes():
    grid, rp, cs = shift_setup(cells=4)
    axis = np.linspace(-1.0, 1.0, 4)
    sol = solve_backward_fk(cs, rp, lambda x: x[:, 0], (axis,), grid.points[[0]], 8, 1)
    assert not sol.axes[0].flags.writeable and np.array_equal(sol.axes[0], axis)
    assert axis.flags.writeable


@pytest.mark.parametrize("channels", [2, 3])
def test_a_signal_with_other_channels_is_refused_before_sampling(channels):
    # a one-channel bundle would broadcast against every channel of the signal
    grid, rp = grid_and_driver(dim=channels)
    cs, calls = counted_bundle(rough=linear_signal_family(0.5))
    with pytest.raises(ValueError, match=f"signal has {channels} channels"):
        solve_backward_fk(cs, rp, lambda x: x[:, 0], (np.linspace(-1, 1, 4),), grid.points[[0]], 8, 1)
    assert calls == []


@pytest.mark.parametrize("name", ["my square", "tab\tname", "line\n", " "])
def test_a_terminal_name_with_whitespace_is_refused(name):
    grid, rp, cs = shift_setup(cells=4)
    axes = (np.linspace(-1.0, 1.0, 4),)
    with pytest.raises(ValueError, match="whitespace"):
        solve_backward_fk(cs, rp, lambda x: x[:, 0], axes, grid.points[[0]], 8, 1, name)


def test_a_solution_without_start_times_is_refused():
    # a (0, P) solution has no pairing to drift from and no block to load back
    grid, rp, cs = shift_setup(cells=4)
    axes = (np.linspace(-1.0, 1.0, 4),)
    with pytest.raises(ValueError, match="at least one start time"):
        solve_backward_fk(cs, rp, lambda x: x[:, 0], axes, [], 8, 1)
    with pytest.raises(ValueError, match="at least one start time"):
        BackwardSolution(
            axes=axes, times=np.zeros(0), u=np.zeros((0, 4)), stderr=np.zeros((0, 4)),
            mc_samples=8, driver_checksum="x",
        )


def test_a_whitespace_free_terminal_name_loads_back(tmp_path):
    grid, rp, cs = shift_setup(cells=4)
    axes = (np.linspace(-1.0, 1.0, 4),)
    sol = solve_backward_fk(cs, rp, lambda x: x[:, 0], axes, grid.points[[0]], 8, 1, "x**2+c=1")
    save_backward_csv(sol, str(tmp_path / "u.csv"))
    assert load_backward_csv(str(tmp_path / "u.csv")).terminal_name == "x**2+c=1"


def test_a_non_finite_terminal_value_is_a_blowup_at_the_horizon():
    # finite states whose terminal value overflows: u could not hold it
    grid, rp, cs = shift_setup(cells=4)
    axes = (np.linspace(-1.0, 1.0, 4),)
    overflow = lambda x: 1e300 * np.exp(x[:, 0] + 20.0)
    with np.errstate(over="ignore"), pytest.raises(NumericalBlowup) as exc:
        solve_backward_fk(cs, rp, overflow, axes, grid.points[[0]], 8, 1)
    assert exc.value.time == grid.horizon


def test_exploding_drift_raises_with_time_stamp():
    grid, rp = grid_and_driver()
    cs = coefficient_set(1, 1, 1, drift=lambda t, x, mu: 1e3 * x**3)
    axes = (np.linspace(-50.0, 50.0, 9),)
    # noise-free dynamics: the outermost node follows x <- x + 1e3 x^3 h
    x, k = 50.0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while np.isfinite(x):
            x = x + 1e3 * np.float64(x) ** 3 * float(grid.dt[k])
            k += 1
        with pytest.raises(NumericalBlowup) as exc:
            solve_backward_fk(cs, rp, lambda x: x[:, 0], axes, grid.points[[0, 8]], 4, 1)
    assert 0 < k < grid.num_cells
    assert exc.value.time == grid.points[k]


def test_pairing_refuses_foreign_drivers():
    grid, rp, cs = shift_setup()
    other = brownian_lift(777, 1, grid, refinement_factor=8)
    flow, _ = simulate(SimulationConfig(16, grid, 2, 1, 1, 1), cs, rp)
    times = grid.points[[0, 16]]
    axes = lattice_from_flow(flow, 9)
    sol = solve_backward_fk(cs, rp, lambda x: x[:, 0], axes, times, 8, 1)
    foreign = solve_backward_fk(cs, other, lambda x: x[:, 0], axes, times, 8, 1)
    duality_drift(flow, sol)  # matching driver passes
    with pytest.raises(ValueError):
        duality_drift(flow, foreign)


@pytest.mark.parametrize(
    "flow_checksum, message",
    [("foreign", "driven by different signals"), (None, "carries no driver checksum")],
    ids=["foreign", "no_checksum"],
)
def test_pairing_refusal_names_its_cause(flow_checksum, message):
    grid, rp, cs = shift_setup()
    flow, _ = simulate(SimulationConfig(16, grid, 2, 1, 1, 1), cs, rp)
    sol = solve_backward_fk(
        cs, rp, lambda x: x[:, 0], lattice_from_flow(flow, 9), grid.points[[0, 16]], 8, 1
    )
    with pytest.raises(ValueError, match=message):
        duality_drift(MeasureFlow(flow.grid, flow.states, flow_checksum), sol)


# ---------------------------------------------------------------------------
# pairing constancy


def test_shift_case_pairing_is_constant():
    grid, rp, cs = shift_setup(c=0.9)
    flow, _ = simulate(SimulationConfig(128, grid, 6, 1, 1, 1), cs, rp)
    times = grid.points[[0, 4, 8, 12, 16]]
    axes = lattice_from_flow(flow, 33)
    sol = solve_backward_fk(cs, rp, lambda x: x[:, 0], axes, times, 64, 7)
    rep = duality_drift(flow, sol)
    assert rep.drift <= 1e-10
    # the flat value is the initial mean translated by the whole driver span
    want = float(flow.measure(0).mean()[0]) + 0.9 * float(rp.values[-1, 0] - rp.values[0, 0])
    assert np.allclose(rep.pairings, want, atol=1e-10)


def test_two_dimensional_solve_and_pairing_run():
    grid = TimeGrid.uniform(1.0, 8)
    rp = brownian_lift(12, 1, grid, refinement_factor=4)
    cs = coefficient_set(
        2, 2, 1,
        diffusion=lambda t, x, mu: np.broadcast_to(0.4 * np.eye(2), (x.shape[0], 2, 2)).copy(),
    )
    flow, _ = simulate(SimulationConfig(64, grid, 3, 2, 2, 1), cs, rp)
    axes = lattice_from_flow(flow, 13)
    assert len(axes) == 2 and all(a.size == 13 for a in axes)
    times = grid.points[[0, 4, 8]]
    sol = solve_backward_fk(
        cs, rp, lambda x: x[:, 0] ** 2 + x[:, 1] ** 2, axes, times, 512, 8
    )
    # oracle: u_s = |x|^2 + 2 * 0.16 * (T - s)
    lat = sol.lattice_points()
    for row, s in enumerate(times):
        want = np.sum(lat**2, axis=1) + 2 * 0.16 * (1.0 - float(s))
        gap = np.abs(sol.u[row] - want)
        assert np.all(gap <= 4.0 * sol.stderr[row] + 1e-10)
    rep = duality_drift(flow, sol)
    assert np.isfinite(rep.drift)


# ---------------------------------------------------------------------------
# lattice helpers and io


def test_lattice_covers_the_flow_with_padding():
    grid, rp, cs = shift_setup()
    flow, _ = simulate(SimulationConfig(32, grid, 8, 1, 1, 1), cs, rp)
    (ax,) = lattice_from_flow(flow, 21)
    assert ax.size == 21
    assert ax[0] < float(flow.states[:, :, 0].min())
    assert ax[-1] > float(flow.states[:, :, 0].max())
    assert np.all(np.diff(ax) > 0)


def test_reloaded_flow_pairs_with_its_backward_solution(tmp_path):
    grid, rp, cs = shift_setup(c=0.9)
    flow, _ = simulate(SimulationConfig(32, grid, 6, 1, 1, 1), cs, rp)
    path = str(tmp_path / "flow.csv")
    save_flow_csv(flow, path)
    back = load_flow_csv(path)
    assert back.driver_checksum == flow.driver_checksum
    axes = lattice_from_flow(flow, 17)
    sol = solve_backward_fk(cs, rp, lambda x: x[:, 0], axes, grid.points[[0, 8, 16]], 8, 3)
    assert duality_drift(back, sol).drift == duality_drift(flow, sol).drift


def ref_save_backward_csv(solution, path, stamp=None):
    """The per-row writer the table writer replaced; kept as a byte reference."""
    lattice = solution.lattice_points()
    d = solution.dim
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# roughmkv-backward v1 dim={d} samples={solution.mc_samples} "
            f"terminal={solution.terminal_name} "
            f"points={'x'.join(str(a.size) for a in solution.axes)} "
            f"times={solution.times.size} driver={solution.driver_checksum}\n"
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


def awkward_solution(d: int) -> BackwardSolution:
    """A solution whose lattice and values include -0.0, subnormals and inexact floats."""
    rng = np.random.default_rng(40 + d)
    axes = (np.array([-0.0, 5e-324, 0.1 + 0.2, 1.0 / 3.0]), np.array([-1.5, 2.0, 1e300]))[:d]
    P = int(np.prod([a.size for a in axes]))
    return BackwardSolution(
        axes=axes,
        times=np.array([0.0, 0.1 + 0.2, 1.0]),
        u=rng.standard_normal((3, P)),
        stderr=np.abs(rng.standard_normal((3, P))) * 1e-3,
        mc_samples=8,
        driver_checksum="abc",
        terminal_name="square",
    )


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("stamp", [None, "2026-01-01T00:00:00+00:00"])
def test_backward_csv_bytes_equal_per_row_reference(tmp_path, d, stamp):
    sol = awkward_solution(d)
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    save_backward_csv(sol, str(new), stamp=stamp)
    ref_save_backward_csv(sol, str(ref), stamp=stamp)
    assert new.read_text(encoding="utf-8") == ref.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "field, key, value",
    [
        ("terminal_name", "terminal", "my square"),
        ("terminal_name", "terminal", "tab\tname"),
        ("driver_checksum", "driver", "a b"),
    ],
)
def test_a_magic_value_with_whitespace_is_refused_before_saving(tmp_path, field, key, value):
    # the loader splits the magic line at whitespace, so such a file could
    # not load back; nothing is written
    sol = dataclasses.replace(awkward_solution(1), **{field: value})
    path = tmp_path / "u.csv"
    with pytest.raises(ValueError, match=re.escape(f"{key}={value!r} holds whitespace")):
        save_backward_csv(sol, str(path))
    assert not path.exists()


def test_backward_csv_layout(tmp_path):
    grid, rp, cs = shift_setup(cells=4)
    times = grid.points[[0, 4]]
    sol = solve_backward_fk(cs, rp, lambda x: x[:, 0], (np.linspace(-1, 1, 5),), times, 8, 1)
    path = tmp_path / "u.csv"
    save_backward_csv(sol, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# roughmkv-backward")
    assert lines[1].startswith("t,")
    assert "u" in lines[1] and "stderr" in lines[1]
    assert len(lines) == 2 + 2 * 5


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("d", [1, 2])
def test_backward_csv_loads_back_bit_exact(tmp_path, d):
    sol = awkward_solution(d)
    path = str(tmp_path / "u.csv")
    save_backward_csv(sol, path, stamp="2026-01-01T00:00:00+00:00")
    back = load_backward_csv(path)
    assert len(back.axes) == d
    for got, want in zip(back.axes, sol.axes):
        assert np.array_equal(bits(got), bits(want))
    for name in ("times", "u", "stderr"):
        assert np.array_equal(bits(getattr(back, name)), bits(getattr(sol, name)))
    assert (back.mc_samples, back.driver_checksum, back.terminal_name) == (8, "abc", "square")


def test_a_loaded_solution_holds_read_only_arrays(tmp_path):
    path = str(tmp_path / "u.csv")
    save_backward_csv(awkward_solution(2), path)
    back = load_backward_csv(path)
    for a in (*back.axes, back.times, back.u, back.stderr):
        assert not a.flags.writeable


# awkward_solution(2): 3 blocks of 12 rows t, x_1, x_2, u, stderr; in each
# block x_2 runs over -1.5, 2.0, 1e300 for every x_1
BACKWARD_EDITS = {
    "nan_u": (lambda p: edit_cell(p, 5, 3, "nan"), "finite"),
    "inf_stderr": (lambda p: edit_cell(p, 17, 4, "inf"), "finite"),
    "axis_out_of_order": (lambda p: edit_cell(p, 1, 2, "1e301"), "lattice axis must be sorted"),
    "non_numeric": (lambda p: edit_cell(p, 3, 3, "abc"), "abc"),
    "dim_not_an_integer": (lambda p: edit_magic(p, "dim=2", "dim=x"), "invalid literal"),
    "t_inside_a_block": (lambda p: edit_cell(p, 13, 0, "0.5"), "repeat its start time"),
    "x_in_a_later_block": (lambda p: edit_cell(p, 20, 1, "0.25"), "lattice x_j"),
}


@pytest.mark.parametrize("case", sorted(BACKWARD_EDITS))
def test_backward_csv_refuses_an_edit_naming_the_file(tmp_path, case):
    edit, match = BACKWARD_EDITS[case]
    path = tmp_path / "u.csv"
    save_backward_csv(awkward_solution(2), str(path))
    load_backward_csv(str(path))
    edit(path)
    assert_refused_naming(load_backward_csv, path, match)


def planar_flow_and_solution():
    grid = TimeGrid.uniform(1.0, 8)
    rp = brownian_lift(12, 1, grid, refinement_factor=4)
    cs = coefficient_set(
        2, 2, 1,
        diffusion=lambda t, x, mu: np.broadcast_to(0.4 * np.eye(2), (x.shape[0], 2, 2)).copy(),
        rough=linear_state_family(0.2, 2, 1),
    )
    flow, _ = simulate(SimulationConfig(64, grid, 3, 2, 2, 1), cs, rp)
    axes = (lattice_from_flow(flow, 9)[0], lattice_from_flow(flow, 7)[1])
    terminal = lambda x: np.sin(x[:, 0]) * x[:, 1] ** 2
    return flow, solve_backward_fk(cs, rp, terminal, axes, grid.points[[0, 4, 8]], 32, 8)


def scalar_flow_and_solution():
    grid, rp, cs = shift_setup(c=0.9)
    flow, _ = simulate(SimulationConfig(32, grid, 6, 1, 1, 1), cs, rp)
    axes = lattice_from_flow(flow, 17)
    return flow, solve_backward_fk(cs, rp, np.cos, axes, grid.points[[0, 8, 16]], 8, 3)


@pytest.mark.parametrize("setup", [scalar_flow_and_solution, planar_flow_and_solution])
def test_reloaded_flow_and_solution_pair_alike(tmp_path, setup):
    flow, sol = setup()
    f, b = str(tmp_path / "flow.csv"), str(tmp_path / "backward.csv")
    save_flow_csv(flow, f)
    save_backward_csv(sol, b)
    rep = duality_drift(load_flow_csv(f), load_backward_csv(b))
    assert rep.drift == duality_drift(flow, sol).drift
    assert rep.drift > 0.0


@pytest.mark.parametrize("key", ["dim", "samples", "times", "points", "terminal", "driver"])
def test_backward_csv_without_a_required_token_is_refused(tmp_path, key):
    path = tmp_path / "u.csv"
    save_backward_csv(awkward_solution(2), str(path))
    drop_magic_token(path, key)
    with pytest.raises(ValueError, match=rf"u\.csv: magic line has no {key}= token"):
        load_backward_csv(str(path))


def test_backward_csv_refuses_a_foreign_or_cut_file(tmp_path):
    sol = awkward_solution(2)                        # 3 times x (4 x 3) points
    path = tmp_path / "u.csv"
    save_backward_csv(sol, str(path))
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")
    with pytest.raises(ValueError, match=r"expected 36 rows \(3 times x 12 lattice points\), got 35"):
        load_backward_csv(str(path))
    path.write_text("".join([lines[0].replace("points=4x3", "points=12")] + lines[1:]))
    with pytest.raises(ValueError, match="points=12 does not name 2 axes"):
        load_backward_csv(str(path))
    grid, rp, cs = shift_setup(cells=4)
    flow, _ = simulate(SimulationConfig(8, grid, 1, 1, 1, 1), cs, rp)
    save_flow_csv(flow, str(path))
    with pytest.raises(ValueError, match="bad magic line"):
        load_backward_csv(str(path))


# ---------------------------------------------------------------------------
# the cubic interpolant; scipy is the oracle


def solution_on(axes, values):
    """A one-time solution holding ``values`` on the product of ``axes``."""
    u = np.asarray(values, dtype=np.float64).reshape(1, -1)
    return BackwardSolution(
        axes=tuple(axes), times=np.zeros(1), u=u, stderr=np.zeros_like(u),
        mc_samples=2, driver_checksum="x",
    )


KNOTS = {
    "uniform": np.linspace(-2.0, 2.0, 9),
    "nonuniform": np.array([-3.0, -2.2, -1.9, -0.7, 0.0, 0.15, 0.9, 2.4, 2.6, 4.0]),
}


@pytest.mark.parametrize("spacing", sorted(KNOTS))
def test_1d_interpolant_is_scipy_cubic_spline_inside_and_beyond(spacing):
    from scipy.interpolate import CubicSpline

    knots = KNOTS[spacing]
    rng = np.random.default_rng(3)
    vals = np.sin(2.0 * knots) + rng.standard_normal(knots.size)
    width = knots[-1] - knots[0]
    q = np.concatenate([knots, rng.uniform(knots[0] - width / 4, knots[-1] + width / 4, 400)])
    assert q.min() < knots[0] and q.max() > knots[-1]
    got = solution_on((knots,), vals).interpolant(0)(q[:, None])
    want = CubicSpline(knots, vals)(q)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(vals))


def planar_lattice(seed):
    rng = np.random.default_rng(seed)
    ax = np.linspace(-1.5, 2.0, 13)
    ay = np.array([-1.0, -0.6, -0.5, 0.1, 0.4, 1.2, 1.3, 2.0, 3.0])
    grid = np.sin(ax)[:, None] * np.cos(2.0 * ay)[None, :] + rng.standard_normal((13, 9))
    return ax, ay, grid


def test_2d_interpolant_is_rect_bivariate_spline_inside():
    from scipy.interpolate import RectBivariateSpline

    ax, ay, grid = planar_lattice(4)
    rng = np.random.default_rng(5)
    lattice = np.stack(np.meshgrid(ax, ay, indexing="ij"), axis=-1).reshape(-1, 2)
    inside = rng.uniform([ax[0], ay[0]], [ax[-1], ay[-1]], size=(500, 2))
    x = np.concatenate([lattice, inside])
    got = solution_on((ax, ay), grid).interpolant(0)(x)
    want = RectBivariateSpline(ax, ay, grid).ev(x[:, 0], x[:, 1])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(grid))


def test_2d_interpolant_extrapolates_like_nested_cubic_splines():
    # RectBivariateSpline.ev clamps outside the box; the interpolant extends
    # the end cubics in both coordinates, as the 1-D interpolant does
    from scipy.interpolate import CubicSpline

    ax, ay, grid = planar_lattice(6)
    x = np.array([[2.5, 0.7], [-2.0, 0.7], [0.3, 3.4], [0.3, -1.6], [2.4, -1.3], [-1.8, 3.5]])
    got = solution_on((ax, ay), grid).interpolant(0)(x)
    want = [
        CubicSpline(ax, [CubicSpline(ay, row)(y) for row in grid])(xx) for xx, y in x
    ]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_interpolant_reproduces_constants_and_cubics(d):
    third = np.array([-2.0, -0.5, 0.3, 1.1, 2.5])
    axes = (KNOTS["nonuniform"], np.linspace(-1.0, 1.0, 6), third)[:d]
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    rng = np.random.default_rng(7)
    x = rng.uniform(-5.0, 5.0, size=(300, d))                   # inside and beyond
    flat = solution_on(axes, np.full(lattice.shape[0], 0.3)).interpolant(0)(x)
    assert np.all(flat == 0.3)

    def cubic(p):
        out = 0.5 * p[:, 0] ** 3 - p[:, 0] + 2.0
        if d > 1:
            out = out + (p[:, 0] ** 2 - 0.25 * p[:, 1] ** 2) * p[:, 1]
        if d > 2:   # cubic in each coordinate, with every pair and the triple mixed
            mixed = p[:, 0] - 0.5 * p[:, 1] ** 3 + p[:, 0] * p[:, 1]
            out = out + (p[:, 2] ** 3 - p[:, 2]) * mixed
        return out

    got = solution_on(axes, cubic(lattice)).interpolant(0)(x)
    assert np.max(np.abs(got - cubic(x))) <= 1e-12 * np.max(np.abs(cubic(x)))


@pytest.mark.parametrize("axes", [(np.linspace(0.0, 1.0, 3),), (np.linspace(0.0, 1.0, 5), np.arange(3.0))])
def test_interpolant_refuses_an_axis_below_four_points(axes):
    sol = solution_on(axes, np.zeros(int(np.prod([a.size for a in axes]))))
    with pytest.raises(ValueError) as want:
        lattice_from_flow(None, 3)
    with pytest.raises(ValueError) as got:
        sol.interpolant(0)
    assert str(got.value) == str(want.value)
