"""Backward value function by path sampling, and the forward pairing drift."""

import numpy as np
import pytest

from conftest import mean_coupled_sin_family

from roughmkv.backward import (
    duality_drift,
    lattice_from_flow,
    save_backward_csv,
    solve_backward_fk,
)
from roughmkv.coefficients import coefficient_set, constant_rough
from roughmkv.grids import TimeGrid
from roughmkv.roughpath import brownian_lift
from roughmkv.simulate import NumericalBlowup, SimulationConfig, simulate


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


# ---------------------------------------------------------------------------
# error estimates


def test_stderr_shrinks_like_sqrt_mc_budget():
    grid, rp = grid_and_driver()
    cs = coefficient_set(1, 1, 1, diffusion=lambda t, x, mu: np.ones((x.shape[0], 1, 1)))
    axes = (np.array([-0.5, 0.5]),)
    times = grid.points[[0]]
    small = solve_backward_fk(cs, rp, lambda x: x[:, 0] ** 2, axes, times, 512, 9)
    big = solve_backward_fk(cs, rp, lambda x: x[:, 0] ** 2, axes, times, 2048, 9)
    ratio = float(big.stderr[0, 0] / small.stderr[0, 0])
    assert abs(ratio - 0.5) <= 0.15  # 4x samples, about half the error


# ---------------------------------------------------------------------------
# refusals


def test_measure_dependent_coefficients_are_refused():
    grid, rp = grid_and_driver()
    cs = coefficient_set(1, 1, 1, rough=mean_coupled_sin_family(0.5, 0.4))
    with pytest.raises(ValueError):
        solve_backward_fk(cs, rp, lambda x: x[:, 0], (np.array([-1.0, 1.0]),), grid.points[[0]], 8, 1)


def test_tiny_mc_budget_is_refused():
    grid, rp, cs = shift_setup()
    with pytest.raises(ValueError):
        solve_backward_fk(cs, rp, lambda x: x[:, 0], (np.array([-1.0, 1.0]),), grid.points[[0]], 1, 1)


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
