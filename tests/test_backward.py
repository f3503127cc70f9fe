"""Backward value function by path sampling, and the forward pairing drift."""

import numpy as np
import pytest

from conftest import linear_signal_family, mean_coupled_sin_family, traced_peak

from roughmkv import backward
from roughmkv.backward import (
    duality_drift,
    lattice_from_flow,
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
from roughmkv.measures import load_flow_csv, save_flow_csv
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
# row blocking changes no number


def one_shot_reference(coeffs, rp, terminal, axes, times, mc_samples, seed):
    """Oracle: every sampled state advanced as one batch, one draw per cell."""
    grid, pts = rp.grid, rp.grid.points
    mesh = np.meshgrid(*axes, indexing="ij")
    lattice = np.stack([m.ravel() for m in mesh], axis=1)
    P, M = lattice.shape[0], mc_samples
    u, se = [], []
    for t in times:
        start = grid.index_of(float(t))
        rng = substream(seed, TAG_BACKWARD, start)
        states = np.repeat(lattice, M, axis=0)
        for k in range(start, grid.num_cells):
            h = float(grid.dt[k])
            db = rng.standard_normal((states.shape[0], coeffs.brownian_dim)) * np.sqrt(h)
            s_t, t_t = float(pts[k]), float(pts[k + 1])
            states, _ = advance_states(
                states, coeffs, None, s_t, h, rp.increment(s_t, t_t), rp.second(s_t, t_t), db
            )
            check_finite(states, t_t)
        vals = terminal(states).reshape(P, M)
        u.append(vals.mean(axis=1))
        se.append(vals.std(axis=1, ddof=1) / np.sqrt(M))
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
    """d = m = 2, one signal channel, measure-free; 12 lattice points."""
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
    return rp, cs, (np.linspace(-1.0, 1.0, 3), np.linspace(-2.0, 2.0, 4)), 5   # 60 rows


@pytest.mark.parametrize("bundle", [scalar_bundle, planar_bundle])
@pytest.mark.parametrize("block", ["above", "exact", "ragged"])
def test_blocked_sampler_equals_one_shot_draw(monkeypatch, bundle, block):
    rp, cs, axes, M = bundle()
    rows = M * int(np.prod([a.size for a in axes]))
    size = {"above": rows + 4, "exact": rows, "ragged": 7}[block]
    assert block != "ragged" or rows % size != 0
    monkeypatch.setattr(backward, "_BLOCK_ROWS", size)
    times = rp.grid.points[[0, 5, 8]]
    terminal = lambda x: np.sum(x**2, axis=1)
    sol = solve_backward_fk(cs, rp, terminal, axes, times, M, 17)
    u, se = one_shot_reference(cs, rp, terminal, axes, times, M, 17)
    assert np.array_equal(sol.u, u)
    assert np.array_equal(sol.stderr, se)


def test_blowup_in_a_later_block_keeps_its_time(monkeypatch):
    grid, rp = grid_and_driver()
    cs = coefficient_set(1, 1, 1, drift=lambda t, x, mu: 1e3 * x**3)
    # 16 rows in blocks of 5: only the node at 50 explodes, in rows 12..15
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


def test_sampler_memory_is_the_paths_plus_a_few_blocks():
    # per path: the (P*M, 1) states, the next start time's states made while
    # they are alive, and the terminal values; the one-step map's temporaries
    # stay within blocks of _BLOCK_ROWS rows (unblocked, they add ~80 blocks)
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
    assert peak <= 3 * states_bytes + 4 * block_bytes


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


def awkward_solution(d: int) -> backward.BackwardSolution:
    """A solution whose lattice and values include -0.0, subnormals and inexact floats."""
    rng = np.random.default_rng(40 + d)
    axes = (np.array([-0.0, 5e-324, 0.1 + 0.2, 1.0 / 3.0]), np.array([-1.5, 1e300, 2.0]))[:d]
    P = int(np.prod([a.size for a in axes]))
    return backward.BackwardSolution(
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
