"""Interacting particle stepping: exactness, determinism, symmetry, failure."""

import numpy as np
import pytest

from conftest import linear_signal_family, mean_coupled_sin_family, ornstein_uhlenbeck_set

from roughmkv.coefficients import area_coefficient, coefficient_set, constant_rough
from roughmkv.grids import TimeGrid
from roughmkv.measures import EmpiricalMeasure
from roughmkv.roughpath import brownian_lift, lift_piecewise_linear
from roughmkv.simulate import (
    SCHEME_FULL,
    SCHEME_NO_LIFT,
    NumericalBlowup,
    ParticleEnsemble,
    SimulationConfig,
    coarsen_increments,
    controlled_diagnostics,
    idiosyncratic_increments,
    initial_ensemble,
    simulate,
    step_davie,
)
from roughmkv.streams import TAG_DRIVER, TAG_PARTICLE, substream, substream_keys


def make_config(n=16, cells=8, seed=0, **kw):
    return SimulationConfig(
        particle_count=n,
        grid=TimeGrid.uniform(1.0, cells),
        seed=seed,
        dim=1,
        brownian_dim=1,
        driver_dim=1,
        **kw,
    )


# ---------------------------------------------------------------------------
# randomness plumbing


def test_substreams_reproducible_and_separated():
    a = substream(7, TAG_PARTICLE, 3).standard_normal(5)
    b = substream(7, TAG_PARTICLE, 3).standard_normal(5)
    c = substream(7, TAG_PARTICLE, 4).standard_normal(5)
    d = substream(7, TAG_DRIVER, 3).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_particle_streams_do_not_depend_on_ensemble_size():
    grid = TimeGrid.uniform(1.0, 6)
    small = idiosyncratic_increments(3, 4, grid, 2)
    large = idiosyncratic_increments(3, 9, grid, 2)
    assert np.array_equal(small, large[:4])


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**70 + 3])
def test_vectorised_keys_match_seed_sequence(seed):
    # 2**70 + 3 spans three entropy words, so with the tag and the index the
    # entropy outgrows the four-word pool and takes the second mixing loop.
    idx = np.array([0, 1, 2, 130, 65535, 2**32 - 1])
    keys = substream_keys(seed, TAG_PARTICLE, indices=idx)
    want = np.array([
        np.random.SeedSequence((seed, TAG_PARTICLE, int(i))).generate_state(2, np.uint64)
        for i in idx
    ])
    assert keys.dtype == np.uint64
    assert np.array_equal(keys, want)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [1, 5, 130])
def test_increments_equal_per_particle_substreams(m, n):
    grid = TimeGrid(np.array([0.0, 0.1, 0.35, 0.5, 1.0]))
    scale = np.sqrt(grid.dt)[:, None]
    want = np.stack([
        substream(11, TAG_PARTICLE, i).standard_normal((grid.num_cells, m)) * scale
        for i in range(n)
    ])
    assert np.array_equal(idiosyncratic_increments(11, n, grid, m), want)


def test_negative_seed_is_refused_like_seed_sequence():
    with pytest.raises(ValueError):
        np.random.SeedSequence((-1, TAG_PARTICLE, 0))
    with pytest.raises(ValueError):
        substream_keys(-1, TAG_PARTICLE, indices=np.arange(3))
    with pytest.raises(ValueError):
        idiosyncratic_increments(-1, 3, TimeGrid.uniform(1.0, 4), 1)


def test_coarsen_increments_sums_pairs():
    fine = np.arange(24, dtype=float).reshape(2, 6, 2)
    coarse = coarsen_increments(fine, 3)
    assert coarse.shape == (2, 2, 2)
    assert np.array_equal(coarse[0, 0], fine[0, :3].sum(axis=0))
    with pytest.raises(ValueError):
        coarsen_increments(fine, 4)


# ---------------------------------------------------------------------------
# exact solutions


def test_constant_signal_coefficient_translates_exactly():
    c = 0.65
    cs = coefficient_set(1, 1, 1, rough=constant_rough(np.array([[c]])))
    cfg = make_config(n=8, cells=12, seed=4)
    rp = brownian_lift(11, 1, cfg.grid, refinement_factor=8)
    flow, _ = simulate(cfg, cs, rp)
    start = flow.states[0]
    for k in range(13):
        shift = c * (rp.values[k, 0] - rp.values[0, 0])
        assert np.allclose(flow.states[k], start + shift, atol=1e-13)


def test_geometric_cell_is_second_order_accurate():
    # dX = X dW against the exponential, one smooth cell at a time
    errs = []
    for cells in (8, 16):
        grid = TimeGrid.uniform(1.0, cells)
        rp = lift_piecewise_linear(grid, np.sin(grid.points))
        cs = coefficient_set(1, 1, 1, rough=linear_signal_family(1.0))
        cfg = make_config(n=1, cells=cells, initial_sampler=lambda rng, n: np.ones((n, 1)))
        flow, _ = simulate(cfg, cs, rp)
        errs.append(abs(flow.states[-1, 0, 0] - np.exp(np.sin(1.0))))
    assert errs[1] < errs[0] * 0.30  # better than second order on this pair


def test_mean_field_drift_tracks_the_ode():
    a, c, n = -0.6, 0.25, 4000
    cs = coefficient_set(
        1,
        1,
        1,
        drift=lambda t, x, mu: a * x + c * mu.mean()[None, :],
        diffusion=lambda t, x, mu: 0.4 * np.ones((x.shape[0], 1, 1)),
        drift_measure_free=False,
    )
    cfg = make_config(n=n, cells=32, seed=9, initial_sampler=lambda rng, n_: np.ones((n_, 1)))
    rp = brownian_lift(2, 1, cfg.grid, 4)
    flow, _ = simulate(cfg, cs, rp)
    assert abs(float(flow.measure(32).mean()[0]) - np.exp(a + c)) < 3.0 / np.sqrt(n)


# ---------------------------------------------------------------------------
# determinism and symmetry


def test_bitwise_determinism():
    cs = ornstein_uhlenbeck_set()
    cfg = make_config(seed=21)
    rp = brownian_lift(5, 1, cfg.grid, 4)
    f1, h1 = simulate(cfg, cs, rp)
    f2, h2 = simulate(cfg, cs, rp)
    assert np.array_equal(h1, h2)
    assert f1.driver_checksum == f2.driver_checksum


def test_permuting_particles_permutes_trajectories_exactly():
    n, cells = 12, 6
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((n, 1))
    brow = rng.standard_normal((n, cells, 1)) * np.sqrt(1.0 / cells)
    perm = rng.permutation(n)
    cs = coefficient_set(
        1,
        1,
        1,
        drift=lambda t, x, mu: -x + mu.mean()[None, :],
        diffusion=lambda t, x, mu: np.ones((x.shape[0], 1, 1)),
        rough=mean_coupled_sin_family(0.5, 0.3),
        drift_measure_free=False,
    )
    rp = brownian_lift(3, 1, TimeGrid.uniform(1.0, cells), 4)

    cfg_a = make_config(n=n, cells=cells, initial_sampler=lambda r, m: x0.copy())
    cfg_b = make_config(n=n, cells=cells, initial_sampler=lambda r, m: x0[perm].copy())
    _, ha = simulate(cfg_a, cs, rp, brownian=brow)
    _, hb = simulate(cfg_b, cs, rp, brownian=brow[perm])
    assert np.array_equal(hb, ha[:, perm, :])


def test_measure_free_particles_are_independent():
    n, cells = 6, 5
    brow = np.random.default_rng(1).standard_normal((n, cells, 1)) * 0.3
    cs = coefficient_set(
        1, 1, 1,
        drift=lambda t, x, mu: np.cos(x),
        diffusion=lambda t, x, mu: np.ones((x.shape[0], 1, 1)),
        rough=linear_signal_family(0.5),
    )
    rp = brownian_lift(8, 1, TimeGrid.uniform(1.0, cells), 4)
    base = np.linspace(-1, 1, n)[:, None]
    other = base.copy()
    other[0] = 99.0
    cfg1 = make_config(n=n, cells=cells, initial_sampler=lambda r, m: base.copy())
    cfg2 = make_config(n=n, cells=cells, initial_sampler=lambda r, m: other.copy())
    _, h1 = simulate(cfg1, cs, rp, brownian=brow)
    _, h2 = simulate(cfg2, cs, rp, brownian=brow)
    assert np.array_equal(h1[:, 1:], h2[:, 1:])
    assert not np.array_equal(h1[:, 0], h2[:, 0])


def test_without_signal_coupling_the_driver_is_irrelevant():
    cs = ornstein_uhlenbeck_set()
    cfg = make_config(seed=33)
    grid = cfg.grid
    _, h1 = simulate(cfg, cs, brownian_lift(1, 1, grid, 4))
    _, h2 = simulate(cfg, cs, brownian_lift(999, 1, grid, 4))
    assert np.array_equal(h1, h2)


# ---------------------------------------------------------------------------
# scheme structure


def test_scheme_difference_is_the_area_term():
    cs = coefficient_set(
        1, 1, 1,
        drift=lambda t, x, mu: 0.2 * x,
        diffusion=lambda t, x, mu: 0.3 * np.ones((x.shape[0], 1, 1)),
        rough=linear_signal_family(0.8),
    )
    grid = TimeGrid.uniform(1.0, 4)
    rp = brownian_lift(17, 1, grid, 8)
    ens = initial_ensemble(make_config(n=10, cells=4, seed=2))
    s, t = float(grid.points[0]), float(grid.points[1])
    full, rep_full = step_davie(ens, cs, rp, s, t, scheme=SCHEME_FULL, want_report=True)
    plain, rep_plain = step_davie(ens, cs, rp, s, t, scheme=SCHEME_NO_LIFT, want_report=True)
    areaterm = np.einsum(
        "aikl,kl->ai", area_coefficient(cs, s, ens.states, None), rp.second(s, t)
    )
    assert np.allclose(full.states - plain.states, areaterm, atol=1e-14)
    assert rep_full.area_part == np.max(np.abs(areaterm))
    assert rep_plain.area_part == 0.0
    assert rep_full.signal_part == rep_plain.signal_part


def test_step_rejects_multi_cell_spans():
    cfg = make_config()
    rp = brownian_lift(1, 1, cfg.grid, 2)
    ens = initial_ensemble(cfg)
    with pytest.raises(ValueError):
        step_davie(ens, ornstein_uhlenbeck_set(), rp, 0.0, 0.25)


def test_dimension_mismatches_are_rejected():
    cfg = make_config()
    rp2 = brownian_lift(1, 2, cfg.grid, 2)
    with pytest.raises(ValueError):
        simulate(cfg, ornstein_uhlenbeck_set(), rp2)
    rp_other_grid = brownian_lift(1, 1, TimeGrid.uniform(1.0, 5), 2)
    with pytest.raises(ValueError):
        simulate(cfg, ornstein_uhlenbeck_set(), rp_other_grid)


# ---------------------------------------------------------------------------
# failure reporting


def test_blowup_raises_with_time_stamp():
    cs = coefficient_set(1, 1, 1, drift=lambda t, x, mu: 1e8 * x**3)
    cfg = make_config(n=4, cells=16, initial_sampler=lambda r, m: np.ones((m, 1)))
    rp = brownian_lift(1, 1, cfg.grid, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalBlowup) as exc:
            simulate(cfg, cs, rp)
    assert 0.0 < exc.value.time <= 1.0


# ---------------------------------------------------------------------------
# controlled structure diagnostics


def test_controlled_quotients_for_constant_coefficient():
    c = 0.4
    cs = coefficient_set(1, 1, 1, rough=constant_rough(np.array([[c]])))
    cfg = make_config(n=6, cells=10, seed=12)
    rp = brownian_lift(6, 1, cfg.grid, 8)
    flow, _ = simulate(cfg, cs, rp)
    rep = controlled_diagnostics(flow, rp, cs, p=2)
    assert rep.remainder_quotient <= 1e-12  # increments are exactly c dW
    span = rp.grid.points[-1] - rp.grid.points[0]
    dw_full = abs(rp.values[-1, 0] - rp.values[0, 0])
    assert rep.increment_quotient >= c * dw_full / span**rp.alpha - 1e-12
    with pytest.raises(ValueError):
        controlled_diagnostics(flow, rp, cs, p=3)


def test_controlled_quotients_track_moments():
    cs = ornstein_uhlenbeck_set()
    cfg = make_config(n=64, cells=16, seed=5)
    rp = brownian_lift(9, 1, cfg.grid, 4)
    flow, _ = simulate(cfg, cs, rp)
    r2 = controlled_diagnostics(flow, rp, cs, p=2)
    r4 = controlled_diagnostics(flow, rp, cs, p=4)
    assert np.isfinite(r2.increment_quotient) and np.isfinite(r4.increment_quotient)
    assert r4.increment_quotient >= r2.increment_quotient  # moment monotonicity
