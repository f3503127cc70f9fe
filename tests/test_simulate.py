"""Interacting particle stepping: exactness, determinism, symmetry, failure."""

from dataclasses import astuple, replace

import numpy as np
import pytest

from conftest import (
    gauss_kernel_family,
    linear_signal_family,
    mean_coupled_sin_family,
    ornstein_uhlenbeck_set,
    time_controlled_family,
    traced_peak,
)
from step_reference import ref_advance_states, ref_moment_sin_family

from roughmkv.backward import solve_backward_fk
from roughmkv.coefficients import (
    area_coefficient,
    coefficient_set,
    constant_rough,
    convolution_family,
    linear_state_family,
    measure_free_family,
    moment_sin_family,
)
from roughmkv.grids import TimeGrid
from roughmkv.measures import EmpiricalMeasure, MeasureFlow
from roughmkv.roughpath import brownian_lift, lift_piecewise_linear
from roughmkv.simulate import (
    SCHEME_FULL,
    SCHEME_NO_LIFT,
    NumericalBlowup,
    SimulationConfig,
    advance_states,
    coarsen_increments,
    controlled_diagnostics,
    idiosyncratic_increments,
    initial_states,
    simulate,
    step_davie,
)
from roughmkv.streams import (
    TAG_DRIVER,
    TAG_PARTICLE,
    normal_rows,
    substream,
    substream_keys,
)


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
    e = substream(8, TAG_PARTICLE, 3).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


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


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 9000])
def test_normal_rows_equal_per_row_substreams_across_key_blocks(n):
    # 4 096 rows are keyed per block, so these counts fill part of one
    # block, exactly one, one plus a row and two plus a part
    out = normal_rows(np.empty((n, 3, 2)), 13, TAG_PARTICLE)
    want = np.stack([
        substream(13, TAG_PARTICLE, i).standard_normal((3, 2)) for i in range(n)
    ])
    assert out.tobytes() == want.tobytes()


def test_normal_rows_peak_is_the_block_it_fills():
    # deriving all N keys in one pass held 3.3 MiB above the block here
    out, peak = traced_peak(lambda: normal_rows(np.empty((32_000, 64)), 1, TAG_PARTICLE))
    assert peak <= out.nbytes + 2**20


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
    cfg = make_config(n=10, cells=4, seed=2)
    x0 = initial_states(cfg)
    db = idiosyncratic_increments(cfg.seed, 10, grid, 1)[:, 0]
    s, t = float(grid.points[0]), float(grid.points[1])
    full, rep_full = step_davie(x0, cs, rp, 0, db, scheme=SCHEME_FULL, want_report=True)
    plain, rep_plain = step_davie(x0, cs, rp, 0, db, scheme=SCHEME_NO_LIFT, want_report=True)
    areaterm = np.einsum(
        "aikl,kl->ai", area_coefficient(cs, s, x0, None), rp.second(s, t)
    )
    assert np.allclose(full - plain, areaterm, atol=1e-14)
    assert rep_full.area_part == np.max(np.abs(areaterm))
    assert rep_plain.area_part == 0.0
    assert rep_full.signal_part == rep_plain.signal_part


def ref_history(config, coeffs, rp):
    """The forward run before the step reused its coefficient: ``eval`` for
    ``f dW``, then ``area_coefficient``, which evaluates ``f`` again at the
    states and at the cloud.  A reference."""
    pts = config.grid.points
    db = idiosyncratic_increments(
        config.seed, config.particle_count, config.grid, config.brownian_dim
    )
    x = initial_states(config)
    hist = [x]
    for k in range(config.grid.num_cells):
        s, t = float(pts[k]), float(pts[k + 1])
        mu = None if coeffs.measure_free else EmpiricalMeasure(x)
        drift = coeffs.drift(s, x, mu) * float(config.grid.dt[k])
        brown = np.einsum("ail,al->ai", coeffs.diffusion(s, x, mu), db[:, k, :])
        sig = np.einsum("aik,k->ai", coeffs.rough.jet(s, x, mu, 0)[0], rp.increment(s, t))
        if config.scheme == SCHEME_FULL:
            areapart = np.einsum(
                "aikl,kl->ai", area_coefficient(coeffs, s, x, mu), rp.second(s, t)
            )
        else:
            areapart = np.zeros_like(x)
        x = x + drift + brown + sig + areapart
        hist.append(x)
    return np.stack(hist)


def parity_bundle(kind):
    """A moment, a convolution (both with a mean-field drift) or a
    measure-free d = m = n = 2 bundle."""
    if kind == "measure_free":
        return coefficient_set(
            2, 2, 2,
            drift=lambda t, x, mu: -0.2 * x,
            diffusion=lambda t, x, mu: 0.3 * np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)),
            rough=linear_state_family(0.6, 2, 2),
        )
    rough = {
        "moment": mean_coupled_sin_family(0.5, 0.4),
        "convolution": gauss_kernel_family(0.8, 0.7),
    }[kind]
    return coefficient_set(
        1, 1, 1,
        drift=lambda t, x, mu: -0.3 * x + 0.2 * mu.mean()[None, :],
        diffusion=lambda t, x, mu: 0.4 * np.ones((x.shape[0], 1, 1)),
        rough=rough,
    )


@pytest.mark.parametrize("scheme", [SCHEME_FULL, SCHEME_NO_LIFT])
@pytest.mark.parametrize("bundle", ["moment", "convolution", "measure_free"])
def test_histories_equal_the_two_evaluation_reference(bundle, scheme):
    coeffs = parity_bundle(bundle)
    d = coeffs.dim
    cfg = SimulationConfig(
        particle_count=30, grid=TimeGrid.uniform(1.0, 12), seed=6,
        dim=d, brownian_dim=d, driver_dim=d, scheme=scheme,
    )
    rp = brownian_lift(5, d, cfg.grid, 4)
    _, hist = simulate(cfg, coeffs, rp)
    assert np.array_equal(hist, ref_history(cfg, coeffs, rp))


@pytest.mark.parametrize("scheme", [SCHEME_FULL, SCHEME_NO_LIFT])
def test_one_signal_coefficient_evaluation_per_step(scheme):
    calls = []
    cs = coefficient_set(1, 1, 1, rough=mean_coupled_sin_family(0.5, 0.4, calls))
    cfg = make_config(n=20, cells=7, seed=3, scheme=scheme)
    simulate(cfg, cs, brownian_lift(2, 1, cfg.grid, 4))
    assert calls == [20] * 7
    # the time control comes with the order-1 jet, which the first-order
    # scheme never asks for
    primes = []
    cs = coefficient_set(2, 2, 2, rough=time_controlled_family(primes))
    cfg = replace(cfg, dim=2, brownian_dim=2, driver_dim=2)
    simulate(cfg, cs, brownian_lift(2, 2, cfg.grid, 4))
    assert primes == ([20] * 7 if scheme == SCHEME_FULL else [])


def test_a_moment_sin_step_takes_one_sine_and_one_cosine(monkeypatch):
    cs = coefficient_set(1, 1, 1, rough=moment_sin_family(0.5, 0.4))
    cfg = make_config(n=20, cells=5, seed=3)
    rp = brownian_lift(2, 1, cfg.grid, 4)
    calls = {"sin": 0, "cos": 0}
    for name in calls:
        def counted(*args, _ufunc=getattr(np, name), _name=name, **kwargs):
            calls[_name] += 1
            return _ufunc(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    simulate(cfg, cs, rp)
    assert calls == {"sin": 5, "cos": 5}


@pytest.mark.parametrize("scheme", [SCHEME_FULL, SCHEME_NO_LIFT])
@pytest.mark.parametrize("bundle", ["moment", "convolution", "measure_free"])
def test_advance_states_into_out_equals_the_returned_array(bundle, scheme):
    coeffs = parity_bundle(bundle)
    d = coeffs.dim
    grid = TimeGrid.uniform(1.0, 4)
    rp = brownian_lift(5, d, grid, 4)
    x = np.random.default_rng(8).standard_normal((30, d))
    db = np.random.default_rng(9).standard_normal((30, d)) * 0.5
    mu = None if coeffs.measure_free else EmpiricalMeasure(x)
    dw, area = rp.span(0, 1)
    args = (coeffs, mu, 0.0, 0.25, dw, area if scheme == SCHEME_FULL else None, db)
    new, report = advance_states(x, *args, want_report=True)
    out = np.full_like(x, np.nan)
    got, out_report = advance_states(x, *args, want_report=True, out=out)
    assert got is out and np.array_equal(out, new) and out_report == report
    same = x.copy()
    advance_states(same, *args, out=same)
    assert np.array_equal(same, new)


def reference_bundle(kind, ref=False):
    """Bundles for the one-step reference; ``ref`` swaps in the earlier
    moment-sine jet."""
    if kind in ("measure_free", "time_control"):
        rough = linear_state_family(0.6, 2, 2) if kind == "measure_free" else time_controlled_family()
        return coefficient_set(
            2, 2, 2,
            drift=lambda t, x, mu: -0.2 * x,
            diffusion=lambda t, x, mu: 0.3 * np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)),
            rough=rough,
        )
    def sigma(t, x, mu):
        return 0.4 * np.ones((x.shape[0], 1, 1))

    if kind == "linear_mean":
        return coefficient_set(
            1, 1, 1,
            drift=lambda t, x, mu: -0.3 * x + 0.2 * mu.mean()[None, :],
            diffusion=sigma,
            rough=linear_signal_family(0.5),
            drift_measure_free=False,
        )
    if kind == "moment":
        rough = (ref_moment_sin_family if ref else moment_sin_family)(0.5, 0.4)
    else:
        rough = gauss_kernel_family(0.8, 0.7)
    return coefficient_set(1, 1, 1, drift=lambda t, x, mu: -0.3 * x, diffusion=sigma, rough=rough)


def signed_zero_cloud(seed, n, d):
    x = np.random.default_rng(seed).standard_normal((n, d))
    x[:3] = 0.0
    x[3:6] = -0.0
    return x


@pytest.mark.parametrize("into", ["new", "states", "separate"])
@pytest.mark.parametrize("scheme", [SCHEME_FULL, SCHEME_NO_LIFT])
@pytest.mark.parametrize(
    "kind", ["measure_free", "time_control", "moment", "convolution", "linear_mean"]
)
def test_advance_states_is_bytewise_the_reference_step(kind, scheme, into):
    coeffs, ref_coeffs = reference_bundle(kind), reference_bundle(kind, ref=True)
    d = coeffs.dim
    rp = brownian_lift(5, d, TimeGrid.uniform(1.0, 4), 4)
    x = signed_zero_cloud(8, 40, d)
    db = np.random.default_rng(9).standard_normal((40, d)) * 0.5
    db[::7] = -0.0
    mu = None if coeffs.measure_free else EmpiricalMeasure(x)
    dw, area = rp.span(1, 2)
    args = (mu, 0.25, 0.25, dw, area if scheme == SCHEME_FULL else None, db)
    want, want_report = ref_advance_states(x.copy(), ref_coeffs, *args, want_report=True)
    states = x.copy()
    out = {"new": None, "states": states, "separate": np.full_like(x, np.nan)}[into]
    got, report = advance_states(states, coeffs, *args, want_report=True, out=out)
    assert out is None or got is out
    assert got.tobytes() == want.tobytes()
    assert report == want_report


@pytest.mark.parametrize("scheme", [SCHEME_FULL, SCHEME_NO_LIFT])
@pytest.mark.parametrize(
    "kind", ["measure_free", "time_control", "moment", "convolution", "linear_mean"]
)
def test_the_one_step_map_calls_no_einsum(kind, scheme, forbid_package_einsum):
    coeffs = reference_bundle(kind)
    d = coeffs.dim
    rp = brownian_lift(5, d, TimeGrid.uniform(1.0, 4), 4)
    x = signed_zero_cloud(8, 40, d)
    db = np.random.default_rng(9).standard_normal((40, d)) * 0.5
    mu = None if coeffs.measure_free else EmpiricalMeasure(x)
    dw, area = rp.span(1, 2)
    forbid_package_einsum()
    got, _ = advance_states(
        x, coeffs, mu, 0.25, 0.25, dw, area if scheme == SCHEME_FULL else None, db
    )
    assert np.all(np.isfinite(got))


def test_the_backward_sampler_calls_no_einsum(forbid_package_einsum):
    coeffs = reference_bundle("time_control")
    rp = brownian_lift(5, 2, TimeGrid.uniform(1.0, 4), 4)
    forbid_package_einsum()
    axes = [np.linspace(-1.0, 1.0, 4)] * 2
    sol = solve_backward_fk(
        coeffs, rp, lambda x: np.sum(x**2, axis=1), axes, rp.grid.points[[0, 2]], 8, 3
    )
    assert np.all(np.isfinite(sol.u))


def three_channel_bundle():
    """d = n = m = 3: linear state coefficient plus a constant time control,
    so every contraction of the step sums three or nine terms."""
    C = 0.2 * np.random.default_rng(4).standard_normal((3, 3, 3))
    linear = linear_state_family(0.6, 3, 3)
    rough = measure_free_family(
        3, 3,
        lambda t, x: linear.jet(t, x, None, 1)[:2],
        lambda t, x: np.broadcast_to(C, (len(x), 3, 3, 3)).copy(),
    )
    sigma = 0.3 * np.eye(3) + 0.1 * np.ones((3, 3))
    return coefficient_set(
        3, 3, 3,
        drift=lambda t, x, mu: -0.2 * x,
        diffusion=lambda t, x, mu: np.broadcast_to(sigma, (len(x), 3, 3)),
        rough=rough,
    ), C


@pytest.mark.parametrize("scheme", [SCHEME_FULL, SCHEME_NO_LIFT])
def test_three_term_contractions_equal_einsum_to_rounding(scheme):
    # beyond two terms einsum adds in two SIMD lanes, so the ordered sums
    # may differ from it in the last bit, never by more than rounding
    coeffs, C = three_channel_bundle()
    rp = brownian_lift(5, 3, TimeGrid.uniform(1.0, 4), 4)
    x = np.random.default_rng(8).standard_normal((200, 3))
    db = np.random.default_rng(9).standard_normal((200, 3)) * 0.5
    dw, area = rp.span(1, 2)
    area = area if scheme == SCHEME_FULL else None
    args = (None, 0.25, 0.25, dw, area, db)
    got, _ = advance_states(x.copy(), coeffs, *args)
    want, _ = ref_advance_states(x.copy(), coeffs, *args)
    f, dxf = coeffs.rough.jet(0.25, x, None, 1)[:2]
    sigma = coeffs.diffusion(0.25, x, None)
    scale = (
        np.abs(x) + np.abs(0.2 * 0.25 * x)
        + np.einsum("ail,al->ai", np.abs(sigma), np.abs(db))
        + np.einsum("aik,k->ai", np.abs(f), np.abs(dw))
    )
    at = area_coefficient(coeffs, 0.25, x, None)
    if area is not None:
        scale += np.einsum("aikl,kl->ai", np.abs(at), np.abs(area))
    assert np.all(np.abs(got - want) <= 1e-14 * scale)
    at_want = np.einsum("aijl,ajk->aikl", dxf, f) + np.swapaxes(C, -1, -2)
    at_scale = np.einsum("aijl,ajk->aikl", np.abs(dxf), np.abs(f)) + np.abs(np.swapaxes(C, -1, -2))
    assert np.all(np.abs(at - at_want) <= 1e-14 * at_scale)


@pytest.mark.parametrize("a, b", [(0.5, 0.4), (-0.7, 0.4), (0.5, 0.0), (0.0, -1.3)])
@pytest.mark.parametrize("shift", [-0.8, 0.0, 0.8])
def test_moment_sin_jet_is_bytewise_the_reference_formula(a, b, shift):
    x = signed_zero_cloud(3, 50, 1)
    x[6] = 1e300
    mu = EmpiricalMeasure(x[7:] + shift)
    got = moment_sin_family(a, b).jet(0.0, x, mu, 1)[:3]
    want = ref_moment_sin_family(a, b).jet(0.0, x, mu, 1)[:3]
    assert [g.shape for g in got] == [w.shape for w in want]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_a_chaos_sized_moment_step_drops_its_jet_before_the_drift():
    # one in-place step of a chaos_ladder ensemble (N = 32 000, moment_sin
    # 0.5 0.4, linear drift, constant sigma): 1.71 MiB above its inputs,
    # seven (N, 1) arrays counting the cloud copy of its measure, where
    # forming every term before the sum peaked at 2.44 MiB (ten)
    cs = coefficient_set(
        1, 1, 1,
        drift=lambda t, x, mu: -0.3 * x,
        diffusion=lambda t, x, mu: 0.5 * np.ones((x.shape[0], 1, 1)),
        rough=moment_sin_family(0.5, 0.4),
    )
    rp = brownian_lift(3, 1, TimeGrid.uniform(1.0, 64), 16)
    x = np.random.default_rng(1).standard_normal((32_000, 1))
    db = np.random.default_rng(2).standard_normal((32_000, 1)) * 0.1
    _, peak = traced_peak(lambda: step_davie(x, cs, rp, 3, db, out=x))
    assert peak <= 8 * x.nbytes


@pytest.mark.parametrize("k", [-1, 8])
def test_step_rejects_cells_outside_the_grid(k):
    cfg = make_config(cells=8)
    rp = brownian_lift(1, 1, cfg.grid, 2)
    db = np.zeros((cfg.particle_count, 1))
    with pytest.raises(ValueError, match="outside"):
        step_davie(initial_states(cfg), ornstein_uhlenbeck_set(), rp, k, db)


@pytest.mark.parametrize("shape", [(15, 8, 1), (16, 7, 1), (16, 8, 2)])
def test_simulate_rejects_a_brownian_block_of_the_wrong_shape(shape):
    cfg = make_config(n=16, cells=8)
    rp = brownian_lift(1, 1, cfg.grid, 2)
    with pytest.raises(ValueError, match="brownian block"):
        simulate(cfg, ornstein_uhlenbeck_set(), rp, brownian=np.zeros(shape))


def test_dimension_mismatches_are_rejected():
    cfg = make_config()
    rp2 = brownian_lift(1, 2, cfg.grid, 2)
    with pytest.raises(ValueError):
        simulate(cfg, ornstein_uhlenbeck_set(), rp2)
    rp_other_grid = brownian_lift(1, 1, TimeGrid.uniform(1.0, 5), 2)
    with pytest.raises(ValueError):
        simulate(cfg, ornstein_uhlenbeck_set(), rp_other_grid)


def other_grid(cells=8):
    """A grid with ``cells`` cells on [0, 1] that is not the uniform one."""
    return TimeGrid(np.linspace(0.0, 1.0, cells + 1) ** 2)


SIGNAL_MISFITS = {
    # (config driver_dim, signal channels, signal grid or None for the config's, message)
    "signal_channels": (1, 2, None, "signal has 2 channels, the coefficients take 1"),
    "signal_grid": (1, 1, other_grid(), "signal grid differs"),
    "bundle_channels": (2, 2, None, "disagree with config"),
}


@pytest.mark.parametrize("case", sorted(SIGNAL_MISFITS))
def test_simulate_refuses_a_signal_that_does_not_fit(case):
    # the one-channel bundle would broadcast against a wider signal
    driver_dim, channels, grid, message = SIGNAL_MISFITS[case]
    cfg = SimulationConfig(16, TimeGrid.uniform(1.0, 8), 0, 1, 1, driver_dim)
    rp = brownian_lift(1, channels, grid or cfg.grid, 2)
    cs = coefficient_set(1, 1, 1, rough=linear_state_family(0.5, 1, 1))
    with pytest.raises(ValueError, match=message):
        simulate(cfg, cs, rp)


# ---------------------------------------------------------------------------
# history ownership and memory


def test_the_history_is_the_flows_read_only_states():
    cfg = make_config(n=8, cells=4, seed=2)
    flow, hist = simulate(cfg, ornstein_uhlenbeck_set(), brownian_lift(2, 1, cfg.grid, 4))
    assert hist is flow.states
    with pytest.raises(ValueError):
        hist[0, 0, 0] = 1.0


def test_simulate_holds_one_history():
    # above the increments passed in: the history plus per-step temporaries,
    # not a second (K+1, N, d) copy
    cs = coefficient_set(
        1, 1, 1,
        drift=lambda t, x, mu: -0.3 * x,
        diffusion=lambda t, x, mu: 0.5 * np.ones((x.shape[0], 1, 1)),
        rough=moment_sin_family(0.5, 0.4),
    )
    cfg = make_config(n=2048, cells=256, seed=7)
    rp = brownian_lift(3, 1, cfg.grid, 4)
    incs = idiosyncratic_increments(cfg.seed, cfg.particle_count, cfg.grid, 1)
    (_, hist), peak = traced_peak(lambda: simulate(cfg, cs, rp, brownian=incs))
    assert peak <= 1.3 * hist.nbytes


def test_final_only_peaks_well_below_increments_plus_history():
    # stepped in place: one cloud and per-step temporaries above the
    # increments, where a full run also holds the (K+1, N, d) history
    cs = coefficient_set(
        1, 1, 1,
        drift=lambda t, x, mu: -0.3 * x,
        diffusion=lambda t, x, mu: 0.5 * np.ones((x.shape[0], 1, 1)),
        rough=moment_sin_family(0.5, 0.4),
    )
    cfg = make_config(n=2048, cells=256, seed=7)
    rp = brownian_lift(3, 1, cfg.grid, 4)
    incs = idiosyncratic_increments(cfg.seed, cfg.particle_count, cfg.grid, 1)
    history_bytes = (cfg.grid.num_cells + 1) * cfg.particle_count * 8
    _, given = traced_peak(lambda: simulate(cfg, cs, rp, brownian=incs, final_only=True))
    _, drawn = traced_peak(lambda: simulate(cfg, cs, rp, final_only=True))
    assert given <= 0.1 * history_bytes
    assert drawn <= incs.nbytes + 0.1 * history_bytes


# ---------------------------------------------------------------------------
# final-only runs


def final_only_bundle(kind):
    rough = {
        "measure_free": linear_signal_family(0.5),
        "moment": mean_coupled_sin_family(0.6, 0.3),
        "convolution": gauss_kernel_family(0.5, 0.8),
    }[kind]
    return coefficient_set(
        1, 1, 1,
        drift=lambda t, x, mu: -0.2 * x,
        diffusion=lambda t, x, mu: 0.3 * np.ones((x.shape[0], 1, 1)),
        rough=rough,
    )


@pytest.mark.parametrize("given", [False, True])
@pytest.mark.parametrize("scheme", [SCHEME_FULL, SCHEME_NO_LIFT])
@pytest.mark.parametrize("kind", ["measure_free", "moment", "convolution"])
def test_final_only_returns_the_last_cloud_of_a_full_run(kind, scheme, given):
    cs = final_only_bundle(kind)
    cfg = make_config(n=24, cells=10, seed=5, scheme=scheme)
    rp = brownian_lift(8, 1, cfg.grid, 4)
    brown = None
    if given:
        fine = idiosyncratic_increments(9, 24, TimeGrid.uniform(1.0, 20), 1)
        brown = coarsen_increments(fine, 2)
    full_reports, last_reports = [], []
    _, hist = simulate(cfg, cs, rp, brownian=brown, observer=full_reports.append)
    flow, last = simulate(
        cfg, cs, rp, brownian=brown, observer=last_reports.append, final_only=True
    )
    assert flow is None
    assert last.shape == (24, 1) and not last.flags.writeable
    assert np.array_equal(last, hist[-1])
    assert last_reports == full_reports


def test_final_only_cloud_becomes_a_measure_without_a_copy():
    cs = final_only_bundle("moment")
    cfg = make_config(n=24, cells=6, seed=5)
    _, last = simulate(cfg, cs, brownian_lift(8, 1, cfg.grid, 4), final_only=True)
    assert last.flags.owndata and not last.flags.writeable
    assert np.shares_memory(EmpiricalMeasure(last).points, last)


def test_final_only_blows_up_at_the_same_time():
    cs = coefficient_set(1, 1, 1, drift=lambda t, x, mu: 1e8 * x**3)
    cfg = make_config(n=4, cells=16, initial_sampler=lambda r, m: np.ones((m, 1)))
    rp = brownian_lift(1, 1, cfg.grid, 2)
    times, reports = [], []
    for final_only in (False, True):
        seen = []
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalBlowup) as exc:
                simulate(cfg, cs, rp, observer=seen.append, final_only=final_only)
        times.append(exc.value.time)
        reports.append(seen)
    assert 0.0 < times[0] < 1.0
    assert times[1] == times[0]
    # compared as text: the blown-up step's parts are not finite, and nan != nan
    assert list(map(repr, reports[1])) == list(map(repr, reports[0]))


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


@pytest.mark.parametrize("final_only", [False, True])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("kind", ["measure_free", "moment"])
def test_a_non_finite_initial_cloud_blows_up_at_the_first_node(kind, bad, final_only):
    # a measure-dependent step would refuse the cloud with a ValueError, and
    # a measure-free one would report the first step's end instead
    family = {"measure_free": constant_rough(np.array([[0.3]])),
              "moment": moment_sin_family(0.5, 0.4)}[kind]
    cs = coefficient_set(1, 1, 1, rough=family)
    cfg = make_config(
        n=8, cells=8, initial_sampler=lambda r, m: np.where(np.arange(m)[:, None] == 5, bad, 0.0)
    )
    reports = []
    with pytest.raises(NumericalBlowup) as exc:
        simulate(cfg, cs, brownian_lift(1, 1, cfg.grid, 2), observer=reports.append,
                 final_only=final_only)
    assert exc.value.time == 0.0
    assert reports == []


# ---------------------------------------------------------------------------
# controlled structure diagnostics


def test_controlled_quotients_for_constant_coefficient():
    c = 0.4
    cs = coefficient_set(1, 1, 1, rough=constant_rough(np.array([[c]])))
    cfg = make_config(n=6, cells=10, seed=12)
    rp = brownian_lift(6, 1, cfg.grid, 8)
    flow, _ = simulate(cfg, cs, rp)
    rep = controlled_diagnostics(flow, rp, cs)
    assert rep.remainder_quotient <= 1e-12  # increments are exactly c dW
    span = rp.grid.points[-1] - rp.grid.points[0]
    dw_full = abs(rp.values[-1, 0] - rp.values[0, 0])
    assert rep.increment_quotient_p2 >= c * dw_full / span**rp.alpha - 1e-12


def test_controlled_quotients_track_moments():
    cs = ornstein_uhlenbeck_set()
    cfg = make_config(n=64, cells=16, seed=5)
    rp = brownian_lift(9, 1, cfg.grid, 4)
    flow, _ = simulate(cfg, cs, rp)
    rep = controlled_diagnostics(flow, rp, cs)
    assert np.isfinite(rep.increment_quotient_p2) and np.isfinite(rep.increment_quotient_p4)
    assert rep.increment_quotient_p4 >= rep.increment_quotient_p2  # moment monotonicity


def test_controlled_diagnostics_evaluate_the_signal_coefficient_at_span_starts():
    calls = []
    cs = coefficient_set(1, 1, 1, rough=mean_coupled_sin_family(0.5, 0.4, calls))
    cfg = make_config(n=20, cells=7, seed=3)
    rp = brownian_lift(2, 1, cfg.grid, 4)
    flow, _ = simulate(cfg, cs, rp)
    calls.clear()
    controlled_diagnostics(flow, rp, cs)
    # spans start at nodes 0..K-1, so the last node's coefficient is unread
    assert calls == [20] * 7


def ref_controlled_diagnostics(flow, rp, coeffs, p=2):
    """The one-power diagnostics the shared span loop replaced; a reference."""
    X = flow.states
    pts = flow.grid.points
    K1 = pts.size
    fvals = np.empty(X.shape[:2] + (coeffs.dim, coeffs.driver_dim))
    for k in range(K1):
        mu = None if coeffs.measure_free else flow.measure(k)
        fvals[k] = coeffs.rough.jet(float(pts[k]), X[k], mu, 0)[0]
    w = rp.values
    q_inc, q_rem = 0.0, 0.0
    for i in range(K1 - 1):
        gap = pts[i + 1 :] - pts[i]
        dX = X[i + 1 :] - X[i]
        norms = np.linalg.norm(dX, axis=2)
        lp = np.mean(norms**p, axis=1) ** (1.0 / p)
        q_inc = max(q_inc, float(np.max(lp / gap**rp.alpha)))
        dw = w[i + 1 :] - w[i]
        resid = dX - np.einsum("aik,jk->jai", fvals[i], dw)
        avg = resid.mean(axis=1)
        q_rem = max(
            q_rem,
            float(np.max(np.linalg.norm(avg, axis=1) / gap ** (2 * rp.alpha))),
        )
    return q_inc, q_rem


def test_one_call_controlled_diagnostics_equal_two_reference_calls():
    cs = coefficient_set(
        1, 1, 1,
        drift=lambda t, x, mu: -0.3 * x,
        diffusion=lambda t, x, mu: 0.4 * np.ones((x.shape[0], 1, 1)),
        rough=mean_coupled_sin_family(0.5, 0.4),
    )
    for cells in (1, 12):
        cfg = make_config(n=40, cells=cells, seed=8)
        rp = brownian_lift(21, 1, cfg.grid, 4)
        flow, _ = simulate(cfg, cs, rp)
        rep = controlled_diagnostics(flow, rp, cs)
        inc2, rem2 = ref_controlled_diagnostics(flow, rp, cs, p=2)
        inc4, rem4 = ref_controlled_diagnostics(flow, rp, cs, p=4)
        # d = 1: the squared norm is the reference's norm squared exactly,
        # since sqrt(x^2) = |x| in binary floating point
        assert rep.increment_quotient_p2 == inc2
        # x^2 squared and pow(|x|, 4) may round apart, and the remainder
        # comes from node means instead of the mean of residuals
        np.testing.assert_allclose(
            [rep.increment_quotient_p4, rep.remainder_quotient, rep.remainder_quotient],
            [inc4, rem2, rem4], rtol=1e-12,
        )


def gauss_kernel_family_2d(amp: float, width: float):
    """f(x, mu) = avg_y amp exp(-|x - y|^2 / (2 width^2)) mix, d = n = 2."""
    w2 = width * width
    mix = np.array([[1.0, 0.3], [-0.2, 0.8]])             # (d, n)

    def kernel(t, x, y, order):
        u = x - y                                          # (A, B, d)
        c = amp * np.exp(-np.sum(u * u, axis=-1) / (2 * w2))
        g = c[..., None, None] * mix
        if not order:
            return (g,)
        dx_g = (-(u / w2) * c[..., None])[..., None, :, None] * mix[:, None, :]
        return g, dx_g, -dx_g

    return convolution_family(2, 2, kernel)


def two_dim_flow(rough, n=48, cells=12, seed=6):
    cs = coefficient_set(
        2, 2, 2,
        drift=lambda t, x, mu: -0.3 * x,
        diffusion=lambda t, x, mu: 0.4 * np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)),
        rough=rough,
    )
    cfg = SimulationConfig(
        particle_count=n, grid=TimeGrid.uniform(1.0, cells), seed=seed,
        dim=2, brownian_dim=2, driver_dim=2,
    )
    rp = brownian_lift(17, 2, cfg.grid, 4)
    flow, _ = simulate(cfg, cs, rp)
    return flow, rp, cs


@pytest.mark.parametrize("rough", [
    linear_state_family(0.5, 2, 2), gauss_kernel_family_2d(0.6, 0.9),
], ids=["measure_free", "convolution"])
def test_controlled_diagnostics_match_the_reference_in_two_dimensions(rough):
    flow, rp, cs = two_dim_flow(rough)
    assert cs.measure_free == (rough.mixing is None)
    rep = controlled_diagnostics(flow, rp, cs)
    for p, inc in ((2, rep.increment_quotient_p2), (4, rep.increment_quotient_p4)):
        np.testing.assert_allclose(
            [inc, rep.remainder_quotient], ref_controlled_diagnostics(flow, rp, cs, p=p),
            rtol=1e-12,
        )


def test_controlled_remainder_ignores_the_particle_order():
    flow, rp, cs = two_dim_flow(gauss_kernel_family_2d(0.6, 0.9), n=64)
    perm = np.random.default_rng(3).permutation(flow.num_particles)
    shuffled = MeasureFlow(
        grid=flow.grid, states=flow.states[:, perm], driver_checksum=flow.driver_checksum
    )
    rep = controlled_diagnostics(flow, rp, cs)
    rep_shuffled = controlled_diagnostics(shuffled, rp, cs)
    assert rep_shuffled.remainder_quotient == rep.remainder_quotient


def test_controlled_quotients_of_a_flow_with_a_nan_state_are_nan():
    # a flow refuses a NaN state, so the non-finite quotients left are
    # overflows: spans from node 0 see the finite 1e200 state as inf, and
    # the quotients must not fall back to the spans that avoid it
    for rough in (linear_signal_family(0.5), mean_coupled_sin_family(0.5, 0.4)):
        cs = coefficient_set(1, 1, 1, rough=rough)
        cfg = make_config(n=20, cells=8, seed=4)
        rp = brownian_lift(3, 1, cfg.grid, 4)
        flow, _ = simulate(cfg, cs, rp)
        states = flow.states.copy()
        states[0, 0, 0] = 1e200
        huge = MeasureFlow(grid=flow.grid, states=states, driver_checksum=flow.driver_checksum)
        with np.errstate(over="ignore"):
            rep = controlled_diagnostics(huge, rp, cs)
        assert astuple(rep) == (np.inf,) * 3


@pytest.mark.parametrize(
    "signal, message",
    [
        (lambda: brownian_lift(3, 1, other_grid(8), 4), "signal grid differs"),
        (lambda: brownian_lift(3, 1, TimeGrid.uniform(1.0, 16), 4), "signal grid differs"),
        (lambda: brownian_lift(3, 2, TimeGrid.uniform(1.0, 8), 4), "signal has 2 channels"),
    ],
    ids=["other_grid", "finer_grid", "two_channels"],
)
def test_controlled_diagnostics_refuse_a_signal_that_does_not_fit(signal, message):
    cs = coefficient_set(1, 1, 1, rough=linear_state_family(0.5, 1, 1))
    cfg = make_config(n=20, cells=8, seed=4)
    flow, _ = simulate(cfg, cs, brownian_lift(3, 1, cfg.grid, 4))
    with pytest.raises(ValueError, match=message):
        controlled_diagnostics(flow, signal(), cs)


@pytest.mark.parametrize("scheme", [SCHEME_FULL, SCHEME_NO_LIFT])
def test_observer_sees_the_reports_of_a_step_davie_replay(scheme):
    cs = coefficient_set(
        1, 1, 1,
        drift=lambda t, x, mu: -0.2 * x,
        diffusion=lambda t, x, mu: 0.3 * np.ones((x.shape[0], 1, 1)),
        rough=mean_coupled_sin_family(0.6, 0.3),
    )
    cfg = make_config(n=25, cells=9, seed=4, scheme=scheme)
    rp = brownian_lift(13, 1, cfg.grid, 4)
    plain, hist_plain = simulate(cfg, cs, rp)
    reports = []
    observed, hist_obs = simulate(cfg, cs, rp, observer=reports.append)
    assert np.array_equal(observed.states, plain.states)
    assert np.array_equal(hist_obs, hist_plain)
    assert observed.driver_checksum == plain.driver_checksum

    x = initial_states(cfg)
    db = idiosyncratic_increments(cfg.seed, cfg.particle_count, cfg.grid, 1)
    replay = []
    for k in range(cfg.grid.num_cells):
        x, rep = step_davie(x, cs, rp, k, db[:, k], scheme=scheme, want_report=True)
        replay.append(rep)
    assert np.array_equal(x, hist_plain[-1])
    assert len(reports) == cfg.grid.num_cells
    assert reports == replay


def test_observer_sees_the_step_that_blew_up():
    cs = coefficient_set(1, 1, 1, drift=lambda t, x, mu: 1e8 * x**3)
    cfg = make_config(n=4, cells=16, initial_sampler=lambda r, m: np.ones((m, 1)))
    rp = brownian_lift(1, 1, cfg.grid, 2)
    reports = []
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalBlowup) as exc:
            simulate(cfg, cs, rp, observer=reports.append)
    assert reports and not np.isfinite(reports[-1].drift_part)
    assert exc.value.time == float(cfg.grid.points[len(reports)])
