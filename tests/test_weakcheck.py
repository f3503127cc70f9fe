"""Weak-form residual defects, term by term, and the dyadic order scan."""

from collections import namedtuple

import numpy as np
import pytest

from conftest import (
    linear_signal_family,
    mean_coupled_sin_family,
    ornstein_uhlenbeck_set,
    time_controlled_family,
)

from roughmkv import weakcheck
from roughmkv.coefficients import (
    area_coefficient,
    coefficient_set,
    constant_rough,
    diffusion_square,
    moment_family,
)
from roughmkv.grids import TimeGrid
from roughmkv.measures import EmpiricalMeasure, MeasureFlow, pairing, symmetric_mean
from roughmkv.roughpath import GridRoughPath, brownian_lift, lift_piecewise_linear, restrict
from roughmkv.simulate import SimulationConfig, simulate
from roughmkv.weakcheck import (
    ResidualScan,
    TestFunction,
    constant_function,
    default_bank,
    gaussian_bump,
    gradient_consistency,
    linear_function,
    quadratic_function,
    residual_order_scan,
    save_residual_csv,
    sinusoid_function,
    weak_residual,
)


def shift_flow(c=0.8, cells=4, n=32, seed=3, slope=0.9):
    """Exactly solvable rigid translation along a straight-line driver."""
    grid = TimeGrid.uniform(1.0, cells)
    rp = lift_piecewise_linear(grid, slope * grid.points, alpha=0.45)
    cs = coefficient_set(1, 1, 1, rough=constant_rough(np.array([[c]])))
    cfg = SimulationConfig(n, grid, seed, 1, 1, 1)
    flow, _ = simulate(cfg, cs, rp)
    return flow, rp, cs


# ---------------------------------------------------------------------------
# test function bank


@pytest.mark.parametrize("dim", [1, 2])
def test_bank_gradients_match_finite_differences(dim):
    pts = np.random.default_rng(0).standard_normal((50, dim))
    for phi in default_bank(dim):
        assert gradient_consistency(phi, pts) <= 5e-8, phi.name


def test_bank_names_unique_and_dimension_aware():
    one = default_bank(1)
    two = default_bank(2)
    assert len({p.name for p in one}) == len(one)
    assert len(two) > len(one) or any("cross" in p.name for p in two)


# The constructors as they were written before each probe became one jet:
# three callables that each re-derive the shared subexpressions.  The jets
# must give the same numbers, bit for bit.


RefProbe = namedtuple("RefProbe", "name value grad hess")


def ref_constant_function(c=1.0):
    return RefProbe(
        f"const_{c}",
        lambda x: np.full(x.shape[0], float(c)),
        lambda x: np.zeros_like(x),
        lambda x: np.zeros(x.shape + (x.shape[1],)),
    )


def ref_linear_function(a):
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    return RefProbe(
        "linear",
        lambda x: x @ a,
        lambda x: np.broadcast_to(a, x.shape).copy(),
        lambda x: np.zeros(x.shape + (x.shape[1],)),
    )


def ref_quadratic_function(Q):
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    Q = 0.5 * (Q + Q.T)
    return RefProbe(
        "quadratic",
        lambda x: 0.5 * np.einsum("ai,ij,aj->a", x, Q, x),
        lambda x: x @ Q,
        lambda x: np.broadcast_to(Q, x.shape + (x.shape[1],)).copy(),
    )


def ref_gaussian_bump(center, width, amp=1.0):
    c = np.atleast_1d(np.asarray(center, dtype=np.float64))
    w2 = float(width) ** 2

    def value(x):
        return amp * np.exp(-0.5 * np.sum((x - c) ** 2, axis=1) / w2)

    def grad(x):
        return value(x)[:, None] * (-(x - c) / w2)

    def hess(x):
        r = (x - c) / w2
        eye = np.eye(c.size) / w2
        return value(x)[:, None, None] * (np.einsum("ai,aj->aij", r, r) - eye)

    return RefProbe(f"bump_w{width}", value, grad, hess)


def ref_gaussian_linear(center, width, slope, amp=1.0):
    base = ref_gaussian_bump(center, width, amp)
    a = np.atleast_1d(np.asarray(slope, dtype=np.float64))

    def value(x):
        return base.value(x) * (x @ a)

    def grad(x):
        return base.grad(x) * (x @ a)[:, None] + base.value(x)[:, None] * a

    def hess(x):
        lin = (x @ a)[:, None, None]
        cross = np.einsum("ai,j->aij", base.grad(x), a)
        return base.hess(x) * lin + cross + np.swapaxes(cross, 1, 2)

    return RefProbe(f"bump_lin_w{width}", value, grad, hess)


def ref_sinusoid_function(freq, phase=0.0):
    k = np.atleast_1d(np.asarray(freq, dtype=np.float64))

    def value(x):
        return np.sin(x @ k + phase)

    def grad(x):
        return np.cos(x @ k + phase)[:, None] * k

    def hess(x):
        return -value(x)[:, None, None] * np.einsum("i,j->ij", k, k)

    return RefProbe(f"sin_k{np.linalg.norm(k):.3g}", value, grad, hess)


REF_CONSTRUCTORS = {
    "constant_function": ref_constant_function,
    "linear_function": ref_linear_function,
    "quadratic_function": ref_quadratic_function,
    "gaussian_bump": ref_gaussian_bump,
    "gaussian_linear": ref_gaussian_linear,
    "sinusoid_function": ref_sinusoid_function,
}


def constructor_args(kind, d, rng):
    center, slope, freq = rng.standard_normal((3, d))
    return {
        "constant_function": (-0.4,),
        "linear_function": (slope,),
        "quadratic_function": (rng.standard_normal((d, d)),),
        "gaussian_bump": (center, 1.3, 0.8),
        "gaussian_linear": (center, 1.2, slope, 0.9),
        "sinusoid_function": (freq, 0.7),
    }[kind]


def same_bits(a, b):
    """Equal values with equal signs of zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(REF_CONSTRUCTORS))
def test_jet_equals_three_callable_reference(kind, d):
    rng = np.random.default_rng(10 * d + len(kind))
    args = constructor_args(kind, d, rng)
    phi, ref = getattr(weakcheck, kind)(*args), REF_CONSTRUCTORS[kind](*args)
    x = rng.standard_normal((40, d))
    x[:6] = 0.0                                     # signed zeros, whole rows and mixed
    x[6:12] = -0.0
    x[12:18] = np.where(rng.random((6, d)) < 0.5, -0.0, 0.0)
    x[18:24, 0] = -0.0
    value, grad, hess = phi.jet(x)
    assert phi.name == ref.name
    assert same_bits(value, ref.value(x))
    assert same_bits(grad, ref.grad(x))
    assert same_bits(hess, ref.hess(x))


# ---------------------------------------------------------------------------
# one term at a time: one-cell residuals on hand-built flows and signals


def one_cell(start, end, dw, ww, h=0.5):
    """A one-cell flow from cloud ``start`` to cloud ``end`` and a signal with
    increment ``dw`` and cell tensor ``ww`` over the cell ``[0, h]``."""
    grid = TimeGrid.uniform(h, 1)
    dw = np.atleast_1d(np.asarray(dw, dtype=np.float64))
    n = dw.size
    rp = GridRoughPath(grid, np.stack([np.zeros(n), dw]), np.reshape(ww, (1, n, n)))
    return MeasureFlow(grid=grid, states=np.stack([start, end])), rp


def test_generator_on_quadratic_is_half_trace_plus_drift():
    # equal clouds and dW = 0, WW = 0 leave -h * generator
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((40, 2))
    S = np.array([[0.5, 0.1], [0.0, 0.3]])
    A = np.array([[0.2, -0.4], [0.7, 0.1]])
    Q = np.array([[1.0, 0.25], [0.25, 2.0]])
    cs = coefficient_set(
        2,
        2,
        1,
        drift=lambda t, x, m_: x @ A.T,
        diffusion=lambda t, x, m_: np.broadcast_to(S, (x.shape[0], 2, 2)).copy(),
    )
    phi = quadratic_function(Q)
    a = S @ S.T
    want = 0.5 * np.trace(a @ Q) + np.mean(np.einsum("ai,ai->a", pts @ A.T, pts @ Q))
    flow, rp = one_cell(pts, pts, 0.0, 0.0, h=0.5)
    assert np.isclose(-weak_residual(flow, rp, phi, cs, 0.0, 0.5) / 0.5, want, rtol=1e-12)


def test_first_order_pairing_for_constant_coefficient():
    # equal clouds, no generator and WW = 0 leave -<mu, grad phi . f_kap> dW^kap
    pts = np.random.default_rng(1).standard_normal((25, 1))
    cs = coefficient_set(1, 1, 2, rough=constant_rough(np.array([[0.7, -0.2]])))
    phi = quadratic_function(np.array([[1.0]]))  # grad = x
    m = float(EmpiricalMeasure(pts).mean()[0])
    for dw, want in (([1.0, 0.0], 0.7 * m), ([0.0, 1.0], -0.2 * m)):
        flow, rp = one_cell(pts, pts, dw, np.zeros((2, 2)))
        assert np.isclose(-weak_residual(flow, rp, phi, cs, 0.0, 0.5), want, rtol=1e-12)


def test_second_order_pairing_hand_values():
    # equal clouds, no generator, dW = 0 and WW = 1 leave minus the
    # second-order pairing
    pts = np.random.default_rng(2).standard_normal((30, 1))
    flow, rp = one_cell(pts, pts, 0.0, 1.0)
    # constant coefficient, quadratic probe: only f hess f survives
    cs = coefficient_set(1, 1, 1, rough=constant_rough(np.array([[0.7]])))
    phi = quadratic_function(np.array([[1.0]]))
    assert np.isclose(-weak_residual(flow, rp, phi, cs, 0.0, 0.5), 0.49, rtol=1e-12)
    # linear coefficient, linear probe: only the area tensor survives
    cs2 = coefficient_set(1, 1, 1, rough=linear_signal_family(1.0))
    lin = linear_function(np.array([1.0]))
    want = float(EmpiricalMeasure(pts).mean()[0])  # area tensor is the state itself, averaged
    assert np.isclose(-weak_residual(flow, rp, lin, cs2, 0.0, 0.5), want, rtol=1e-12)


def test_all_operators_kill_constants():
    # every term of the expansion is on: two clouds, dW and WW nonzero, a
    # drift, a diffusion and a state-dependent signal coefficient
    rng = np.random.default_rng(3)
    start, end = rng.standard_normal((2, 12, 1))
    cs = coefficient_set(
        1, 1, 1,
        drift=lambda t, x, mu: -0.3 * x,
        diffusion=lambda t, x, mu: 0.5 * np.ones((x.shape[0], 1, 1)),
        rough=linear_signal_family(0.5),
    )
    flow, rp = one_cell(start, end, 0.3, 0.2)
    assert weak_residual(flow, rp, constant_function(1.0), cs, 0.0, 0.5) == 0.0


# ---------------------------------------------------------------------------
# residual identities


def test_residual_vanishes_for_constant_probe_and_degenerate_span():
    flow, rp, cs = shift_flow()
    one = constant_function(2.5)
    assert weak_residual(flow, rp, one, cs, 0.0, 1.0) == 0.0
    bump = gaussian_bump(np.array([0.0]), 1.0)
    assert weak_residual(flow, rp, bump, cs, 0.5, 0.5) == 0.0


def test_residual_is_linear_in_the_probe():
    flow, rp, cs = shift_flow()
    f = gaussian_bump(np.array([0.2]), 1.1)
    g = sinusoid_function(np.array([2.0]), phase=0.3)
    combo = TestFunction(
        "combo", lambda x: tuple(3.0 * u - 0.5 * v for u, v in zip(f.jet(x), g.jet(x)))
    )
    r = weak_residual(flow, rp, combo, cs, 0.0, 0.75)
    rf = weak_residual(flow, rp, f, cs, 0.0, 0.75)
    rg = weak_residual(flow, rp, g, cs, 0.0, 0.75)
    assert np.isclose(r, 3.0 * rf - 0.5 * rg, rtol=1e-10, atol=1e-14)


def test_rigid_shift_residual_structure():
    c, slope = 0.8, 0.9
    flow, rp, cs = shift_flow(c=c, slope=slope)
    lin = linear_function(np.array([1.4]))
    bump = gaussian_bump(np.array([0.1]), 0.9)
    # a third-order budget for the bump of width 0.9: 3 / width^3
    budget = (1.0 / 0.9) ** 3 * 3.0
    grid = flow.grid
    for k in range(grid.num_cells):
        s, t = float(grid.points[k]), float(grid.points[k + 1])
        # linear probes: the expansion is exact
        assert abs(weak_residual(flow, rp, lin, cs, s, t)) <= 1e-13
        # smooth probes: bounded by the third-order budget
        dw = abs(c * (rp.values[k + 1, 0] - rp.values[k, 0]))
        assert abs(weak_residual(flow, rp, bump, cs, s, t)) <= budget * dw**3


# ---------------------------------------------------------------------------
# non-finite nodes


def test_residual_with_a_nan_curve_node_is_nan():
    # at a finite but huge state the signal coefficient's square overflows,
    # and against a linear probe's zero Hessian the second-order term is NaN
    # at node 0; every span from node 0 must show it
    cs = coefficient_set(1, 1, 1, rough=linear_signal_family(0.5))
    grid = TimeGrid.uniform(1.0, 8)
    rp = brownian_lift(3, 1, grid, 4)
    flow, _ = simulate(SimulationConfig(20, grid, 4, 1, 1, 1), cs, rp)
    phi = linear_function(np.array([1.0]))
    assert np.isfinite(weak_residual(flow, rp, phi, cs, 0.0, 1.0))
    states = flow.states.copy()
    states[0, 0, 0] = 1e200
    huge = MeasureFlow(grid=grid, states=states, driver_checksum=flow.driver_checksum)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(weak_residual(huge, rp, phi, cs, 0.0, 1.0))
        assert np.isnan(weak_residual(huge, rp, phi, cs, 0.0, 0.125))
        assert np.isfinite(weak_residual(huge, rp, phi, cs, 0.125, 1.0))


# ---------------------------------------------------------------------------
# dyadic order scan


def scan_runs(levels, base_cells=4, sig_seed=0):
    runs = []
    for lvl in range(levels):
        cells = base_cells * 2**lvl
        grid = TimeGrid.uniform(1.0, cells)
        rp = lift_piecewise_linear(grid, 0.9 * grid.points, alpha=0.45)
        cs = coefficient_set(1, 1, 1, rough=constant_rough(np.array([[0.8]])))
        flow, _ = simulate(SimulationConfig(16, grid, 5, 1, 1, 1), cs, rp)
        runs.append((flow, rp))
    return runs, cs


def test_scan_reports_exact_probes_and_decaying_ones():
    runs, cs = scan_runs(3)
    bank = [linear_function(np.array([1.0])), gaussian_bump(np.array([0.0]), 1.0)]
    scan = residual_order_scan(runs, bank, cs)
    lin_name, bump_name = bank[0].name, bank[1].name
    assert scan.slopes[lin_name] == np.inf
    assert scan.slopes[bump_name] > 2.0  # third order for a smooth driver
    assert len(scan.table) == 2 * 3
    for _, _, delta, resid, floor in scan.table:
        assert delta > 0 and resid >= 0 and floor >= 0


def test_scan_needs_two_levels_and_matching_replicates():
    runs, cs = scan_runs(2)
    bank = [linear_function(np.array([1.0]))]
    with pytest.raises(ValueError):
        residual_order_scan(runs[:1], bank, cs)
    with pytest.raises(ValueError):
        residual_order_scan(runs, bank, cs, replicates=[runs[:1]])


def test_weak_residual_refuses_a_signal_that_does_not_fit():
    runs, cs = scan_runs(2, base_cells=8)
    (flow, _), (_, fine_rp) = runs
    phi = gaussian_bump(np.array([0.0]), 1.0)
    with pytest.raises(ValueError, match="signal grid differs"):
        weak_residual(flow, fine_rp, phi, cs, 0.0, 0.125)
    wide = lift_piecewise_linear(flow.grid, np.zeros((9, 2)))
    with pytest.raises(ValueError, match="signal has 2 channels"):
        weak_residual(flow, wide, phi, cs, 0.0, 0.125)


def test_scan_refuses_a_run_or_replicate_whose_signal_does_not_fit():
    # every pair is checked before any level is scanned
    runs, cs = scan_runs(2)
    bank = [linear_function(np.array([1.0]))]
    (coarse, coarse_rp), (fine, fine_rp) = runs
    swapped = [(coarse, fine_rp), (fine, coarse_rp)]
    with pytest.raises(ValueError, match="signal grid differs"):
        residual_order_scan(swapped, bank, cs)
    with pytest.raises(ValueError, match="signal grid differs"):
        residual_order_scan(runs, bank, cs, replicates=[runs, swapped])


def diffusive_runs(seed):
    """Two levels of an Ornstein-Uhlenbeck cloud with particle seed ``seed``."""
    out = []
    for lvl in range(2):
        cells = 8 * 2**lvl
        grid = TimeGrid.uniform(1.0, cells)
        rp = brownian_lift(40 + lvl, 1, grid, 4)
        flow, _ = simulate(SimulationConfig(32, grid, seed, 1, 1, 1), ornstein_uhlenbeck_set(), rp)
        out.append((flow, rp))
    return out


def test_scan_noise_floor_from_replicates():
    # diffusive scenario rerun under different particle seeds: the spread
    # of the level statistic is a visible monte carlo floor
    bank = [gaussian_bump(np.array([0.0]), 1.0)]
    scan = residual_order_scan(
        diffusive_runs(1), bank, ornstein_uhlenbeck_set(),
        replicates=[diffusive_runs(2), diffusive_runs(3)],
    )
    floors = [row[4] for row in scan.table]
    assert all(f > 0 for f in floors)


def ref_save_residual_csv(scan, path, stamp=None):
    """The per-row writer the table writer replaced; kept as a byte reference."""
    with open(path, "w", encoding="utf-8") as fh:
        if stamp is not None:
            fh.write(f"# generated {stamp}\n")
        fh.write("phi,level,delta,max_residual,noise_floor\n")
        for name, level, delta, stat, floor in scan.table:
            fh.write(f"{name},{level},{delta!r},{stat!r},{floor!r}\n")


@pytest.mark.parametrize("stamp", [None, "2026-01-01T00:00:00+00:00"])
def test_scan_csv_bytes_equal_per_row_reference(tmp_path, stamp):
    bank = [gaussian_bump(np.array([0.0]), 1.0), quadratic_function(np.eye(1))]
    scan = residual_order_scan(
        diffusive_runs(1), bank, ornstein_uhlenbeck_set(),
        replicates=[diffusive_runs(2), diffusive_runs(3)],
    )
    assert all(row[4] > 0 for row in scan.table)
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    save_residual_csv(scan, str(new), stamp=stamp)
    ref_save_residual_csv(scan, str(ref), stamp=stamp)
    assert new.read_text(encoding="utf-8") == ref.read_text(encoding="utf-8")


def test_scan_csv_layout(tmp_path):
    runs, cs = scan_runs(2)
    scan = residual_order_scan(runs, [linear_function(np.array([1.0]))], cs)
    path = tmp_path / "scan.csv"
    save_residual_csv(scan, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("phi,level,delta,max_residual,noise_floor")
    assert len(lines) == 1 + len(scan.table)


# ---------------------------------------------------------------------------
# node-curve engine against the per-cell reference
#
# The reference below is the weak-form check as it was written before the
# node-curve engine: one operator call per node, cell and probe, and the scan
# as a loop of single-cell residuals.  The engine evaluates the same
# integrands with the same per-node reductions, so every number must be equal.


def ref_op_generator(mu, t, phi, coeffs):
    x = mu.points
    marg = None if coeffs.measure_free else mu
    a = diffusion_square(coeffs, t, x, marg)
    b = coeffs.drift(t, x, marg)
    _, grad, hess = phi.jet(x)
    integrand = 0.5 * np.einsum("aij,aij->a", a, hess) + np.einsum("ai,ai->a", b, grad)
    return float(symmetric_mean(integrand))


def ref_op_rough(mu, t, phi, kappa, coeffs):
    x = mu.points
    marg = None if coeffs.measure_free else mu
    f = coeffs.rough.jet(t, x, marg, 0)[0]
    return float(symmetric_mean(np.einsum("ai,ai->a", phi.jet(x)[1], f[:, :, kappa])))


def ref_op_rough_second(mu, t, phi, kappa, lam, coeffs):
    x = mu.points
    marg = None if coeffs.measure_free else mu
    f = coeffs.rough.jet(t, x, marg, 0)[0]
    area = area_coefficient(coeffs, t, x, marg)
    _, grad, hess = phi.jet(x)
    integrand = np.einsum(
        "ai,aj,aij->a", f[:, :, kappa], f[:, :, lam], hess
    ) + np.einsum("ai,ai->a", area[:, :, kappa, lam], grad)
    return float(symmetric_mean(integrand))


def ref_weak_residual(flow, rp, phi, coeffs, s, t):
    i, j = flow.grid.span_indices(s, t)
    if i == j:
        return 0.0
    mu_s, mu_t = flow.measure(i), flow.measure(j)
    def value(x):
        return phi.jet(x)[0]

    lhs = pairing(mu_t, value) - pairing(mu_s, value)
    pts = flow.grid.points
    gen = np.array(
        [ref_op_generator(flow.measure(k), float(pts[k]), phi, coeffs) for k in range(i, j + 1)]
    )
    dt = np.diff(pts[i : j + 1])
    time_part = float(np.sum(0.5 * dt * (gen[:-1] + gen[1:])))
    dw = rp.increment(s, t)
    ww = rp.second(s, t)
    n = rp.dim
    first = sum(ref_op_rough(mu_s, float(s), phi, k, coeffs) * dw[k] for k in range(n))
    second = sum(
        ref_op_rough_second(mu_s, float(s), phi, k, l, coeffs) * ww[k, l]
        for k in range(n)
        for l in range(n)
    )
    return float(lhs - time_part - first - second)


def ref_residual_order_scan(runs, bank, coeffs, replicates=()):
    def level_stat(flow, rp, phi):
        pts = flow.grid.points
        return max(
            abs(ref_weak_residual(flow, rp, phi, coeffs, float(pts[k]), float(pts[k + 1])))
            for k in range(flow.grid.num_cells)
        )

    table, slopes = [], {}
    for phi in bank:
        deltas, stats = [], []
        for level, (flow, rp) in enumerate(runs):
            stat = level_stat(flow, rp, phi)
            rep_stats = [level_stat(f, r, phi) for reps in replicates for (f, r) in [reps[level]]]
            floor = 0.0
            if rep_stats:
                allstats = rep_stats + [stat]
                floor = 0.5 * (max(allstats) - min(allstats))
            delta = float(np.max(flow.grid.dt))
            table.append((phi.name, level, delta, stat, floor))
            deltas.append(delta)
            stats.append(stat)
        if max(stats) < 1e-13:
            slopes[phi.name] = float("inf")
        else:
            clipped = np.maximum(stats, 1e-300)
            slopes[phi.name] = float(np.polyfit(np.log(deltas), np.log(clipped), 1)[0])
    return ResidualScan(table=table, slopes=slopes)


def moment_bundle():
    """d = m = n = 1, measure-dependent signal coefficient, diffusion on."""
    return coefficient_set(
        1, 1, 1,
        drift=lambda t, x, mu: 0.3 * np.tanh(x),
        diffusion=lambda t, x, mu: 0.3 * np.ones((x.shape[0], 1, 1)),
        rough=mean_coupled_sin_family(0.5, 0.4),
    )


def planar_bundle():
    """d = m = n = 2, measure-free affine signal coefficient with a time control."""
    S = np.array([[0.4, 0.1], [0.0, 0.3]])
    return coefficient_set(
        2, 2, 2,
        drift=lambda t, x, mu: -0.3 * x,
        diffusion=lambda t, x, mu: np.broadcast_to(S, (x.shape[0], 2, 2)).copy(),
        rough=time_controlled_family(),
    )


BUNDLES = {"moment": moment_bundle, "planar": planar_bundle}


def bundle_runs(coeffs, levels=3, base_cells=4, particles=24, seed=5):
    """Flows on dyadic refinements of one Brownian signal."""
    fine = TimeGrid.uniform(1.0, base_cells * 2 ** (levels - 1))
    fine_rp = brownian_lift(11, coeffs.driver_dim, fine, 8, alpha=0.45)
    runs = []
    for level in range(levels):
        factor = 2 ** (levels - 1 - level)
        grid = fine.coarsen(factor) if factor > 1 else fine
        rp = restrict(fine_rp, grid) if factor > 1 else fine_rp
        config = SimulationConfig(
            particles, grid, seed, coeffs.dim, coeffs.brownian_dim, coeffs.driver_dim
        )
        flow, _ = simulate(config, coeffs, rp)
        runs.append((flow, rp))
    return runs


def assert_same_scan(scan, ref):
    assert scan.table == ref.table
    assert scan.slopes == ref.slopes


@pytest.mark.parametrize("bundle", sorted(BUNDLES))
def test_scan_equals_per_cell_reference(bundle):
    coeffs = BUNDLES[bundle]()
    runs = bundle_runs(coeffs)
    bank = default_bank(coeffs.dim)
    assert_same_scan(residual_order_scan(runs, bank, coeffs), ref_residual_order_scan(runs, bank, coeffs))


def test_scan_with_replicates_equals_per_cell_reference():
    coeffs = moment_bundle()
    runs = bundle_runs(coeffs)
    replicates = [bundle_runs(coeffs, seed=s) for s in (6, 7)]
    bank = default_bank(1)
    scan = residual_order_scan(runs, bank, coeffs, replicates=replicates)
    assert all(row[4] > 0 for row in scan.table)
    assert_same_scan(scan, ref_residual_order_scan(runs, bank, coeffs, replicates=replicates))


# block lengths relative to the particle count N: one node per block from
# below and at N, and four nodes per block, which divides none of the 5, 9
# and 17 node counts of the three levels
@pytest.mark.parametrize("block", [lambda N: N - 1, lambda N: N, lambda N: 4 * N + 3],
                         ids=["below", "exact", "ragged"])
@pytest.mark.parametrize("bundle", sorted(BUNDLES))
def test_node_block_length_changes_no_number(bundle, block, monkeypatch):
    coeffs = BUNDLES[bundle]()
    runs = bundle_runs(coeffs)
    bank = default_bank(coeffs.dim)
    ref = ref_residual_order_scan(runs, bank, coeffs)
    flow, rp = runs[-1]
    monkeypatch.setattr(weakcheck, "_BLOCK_POINTS", block(flow.num_particles))
    assert_same_scan(residual_order_scan(runs, bank, coeffs), ref)
    phi, end = bank[2], float(flow.grid.horizon)
    assert weak_residual(flow, rp, phi, coeffs, 0.0, end) == ref_weak_residual(
        flow, rp, phi, coeffs, 0.0, end
    )


@pytest.mark.parametrize("bundle", sorted(BUNDLES))
def test_multi_cell_residual_equals_reference(bundle):
    coeffs = BUNDLES[bundle]()
    flow, rp = bundle_runs(coeffs)[-1]
    pts = flow.grid.points
    for phi in default_bank(coeffs.dim):
        for i, j in [(0, pts.size - 1), (3, 11), (5, 6), (7, 7)]:
            s, t = float(pts[i]), float(pts[j])
            assert weak_residual(flow, rp, phi, coeffs, s, t) == ref_weak_residual(
                flow, rp, phi, coeffs, s, t
            )


@pytest.mark.parametrize("bundle", sorted(BUNDLES))
def test_one_node_operators_equal_reference(bundle):
    # the engine's curves at one node are the per-node reference operators
    coeffs = BUNDLES[bundle]()
    flow, _ = bundle_runs(coeffs, levels=1)[0]
    mu, t = flow.measure(2), float(flow.grid.points[2])
    n = coeffs.driver_dim
    for phi in default_bank(coeffs.dim):
        _, generator, first, second = weakcheck._node_curves(
            np.array([t]), mu.points[None], [phi], coeffs
        )
        assert generator[0, 0] == ref_op_generator(mu, t, phi, coeffs)
        for k in range(n):
            assert first[0, 0, k] == ref_op_rough(mu, t, phi, k, coeffs)
            for l in range(n):
                assert second[0, 0, k, l] == ref_op_rough_second(mu, t, phi, k, l, coeffs)


def spatial_bundle():
    """d = m = n = 3, a mean-coupled affine signal coefficient, so that every
    state contraction of the node integrands sums three or nine terms."""
    rng = np.random.default_rng(12)
    A = 0.5 * rng.standard_normal((3, 3))                 # (d, n)
    B, D = 0.3 * rng.standard_normal((2, 3, 3, 3))        # (d, d, n) each
    S = 0.3 * np.eye(3) + 0.1 * rng.standard_normal((3, 3))

    def jet(t, x, m):
        f = A + np.einsum("ijk,aj->aik", B, x) + np.einsum("ijk,j->ik", D, m)
        shape = (x.shape[0],) + B.shape
        return f, np.broadcast_to(B, shape), np.broadcast_to(D, shape)

    return coefficient_set(
        3, 3, 3,
        drift=lambda t, x, mu: -0.3 * np.tanh(x),
        diffusion=lambda t, x, mu: np.broadcast_to(S, (x.shape[0], 3, 3)).copy(),
        rough=moment_family(3, 3, jet),
    )


def test_three_dimensional_node_curves_equal_einsum_to_rounding():
    # Beyond two terms einsum adds in two SIMD lanes, so at d = 3 the
    # engine's ordered sums may leave the reference's bits.  Each curve must
    # stay within 2 eps of its pairing of absolute terms.  Measured: at most
    # 0.69 eps over 20 clouds (22 ulps of the curve itself, which cancels).
    coeffs = spatial_bundle()
    x = np.random.default_rng(3).standard_normal((48, 3))
    mu, t = EmpiricalMeasure(x), 0.5
    a, b = np.abs(diffusion_square(coeffs, t, x, mu)), np.abs(coeffs.drift(t, x, mu))
    f = np.abs(coeffs.rough.jet(t, x, mu, 0)[0])
    area = np.abs(area_coefficient(coeffs, t, x, mu))
    eps = np.finfo(np.float64).eps
    bank = default_bank(3)
    _, generator, first, second = weakcheck._node_curves(np.array([t]), x[None], bank, coeffs)
    for p, phi in enumerate(bank):
        _, g, H = (np.abs(v) for v in phi.jet(x))
        scale = symmetric_mean(0.5 * np.einsum("aij,aij->a", a, H) + np.einsum("ai,ai->a", b, g))
        assert abs(generator[p, 0] - ref_op_generator(mu, t, phi, coeffs)) <= 2 * eps * scale
        scale = symmetric_mean(np.einsum("ai,aik->ak", g, f))
        for k in range(3):
            want = ref_op_rough(mu, t, phi, k, coeffs)
            assert abs(first[p, 0, k] - want) <= 2 * eps * scale[k]
        scale = symmetric_mean(
            np.einsum("aik,ajl,aij->akl", f, f, H) + np.einsum("aikl,ai->akl", area, g)
        )
        for k in range(3):
            for l in range(3):
                want = ref_op_rough_second(mu, t, phi, k, l, coeffs)
                assert abs(second[p, 0, k, l] - want) <= 2 * eps * scale[k, l]


@pytest.mark.parametrize("bundle", sorted(BUNDLES))
def test_the_residual_scan_calls_no_einsum(bundle, forbid_package_einsum):
    coeffs = BUNDLES[bundle]()
    forbid_package_einsum()
    scan = residual_order_scan(bundle_runs(coeffs), default_bank(coeffs.dim), coeffs)
    assert all(np.isfinite(row[3]) for row in scan.table)


def test_one_signal_coefficient_evaluation_per_node():
    calls = []
    cs = coefficient_set(1, 1, 1, rough=mean_coupled_sin_family(0.5, 0.4, calls))
    states = np.random.default_rng(4).standard_normal((5, 12, 1))
    weakcheck._node_curves(np.linspace(0.0, 1.0, 5), states, weakcheck.default_bank(1), cs)
    assert calls == [12] * 5


def test_one_jet_per_probe_per_node_block(monkeypatch):
    # 5 nodes of 12 particles in blocks of 2 nodes: rows 24, 24 and 12
    calls = []

    def counted(p, phi):
        def jet(x):
            calls.append((p, x.shape[0]))
            return phi.jet(x)
        return TestFunction(phi.name, jet)

    cs = coefficient_set(1, 1, 1, rough=mean_coupled_sin_family(0.5, 0.4))
    bank = [counted(p, phi) for p, phi in enumerate(default_bank(1))]
    states = np.random.default_rng(4).standard_normal((5, 12, 1))
    monkeypatch.setattr(weakcheck, "_BLOCK_POINTS", 24)
    weakcheck._node_curves(np.linspace(0.0, 1.0, 5), states, bank, cs)
    assert calls == [(p, rows) for rows in (24, 24, 12) for p in range(len(bank))]
