"""End-to-end acceptance gate: one test per shipped guarantee.

Each test prints a single verdict line of the form

    [acceptance NN] <label>: PASS (<metrics>)

outside of pytest's capture, so a full run shows the ten verdicts inline.
Every test enforces both its numerical tolerance and a wall-clock budget.
"""

import os
import time

import numpy as np
from scipy.optimize import linear_sum_assignment

from conftest import fd_lions_gap, linear_signal_family, mean_coupled_sin_family
from roughmkv.backward import duality_drift, lattice_from_flow, solve_backward_fk
from roughmkv.cli import main
from roughmkv.coefficients import (
    coefficient_set,
    constant_rough,
    convolution_family,
    moment_family,
)
from roughmkv.experiments import RunContext, run_scenario
from roughmkv.grids import TimeGrid
from roughmkv.measures import (
    EmpiricalMeasure,
    pairing,
    wasserstein2_1d,
    wasserstein2_bruteforce,
    wasserstein2_exact_small,
)
from roughmkv.roughpath import (
    brownian_lift,
    chen_residual,
    ito_from_stratonovich,
    lift_piecewise_linear,
    restrict,
    stratonovich_from_ito,
    sym_defect,
)
from roughmkv.scenario import parse_scenario_text
from roughmkv.simulate import SimulationConfig, simulate
from roughmkv.weakcheck import default_bank, residual_order_scan


def _verdict(capsys, num: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance {num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def _mix(*parts: int) -> int:
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# 01: randomized second-level algebra


def test_01_randomized_lift_algebra(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260811)
    worst_chen = worst_sym = worst_rt = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 4))
        cells = int(rng.integers(2, 257))
        grid = TimeGrid.uniform(float(rng.uniform(0.5, 2.0)), cells)
        steps = rng.normal(size=(cells, dim)) * np.sqrt(grid.dt)[:, None]
        samples = np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)])
        rp = lift_piecewise_linear(grid, samples, alpha=float(rng.uniform(0.35, 0.5)))
        pts = grid.points
        for _ in range(3):
            i, u, j = np.sort(rng.choice(cells + 1, size=3, replace=False))
            worst_chen = max(
                worst_chen,
                chen_residual(rp, float(pts[i]), float(pts[u]), float(pts[j])),
            )
        worst_sym = max(worst_sym, sym_defect(rp))
        back = stratonovich_from_ito(ito_from_stratonovich(rp))
        worst_rt = max(worst_rt, float(np.max(np.abs(back.cell_areas - rp.cell_areas))))
    elapsed = time.perf_counter() - t0
    ok = worst_chen <= 1e-12 and worst_sym <= 1e-12 and worst_rt <= 1e-13 and elapsed <= 10.0
    detail = (
        f"1000 lifts, chen={worst_chen:.2e}<=1e-12 sym={worst_sym:.2e}<=1e-12 "
        f"roundtrip={worst_rt:.2e}<=1e-13, {elapsed:.1f}s<=10s"
    )
    _verdict(capsys, 1, "randomized lift algebra", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 02: measure derivative vs central finite differences


def _random_moment_family(rng):
    a, b, c = (float(v) for v in rng.uniform(0.3, 1.5, size=3))

    def jet(t, x, m, a=a, b=b, c=c):
        arg = b * x + c * m[0]
        cos = np.cos(arg)
        return (
            (a * np.sin(arg))[:, :, None],
            (a * b * cos)[:, :, None, None],
            (a * c * cos)[:, :, None, None],
        )

    return moment_family(1, 1, jet)


def _random_convolution_family(rng):
    amp = float(rng.uniform(0.3, 1.5))
    w2 = float(rng.uniform(0.6, 1.8)) ** 2

    def kernel(t, x, y, order, amp=amp, w2=w2):
        u = x - y
        e = np.exp(-0.5 * u**2 / w2)
        if not order:
            return ((amp * e)[:, :, :, None],)
        return (
            (amp * e)[:, :, :, None],
            (-amp * u / w2 * e)[:, :, :, None, None],
            (amp * u / w2 * e)[:, :, :, None, None],
        )

    return convolution_family(1, 1, kernel)


def test_02_measure_derivative_fd_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    worst = {"moment": 0.0, "convolution": 0.0}
    for name, build in (
        ("moment", _random_moment_family),
        ("convolution", _random_convolution_family),
    ):
        for _ in range(100):
            N = int(rng.integers(2, 65))
            A = int(rng.integers(1, 5))
            mu = EmpiricalMeasure(rng.normal(size=(N, 1)))
            x = rng.normal(size=(A, 1))
            direction = rng.normal(size=(N, 1))
            worst[name] = max(worst[name], fd_lions_gap(build(rng), x, mu, direction))
    elapsed = time.perf_counter() - t0
    ok = max(worst.values()) <= 1e-4 and elapsed <= 5.0
    detail = (
        f"100 cases each, rel err moment={worst['moment']:.2e} "
        f"convolution={worst['convolution']:.2e} <= 1e-4, {elapsed:.1f}s<=5s"
    )
    _verdict(capsys, 2, "measure derivative fd oracle", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 03: exact geometric solution under refinement


def test_03_geometric_solution_convergence(capsys):
    t0 = time.perf_counter()
    alpha = 0.45
    cell_counts = [16, 32, 64, 128, 256]
    coeffs = coefficient_set(1, 1, 1, rough=linear_signal_family(1.0))
    rel = np.empty((16, len(cell_counts)))
    for s in range(16):
        fine = brownian_lift(
            500 + s, 1, TimeGrid.uniform(1.0, 256), refinement_factor=8, alpha=alpha
        )
        exact = float(np.exp(fine.values[-1, 0]))
        for l, cells in enumerate(cell_counts):
            rp = fine if cells == 256 else restrict(fine, TimeGrid.uniform(1.0, cells))
            config = SimulationConfig(
                particle_count=1, grid=rp.grid, seed=0, dim=1,
                brownian_dim=1, driver_dim=1,
                initial_sampler=lambda rng, n: np.ones((n, 1)),
            )
            _, hist = simulate(config, coeffs, rp)
            rel[s, l] = abs(float(hist[-1, 0, 0]) - exact) / abs(exact)
    rms = np.sqrt(np.mean(rel**2, axis=0))
    deltas = 1.0 / np.array(cell_counts, dtype=np.float64)
    slope = float(np.polyfit(np.log(deltas), np.log(rms), 1)[0])
    target = (3.0 * alpha - 1.0) * 0.8
    elapsed = time.perf_counter() - t0
    monotone = bool(np.all(np.diff(rms) < 0))
    ok = slope >= target and monotone and elapsed <= 30.0
    detail = (
        f"5 levels x 16 drivers, slope={slope:.2f}>={target:.2f} "
        f"monotone={monotone}, rms {rms[0]:.2e}->{rms[-1]:.2e}, {elapsed:.1f}s<=30s"
    )
    _verdict(capsys, 3, "geometric solution convergence", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 04: mean-field drift against the mean ODE


def test_04_mean_field_drift_ode_oracle(capsys):
    t0 = time.perf_counter()
    N = 10_000
    r, kappa, vol = 0.5, 0.25, 0.4
    grid = TimeGrid.uniform(1.0, 256)
    coeffs = coefficient_set(
        1, 1, 1,
        drift=lambda t, x, mu: -r * x + kappa * mu.mean()[None, :],
        diffusion=lambda t, x, mu: vol * np.ones((x.shape[0], 1, 1)),
        drift_measure_free=False,
    )
    config = SimulationConfig(
        particle_count=N, grid=grid, seed=2026, dim=1, brownian_dim=1, driver_dim=1,
        initial_sampler=lambda rng, n: 1.0 + 0.5 * rng.standard_normal((n, 1)),
    )
    rp = brownian_lift(11, 1, grid, refinement_factor=4)  # inert: zero signal coefficient
    _, hist = simulate(config, coeffs, rp)
    got = float(hist[-1, :, 0].mean())
    oracle = float(np.exp(kappa - r))  # mean ODE m' = (kappa - r) m, m(0) = 1
    diff = abs(got - oracle)
    tol = 3.0 / np.sqrt(N)
    elapsed = time.perf_counter() - t0
    ok = diff <= tol and elapsed <= 20.0
    detail = f"N=10^4, |mean-ode|={diff:.2e}<={tol:.2e}, {elapsed:.1f}s<=20s"
    _verdict(capsys, 4, "mean-field drift vs ode oracle", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 05: weak-form residual order on a noise-free nonlinear run


def test_05_weak_residual_order(capsys):
    t0 = time.perf_counter()
    alpha = 0.45
    coeffs = coefficient_set(
        1, 1, 1,
        drift=lambda t, x, mu: 0.3 * np.tanh(x),
        rough=mean_coupled_sin_family(0.5, 0.4),
    )
    runs = []
    for level in range(5):
        grid = TimeGrid.uniform(1.0, 16 * 2**level)
        samples = 0.8 * np.sin(2.0 * np.pi * grid.points)
        rp = lift_piecewise_linear(grid, samples, alpha=alpha)
        config = SimulationConfig(
            particle_count=128, grid=grid, seed=77, dim=1, brownian_dim=1, driver_dim=1
        )
        flow, _ = simulate(config, coeffs, rp)
        runs.append((flow, rp))
    scan = residual_order_scan(runs, default_bank(1), coeffs)
    target = 3.0 * alpha * 0.8
    slopes = scan.slopes
    elapsed = time.perf_counter() - t0
    ok = all(s >= target for s in slopes.values()) and elapsed <= 60.0
    worst_name = min(slopes, key=slopes.get)
    detail = (
        f"5 levels, every probe slope>={target:.2f}, worst "
        f"{worst_name}={slopes[worst_name]:.2f}, {elapsed:.1f}s<=60s"
    )
    _verdict(capsys, 5, "weak residual decay order", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 06: unit mass at every step


def test_06_mass_conservation_exact(capsys):
    t0 = time.perf_counter()
    ones = lambda x: np.ones(x.shape[0])
    setups = []
    grid = TimeGrid.uniform(1.0, 32)
    setups.append((
        coefficient_set(
            1, 1, 1,
            drift=lambda t, x, mu: -0.3 * x,
            diffusion=lambda t, x, mu: 0.5 * np.ones((x.shape[0], 1, 1)),
        ),
        64,
    ))
    setups.append((
        coefficient_set(
            1, 1, 1,
            drift=lambda t, x, mu: -0.2 * x + 0.1 * mu.mean()[None, :],
            diffusion=lambda t, x, mu: 0.4 * np.ones((x.shape[0], 1, 1)),
            rough=mean_coupled_sin_family(0.5, 0.4),
            drift_measure_free=False,
        ),
        100,
    ))
    setups.append((coefficient_set(1, 1, 1, rough=constant_rough([[0.7]])), 333))
    worst_gap = 0.0
    checked = 0
    for i, (coeffs, count) in enumerate(setups):
        rp = brownian_lift(60 + i, 1, grid, refinement_factor=8)
        config = SimulationConfig(
            particle_count=count, grid=grid, seed=5 + i, dim=1,
            brownian_dim=1, driver_dim=1,
        )
        flow, _ = simulate(config, coeffs, rp)
        for k in range(len(grid)):
            mass = pairing(flow.measure(k), ones)
            worst_gap = max(worst_gap, abs(mass - 1.0))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst_gap == 0.0
    detail = f"{checked} steps over 3 runs, max |mass-1|={worst_gap!r} (exact)"
    _verdict(capsys, 6, "unit mass machine exact", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 07: transport distance oracles


def test_07_wasserstein_oracles(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_1d = 0.0
    for _ in range(200):
        N = int(rng.integers(2, 65))
        a = rng.normal(size=(N, 1)) * float(rng.uniform(0.5, 2.0))
        b = rng.normal(size=(N, 1)) + float(rng.uniform(-1.0, 1.0))
        cost = (a[:, None, 0] - b[None, :, 0]) ** 2
        rows, cols = linear_sum_assignment(cost)
        oracle = float(np.sqrt(cost[rows, cols].mean()))
        got = wasserstein2_1d(EmpiricalMeasure(a), EmpiricalMeasure(b))
        worst_1d = max(worst_1d, abs(got - oracle))
    worst_perm = 0.0
    for _ in range(20):
        mu = EmpiricalMeasure(rng.normal(size=(6, 2)))
        nu = EmpiricalMeasure(rng.normal(size=(6, 2)))
        worst_perm = max(
            worst_perm,
            abs(wasserstein2_exact_small(mu, nu) - wasserstein2_bruteforce(mu, nu)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_1d <= 1e-12 and worst_perm <= 1e-12 and elapsed <= 10.0
    detail = (
        f"200 sorted-vs-assignment pairs diff={worst_1d:.2e}<=1e-12, "
        f"20 permutation cases diff={worst_perm:.2e}, {elapsed:.1f}s<=10s"
    )
    _verdict(capsys, 7, "transport distance oracles", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 08: forward-backward pairing drift


def test_08_duality_pairing_drift(capsys):
    t0 = time.perf_counter()
    alpha, cells, N, M = 0.4, 256, 4000, 8192
    grid = TimeGrid.uniform(1.0, cells)
    rp = brownian_lift(31, 1, grid, refinement_factor=8, alpha=alpha)
    unit = (1.0 / cells) ** (3 * alpha - 1) + M**-0.5 + N**-0.5
    times = [0.0, 0.25, 0.5, 0.75, 1.0]

    def drift_of(coeffs, terminal, seed):
        config = SimulationConfig(
            particle_count=N, grid=grid, seed=seed, dim=1, brownian_dim=1, driver_dim=1
        )
        flow, _ = simulate(config, coeffs, rp)
        axes = lattice_from_flow(flow, 33)
        sol = solve_backward_fk(coeffs, rp, terminal, axes, times, M, seed + 1)
        return duality_drift(flow, sol).drift

    identity = lambda x: x.sum(axis=1)
    square = lambda x: np.sum(x**2, axis=1)
    shift = coefficient_set(1, 1, 1, rough=constant_rough([[0.7]]))
    brown = coefficient_set(
        1, 1, 1, diffusion=lambda t, x, mu: 0.3 * np.ones((x.shape[0], 1, 1))
    )
    full = coefficient_set(
        1, 1, 1,
        drift=lambda t, x, mu: -0.4 * x,
        diffusion=lambda t, x, mu: 0.3 * np.ones((x.shape[0], 1, 1)),
        rough=linear_signal_family(0.25),
    )
    drift_shift = drift_of(shift, identity, 101)
    drift_brown = drift_of(brown, square, 202)
    drift_full = drift_of(full, square, 303)

    # constant calibrated on the two control cases, then applied to the
    # composite case: pure shift (closed form) and pure Brownian (half the
    # error sources); factor 3 absorbs their interaction
    big_c = 3.0 * max(drift_shift / unit, drift_brown / unit)
    budget = big_c * unit
    elapsed = time.perf_counter() - t0
    ok = drift_shift <= 1e-10 and drift_full <= budget and elapsed <= 300.0
    detail = (
        f"shift drift={drift_shift:.2e}<=1e-10, full drift={drift_full:.2e}"
        f"<=budget {budget:.2e} (C={big_c:.3f}, unit={unit:.3f}), {elapsed:.0f}s<=300s"
    )
    _verdict(capsys, 8, "duality pairing drift", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 09: empirical law contraction in the particle count


def test_09_chaos_contraction(capsys):
    t0 = time.perf_counter()
    coeffs = coefficient_set(
        1, 1, 1,
        drift=lambda t, x, mu: -0.3 * x,
        diffusion=lambda t, x, mu: 0.5 * np.ones((x.shape[0], 1, 1)),
        rough=mean_coupled_sin_family(0.5, 0.4),
    )
    grid = TimeGrid.uniform(1.0, 64)
    counts = (250, 1000, 4000)
    pairs = 16
    rows = []
    passed = 0
    for tau in range(3):
        rp = brownian_lift(_mix(900 + tau), 1, grid, refinement_factor=16)
        means = []
        for count in counts:
            vals = []
            for pair in range(pairs):
                clouds = []
                for copy in range(2):
                    config = SimulationConfig(
                        particle_count=count, grid=grid,
                        seed=_mix(tau, count, pair, copy),
                        dim=1, brownian_dim=1, driver_dim=1,
                    )
                    _, hist = simulate(config, coeffs, rp)
                    clouds.append(EmpiricalMeasure(hist[-1]))
                vals.append(wasserstein2_1d(clouds[0], clouds[1]))
            means.append(float(np.mean(vals)))
        decreasing = means[0] > means[1] > means[2]
        passed += bool(decreasing)
        rows.append(f"triple{tau}:" + "->".join(f"{m:.4f}" for m in means))
    elapsed = time.perf_counter() - t0
    ok = passed == 3 and elapsed <= 180.0
    detail = f"{passed}/3 seed triples strictly decreasing, {' '.join(rows)}, {elapsed:.0f}s<=180s"
    _verdict(capsys, 9, "chaos contraction over particle counts", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 10: byte-identical replay for every experiment


_REPLAY_SCENARIOS = [
    """
[scenario]
name = replay_lift
experiment = lift_checks
[grid]
cells = 16
[driver]
refinement = 8
""",
    """
[scenario]
name = replay_residual
experiment = residual_scan
[grid]
cells = 8
levels = 3
[driver]
kind = sinusoid
alpha = 0.45
scale = 0.8
[coefficients]
drift = tanh 0.3
rough = moment_sin 0.5 0.4
[particles]
count = 32
""",
    """
[scenario]
name = replay_chaos
experiment = chaos_scan
[grid]
cells = 16
[driver]
refinement = 8
[coefficients]
drift = linear -0.3
sigma = constant 0.5
rough = moment_sin 0.5 0.4
[particles]
count_list = 16 64 256
""",
    """
[scenario]
name = replay_duality
experiment = duality
[grid]
cells = 32
[driver]
refinement = 8
[coefficients]
drift = linear -0.4
sigma = constant 0.3
rough = linear_state 0.25
[particles]
count = 256
[backward]
samples = 1024
x_points = 17
time_points = 3
""",
    """
[scenario]
name = replay_diag
experiment = diagnostics
[grid]
cells = 8
[driver]
refinement = 4
[coefficients]
drift = linear -0.4
sigma = constant 0.3
rough = linear_state 0.5
[particles]
count = 24
""",
]


def _dir_bytes(root):
    return {
        name: (root / name).read_bytes() for name in sorted(os.listdir(root))
    }


def test_10_byte_identical_replay(capsys, tmp_path):
    t0 = time.perf_counter()
    mismatches = []
    codes = []
    for text in _REPLAY_SCENARIOS:
        sc = parse_scenario_text(text)
        snapshots, pair_codes = [], []
        for rep in range(2):
            out = tmp_path / f"{sc.name}-{rep}"
            code = run_scenario(sc, RunContext(out_dir=str(out), timestamp=False))
            pair_codes.append(code)
            snapshots.append(_dir_bytes(out))
        if snapshots[0] != snapshots[1] or pair_codes[0] != pair_codes[1]:
            mismatches.append(sc.name)
        codes.append((sc.name, pair_codes[0]))

    # same thing through the installed entry point
    scen = tmp_path / "cli.ini"
    scen.write_text(_REPLAY_SCENARIOS[-1])
    cli_snaps = []
    for rep in range(2):
        out = tmp_path / f"cli-{rep}"
        main(["--scenario", str(scen), "--out", str(out), "--no-timestamp"])
        cli_snaps.append(_dir_bytes(out))
    if cli_snaps[0] != cli_snaps[1]:
        mismatches.append("cli")

    elapsed = time.perf_counter() - t0
    all_zero = all(code == 0 for _, code in codes)
    ok = not mismatches and all_zero
    detail = (
        f"5 experiments + cli replayed, mismatches={mismatches or 'none'}, "
        f"exit codes={codes}, {elapsed:.0f}s"
    )
    _verdict(capsys, 10, "byte-identical replay", ok, detail)
    assert ok, detail
