"""Empirical measures, transport distances, and flow diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_refused_naming, drop_magic_token, edit_cell, edit_magic

from roughmkv import measures
from roughmkv.grids import TimeGrid
from roughmkv.measures import (
    EmpiricalMeasure,
    MeasureFlow,
    flow_holder_diagnostic,
    flow_w2_holder,
    lipschitz_bank,
    load_flow_csv,
    pairing,
    save_flow_csv,
    symmetric_mean,
    wasserstein2_1d,
    wasserstein2_bruteforce,
    wasserstein2_exact_small,
)


def cloud(seed: int, n: int, d: int = 1) -> EmpiricalMeasure:
    return EmpiricalMeasure(np.random.default_rng(seed).standard_normal((n, d)))


# ---------------------------------------------------------------------------
# order-insensitive reductions


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 40))
def test_symmetric_mean_is_permutation_exact(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-3, 4)
    perm = rng.permutation(n)
    assert np.array_equal(symmetric_mean(a), symmetric_mean(a[perm]))


def test_cloud_mean_is_computed_once_and_read_only():
    mu = cloud(6, 33, 2)
    m = mu.mean()
    assert mu.mean() is m
    assert np.array_equal(m, symmetric_mean(mu.points, axis=0))
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[0] = 1.0


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 64))
def test_pairing_mass_and_permutation(seed, n):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 2))
    mu = EmpiricalMeasure(pts)
    nu = EmpiricalMeasure(pts[rng.permutation(n)])
    assert pairing(mu, lambda x: np.ones(x.shape[0])) == 1.0
    phi = lambda x: np.sin(x[:, 0]) + x[:, 1] ** 2
    assert pairing(mu, phi) == pairing(nu, phi)


def test_pairing_linear_in_test_function():
    mu = cloud(0, 17, 2)
    f = lambda x: x[:, 0] ** 2
    g = lambda x: np.cos(x[:, 1])
    combo = pairing(mu, lambda x: 2.0 * f(x) - 0.5 * g(x))
    assert np.isclose(combo, 2.0 * pairing(mu, f) - 0.5 * pairing(mu, g), rtol=1e-13)


def test_pairing_rejects_wrong_shape():
    with pytest.raises(ValueError):
        pairing(cloud(0, 5), lambda x: np.ones((x.shape[0], 1)))


# ---------------------------------------------------------------------------
# transport distances


def test_sorted_quantile_equals_assignment_on_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 65))
        mu = EmpiricalMeasure(rng.standard_normal((n, 1)))
        nu = EmpiricalMeasure(rng.standard_normal((n, 1)) + rng.uniform(-1, 1))
        assert abs(wasserstein2_1d(mu, nu) - wasserstein2_exact_small(mu, nu)) <= 1e-12


def test_assignment_matches_bruteforce_in_two_dims():
    rng = np.random.default_rng(3)
    for _ in range(10):
        mu = EmpiricalMeasure(rng.standard_normal((6, 2)))
        nu = EmpiricalMeasure(rng.standard_normal((6, 2)))
        assert abs(wasserstein2_exact_small(mu, nu) - wasserstein2_bruteforce(mu, nu)) <= 1e-12


def test_shift_distance_closed_form():
    mu = cloud(1, 33)
    nu = EmpiricalMeasure(mu.points + 0.75)
    assert np.isclose(wasserstein2_1d(mu, nu), 0.75, rtol=1e-12)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 32))
def test_metric_axioms_on_the_line(seed, n):
    rng = np.random.default_rng(seed)
    mu = EmpiricalMeasure(rng.standard_normal((n, 1)))
    nu = EmpiricalMeasure(rng.standard_normal((n, 1)))
    rho = EmpiricalMeasure(rng.standard_normal((n, 1)))
    assert wasserstein2_1d(mu, mu) == 0.0
    assert wasserstein2_1d(mu, nu) == wasserstein2_1d(nu, mu)
    assert (
        wasserstein2_1d(mu, rho)
        <= wasserstein2_1d(mu, nu) + wasserstein2_1d(nu, rho) + 1e-12
    )


def test_distance_guards():
    with pytest.raises(ValueError):
        wasserstein2_1d(cloud(0, 4, 2), cloud(1, 4, 2))
    with pytest.raises(ValueError):
        wasserstein2_bruteforce(cloud(0, 9), cloud(1, 9))


def test_unequal_sizes_match_replication_to_common_denominator():
    # duplicating every atom k times leaves an empirical measure unchanged,
    # so the mixed-size value must agree with the equal-size one on the
    # blown-up clouds (least common multiple of the two sizes)
    rng = np.random.default_rng(77)
    for n, m in [(4, 6), (3, 5), (250, 1000), (7, 7)]:
        a = rng.normal(size=(n, 1))
        b = rng.normal(size=(m, 1)) + 0.3
        lcm = np.lcm(n, m)
        big_a = EmpiricalMeasure(np.repeat(a, lcm // n, axis=0))
        big_b = EmpiricalMeasure(np.repeat(b, lcm // m, axis=0))
        got = wasserstein2_1d(EmpiricalMeasure(a), EmpiricalMeasure(b))
        want = wasserstein2_1d(big_a, big_b)
        assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# probe bank


def test_bank_members_respect_lipschitz_budget():
    bank = lipschitz_bank(2)
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((2, 400, 2)) * 3.0
    gaps = np.linalg.norm(x - y, axis=1)
    for p, probe in enumerate(bank):
        assert np.all(np.abs(probe(x) - probe(y)) <= gaps * (1 + 1e-9)), p


def test_bank_is_deterministic():
    x = np.random.default_rng(1).standard_normal((50, 2)) * 3.0
    a = lipschitz_bank(2)
    b = lipschitz_bank(2)
    assert len(a) == len(b) == 14
    for pa, pb in zip(a, b):
        assert np.array_equal(pa(x), pb(x))


# ---------------------------------------------------------------------------
# flow container and diagnostics


def little_flow(seed: int = 0, cells: int = 8, n: int = 30) -> MeasureFlow:
    rng = np.random.default_rng(seed)
    grid = TimeGrid.uniform(1.0, cells)
    start = rng.standard_normal((n, 1))
    steps = rng.standard_normal((cells, n, 1)) * np.sqrt(grid.dt)[:, None, None]
    states = np.concatenate([start[None], start[None] + np.cumsum(steps, axis=0)])
    return MeasureFlow(grid=grid, states=states, driver_checksum="test")


def test_flow_indexing_consistency():
    flow = little_flow()
    assert np.array_equal(flow.measure(3).points, flow.states[3])
    assert flow.num_particles == 30
    assert flow.dim == 1


def test_flow_copies_a_writable_array():
    states = little_flow().states.copy()
    flow = MeasureFlow(grid=TimeGrid.uniform(1.0, 8), states=states)
    assert flow.states is not states and not flow.states.flags.writeable
    states[0, 0, 0] += 1.0
    assert flow.states[0, 0, 0] != states[0, 0, 0]


def test_flow_copies_a_read_only_view():
    base = little_flow().states.copy()
    view = base.view()
    view.setflags(write=False)
    flow = MeasureFlow(grid=TimeGrid.uniform(1.0, 8), states=view)
    kept = flow.states.copy()
    base += 1.0
    assert np.array_equal(flow.states, kept)


def test_flow_keeps_a_read_only_array_that_owns_its_memory():
    states = little_flow().states.copy()
    states.setflags(write=False)
    flow = MeasureFlow(grid=TimeGrid.uniform(1.0, 8), states=states)
    assert flow.states is states


def test_cloud_keeps_a_read_only_array_that_owns_its_memory():
    pts = np.random.default_rng(3).standard_normal((40, 2))
    pts.setflags(write=False)
    mu = EmpiricalMeasure(pts)
    assert mu.points is pts and np.shares_memory(mu.points, pts)


def test_cloud_copies_a_writable_array_and_a_view():
    base = np.random.default_rng(4).standard_normal((40, 2))
    view = base.view()
    view.setflags(write=False)
    row = np.arange(3.0)
    row.setflags(write=False)
    for given, writer in (
        (base, base),
        (view, base),
        (np.broadcast_to(row, (5, 3)), row),
    ):
        mu = EmpiricalMeasure(given)
        assert not np.shares_memory(mu.points, given)
        assert not mu.points.flags.writeable
        kept = mu.points.copy()
        writer.setflags(write=True)
        writer += 1.0
        assert np.array_equal(mu.points, kept)


def test_cloud_refuses_non_finite_points_it_would_keep():
    pts = np.array([[0.0], [np.nan]])
    pts.setflags(write=False)
    with pytest.raises(ValueError, match="finite"):
        EmpiricalMeasure(pts)


def test_flow_regularity_quotients_are_finite_and_scale():
    flow = little_flow()
    q = flow_w2_holder(flow, 0.45)
    assert np.isfinite(q) and q > 0
    shifted = MeasureFlow(
        grid=flow.grid, states=2.0 * flow.states, driver_checksum="test"
    )
    assert np.isclose(flow_w2_holder(shifted, 0.45), 2.0 * q, rtol=1e-10)
    lower = flow_holder_diagnostic(flow, 0.45)
    assert np.isfinite(lower) and lower <= q * (1 + 1e-9)


def ref_flow_holder_diagnostic(flow, alpha):
    """The hand-written span loop ``span_sup`` replaced; a reference."""
    bank = lipschitz_bank(flow.dim)
    pts = flow.grid.points
    K1 = pts.size
    vals = np.empty((len(bank), K1))
    for b, phi in enumerate(bank):
        for k in range(K1):
            vals[b, k] = pairing(flow.measure(k), phi)
    worst = 0.0
    for i in range(K1 - 1):
        gap = (pts[i + 1 :] - pts[i]) ** alpha
        diffs = np.abs(vals[:, i + 1 :] - vals[:, i : i + 1])
        worst = max(worst, float(np.max(diffs / gap[None, :])))
    return worst


def ref_flow_w2_holder(flow, alpha):
    """The hand-written span loop ``span_sup`` replaced; a reference."""
    pts = flow.grid.points
    sorted_states = np.sort(flow.states[:, :, 0], axis=1)
    worst = 0.0
    for i in range(pts.size - 1):
        gap = (pts[i + 1 :] - pts[i]) ** alpha
        d = np.sqrt(np.mean((sorted_states[i + 1 :] - sorted_states[i]) ** 2, axis=1))
        worst = max(worst, float(np.max(d / gap)))
    return worst


SPAN_GRIDS = {
    "uniform": TimeGrid.uniform(1.0, 9),
    "nonuniform": TimeGrid(np.concatenate([[0.0], np.cumsum([0.3, 0.01, 0.2, 0.07, 0.4, 0.05])])),
    "one_cell": TimeGrid.uniform(0.7, 1),
}


@pytest.mark.parametrize("grid", sorted(SPAN_GRIDS))
@pytest.mark.parametrize("d", [1, 2])
def test_flow_quotients_equal_span_loop_reference(grid, d):
    grid = SPAN_GRIDS[grid]
    rng = np.random.default_rng(31 + d)
    states = np.cumsum(rng.standard_normal((len(grid), 13, d)), axis=0)
    flow = MeasureFlow(grid=grid, states=states, driver_checksum="test")
    assert flow_holder_diagnostic(flow, 0.45) == ref_flow_holder_diagnostic(flow, 0.45)
    if d == 1:
        assert flow_w2_holder(flow, 0.45) == ref_flow_w2_holder(flow, 0.45)


@pytest.mark.parametrize("d", [1, 2])
def test_dual_lipschitz_pairings_call_each_probe_once(monkeypatch, d):
    # the probes see every node's cloud in one call, and the per-node means
    # of that call are the pairings of the node-by-node loop, bit for bit
    grid = TimeGrid.uniform(1.0, 20)
    states = np.cumsum(np.random.default_rng(7 + d).standard_normal((len(grid), 17, d)), axis=0)
    flow = MeasureFlow(grid=grid, states=states, driver_checksum="test")
    bank = measures.lipschitz_bank(d)
    calls, means = [], []

    def counted(phi):
        def probe(x):
            calls.append(x.shape[0])
            return phi(x)
        return probe

    def recorded(a, axis=0):
        means.append(symmetric_mean(a, axis=axis))
        return means[-1]

    monkeypatch.setattr(measures, "lipschitz_bank",
                        lambda dim: [counted(phi) for phi in bank])
    monkeypatch.setattr(measures, "symmetric_mean", recorded)
    measures.flow_holder_diagnostic(flow, 0.45)
    assert calls == [len(grid) * 17] * len(bank)
    per_node = np.array([[symmetric_mean(phi(cloud)) for cloud in flow.states] for phi in bank])
    assert np.array_equal(np.array(means), per_node)


def test_w2_quotient_of_a_flow_with_a_nan_state_is_nan(tmp_path):
    # a flow refuses a NaN state, so the non-finite quotient left is an
    # overflow: a finite 1e200 state read back from a flow file makes every
    # span from its node inf, and the sup must not fall back to the spans
    # that avoid it
    flow = little_flow()
    states = flow.states.copy()
    states[0, 0, 0] = 1e200
    path = str(tmp_path / "flow.csv")
    save_flow_csv(MeasureFlow(grid=flow.grid, states=states, driver_checksum="test"), path)
    assert np.isfinite(flow_w2_holder(flow, 0.45))
    with np.errstate(over="ignore"):
        assert flow_w2_holder(load_flow_csv(path), 0.45) == np.inf


def test_dual_lipschitz_quotient_stable_under_refinement():
    # same trajectories sampled twice as finely: the probe quotient moves
    # but stays within a factor comparable to the added resolution
    coarse = little_flow(seed=4, cells=8)
    fine_states = np.repeat(coarse.states, 2, axis=0)[:-1]
    fine = MeasureFlow(
        grid=TimeGrid.uniform(1.0, 16), states=fine_states, driver_checksum="test"
    )
    qc = flow_holder_diagnostic(coarse, 0.45)
    qf = flow_holder_diagnostic(fine, 0.45)
    assert qf >= qc * (1 - 1e-12)  # refinement only adds candidate spans
    assert qf <= 2.0 * qc + 1e-9   # held states: worst new span is a half cell


def test_flow_csv_round_trip(tmp_path):
    flow = little_flow(seed=9, cells=5, n=7)
    path = str(tmp_path / "flow.csv")
    save_flow_csv(flow, path)
    back = load_flow_csv(path)
    assert np.array_equal(back.states, flow.states)
    assert np.array_equal(back.grid.points, flow.grid.points)
    assert back.driver_checksum == "test"


def test_flow_csv_without_driver_token_loads(tmp_path):
    flow = little_flow(seed=4, cells=3, n=5)
    bare = MeasureFlow(grid=flow.grid, states=flow.states)
    path = str(tmp_path / "flow.csv")
    save_flow_csv(bare, path, stamp="then")
    with open(path, encoding="utf-8") as fh:
        assert "driver=" not in fh.readline()
    back = load_flow_csv(path)
    assert back.driver_checksum is None
    assert np.array_equal(back.states, flow.states)


def test_flow_csv_rejects_foreign_magic_and_wrong_width(tmp_path):
    path = tmp_path / "signal.csv"
    path.write_text("# roughmkv-signal v1 dim=1 alpha=0.4\nt,W_1,WW_11\n0.0,0.0,0.0\n")
    with pytest.raises(ValueError, match="magic"):
        load_flow_csv(str(path))
    path = tmp_path / "flow.csv"
    save_flow_csv(little_flow(seed=2, cells=2, n=3), str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0].replace("dim=1", "dim=2")] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match="expected 4 columns, got 3"):
        load_flow_csv(str(path))


@pytest.mark.parametrize("kept_rows", [15, 17], ids=["node_boundary", "mid_node"])
def test_flow_csv_refuses_a_cut_file(tmp_path, kept_rows):
    path = tmp_path / "flow.csv"
    save_flow_csv(little_flow(seed=3, cells=4, n=5), str(path), stamp="then")
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[: 3 + kept_rows]))
    with pytest.raises(ValueError, match=f"expected 25 rows .*, got {kept_rows}"):
        load_flow_csv(str(path))


def test_flow_csv_refuses_a_cell_edited_to_nan(tmp_path):
    # the package never saves a non-finite flow, so a nan cell is damage
    path = tmp_path / "flow.csv"
    save_flow_csv(little_flow(seed=3, cells=4, n=5), str(path), stamp="then")
    lines = path.read_text().splitlines(keepends=True)
    row = lines[3 + 7].split(",")
    lines[3 + 7] = ",".join(row[:-1] + ["nan\n"])
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="finite"):
        load_flow_csv(str(path))


@pytest.mark.filterwarnings("error::UserWarning")
def test_flow_csv_cut_after_its_header_is_refused_by_row_count(tmp_path):
    path = tmp_path / "flow.csv"
    save_flow_csv(little_flow(seed=3, cells=4, n=3), str(path), stamp="then")
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:3]))
    with pytest.raises(ValueError, match=r"expected 15 rows \(5 nodes x 3 particles\), got 0"):
        load_flow_csv(str(path))


def test_flow_csv_magic_token_without_equals_is_named(tmp_path):
    path = tmp_path / "flow.csv"
    path.write_text("# roughmkv-flow v1 dim=1 particles=1 nodes=2 junk\nt,particle,x_1\n")
    with pytest.raises(ValueError, match=r"flow\.csv: magic line token 'junk' is not key=value"):
        load_flow_csv(str(path))


@pytest.mark.parametrize("key", ["dim", "particles"])  # nodes: the test below
def test_flow_csv_without_a_required_token_is_refused(tmp_path, key):
    path = tmp_path / "flow.csv"
    save_flow_csv(little_flow(seed=4, cells=3, n=5), str(path))
    drop_magic_token(path, key)
    with pytest.raises(ValueError, match=rf"flow\.csv: magic line has no {key}= token"):
        load_flow_csv(str(path))


def test_flow_csv_without_node_count_is_refused(tmp_path):
    path = tmp_path / "flow.csv"
    path.write_text("# roughmkv-flow v1 dim=1 particles=1\nt,particle,x_1\n0.0,0,1.0\n")
    with pytest.raises(ValueError, match="nodes="):
        load_flow_csv(str(path))


# little_flow(seed=3, cells=4, n=5): node k holds rows 5k..5k+4, t = k / 4
FLOW_EDITS = {
    "nan_state": (lambda p: edit_cell(p, 7, 2, "nan"), "finite"),
    "inf_state": (lambda p: edit_cell(p, 7, 2, "inf"), "finite"),
    "t_not_increasing": (lambda p: edit_cell(p, 10, 0, "0.0"), "strictly increasing"),
    "non_numeric": (lambda p: edit_cell(p, 3, 2, "abc"), "abc"),
    "dim_not_an_integer": (lambda p: edit_magic(p, "dim=1", "dim=x"), "invalid literal"),
    "t_inside_a_node_block": (lambda p: edit_cell(p, 12, 0, "0.25"), "repeat its t"),
    "particle_inside_a_node_block": (lambda p: edit_cell(p, 12, 1, "1"), "count particle 0..4"),
}


@pytest.mark.parametrize("case", sorted(FLOW_EDITS))
def test_flow_csv_refuses_an_edit_naming_the_file(tmp_path, case):
    edit, match = FLOW_EDITS[case]
    path = tmp_path / "flow.csv"
    save_flow_csv(little_flow(seed=3, cells=4, n=5), str(path))
    load_flow_csv(str(path))
    edit(path)
    assert_refused_naming(load_flow_csv, path, match)


def ref_save_flow_csv(flow, path, stamp=None):
    """The per-row writer the bulk writer replaced; kept as a byte reference."""
    d = flow.dim
    driver = "" if flow.driver_checksum is None else f" driver={flow.driver_checksum}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# roughmkv-flow v1 dim={d} particles={flow.num_particles} "
            f"nodes={len(flow.grid)}{driver}\n"
        )
        if stamp is not None:
            fh.write(f"# generated {stamp}\n")
        fh.write(",".join(["t", "particle"] + [f"x_{a + 1}" for a in range(d)]) + "\n")
        for k, t in enumerate(flow.grid.points):
            for i in range(flow.num_particles):
                row = [repr(float(t)), str(i)] + [
                    repr(float(v)) for v in flow.states[k, i]
                ]
                fh.write(",".join(row) + "\n")


def awkward_flow(d: int, n: int, driver: str | None) -> MeasureFlow:
    """A flow whose states include -0.0, subnormals, huge and inexact values."""
    rng = np.random.default_rng(17 + d + n)
    grid = TimeGrid(np.array([0.0, 0.1, 0.1 + 0.2, 1.0 / 3.0, 1.0]))
    states = rng.standard_normal((grid.num_cells + 1, n, d))
    special = np.array([-0.0, 5e-324, -2.2250738585072014e-309, 1e300, 0.1 + 0.2, 1.0])
    flat = states.reshape(-1)
    flat[: min(special.size, flat.size)] = special[: flat.size]
    return MeasureFlow(grid=grid, states=states, driver_checksum=driver)


@pytest.mark.parametrize("d,n", [(1, 1), (1, 9), (2, 1), (2, 7)])
@pytest.mark.parametrize("driver", [None, "0123abcd"])
@pytest.mark.parametrize("stamp", [None, "2026-01-01T00:00:00+00:00"])
def test_flow_csv_bytes_equal_per_row_reference(tmp_path, d, n, driver, stamp):
    flow = awkward_flow(d, n, driver)
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    save_flow_csv(flow, str(new), stamp=stamp)
    ref_save_flow_csv(flow, str(ref), stamp=stamp)
    assert new.read_text(encoding="utf-8") == ref.read_text(encoding="utf-8")
    back = load_flow_csv(str(new))
    assert np.array_equal(back.states, flow.states)
    assert np.array_equal(np.signbit(back.states), np.signbit(flow.states))
