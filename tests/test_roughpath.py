"""Level-2 signal construction: additivity, geometricity, conversions, io."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmkv.grids import TimeGrid
from roughmkv.roughpath import (
    GridRoughPath,
    brownian_lift,
    chen_extend,
    chen_residual,
    holder_norms,
    ito_from_stratonovich,
    lift_piecewise_linear,
    load_roughpath_csv,
    restrict,
    roughpath_checksum,
    save_roughpath_csv,
    stratonovich_from_ito,
    sym_defect,
)


def random_walk_path(seed: int, cells: int, dim: int, alpha: float = 0.45):
    rng = np.random.default_rng(seed)
    grid = TimeGrid.uniform(1.0, cells)
    vals = np.vstack([np.zeros((1, dim)), np.cumsum(rng.standard_normal((cells, dim)), axis=0)])
    return lift_piecewise_linear(grid, vals * np.sqrt(grid.dt[0]), alpha)


# ---------------------------------------------------------------------------
# oracle: smooth two-dimensional path with closed-form iterated integrals


def test_parabola_cross_integrals_match_calculus():
    # W(t) = (t, t^2) on [0,1]: int W^1 dW^2 = 2/3, int W^2 dW^1 = 1/3,
    # diagonal entries are half squared increments.
    K = 4096
    grid = TimeGrid.uniform(1.0, K)
    t = grid.points
    rp = lift_piecewise_linear(grid, np.column_stack([t, t**2]))
    full = rp.second(0.0, 1.0)
    expected = np.array([[0.5, 2.0 / 3.0], [1.0 / 3.0, 0.5]])
    assert np.max(np.abs(full - expected)) < 1e-6

    # independent oracle: midpoint quadrature of the sampled interpolant
    mid_w1 = 0.5 * (t[:-1] + t[1:])
    mid_w2 = 0.5 * (t[:-1] ** 2 + t[1:] ** 2)
    dw1, dw2 = np.diff(t), np.diff(t**2)
    quad = np.array(
        [
            [np.sum(mid_w1 * dw1), np.sum(mid_w1 * dw2)],
            [np.sum(mid_w2 * dw1), np.sum(mid_w2 * dw2)],
        ]
    )
    assert np.max(np.abs(full - quad)) < 1e-10


# ---------------------------------------------------------------------------
# additivity


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31 - 1), cells=st.integers(2, 24), dim=st.integers(1, 3))
def test_chen_residual_vanishes_for_any_cell_tensors(seed, cells, dim):
    # additivity holds by construction for arbitrary per-cell tensors
    rng = np.random.default_rng(seed)
    grid = TimeGrid.uniform(1.0, cells)
    vals = np.vstack([np.zeros((1, dim)), np.cumsum(rng.standard_normal((cells, dim)), axis=0)])
    areas = rng.standard_normal((cells, dim, dim))
    rp = GridRoughPath(grid, vals, areas, 0.4)
    pts = grid.points
    idx = rng.integers(0, cells + 1, size=(16, 3))
    for raw in idx:
        i, u, j = np.sort(raw)
        assert chen_residual(rp, float(pts[i]), float(pts[u]), float(pts[j])) <= 1e-12


def test_second_level_matches_fold_oracle():
    rp = random_walk_path(3, 20, 2)
    pts = rp.grid.points

    def balanced(i, j):
        if j - i == 1:
            return rp.cell_areas[i]
        mid = (i + j) // 2
        wl = rp.values[mid] - rp.values[i]
        wr = rp.values[j] - rp.values[mid]
        return balanced(i, mid) + balanced(mid, j) + np.outer(wl, wr)

    for i, j in [(0, 20), (3, 17), (5, 6), (0, 7)]:
        left_fold = chen_extend(rp, float(pts[i]), float(pts[j]))
        assert np.max(np.abs(rp.second(float(pts[i]), float(pts[j])) - left_fold)) <= 1e-12
        assert np.max(np.abs(balanced(i, j) - left_fold)) <= 1e-12


SPAN_GRIDS = {
    "uniform": TimeGrid.uniform(1.0, 16),
    "nonuniform": TimeGrid(np.array([0.0, 0.1, 0.1 + 0.2, 1.0 / 3.0, 0.7, 0.71, 1.3])),
    "one_cell": TimeGrid.uniform(0.5, 1),
}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("grid", SPAN_GRIDS.values(), ids=SPAN_GRIDS.keys())
def test_span_is_the_one_reconstruction(grid, dim):
    rp = brownian_lift(11 + dim, dim, grid, 4, convention="ito")
    pts = rp.grid.points
    I, J = np.triu_indices(pts.size)          # every span i <= j
    dw_all, ww_all = rp.span(I, J)
    for n, (i, j) in enumerate(zip(I.tolist(), J.tolist())):
        s, t = float(pts[i]), float(pts[j])
        dw, ww = rp.span(i, j)
        assert np.array_equal(dw, rp.increment(s, t))
        assert np.array_equal(ww, rp.second(s, t))
        assert np.array_equal(dw_all[n], dw) and np.array_equal(ww_all[n], ww)
        assert np.max(np.abs(ww - chen_extend(rp, s, t)), initial=0.0) <= 1e-12
    # a scalar start broadcasts against an array of ends
    dw_row, ww_row = rp.span(0, np.arange(pts.size))
    assert np.array_equal(dw_row, dw_all[: pts.size])
    assert np.array_equal(ww_row, ww_all[: pts.size])


# ---------------------------------------------------------------------------
# geometricity


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**31 - 1), cells=st.integers(1, 30), dim=st.integers(1, 3))
def test_piecewise_linear_lift_is_weakly_geometric(seed, cells, dim):
    rp = random_walk_path(seed, cells, dim)
    assert sym_defect(rp).max_defect <= 1e-12


def test_sym_defect_matches_bruteforce_spread():
    rp = ito_from_stratonovich(random_walk_path(11, 9, 2))
    pts = rp.grid.points
    worst = 0.0
    for i in range(10):
        for j in range(i + 1, 10):
            s, t = float(pts[i]), float(pts[j])
            dv = rp.increment(s, t)
            gap = 0.5 * (rp.second(s, t) + rp.second(s, t).T) - 0.5 * np.outer(dv, dv)
            worst = max(worst, float(np.max(np.abs(gap))))
    report = sym_defect(rp)
    assert abs(report.max_defect - worst) <= 1e-12
    assert worst > 0.1  # the shifted lift is genuinely non geometric here


def test_sym_defect_ignores_antisymmetric_perturbations():
    rp = random_walk_path(5, 12, 2)
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((12, 2, 2))
    anti = 0.5 * (raw - np.swapaxes(raw, 1, 2))
    bumped = GridRoughPath(rp.grid, rp.values, rp.cell_areas + anti, rp.alpha)
    assert sym_defect(bumped).max_defect <= sym_defect(rp).max_defect + 1e-12


# ---------------------------------------------------------------------------
# conventions


def test_convention_shift_is_half_dt_identity():
    grid = TimeGrid.uniform(1.0, 4)
    rp = random_walk_path(7, 4, 2)
    ito = ito_from_stratonovich(rp)
    for k in range(4):
        diff = rp.cell_areas[k] - ito.cell_areas[k]
        assert np.allclose(diff, 0.5 * grid.dt[k] * np.eye(2), atol=1e-15)


def test_convention_round_trip_tight():
    rp = brownian_lift(99, 3, TimeGrid.uniform(1.0, 32), refinement_factor=8)
    back = stratonovich_from_ito(ito_from_stratonovich(rp))
    assert np.max(np.abs(back.cell_areas - rp.cell_areas)) <= 1e-13
    assert np.array_equal(back.values, rp.values)


def test_brownian_ito_lift_mean_area_and_conversion():
    # one cell of width 1: the geometric tensor has symmetric part with
    # expectation 0.5 on the diagonal, the ito tensor expectation 0.
    grid = TimeGrid.uniform(1.0, 1)
    seeds = range(4096)
    acc = np.zeros((2, 2))
    for s in seeds:
        acc += brownian_lift(s, 2, grid, refinement_factor=16).cell_areas[0]
    mean = acc / len(seeds)
    # E area = 0.5 h Id; sample SE of each entry is about 0.5 / sqrt(n)
    se = 0.5 / np.sqrt(len(seeds))
    assert np.max(np.abs(mean - 0.5 * np.eye(2))) < 4 * se


# ---------------------------------------------------------------------------
# scaling and norms


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**31 - 1), lam=st.floats(0.1, 4.0))
def test_dilation_scales_levels_homogeneously(seed, lam):
    rng = np.random.default_rng(seed)
    grid = TimeGrid.uniform(1.0, 10)
    vals = np.vstack([np.zeros((1, 2)), np.cumsum(rng.standard_normal((10, 2)), axis=0)])
    rp = lift_piecewise_linear(grid, vals)
    scaled = lift_piecewise_linear(grid, lam * vals)
    assert np.allclose(scaled.cell_areas, lam**2 * rp.cell_areas, rtol=1e-12, atol=1e-12)
    n1, n2 = holder_norms(rp)
    s1, s2 = holder_norms(scaled)
    assert np.isclose(s1, lam * n1, rtol=1e-9)
    assert np.isclose(s2, lam**2 * n2, rtol=1e-9)


def ref_holder_norms(rp):
    """The hand-written span loop ``span_sup`` replaced; a reference."""
    pts = rp.grid.points
    w0 = rp.values - rp.values[0]
    q1 = 0.0
    q2 = 0.0
    for i in range(pts.size - 1):
        gap = (pts[i + 1 :] - pts[i]) ** rp.alpha
        dv = rp.values[i + 1 :] - rp.values[i]
        q1 = max(q1, float(np.max(np.linalg.norm(dv, axis=1) / gap)))
        ww = rp._prefix[i + 1 :] - rp._prefix[i] - np.einsum("a,jb->jab", w0[i], dv)
        q2 = max(q2, float(np.max(np.linalg.norm(ww, axis=(1, 2)) / gap**2)))
    return q1, q2


@pytest.mark.parametrize(
    "points",
    [
        np.linspace(0.0, 1.0, 17),
        np.concatenate([[0.0], np.cumsum([0.3, 0.01, 0.2, 0.07, 0.4, 0.05])]),
        np.array([0.0, 0.7]),
    ],
    ids=["uniform", "nonuniform", "one_cell"],
)
@pytest.mark.parametrize("dim", [1, 2])
def test_holder_norms_equal_span_loop_reference(points, dim):
    grid = TimeGrid(points)
    rng = np.random.default_rng(dim)
    vals = np.cumsum(rng.standard_normal((len(grid), dim)), axis=0)
    # generic (non-geometric) cell tensors make every second-level entry count
    areas = rng.standard_normal((grid.num_cells, dim, dim))
    rp = GridRoughPath(grid, vals, areas, alpha=0.42)
    assert holder_norms(rp) == ref_holder_norms(rp)


def test_holder_norms_of_straight_line():
    grid = TimeGrid.uniform(2.0, 16)
    c, alpha = 0.7, 0.45
    rp = lift_piecewise_linear(grid, c * grid.points, alpha=alpha)
    n1, n2 = holder_norms(rp)
    assert np.isclose(n1, c * 2.0 ** (1 - alpha), rtol=1e-12)
    assert np.isclose(n2, 0.5 * c**2 * 2.0 ** (2 - 2 * alpha), rtol=1e-12)


# ---------------------------------------------------------------------------
# restriction


def test_restrict_preserves_accumulated_tensors():
    fine_grid = TimeGrid.uniform(1.0, 32)
    rp = brownian_lift(21, 2, fine_grid, refinement_factor=4)
    coarse = fine_grid.coarsen(4)
    sub = restrict(rp, coarse)
    assert np.array_equal(sub.values, rp.values[::4])
    for k in range(coarse.num_cells):
        s, t = float(coarse.points[k]), float(coarse.points[k + 1])
        assert np.array_equal(sub.cell_areas[k], rp.second(s, t))
    assert sym_defect(sub).max_defect <= 1e-12


def test_restrict_rejects_off_grid_nodes():
    rp = brownian_lift(1, 1, TimeGrid.uniform(1.0, 8), refinement_factor=2)
    with pytest.raises(ValueError):
        restrict(rp, TimeGrid.uniform(1.0, 3))


# ---------------------------------------------------------------------------
# validation and serialisation


def test_constructor_validation():
    grid = TimeGrid.uniform(1.0, 2)
    vals = np.zeros((3, 1))
    areas = np.zeros((2, 1, 1))
    with pytest.raises(ValueError):
        GridRoughPath(grid, vals, areas, 0.25)  # exponent out of range
    with pytest.raises(ValueError):
        GridRoughPath(grid, np.zeros((2, 1)), areas, 0.4)
    bad = vals.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError):
        GridRoughPath(grid, bad, areas, 0.4)


def test_csv_round_trip_bitwise(tmp_path):
    rp = brownian_lift(13, 2, TimeGrid.uniform(1.5, 12), refinement_factor=4, alpha=0.42)
    path = str(tmp_path / "signal.csv")
    save_roughpath_csv(rp, path)
    back = load_roughpath_csv(path)
    assert np.array_equal(back.values, rp.values)
    assert np.array_equal(back.cell_areas, rp.cell_areas)
    assert np.array_equal(back.grid.points, rp.grid.points)
    assert back.alpha == rp.alpha
    assert roughpath_checksum(back) == roughpath_checksum(rp)


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# some other format\n1,2,3\n")
    with pytest.raises(ValueError):
        load_roughpath_csv(str(path))
    flow = tmp_path / "flow.csv"
    flow.write_text("# roughmkv-flow v1 dim=1 particles=1\nt,particle,x_1\n0.0,0,1.0\n")
    with pytest.raises(ValueError, match="magic"):
        load_roughpath_csv(str(flow))


def test_csv_refuses_a_cut_file(tmp_path):
    path = tmp_path / "signal.csv"
    save_roughpath_csv(random_walk_path(4, 12, 2), str(path), stamp="then")
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[: 3 + 10]))
    with pytest.raises(ValueError, match="expected 13 rows .*, got 10"):
        load_roughpath_csv(str(path))


@pytest.mark.filterwarnings("error::UserWarning")
def test_csv_cut_after_its_header_is_refused_by_row_count(tmp_path):
    path = tmp_path / "signal.csv"
    save_roughpath_csv(random_walk_path(4, 4, 2), str(path), stamp="then")
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:3]))
    with pytest.raises(ValueError, match=r"expected 5 rows \(one per node\), got 0"):
        load_roughpath_csv(str(path))


def test_csv_without_node_count_is_refused(tmp_path):
    path = tmp_path / "signal.csv"
    path.write_text("# roughmkv-signal v1 dim=1 alpha=0.4\nt,W_1,WW_11\n0.0,0.0,0.0\n")
    with pytest.raises(ValueError, match="nodes="):
        load_roughpath_csv(str(path))


def ref_save_roughpath_csv(rp, path, stamp=None):
    """The per-row writer the table writer replaced; kept as a byte reference."""
    n = rp.dim
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# roughmkv-signal v1 dim={n} alpha={float(rp.alpha)!r} nodes={len(rp.grid)}\n"
        )
        if stamp is not None:
            fh.write(f"# generated {stamp}\n")
        cols = (
            ["t"]
            + [f"W_{a + 1}" for a in range(n)]
            + [f"WW_{a + 1}{b + 1}" for a in range(n) for b in range(n)]
        )
        fh.write(",".join(cols) + "\n")
        K = rp.grid.num_cells
        zeros = np.zeros((n, n))
        for k in range(K + 1):
            area = rp.cell_areas[k] if k < K else zeros
            row = (
                [repr(float(rp.grid.points[k]))]
                + [repr(float(v)) for v in rp.values[k]]
                + [repr(float(v)) for v in area.ravel()]
            )
            fh.write(",".join(row) + "\n")


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("stamp", [None, "2026-01-01T00:00:00+00:00"])
def test_csv_bytes_equal_per_row_reference(tmp_path, dim, stamp):
    rp = brownian_lift(3 + dim, dim, TimeGrid.uniform(1.0 / 3.0, 7), refinement_factor=4)
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    save_roughpath_csv(rp, str(new), stamp=stamp)
    ref_save_roughpath_csv(rp, str(ref), stamp=stamp)
    assert new.read_text(encoding="utf-8") == ref.read_text(encoding="utf-8")
    back = load_roughpath_csv(str(new))
    assert roughpath_checksum(back) == roughpath_checksum(rp)


def test_checksum_tracks_content():
    rp = random_walk_path(2, 6, 1)
    bumped = GridRoughPath(rp.grid, rp.values, rp.cell_areas + 1e-9, rp.alpha)
    assert roughpath_checksum(rp) != roughpath_checksum(bumped)
