"""Time grid construction, lookup, and refinement behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmkv.grids import TimeGrid, span_sup


def test_uniform_layout():
    g = TimeGrid.uniform(2.0, 8)
    assert g.num_cells == 8
    assert g.horizon == 2.0
    assert np.allclose(g.points, np.linspace(0.0, 2.0, 9))
    assert np.allclose(g.dt, 0.25)


def test_dyadic_matches_uniform():
    assert np.array_equal(TimeGrid.dyadic(1.0, 4).points, TimeGrid.uniform(1.0, 16).points)


def test_points_readonly():
    g = TimeGrid.uniform(1.0, 4)
    with pytest.raises(ValueError):
        g.points[0] = 1.0


def test_rejects_bad_nodes():
    with pytest.raises(ValueError):
        TimeGrid(points=np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(points=np.array([0.1, 0.5, 1.0]))


def test_index_of_exact_and_tolerant():
    g = TimeGrid.uniform(1.0, 10)
    for k, t in enumerate(g.points):
        assert g.index_of(float(t)) == k
    assert g.index_of(0.3 + 1e-12) == 3
    with pytest.raises(ValueError):
        g.index_of(0.35)
    # an array of times looks up elementwise; one off-grid time refuses all
    assert np.array_equal(g.index_of(np.array([0.7, 0.0, 0.3 - 1e-12, 1.0])), [7, 0, 3, 10])
    with pytest.raises(ValueError, match="0.35"):
        g.index_of(np.array([0.2, 0.35]))


def test_span_indices_orders_endpoints():
    g = TimeGrid.uniform(1.0, 10)
    assert g.span_indices(0.2, 0.7) == (2, 7)
    with pytest.raises(ValueError):
        g.span_indices(0.7, 0.2)


def test_refine_keeps_nodes_bitwise():
    g = TimeGrid.uniform(1.3, 7)
    f = g.refine(4)
    assert f.num_cells == 28
    assert np.array_equal(f.points[::4], g.points)


def test_coarsen_inverts_refine():
    g = TimeGrid.uniform(0.7, 5)
    assert np.array_equal(g.refine(3).coarsen(3).points, g.points)
    with pytest.raises(ValueError):
        g.coarsen(2)


def test_is_subgrid_of():
    g = TimeGrid.uniform(1.0, 4)
    assert g.is_subgrid_of(g.refine(2))
    assert not g.refine(2).is_subgrid_of(g)
    assert not TimeGrid.uniform(1.0, 3).is_subgrid_of(TimeGrid.uniform(1.0, 8))


@settings(deadline=None, max_examples=60)
@given(
    cells=st.integers(min_value=1, max_value=40),
    horizon=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    factor=st.integers(min_value=2, max_value=5),
)
def test_refine_coarsen_round_trip_property(cells, horizon, factor):
    g = TimeGrid.uniform(horizon, cells)
    assert np.array_equal(g.refine(factor).coarsen(factor).points, g.points)
    for k in range(cells + 1):
        assert g.index_of(float(g.points[k])) == k


def test_spans_enumerate_every_pair_once():
    g = TimeGrid(np.array([0.0, 0.5, 0.6, 2.0]))
    seen = [(i, i + 1 + k, w) for i, gap in g.spans() for k, w in enumerate(gap)]
    assert [(i, j) for i, j, _ in seen] == [(i, j) for i in range(4) for j in range(i + 1, 4)]
    assert all(w == g.points[j] - g.points[i] for i, j, w in seen)


def test_span_sup_folds_each_column_and_keeps_nan():
    rows = [
        (np.array([1.0, 3.0]), np.array([[0.5], [0.25]])),
        (np.array([2.0]), np.array([[np.nan]])),
        (np.array([0.0]), np.array([[7.0]])),
    ]
    q0, q1 = span_sup(iter(rows))
    assert q0 == 3.0 and type(q0) is float
    assert np.isnan(q1)  # a later, larger row does not replace the NaN
