"""Time grid construction, lookup, and coarsening behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmkv.grids import TimeGrid, broadcast_view, read_only, span_sup
from roughmkv.measures import EmpiricalMeasure, MeasureFlow
from roughmkv.roughpath import GridRoughPath


def test_uniform_layout():
    g = TimeGrid.uniform(2.0, 8)
    assert g.num_cells == 8
    assert g.horizon == 2.0
    assert np.allclose(g.points, np.linspace(0.0, 2.0, 9))
    assert np.allclose(g.dt, 0.25)


def test_points_readonly():
    g = TimeGrid.uniform(1.0, 4)
    with pytest.raises(ValueError):
        g.points[0] = 1.0


def test_read_only_keeps_a_frozen_owner_and_copies_the_rest():
    owner = np.arange(6.0)
    owner.setflags(write=False)
    assert read_only(owner) is owner
    view = owner[1:]                       # read-only, but not the owner
    writable = np.arange(6.0)
    for given in (view, writable, np.arange(6), [0.0, 1.0]):
        held = read_only(given)
        assert held.dtype == np.float64 and held.flags.owndata
        assert not held.flags.writeable and not np.shares_memory(held, given)
    assert writable.flags.writeable


def frozen_with(shape, bad, at):
    """A frozen float64 array that owns its memory, zero but ``bad`` at ``at``."""
    a = np.zeros(shape)
    a[at] = bad
    a.setflags(write=False)
    return a


# every holder of an array, handed one the no-copy path of read_only keeps
HOLDERS = {
    "time_grid": lambda bad: TimeGrid(np.array([0.0, 0.5, bad])),
    "signal_values": lambda bad: GridRoughPath(
        TimeGrid.uniform(1.0, 2), frozen_with((3, 1), bad, (1, 0)), np.zeros((2, 1, 1))
    ),
    "signal_cell_tensors": lambda bad: GridRoughPath(
        TimeGrid.uniform(1.0, 2), np.zeros((3, 2)), frozen_with((2, 2, 2), bad, (1, 0, 1))
    ),
    "cloud": lambda bad: EmpiricalMeasure(frozen_with((4, 2), bad, (2, 1))),
    "flow": lambda bad: MeasureFlow(
        TimeGrid.uniform(1.0, 2), frozen_with((3, 4, 1), bad, (0, 3, 0))
    ),
    "frozen_owner": lambda bad: read_only(frozen_with((6,), bad, 5)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("holder", sorted(HOLDERS))
def test_held_arrays_refuse_non_finite_values(holder, bad):
    # a NaN grid time would pass the increasing-times test (nan <= 0 is
    # False); the one rule refuses it first
    with pytest.raises(ValueError, match="finite"):
        HOLDERS[holder](bad)


@pytest.mark.parametrize(
    "a, shape",
    [(0.0, (5, 2, 2, 3)), (np.arange(6.0).reshape(2, 3), (5, 2, 3)), (np.eye(2), (0, 2, 2))],
)
def test_broadcast_view_is_broadcast_to_of_a_frozen_array(a, shape):
    held = read_only(a)
    got, want = broadcast_view(held, shape), np.broadcast_to(held, shape)
    assert got.shape == want.shape and got.strides == want.strides
    assert np.array_equal(got, want)
    assert not got.flags.writeable


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


def test_index_of_on_cells_narrower_than_the_slack():
    # the slack is capped at a quarter of the narrowest cell, so each node of
    # a grid with cells of 1.5625e-10 matches itself and no neighbour
    g = TimeGrid.uniform(1e-8, 64)
    assert np.array_equal(g.index_of(g.points), np.arange(65))
    assert g.index_of(float(g.points[7]) + 1e-12) == 7
    with pytest.raises(ValueError):
        g.index_of(0.5 * float(g.points[1]))
    ragged = TimeGrid(np.array([0.0, 1e-12, 0.5, 1.0]))
    assert np.array_equal(ragged.index_of(ragged.points), np.arange(4))


def test_span_indices_orders_endpoints():
    g = TimeGrid.uniform(1.0, 10)
    assert g.span_indices(0.2, 0.7) == (2, 7)
    with pytest.raises(ValueError):
        g.span_indices(0.7, 0.2)


def test_coarsen_keeps_every_factor_th_node():
    g = TimeGrid.uniform(0.7, 15)
    c = g.coarsen(3)
    assert c.num_cells == 5
    assert np.array_equal(c.points, g.points[::3])
    assert g.coarsen(1).num_cells == 15
    with pytest.raises(ValueError):
        g.coarsen(2)
    with pytest.raises(ValueError):
        g.coarsen(0)


@settings(deadline=None, max_examples=60)
@given(
    cells=st.integers(min_value=1, max_value=40),
    horizon=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    factor=st.integers(min_value=2, max_value=5),
)
def test_coarse_nodes_look_up_in_the_fine_grid_property(cells, horizon, factor):
    fine = TimeGrid.uniform(horizon, cells * factor)
    coarse = fine.coarsen(factor)
    assert coarse.horizon == fine.horizon
    assert np.array_equal(fine.index_of(coarse.points), factor * np.arange(cells + 1))
    for k in range(cells + 1):
        assert coarse.index_of(float(coarse.points[k])) == k


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
