"""Time grids for the whole package.

A grid is a strictly increasing array of times ``0 = t_0 < t_1 < ... < t_K``.
Every object in this package (driving signals, particle flows, backward
solutions) lives on such a grid; continuous-time statements are always
discretised on one.  Grid times are plain float64 and lookups are done with an
absolute tolerance, so callers can pass times that went through a round trip
without worrying about the last ulp.  Grids, signals and flows hold their
arrays read-only under the one rule of ``read_only``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["TimeGrid", "broadcast_view", "read_only", "span_sup"]


def read_only(a) -> np.ndarray:
    """``a`` as a float64 array that nothing can write, every entry finite.

    A NaN or infinite entry is refused with ``ValueError``, whether or not
    ``a`` is copied: a held grid, signal, cloud or flow is finite.  The test
    reads ``min`` and ``max``, so it allocates no array-sized temporary.
    An array that is already float64, read-only and the owner of its memory
    is returned as it is; anything else, a writable array or a read-only view
    of memory that someone else may write, is copied and the copy frozen.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.size and not (math.isfinite(a.min()) and math.isfinite(a.max())):
        raise ValueError("held arrays must be finite")
    if a.flags.writeable or not a.flags.owndata:
        a = a.copy()
        a.setflags(write=False)
    return a


def broadcast_view(a: np.ndarray, shape: tuple) -> np.ndarray:
    """The read-only ``np.broadcast_to(a, shape)`` of a ``read_only`` array ``a``.

    ``a.shape`` must be the tail of ``shape`` (``()`` for a scalar); the
    leading axes get stride 0, as ``np.broadcast_to`` gives them, so the view
    has the same strides and reads the same numbers.  It skips that
    function's argument handling, which costs several times more than the
    view when a coefficient is evaluated once per step.  A view of a
    read-only array is read-only.
    """
    return np.ndarray(shape, a.dtype, a, 0, (0,) * (len(shape) - a.ndim) + a.strides)


# Absolute slack used when matching a float time to a grid node: generous
# enough to survive text round trips, at most a quarter of the narrowest cell.
_LOOKUP_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing partition of ``[0, horizon]`` starting at zero."""

    points: np.ndarray
    _dt: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pts = read_only(self.points)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least two time points")
        if pts[0] != 0.0:
            raise ValueError(f"grid must start at 0, got {pts[0]!r}")
        dt = np.diff(pts)
        if np.any(dt <= 0):
            raise ValueError("grid times must be strictly increasing")
        dt.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_dt", dt)

    # -- constructors ------------------------------------------------------

    @classmethod
    def uniform(cls, horizon: float, cells: int) -> "TimeGrid":
        if cells < 1:
            raise ValueError("need at least one cell")
        if not horizon > 0:
            raise ValueError("horizon must be positive")
        return cls(np.linspace(0.0, float(horizon), cells + 1))

    # -- basic queries -----------------------------------------------------

    @property
    def horizon(self) -> float:
        return float(self.points[-1])

    @property
    def num_cells(self) -> int:
        return self.points.size - 1

    @property
    def dt(self) -> np.ndarray:
        """Cell widths, shape ``(num_cells,)``."""
        return self._dt

    def __len__(self) -> int:
        return self.points.size

    def index_of(self, t: float | np.ndarray) -> int | np.ndarray:
        """Index of the grid node equal to ``t`` (up to a tiny tolerance).

        ``t`` may be an array of times; the result is then an index array.
        """
        pts = self.points
        tol = min(_LOOKUP_ATOL * max(1.0, self.horizon), 0.25 * float(self._dt.min()))
        t = np.asarray(t, dtype=np.float64)
        # the first node at or above t - tol is the match if any node is
        k = np.minimum(np.searchsorted(pts, t - tol), pts.size - 1)
        off = ~(np.abs(pts[k] - t) <= tol)
        if np.any(off):
            raise ValueError(f"time {float(t[off].flat[0])!r} is not a grid point")
        return int(k) if k.ndim == 0 else k

    def span_indices(self, s: float, t: float) -> tuple[int, int]:
        """Indices ``(i, j)`` for grid times ``s <= t``."""
        i, j = self.index_of(s), self.index_of(t)
        if i > j:
            raise ValueError(f"need s <= t, got s={s!r} > t={t!r}")
        return i, j

    def spans(self) -> Iterator[tuple[int, np.ndarray]]:
        """Each start node ``i < K`` with the widths ``t[i+1:] - t[i]`` of its spans."""
        for i in range(self.num_cells):
            yield i, self.points[i + 1 :] - self.points[i]

    # -- coarsening ------------------------------------------------------

    def coarsen(self, factor: int) -> "TimeGrid":
        """Keep every ``factor``-th node; cell count must divide evenly."""
        if factor < 1:
            raise ValueError("factor must be >= 1")
        if self.num_cells % factor != 0:
            raise ValueError(
                f"cannot coarsen {self.num_cells} cells by factor {factor}"
            )
        return TimeGrid(self.points[::factor])


def span_sup(rows: Iterable[Sequence[np.ndarray]]) -> tuple[float, ...]:
    """Column-wise sup of per-start-node quotient rows over all spans ``i < j``.

    Each row holds one array of the caller's quotients per column.  Pass a
    generator: its frame keeps a row's temporaries alive until the next row,
    which measured faster than a per-row callback that frees them on return.
    The fold starts at 0 with ``np.maximum``, so a NaN makes its column NaN.
    """
    sup = 0.0
    for row in rows:
        sup = np.maximum(sup, [np.max(q) for q in row])
    return tuple(sup.tolist())
