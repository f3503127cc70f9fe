"""Grid rough signals: a path together with its iterated-integral tensors.

Conventions
-----------
A driving signal of dimension ``n`` on a grid ``0 = t_0 < ... < t_K`` is the
pair ``(W, WW)`` where ``W[k]`` is the path value at ``t_k`` (shape
``(K+1, n)``) and ``WW[k]`` is the second-level tensor over the adjacent cell
``[t_k, t_{k+1}]`` (shape ``(K, n, n)``), with the convention

    WW[k][a, b]  ~  integral over the cell of (W^a_r - W^a_{t_k}) dW^b_r.

Only adjacent cells are stored.  The tensor over any wider grid span is
reconstructed by left-to-right accumulation with the multiplicative rule

    WW(s, t) = WW(s, u) + WW(u, t) + dW(s, u) (x) dW(u, t),

so the multiplicative identity holds for on-grid triples by construction and
the stored cells are the only free data.  Holder regularity is tracked by an
exponent ``alpha`` in (1/3, 1/2]; it is metadata used by diagnostics, not a
constraint enforced pointwise.

Two conventions for stochastic second levels are supported.  The geometric
one satisfies ``Sym WW(s,t) = 0.5 dW (x) dW`` exactly (piecewise-linear area
has this property); the other differs from it by ``-0.5 (t-s) Id`` per cell,
which is the usual correction between the two stochastic integrals.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .grids import TimeGrid, read_only, span_sup
from .streams import TAG_DRIVER, substream
from .tables import check_shape, read_table, write_table

__all__ = [
    "ALPHA_MIN",
    "ALPHA_MAX",
    "GridRoughPath",
    "check_signal",
    "lift_piecewise_linear",
    "brownian_lift",
    "chen_extend",
    "chen_residual",
    "sym_defect",
    "holder_norms",
    "ito_from_stratonovich",
    "stratonovich_from_ito",
    "restrict",
    "save_roughpath_csv",
    "load_roughpath_csv",
    "roughpath_checksum",
]

# the admissible Holder exponents, (ALPHA_MIN, ALPHA_MAX]
ALPHA_MIN, ALPHA_MAX = 1.0 / 3.0, 0.5


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., :, None] * v[..., None, :]


def _frozen(a: np.ndarray) -> np.ndarray:
    """Freeze ``a``, an array built here that nothing else holds, so that
    ``GridRoughPath`` keeps it without a copy."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class GridRoughPath:
    """Immutable level-2 signal on a grid: values plus adjacent-cell tensors.

    ``values`` and ``cell_areas`` are held under the rule of
    ``grids.read_only``, so the cached prefix cannot go stale: the builders
    here hand over fresh frozen arrays, and a caller's array is copied.
    """

    grid: TimeGrid
    values: np.ndarray      # (K+1, n)
    cell_areas: np.ndarray  # (K, n, n)
    alpha: float = 0.4
    # prefix[k] is the accumulated tensor over [t_0, t_k]; cached because every
    # wide-span reconstruction reduces to two prefix lookups.
    _prefix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        vals, areas = read_only(self.values), read_only(self.cell_areas)
        K = self.grid.num_cells
        if vals.ndim != 2 or vals.shape[0] != K + 1:
            raise ValueError(
                f"values must have shape (K+1, n) = ({K + 1}, n), got {vals.shape}"
            )
        n = vals.shape[1]
        if n < 1:
            raise ValueError("signal dimension must be >= 1")
        if areas.shape != (K, n, n):
            raise ValueError(
                f"cell_areas must have shape ({K}, {n}, {n}), got {areas.shape}"
            )
        if not (ALPHA_MIN < self.alpha <= ALPHA_MAX):
            raise ValueError(f"alpha must lie in (1/3, 1/2], got {self.alpha}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "cell_areas", areas)

        dv = np.diff(vals, axis=0)                       # (K, n)
        w0 = vals[:-1] - vals[0]                         # (K, n)
        prefix = np.empty((K + 1, n, n))
        prefix[0] = 0.0
        np.cumsum(areas + _outer(w0, dv), axis=0, out=prefix[1:])
        prefix.setflags(write=False)
        object.__setattr__(self, "_prefix", prefix)

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def span(self, i, j) -> tuple[np.ndarray, np.ndarray]:
        """Increment and second-level tensor over the span from node ``i`` to ``j``.

        ``i <= j`` are node indices, or integer arrays that broadcast (one span
        per entry).  Uses the cached prefix: WW(s,t) = WW(0,t) - WW(0,s) -
        dW(0,s)(x)dW(s,t), which is the accumulation rule solved for the
        middle piece.
        """
        dv = self.values[j] - self.values[i]
        return dv, self._prefix[j] - self._prefix[i] - _outer(self.values[i] - self.values[0], dv)

    def increment(self, s: float, t: float) -> np.ndarray:
        return self.span(*self.grid.span_indices(s, t))[0]

    def second(self, s: float, t: float) -> np.ndarray:
        """Second-level tensor over the grid span ``[s, t]``."""
        return self.span(*self.grid.span_indices(s, t))[1]


def check_signal(rp: GridRoughPath, grid: TimeGrid, channels: int) -> None:
    """Refuse a signal that is not on ``grid`` or has not ``channels`` channels.

    A coefficient bundle with one channel would otherwise broadcast against
    a wider signal, and a flow would pair its nodes with another grid's.
    """
    if rp.grid is not grid and not np.array_equal(rp.grid.points, grid.points):
        raise ValueError("signal grid differs from the grid it is paired with")
    if rp.dim != channels:
        raise ValueError(f"signal has {rp.dim} channels, the coefficients take {channels}")


# ---------------------------------------------------------------------------
# lifts


def lift_piecewise_linear(
    grid: TimeGrid, samples: np.ndarray, alpha: float = 0.4
) -> GridRoughPath:
    """Canonical lift of the piecewise-linear interpolant of ``samples``.

    On each cell the interpolant is a straight segment, so the cell tensor is
    exactly ``0.5 dW (x) dW``; the lift is geometric by construction.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.shape[0] != grid.num_cells + 1:
        raise ValueError(
            f"need one sample per grid node: expected {grid.num_cells + 1} rows, "
            f"got {samples.shape[0]}"
        )
    dv = np.diff(samples, axis=0)
    return GridRoughPath(grid, samples, _frozen(0.5 * _outer(dv, dv)), alpha)


def brownian_lift(
    seed: int,
    dim: int,
    grid: TimeGrid,
    refinement_factor: int = 64,
    alpha: float = 0.4,
) -> GridRoughPath:
    """Sampled Brownian signal with piecewise-linear (Stratonovich) second level.

    Each grid cell is split into ``refinement_factor`` equal sub-steps; the
    first level is an exact-in-distribution Brownian sample on that fine
    mesh, coarsened to the target grid, and the cell tensors accumulate the
    fine piecewise-linear areas.  ``ito_from_stratonovich`` gives the Ito lift.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if refinement_factor < 1:
        raise ValueError("refinement_factor must be >= 1")

    K, R = grid.num_cells, refinement_factor
    rng = substream(seed, TAG_DRIVER)
    fine_dt = grid.dt[:, None] / R                               # (K, R)
    dw = rng.standard_normal((K, R, dim)) * np.sqrt(fine_dt)[..., None]

    cell_dv = dw.sum(axis=1)                                     # (K, dim)
    values = np.vstack([np.zeros((1, dim)), np.cumsum(cell_dv, axis=0)])

    # within-cell accumulation: running partial sums against the next sub-step
    partial = np.cumsum(dw, axis=1) - dw                         # exclusive cumsum
    areas = 0.5 * np.einsum("kra,krb->kab", dw, dw) + np.einsum(
        "kra,krb->kab", partial, dw
    )
    return GridRoughPath(grid, _frozen(values), _frozen(areas), alpha)


# ---------------------------------------------------------------------------
# accumulation and consistency checks


def chen_extend(rp: GridRoughPath, s: float, t: float) -> np.ndarray:
    """Second-level tensor over ``[s, t]`` by left-to-right accumulation.

    This is the reference fold over the stored cells; ``rp.second`` gives the
    same tensor through cached prefixes.
    """
    i, j = rp.grid.span_indices(s, t)
    if i == j:
        return np.zeros((rp.dim, rp.dim))
    dv = np.diff(rp.values[i : j + 1], axis=0)          # (j-i, n)
    w_rel = rp.values[i:j] - rp.values[i]               # increments from s
    return rp.cell_areas[i:j].sum(axis=0) + np.einsum("ka,kb->ab", w_rel, dv)


def chen_residual(rp: GridRoughPath, s: float, u: float, t: float) -> float:
    """Max-abs violation of the accumulation rule on the triple ``s<=u<=t``."""
    rp.grid.span_indices(s, u)
    rp.grid.span_indices(u, t)
    lhs = chen_extend(rp, s, t)
    rhs = (
        chen_extend(rp, s, u)
        + chen_extend(rp, u, t)
        + _outer(rp.increment(s, u), rp.increment(u, t))
    )
    return float(np.max(np.abs(lhs - rhs)))


def sym_defect(rp: GridRoughPath) -> float:
    """Max over all grid spans of ``|Sym WW(s,t) - 0.5 dW (x) dW|`` (max-abs).

    The defect field G(s,t) = Sym WW(s,t) - 0.5 dW(x)dW is additive across
    concatenation (the cross terms of the accumulation rule match the cross
    terms of the symmetrised square), so G(s,t) = H(t) - H(s) with
    H(t) = G(0,t) and the all-pairs maximum is an entrywise spread of H.
    """
    w0 = rp.values - rp.values[0]                        # (K+1, n)
    H = 0.5 * (rp._prefix + np.swapaxes(rp._prefix, 1, 2)) - 0.5 * _outer(w0, w0)
    flat = H.reshape(H.shape[0], -1)
    return float(np.ptp(flat, axis=0).max())


def holder_norms(rp: GridRoughPath) -> tuple[float, float]:
    """Grid Holder quotients ``(|dW|/|t-s|^a, |WW|/|t-s|^2a)`` over all spans.

    Euclidean norm on the first level, Frobenius on the second.  Quadratic in
    the node count; meant for grids up to a few thousand nodes.
    """

    nodes = np.arange(len(rp.grid))

    def rows():
        for i, gap in rp.grid.spans():
            gap = gap**rp.alpha
            dv, ww = rp.span(i, nodes[i + 1 :])
            yield np.linalg.norm(dv, axis=1) / gap, np.linalg.norm(ww, axis=(1, 2)) / gap**2

    return span_sup(rows())


# ---------------------------------------------------------------------------
# convention shifts and coarsening


def _shift_identity(rp: GridRoughPath, sign: float) -> GridRoughPath:
    eye = np.eye(rp.dim)
    areas = rp.cell_areas + sign * 0.5 * rp.grid.dt[:, None, None] * eye
    return GridRoughPath(rp.grid, rp.values, _frozen(areas), rp.alpha)


def ito_from_stratonovich(rp: GridRoughPath) -> GridRoughPath:
    return _shift_identity(rp, -1.0)


def stratonovich_from_ito(rp: GridRoughPath) -> GridRoughPath:
    return _shift_identity(rp, +1.0)


def restrict(rp: GridRoughPath, coarse: TimeGrid) -> GridRoughPath:
    """Restriction to a subgrid; coarse cell tensors accumulate fine cells."""
    idx = rp.grid.index_of(coarse.points)
    return GridRoughPath(
        coarse, _frozen(rp.values[idx]), _frozen(rp.span(idx[:-1], idx[1:])[1]), rp.alpha
    )


# ---------------------------------------------------------------------------
# serialisation

_CSV_MAGIC = "# roughmkv-signal v1"


def roughpath_checksum(rp: GridRoughPath) -> str:
    """SHA-256 over grid, values and cell tensors; identifies the signal."""
    h = hashlib.sha256()
    for arr in (rp.grid.points, rp.values, rp.cell_areas):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr(float(rp.alpha)).encode())
    return h.hexdigest()


def save_roughpath_csv(rp: GridRoughPath, path: str, stamp: str | None = None) -> None:
    """Text round trip: one row per grid node.

    Columns: ``t, W_1..W_n, WW_11..WW_nn`` (tensor row-major, for the cell
    starting at that node; the final node carries zeros there).  The magic
    line carries the node count, so a cut file is refused on load.
    """
    n = rp.dim
    areas = np.zeros((rp.grid.num_cells + 1, n * n))
    areas[:-1] = rp.cell_areas.reshape(-1, n * n)
    write_table(
        path,
        ["t"]
        + [f"W_{a + 1}" for a in range(n)]
        + [f"WW_{a + 1}{b + 1}" for a in range(n) for b in range(n)],
        [(rp.grid.points, *rp.values.T, *areas.T)],
        magic=(_CSV_MAGIC, {"dim": n, "alpha": repr(float(rp.alpha)), "nodes": len(rp.grid)}),
        stamp=stamp,
    )


def load_roughpath_csv(path: str) -> GridRoughPath:
    """The signal :func:`save_roughpath_csv` wrote; refuses a cut or edited file."""
    with read_table(path, _CSV_MAGIC, ("dim", "alpha", "nodes")) as (meta, data):
        n, alpha, nodes = int(meta["dim"]), float(meta["alpha"]), int(meta["nodes"])
        check_shape(data, nodes, 1 + n + n * n, "one per node")
        if np.any(data[-1:, 1 + n :] != 0.0):
            raise ValueError("the last node's WW cells must be zero, as written")
        areas = data[:-1, 1 + n :].reshape(-1, n, n)
        return GridRoughPath(TimeGrid(data[:, 0]), data[:, 1 : 1 + n], areas, alpha)
