"""Coefficient bundles with measure derivatives.

A coefficient bundle carries the drift, the idiosyncratic diffusion and the
common-signal coefficient of an interacting particle system.  The signal
coefficient is the delicate one: expansions to second order need its state
Jacobian, its derivative with respect to the measure argument, and an
explicit time-control derivative for coefficients that depend on the signal
history.  Three built-in measure dependencies cover the useful cases:

* convolution against a kernel, ``f(t, x, mu) = avg_y g(t, x, y)`` over the
  cloud, whose measure derivative at ``v`` is the kernel gradient
  ``D_y g(t, x, v)``;
* a function of the cloud mean, ``f(t, x, mu) = p(t, x, mean(mu))``, whose
  measure derivative is ``D_m p`` independently of ``v``;
* no measure dependence at all, where the derivative is the zero tensor
  (a value, not an error).

Shapes: state batches are always ``(A, d)``; the signal coefficient maps to
``(A, d, n)``, its state Jacobian to ``(A, d, d, n)`` with axes
``[point, component, state-direction, signal-channel]``, the measure
derivative to ``(A, B, d, d, n)`` with axes ``[point, insertion, component,
insertion-direction, channel]``, and the time-control derivative to
``(A, d, n, n)`` with axes ``[point, component, channel, channel]``.

All cloud averages go through the order-invariant sorted mean from
``measures``, so evaluation is exactly permutation symmetric in particles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measures import EmpiricalMeasure, symmetric_mean

__all__ = [
    "RoughFamily",
    "CoefficientSet",
    "coefficient_set",
    "measure_free_family",
    "constant_rough",
    "linear_state_family",
    "moment_family",
    "moment_sin_family",
    "convolution_family",
    "zero_rough",
    "area_coefficient",
    "lions_fd_check",
    "lions_taylor_remainder",
    "diffusion_square",
]


def _as_batch(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x[None, :] if x.ndim == 1 else x


@dataclass(frozen=True, eq=False)
class RoughFamily:
    """Common-signal coefficient with its derivative package.

    ``mixing(t, x, mu, fz)`` returns the cloud-averaged pairing of the
    measure derivative against the coefficient itself,

        mixing[a, i, kap, lam] = avg_z sum_j D_mu f^i_lam(x_a)(Z_z)_j f^j_kap(Z_z),

    which is what second-order expansions consume; families implement it
    directly so the mean-functional case stays linear in the cloud size.
    ``fz = eval(t, mu.points, mu)`` is the coefficient at the cloud's own
    points, passed in because the callers already hold it.
    """

    dim: int
    channels: int
    eval: Callable            # (t, x, mu) -> (A, d, n)
    dx: Callable              # (t, x, mu) -> (A, d, d, n)
    prime: Callable           # (t, x, mu) -> (A, d, n, n)
    lions: Callable           # (t, x, mu, v) -> (A, B, d, d, n)
    mixing: Callable          # (t, x, mu, fz) -> (A, d, n, n)
    measure_free: bool
    lions_lip: float | None = None


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Drift, diffusion and signal coefficient for one particle system."""

    dim: int
    brownian_dim: int
    driver_dim: int
    drift: Callable           # (t, x, mu) -> (A, d)
    diffusion: Callable       # (t, x, mu) -> (A, d, m)
    rough: RoughFamily
    measure_free: bool


def _zero_drift(dim: int) -> Callable:
    def drift(t, x, mu):
        return np.zeros((_as_batch(x).shape[0], dim))

    return drift


def _zero_diffusion(dim: int, m: int) -> Callable:
    def diffusion(t, x, mu):
        return np.zeros((_as_batch(x).shape[0], dim, m))

    return diffusion


def coefficient_set(
    dim: int,
    brownian_dim: int,
    driver_dim: int,
    drift: Callable | None = None,
    diffusion: Callable | None = None,
    rough: RoughFamily | None = None,
    drift_measure_free: bool = True,
) -> CoefficientSet:
    """Bundle the three coefficients; missing ones are zero.

    The bundle is measure-free when the drift is (``drift_measure_free``) and
    the signal family is; the diffusion is taken not to depend on the cloud.
    """
    if rough is None:
        rough = zero_rough(dim, driver_dim)
    if rough.dim != dim or rough.channels != driver_dim:
        raise ValueError(
            f"signal family is ({rough.dim}, {rough.channels}), "
            f"bundle wants ({dim}, {driver_dim})"
        )
    return CoefficientSet(
        dim=dim,
        brownian_dim=brownian_dim,
        driver_dim=driver_dim,
        drift=drift if drift is not None else _zero_drift(dim),
        diffusion=diffusion if diffusion is not None else _zero_diffusion(dim, brownian_dim),
        rough=rough,
        measure_free=bool(drift_measure_free and rough.measure_free),
    )


# ---------------------------------------------------------------------------
# families


def _zeros_like_lions(dim: int, channels: int) -> Callable:
    def lions(t, x, mu, v):
        A = _as_batch(x).shape[0]
        B = _as_batch(v).shape[0]
        return np.zeros((A, B, dim, dim, channels))

    return lions


def _zeros_like_mixing(dim: int, channels: int) -> Callable:
    """The zero ``(A, d, n, n)`` tensor: the zero mixing, which ignores
    ``fz``, and the zero time-control ``prime``."""

    def mixing(t, x, mu, fz=None):
        return np.zeros((_as_batch(x).shape[0], dim, channels, channels))

    return mixing


def measure_free_family(
    dim: int,
    channels: int,
    fun: Callable,
    dx_fun: Callable,
    prime: Callable | None = None,
) -> RoughFamily:
    """Signal coefficient ignoring the measure; derivative is the zero tensor."""

    def eval_(t, x, mu):
        return fun(t, _as_batch(x))

    def dx_(t, x, mu):
        return dx_fun(t, _as_batch(x))

    if prime is None:
        prime_ = _zeros_like_mixing(dim, channels)
    else:
        def prime_(t, x, mu):
            return prime(t, _as_batch(x))

    return RoughFamily(
        dim=dim,
        channels=channels,
        eval=eval_,
        dx=dx_,
        prime=prime_,
        lions=_zeros_like_lions(dim, channels),
        mixing=_zeros_like_mixing(dim, channels),
        measure_free=True,
        lions_lip=0.0,
    )


def zero_rough(dim: int, channels: int) -> RoughFamily:
    def fun(t, x):
        return np.zeros((x.shape[0], dim, channels))

    def dx_fun(t, x):
        return np.zeros((x.shape[0], dim, dim, channels))

    return measure_free_family(dim, channels, fun, dx_fun)


def constant_rough(matrix: np.ndarray) -> RoughFamily:
    """Constant coefficient ``f = c``; every derivative vanishes."""
    c = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    d, n = c.shape

    def fun(t, x):
        return np.broadcast_to(c, (x.shape[0], d, n)).copy()

    def dx_fun(t, x):
        return np.zeros((x.shape[0], d, d, n))

    return measure_free_family(d, n, fun, dx_fun)


def linear_state_family(c: float, d: int, n: int) -> RoughFamily:
    """``f(x)^i_kap = c x_i`` when ``i == kap``, else 0: channel kap is driven
    by state coordinate kap alone."""
    sel = np.eye(d, n)
    diag = np.eye(d)[:, :, None] * sel[None, :, :]   # (d, d, n) selector

    def fun(t, x):
        return c * x[:, :, None] * sel[None, :, :]

    def dx_fun(t, x):
        return np.broadcast_to(c * diag, (x.shape[0], d, d, n)).copy()

    return measure_free_family(d, n, fun, dx_fun)


def moment_family(
    dim: int,
    channels: int,
    phi: Callable,
    dx_phi: Callable,
    dm_phi: Callable,
    lions_lip: float | None = None,
) -> RoughFamily:
    """Coefficient ``f(t, x, mu) = phi(t, x, mean(mu))``.

    ``phi(t, x, m) -> (A, d, n)``, ``dx_phi -> (A, d, d, n)`` and
    ``dm_phi -> (A, d, d, n)`` with the second ``d`` axis indexing the mean
    coordinate.  The measure derivative at insertion ``v`` equals ``dm_phi``
    for every ``v``, so the mixing term factors through the cloud average of
    the coefficient and stays O(N).
    """

    def eval_(t, x, mu):
        return phi(t, _as_batch(x), mu.mean())

    def dx_(t, x, mu):
        return dx_phi(t, _as_batch(x), mu.mean())

    def lions_(t, x, mu, v):
        grad = dm_phi(t, _as_batch(x), mu.mean())            # (A, d, d, n)
        B = _as_batch(v).shape[0]
        return np.broadcast_to(grad[:, None], (grad.shape[0], B) + grad.shape[1:]).copy()

    def mixing_(t, x, mu, fz):
        grad = dm_phi(t, _as_batch(x), mu.mean())            # (A, d, d, n)
        fbar = symmetric_mean(fz, axis=0)                    # (d, n)
        return np.einsum("aijl,jk->aikl", grad, fbar)

    return RoughFamily(
        dim=dim,
        channels=channels,
        eval=eval_,
        dx=dx_,
        prime=_zeros_like_mixing(dim, channels),
        lions=lions_,
        mixing=mixing_,
        measure_free=False,
        lions_lip=lions_lip,
    )


def moment_sin_family(a: float, b: float) -> RoughFamily:
    """``f(x, mu) = a sin(x) + b cos(x) tanh(mean(mu))``, one dim, one channel."""

    def phi(t, x, m):
        return (a * np.sin(x) + b * np.cos(x) * np.tanh(m[0]))[:, :, None]

    def dx_phi(t, x, m):
        return (a * np.cos(x) - b * np.sin(x) * np.tanh(m[0]))[:, :, None, None]

    def dm_phi(t, x, m):
        sech2 = 1.0 / np.cosh(m[0]) ** 2
        return (b * np.cos(x) * sech2)[:, :, None, None]

    return moment_family(1, 1, phi, dx_phi, dm_phi, lions_lip=abs(b))


def convolution_family(
    dim: int,
    channels: int,
    g: Callable,
    dx_g: Callable,
    dy_g: Callable,
    lions_lip: float | None = None,
) -> RoughFamily:
    """Coefficient ``f(t, x, mu) = avg_y g(t, x, y)`` over the cloud.

    Kernel callables receive ``x`` of shape ``(A, 1, d)`` and ``y`` of shape
    ``(1, B, d)`` and must broadcast: ``g -> (A, B, d, n)``,
    ``dx_g -> (A, B, d, d, n)`` (state gradient), ``dy_g -> (A, B, d, d, n)``
    (kernel gradient in ``y``, which is exactly the measure derivative at the
    insertion point).  Evaluation is quadratic in the cloud size.
    """

    def _pair(x, y):
        return _as_batch(x)[:, None, :], _as_batch(y)[None, :, :]

    def eval_(t, x, mu):
        xa, yb = _pair(x, mu.points)
        return symmetric_mean(g(t, xa, yb), axis=1)

    def dx_(t, x, mu):
        xa, yb = _pair(x, mu.points)
        return symmetric_mean(dx_g(t, xa, yb), axis=1)

    def lions_(t, x, mu, v):
        xa, vb = _pair(x, v)
        return dy_g(t, xa, vb)

    def mixing_(t, x, mu, fz):
        xa, zb = _pair(x, mu.points)
        grads = dy_g(t, xa, zb)                          # (A, B, d, d, n)
        return symmetric_mean(np.einsum("azijl,zjk->azikl", grads, fz), axis=1)

    return RoughFamily(
        dim=dim,
        channels=channels,
        eval=eval_,
        dx=dx_,
        prime=_zeros_like_mixing(dim, channels),
        lions=lions_,
        mixing=mixing_,
        measure_free=False,
        lions_lip=lions_lip,
    )


# ---------------------------------------------------------------------------
# derived tensors


def area_coefficient(
    coeffs: CoefficientSet, t: float, x: np.ndarray, mu: EmpiricalMeasure | None
) -> np.ndarray:
    """Tensor contracted against the second level in one-step expansions.

    With ``kap`` the channel picked first and ``lam`` second,

        area[a, i, kap, lam] = sum_j Dx f^i_lam f^j_kap
                               + avg_z D_mu f^i_lam(x_a)(Z_z) . f_kap(Z_z)
                               + prime^i_[lam, kap],

    note the transposition on the time-control derivative: the channel pair
    of ``prime`` is (differentiated, inserted) while the contraction index
    order is (inserted, differentiated).
    """
    fam = coeffs.rough
    x = _as_batch(x)
    fz = None if fam.measure_free else fam.eval(t, mu.points, mu)
    return _area_tensor(fam, t, x, mu, fam.eval(t, x, mu), fz)


def _area_tensor(
    fam: RoughFamily,
    t: float,
    x: np.ndarray,
    mu: EmpiricalMeasure | None,
    f: np.ndarray,
    fz: np.ndarray | None,
) -> np.ndarray:
    """``area_coefficient`` from the coefficient ``f`` at ``x`` and ``fz`` at
    ``mu.points`` (None for measure-free families); a caller whose ``x`` is
    the cloud of ``mu`` passes the same array twice."""
    dxf = fam.dx(t, x, mu)
    out = np.einsum("aijl,ajk->aikl", dxf, f)
    if not fam.measure_free:
        out = out + fam.mixing(t, x, mu, fz)
    out = out + np.swapaxes(fam.prime(t, x, mu), -1, -2)
    return out


def diffusion_square(
    coeffs: CoefficientSet, t: float, x: np.ndarray, mu: EmpiricalMeasure | None
) -> np.ndarray:
    """``sigma sigma^T`` per point, shape ``(A, d, d)``."""
    s = coeffs.diffusion(t, _as_batch(x), mu)
    return np.einsum("ail,ajl->aij", s, s)


# ---------------------------------------------------------------------------
# diagnostics


def lions_fd_check(
    family: RoughFamily | CoefficientSet,
    t: float,
    x: np.ndarray,
    mu: EmpiricalMeasure,
    direction: np.ndarray,
    h: float = 1e-4,
) -> float:
    """Central-difference check of the measure derivative along a cloud shift.

    Compares ``[f(mu(Z + hY)) - f(mu(Z - hY))] / 2h`` against the projected
    analytic derivative ``avg_z D_mu f(x)(Z_z) . Y_z`` and returns the max
    entrywise error relative to ``max(1, |analytic|_inf)``.
    """
    fam = family.rough if isinstance(family, CoefficientSet) else family
    Y = np.asarray(direction, dtype=np.float64)
    if Y.shape != mu.points.shape:
        raise ValueError(f"direction shape {Y.shape} != cloud shape {mu.points.shape}")
    x2 = _as_batch(x)
    up = fam.eval(t, x2, EmpiricalMeasure(mu.points + h * Y))
    dn = fam.eval(t, x2, EmpiricalMeasure(mu.points - h * Y))
    fd = (up - dn) / (2.0 * h)
    L = fam.lions(t, x2, mu, mu.points)                  # (A, N, d, d, n)
    analytic = np.einsum("azijl,zj->ail", L, Y) / mu.size
    scale = max(1.0, float(np.max(np.abs(analytic))))
    return float(np.max(np.abs(fd - analytic)) / scale)


def lions_taylor_remainder(
    family: RoughFamily,
    t: float,
    x: np.ndarray,
    mu: EmpiricalMeasure,
    nu_points: np.ndarray,
) -> tuple[float, float | None]:
    """First-order remainder along the paired coupling, with its bound.

    Returns ``(|remainder|_inf, 2 * lip * paired cost)`` where the remainder
    is ``f(nu) - f(mu) - avg_z D_mu f(x)(Z_z) . (nu_z - Z_z)``; the bound is
    None when the family does not declare a derivative Lipschitz constant.
    """
    nu_pts = np.asarray(nu_points, dtype=np.float64)
    if nu_pts.shape != mu.points.shape:
        raise ValueError("paired clouds must have identical shape")
    x2 = _as_batch(x)
    diff = nu_pts - mu.points
    L = family.lions(t, x2, mu, mu.points)
    first = np.einsum("azijl,zj->ail", L, diff) / mu.size
    theta = family.eval(t, x2, EmpiricalMeasure(nu_pts)) - family.eval(t, x2, mu) - first
    bound = None
    if family.lions_lip is not None:
        bound = 2.0 * family.lions_lip * float(np.mean(np.sum(diff**2, axis=1)))
    return float(np.max(np.abs(theta))), bound
