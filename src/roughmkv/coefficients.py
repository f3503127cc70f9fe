"""Coefficient bundles with measure derivatives.

A coefficient bundle carries the drift, the idiosyncratic diffusion and the
common-signal coefficient of an interacting particle system.  The signal
coefficient is the delicate one: expansions to second order need its state
Jacobian, its derivative with respect to the measure argument, and an
explicit time-control derivative for coefficients that depend on the signal
history.  Each family is defined by one jet callable that returns the value
together with all three derivatives, so the transcendental subexpressions
they share are evaluated once per point.  Three built-in measure
dependencies cover the useful cases:

* convolution against a kernel, ``f(t, x, mu) = avg_y g(t, x, y)`` over the
  cloud, whose measure derivative at ``v`` is the kernel gradient
  ``D_y g(t, x, v)``;
* a function of the cloud mean, ``f(t, x, mu) = p(t, x, mean(mu))``, whose
  measure derivative is ``D_m p`` independently of ``v``;
* no measure dependence at all, where the derivative is the zero tensor
  (a value, not an error).

Shapes: state batches are always ``(A, d)``, and nothing reshapes a 1-d
array into one; the signal coefficient maps to ``(A, d, n)``, its state
Jacobian to ``(A, d, d, n)`` with axes
``[point, component, state-direction, signal-channel]``, the measure
derivative to ``(A, B, d, d, n)`` with axes ``[point, insertion, component,
insertion-direction, channel]``, and the time-control derivative to
``(A, d, n, n)`` with axes ``[point, component, channel, channel]``.

All cloud averages go through the order-invariant sorted mean from
``measures``, so evaluation is exactly permutation symmetric in particles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .grids import broadcast_view, read_only
from .measures import EmpiricalMeasure, symmetric_mean

__all__ = [
    "Kind",
    "ROUGH_KINDS",
    "RoughFamily",
    "CoefficientSet",
    "coefficient_set",
    "measure_free_family",
    "constant_rough",
    "linear_state_family",
    "sin_state_family",
    "moment_family",
    "moment_sin_family",
    "convolution_family",
    "convolution_gauss_family",
    "zero_rough",
    "area_coefficient",
    "area_tensor",
    "ordered_sum",
    "diffusion_square",
]


def ordered_sum(terms: Iterable[np.ndarray]) -> np.ndarray:
    """The sum of ``terms``, added left to right into the first one.

    The first term must be a fresh array of the full shape (a product, say),
    because the others are added into it in place.  Every contraction of the
    step, of the area tensor, of the weak-form integrands and of their
    defect is such a sum of elementwise products, one per contracted index,
    which is cheaper than an ``np.einsum`` call when each contracted axis
    has length one or two.  The rounding rule: for one or two terms the sum
    has einsum's bits but for the sign of an exact zero (a product of -0.0
    stays -0.0 where einsum's zero-initialised sum reads +0.0).  Beyond two
    terms einsum pairs its terms in two SIMD lanes, so the two may differ in
    the last bit, except in two orders that keep its bits at d = 2: the
    four terms of ``a:H`` summed ``sum_j (sum_i a_ij H_ij)``, one inner sum
    per lane, and the three-operand ``f^i f^j H_ij`` summed flat with ``i``
    outer, each term ``(f^i f^j) H_ij``.
    """
    terms = iter(terms)
    out = next(terms)
    for term in terms:
        out += term
    return out


def _jacobian_pairing(grad: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``out[..., i, kap, lam] = sum_j grad[..., i, j, lam] f[..., j, kap]``,
    an ``ordered_sum`` over ``j``; the leading axes of ``f`` broadcast."""
    return ordered_sum(
        grad[..., :, j, None, :] * f[..., None, j, :, None] for j in range(f.shape[-2])
    )


@dataclass(frozen=True, eq=False)
class RoughFamily:
    """Common-signal coefficient with its derivative package.

    ``jet(t, x, mu, order)`` evaluates the coefficient at the points ``x``
    against the cloud ``mu`` in one call, the derivatives built from the
    value's own subexpressions.  Order 0 returns ``(f,)``; order 1 returns
    ``(f, dx_f, dmu, prime)``: the value, its state Jacobian, the family's
    measure derivative in the form its ``mixing`` takes (None for a
    measure-free family) and the time-control derivative (None when it
    vanishes).

    ``mixing(dmu, fz)`` returns the cloud-averaged pairing of the measure
    derivative at ``x`` against the coefficient itself,

        mixing[a, i, kap, lam] = avg_z sum_j D_mu f^i_lam(x_a)(Z_z)_j f^j_kap(Z_z),

    which is what second-order expansions consume; families implement it
    directly so the mean-functional case stays linear in the cloud size.
    ``fz`` is the coefficient at the cloud's own points, passed in because
    the callers already hold it; any ``(N, d, k)`` field at the cloud pairs
    the same way, which is how the tests' finite-difference oracle projects
    the derivative on a cloud shift.  A measure-free family has no ``mixing``.
    """

    dim: int
    channels: int
    jet: Callable               # (t, x, mu, order) -> (f,) | (f, dx_f, dmu, prime)
    mixing: Callable | None     # (dmu, fz) -> (A, d, n, n)

    @property
    def measure_free(self) -> bool:
        return self.mixing is None


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
        return np.zeros((x.shape[0], dim))

    return drift


def _zero_diffusion(dim: int, m: int) -> Callable:
    def diffusion(t, x, mu):
        return np.zeros((x.shape[0], dim, m))

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


def measure_free_family(
    dim: int,
    channels: int,
    jet: Callable,
    prime: Callable | None = None,
) -> RoughFamily:
    """Signal coefficient ignoring the measure; derivative is the zero tensor.

    ``jet(t, x) -> (f, dx_f)`` with ``f`` of shape ``(A, d, n)`` and
    ``dx_f`` of shape ``(A, d, d, n)``; ``prime(t, x) -> (A, d, n, n)`` is
    the time-control derivative, if any, and the order-1 jet's last entry.
    """

    def jet_(t, x, mu, order):
        f, dxf = jet(t, x)
        if not order:
            return (f,)
        return f, dxf, None, None if prime is None else prime(t, x)

    return RoughFamily(dim=dim, channels=channels, jet=jet_, mixing=None)


def zero_rough(dim: int, channels: int) -> RoughFamily:
    return constant_rough(np.zeros((dim, channels)))


def constant_rough(matrix: np.ndarray) -> RoughFamily:
    """Constant coefficient ``f = c``; every derivative vanishes."""
    c = read_only(np.atleast_2d(matrix))
    zero = read_only(0.0)
    d, n = c.shape

    def jet(t, x):
        A = x.shape[0]
        return broadcast_view(c, (A, d, n)).copy(), broadcast_view(zero, (A, d, d, n))

    return measure_free_family(d, n, jet)


def linear_state_family(c: float, d: int, n: int) -> RoughFamily:
    """``f(x)^i_kap = c x_i`` when ``i == kap``, else 0: channel kap is driven
    by state coordinate kap alone."""
    sel = np.eye(d, n)
    jac = read_only(c * (np.eye(d)[:, :, None] * sel[None, :, :]))   # (d, d, n) selector, scaled

    csel = c * sel   # x * (c sel) has the bits of (c x) sel: the factors are 0 or 1

    def jet(t, x):
        return x[:, :, None] * csel, broadcast_view(jac, (x.shape[0], d, d, n))

    return measure_free_family(d, n, jet)


def sin_state_family(c: float, d: int, n: int) -> RoughFamily:
    """``f(x)^i_kap = c sin(x_i)`` when ``i == kap``, else 0."""
    sel = np.eye(d, n)
    diag = np.eye(d)[:, :, None] * sel[None, :, :]   # (d, d, n) selector

    def jet(t, x):
        return c * np.sin(x)[:, :, None] * sel, c * np.cos(x)[:, :, None, None] * diag

    return measure_free_family(d, n, jet)


def moment_family(dim: int, channels: int, jet: Callable) -> RoughFamily:
    """Coefficient ``f(t, x, mu) = phi(t, x, mean(mu))``.

    ``jet(t, x, m) -> (phi, dx_phi, dm_phi)`` with ``phi`` of shape
    ``(A, d, n)`` and both gradients ``(A, d, d, n)``, the second ``d`` axis
    of ``dm_phi`` indexing the mean coordinate.  The measure derivative at
    insertion ``v`` equals ``dm_phi`` for every ``v``, so the mixing term
    factors through the cloud average of the coefficient and stays O(N).
    """

    def jet_(t, x, mu, order):
        out = jet(t, x, mu.mean())
        return (*out, None) if order else out[:1]

    def mixing_(grad, fz):
        return _jacobian_pairing(grad, symmetric_mean(fz, axis=0))

    return RoughFamily(dim=dim, channels=channels, jet=jet_, mixing=mixing_)


def moment_sin_family(a: float, b: float) -> RoughFamily:
    """``f(x, mu) = a sin(x) + b cos(x) tanh(mean(mu))``, one dim, one channel."""

    def jet(t, x, m):
        # In place on sin and cos, with the operand order of
        # f = a sin + (b cos) th, dx_f = a cos - (b sin) th and
        # dmu = (b cos) sech^2: five cloud-sized arrays at most.
        sin, cos, th = np.sin(x), np.cos(x), np.tanh(m[0])
        sech2 = 1.0 / np.cosh(m[0]) ** 2
        f = a * sin
        dxf = a * cos
        sin *= b
        sin *= th
        dxf -= sin
        cos *= b
        dmu = cos * sech2
        cos *= th
        f += cos
        return f[:, :, None], dxf[:, :, None, None], dmu[:, :, None, None]

    return moment_family(1, 1, jet)


def convolution_family(dim: int, channels: int, kernel: Callable) -> RoughFamily:
    """Coefficient ``f(t, x, mu) = avg_y g(t, x, y)`` over the cloud.

    ``kernel(t, x, y, order)`` receives ``x`` of shape ``(A, 1, d)`` and
    ``y`` of shape ``(1, B, d)`` and must broadcast.  Order 0 returns
    ``(g,)``, order 1 ``(g, dx_g, dy_g)``: ``g -> (A, B, d, n)``, the state
    gradient ``dx_g -> (A, B, d, d, n)`` and the kernel gradient in ``y``,
    ``dy_g -> (A, B, d, d, n)``, which is exactly the measure derivative at
    the insertion point.  Evaluation is quadratic in the cloud size, so a
    value-only caller must not pay for the two gradients.
    """

    def jet_(t, x, mu, order):
        parts = kernel(t, x[:, None, :], mu.points[None, :, :], order)
        if not order:
            return (symmetric_mean(parts[0], axis=1),)
        g, dxg, dyg = parts
        return symmetric_mean(g, axis=1), symmetric_mean(dxg, axis=1), dyg, None

    def mixing_(grads, fz):                              # grads (A, B, d, d, n)
        return symmetric_mean(_jacobian_pairing(grads, fz), axis=1)

    return RoughFamily(dim=dim, channels=channels, jet=jet_, mixing=mixing_)


def convolution_gauss_family(a: float, w: float) -> RoughFamily:
    """``f(x, mu) = a avg_y exp(-(x - y)^2 / 2 w^2)``, one dim, one channel."""
    w2 = w * w

    def kernel(t, x, y, order):
        u = x - y
        e = np.exp(-0.5 * u**2 / w2)
        g = (a * e)[:, :, :, None]
        if not order:
            return (g,)
        r = u / w2
        return g, (-r * a * e)[:, :, :, None, None], (r * a * e)[:, :, :, None, None]

    return convolution_family(1, 1, kernel)


# ---------------------------------------------------------------------------
# scenario kinds


class Kind(NamedTuple):
    """A kind of a composite scenario key ``kind arg ...``.  ``build`` and ``refuse``
    take ``(d, n, *args)``; ``refuse``, if any, returns why they do not fit, or None."""

    arity: int
    build: Callable
    refuse: Callable | None = None


def _needs_square(kind: str) -> Callable:
    return lambda d, n, *args: None if d == n else f"{kind} needs dim == driver_dim"


def _needs_scalar(kind: str, width: bool = False) -> Callable:
    """Refuses all but d = n = 1 and, with ``width``, a width ``args[1] <= 0``."""
    msg = f"{kind} is implemented for dim = driver_dim = 1"
    return lambda d, n, *args: msg if d != 1 or n != 1 else (
        "kernel width must be positive" if width and args[1] <= 0 else None
    )


# ``[coefficients] rough``, n the driver dimension, in the unknown-kind message's order
ROUGH_KINDS = {
    "none": Kind(0, zero_rough),
    "constant": Kind(1, lambda d, n, c: constant_rough(c * np.eye(d, n))),
    "linear_state": Kind(
        1, lambda d, n, c: linear_state_family(c, d, n), _needs_square("linear_state")
    ),
    "sin_state": Kind(1, lambda d, n, c: sin_state_family(c, d, n), _needs_square("sin_state")),
    "moment_sin": Kind(2, lambda d, n, a, b: moment_sin_family(a, b), _needs_scalar("moment_sin")),
    "convolution_gauss": Kind(
        2,
        lambda d, n, a, w: convolution_gauss_family(a, w),
        _needs_scalar("convolution_gauss", width=True),
    ),
}


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
    fz = None if fam.measure_free else fam.jet(t, mu.points, mu, 0)[0]
    return area_tensor(fam, fam.jet(t, x, mu, 1), fz)


def area_tensor(fam: RoughFamily, jet: tuple, fz: np.ndarray | None) -> np.ndarray:
    """``area_coefficient`` from the order-1 ``jet`` of ``fam`` at some
    points and the coefficient ``fz`` at the cloud (None for measure-free
    families); a caller whose points are the cloud passes the jet's own
    value as ``fz``.  Its ``sum_j`` is an ``ordered_sum``, rounded as that
    docstring says."""
    f, dxf, dmu, prime = jet
    out = _jacobian_pairing(dxf, f)
    if not fam.measure_free:
        out += fam.mixing(dmu, fz)
    if prime is not None:
        out += np.swapaxes(prime, -1, -2)
    return out


def diffusion_square(
    coeffs: CoefficientSet, t: float, x: np.ndarray, mu: EmpiricalMeasure | None
) -> np.ndarray:
    """``sigma sigma^T`` per point, shape ``(A, d, d)``, an ``ordered_sum``
    over the Brownian index."""
    s = coeffs.diffusion(t, x, mu)
    return ordered_sum(s[:, :, None, l] * s[:, None, :, l] for l in range(s.shape[-1]))
