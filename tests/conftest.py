"""Shared coefficient builders and a memory probe used across the test modules."""

import tracemalloc

import numpy as np

from roughmkv.coefficients import (
    CoefficientSet,
    coefficient_set,
    convolution_family,
    linear_state_family,
    moment_family,
)


def linear_signal_family(c: float):
    """Measure-free one channel coefficient f(x) = c x in one dimension."""
    return linear_state_family(c, 1, 1)


def mean_coupled_sin_family(a: float, b: float, calls: list | None = None):
    """f(x, mu) = a sin(x) + b cos(x) tanh(mean(mu)), one dim, one channel.

    With a ``calls`` list, each jet call appends its point count there.
    """

    def jet(t, x, m):
        if calls is not None:
            calls.append(x.shape[0])
        sin, cos, th = np.sin(x), np.cos(x), np.tanh(m[0])
        return (
            (a * sin + b * cos * th)[:, :, None],
            (a * cos - b * sin * th)[:, :, None, None],
            (b * cos / np.cosh(m[0]) ** 2)[:, :, None, None],
        )

    return moment_family(1, 1, jet)


def gauss_kernel_family(amp: float, width: float, lions_lip: float | None = None):
    """f(x, mu) = amp * avg_y exp(-(x - y)^2 / (2 width^2)), one dim."""
    w2 = width * width

    def kernel(t, x, y, order):
        u = (x - y)[..., 0]
        c = amp * np.exp(-(u**2) / (2 * w2))
        if not order:
            return (c[..., None, None],)
        return (
            c[..., None, None],
            (-(u / w2) * c)[..., None, None, None],
            ((u / w2) * c)[..., None, None, None],
        )

    return convolution_family(1, 1, kernel, lions_lip=lions_lip)


def ornstein_uhlenbeck_set(rate: float = 0.3, vol: float = 0.5) -> CoefficientSet:
    """Mean-reverting drift plus constant Brownian volatility, no signal term."""
    return coefficient_set(
        1,
        1,
        1,
        drift=lambda t, x, mu: -rate * x,
        diffusion=lambda t, x, mu: vol * np.ones((x.shape[0], 1, 1)),
    )


def traced_peak(fn):
    """Call ``fn()``; return its result and the peak bytes it allocated.

    The peak is what ``tracemalloc`` saw above the level live at the call;
    numpy reports its array buffers there, so arrays made before the call
    (and passed in) do not count.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - base
