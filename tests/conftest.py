"""Shared coefficient builders used across the test modules."""

import numpy as np

from roughmkv.coefficients import (
    CoefficientSet,
    coefficient_set,
    linear_state_family,
    moment_family,
)


def linear_signal_family(c: float):
    """Measure-free one channel coefficient f(x) = c x in one dimension."""
    return linear_state_family(c, 1, 1)


def mean_coupled_sin_family(a: float, b: float):
    """f(x, mu) = a sin(x) + b cos(x) tanh(mean(mu)), one dim, one channel."""

    def phi(t, x, m):
        return (a * np.sin(x) + b * np.cos(x) * np.tanh(m[0]))[:, :, None]

    def dxp(t, x, m):
        return (a * np.cos(x) - b * np.sin(x) * np.tanh(m[0]))[:, :, None, None]

    def dmp(t, x, m):
        return (b * np.cos(x) / np.cosh(m[0]) ** 2)[:, :, None, None]

    return moment_family(1, 1, phi, dxp, dmp)


def ornstein_uhlenbeck_set(rate: float = 0.3, vol: float = 0.5) -> CoefficientSet:
    """Mean-reverting drift plus constant Brownian volatility, no signal term."""
    return coefficient_set(
        1,
        1,
        1,
        drift=lambda t, x, mu: -rate * x,
        diffusion=lambda t, x, mu: vol * np.ones((x.shape[0], 1, 1)),
    )
