"""Shared coefficient builders, the finite-difference oracle of the measure
derivative, an einsum guard, a memory probe and file editors used across the
test modules."""

import sys
import tracemalloc

import numpy as np
import pytest

from roughmkv.coefficients import (
    CoefficientSet,
    coefficient_set,
    convolution_family,
    linear_state_family,
    measure_free_family,
    moment_family,
)
from roughmkv.measures import EmpiricalMeasure


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


# the constant time-control derivative of ``time_controlled_family``, (d, n, n)
TIME_CONTROL = 0.1 * np.array([[[0.3, -0.7], [0.5, 0.2]], [[-0.4, 0.1], [0.9, -0.2]]])


def time_controlled_family(calls: list | None = None):
    """d = n = 2, measure-free affine signal coefficient with the time control
    ``TIME_CONTROL``.

    With a ``calls`` list, each call of the time control appends its point
    count there.
    """
    A = np.array([[0.6, -0.2], [0.1, 0.5]])                                  # (d, n)
    B = 0.3 * np.array([[[0.4, -0.1], [0.2, 0.3]], [[-0.5, 0.2], [0.1, 0.6]]])  # (d, d, n)

    def jet(t, x):
        return A + np.einsum("ijk,aj->aik", B, x), np.broadcast_to(B, (x.shape[0],) + B.shape)

    def prime(t, x):
        if calls is not None:
            calls.append(x.shape[0])
        return np.broadcast_to(TIME_CONTROL, (x.shape[0],) + TIME_CONTROL.shape).copy()

    return measure_free_family(2, 2, jet, prime)


def gauss_kernel_family(amp: float, width: float):
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

    return convolution_family(1, 1, kernel)


def fd_lions_gap(fam, x, mu, direction, h=1e-4, t=0.37) -> float:
    """Central-difference check of the measure derivative along a cloud shift.

    Compares ``[f(mu(Z + hY)) - f(mu(Z - hY))] / 2h`` at the points ``x``
    with the family's order-1 jet paired through its ``mixing`` against the
    shift ``Y = direction``, the pair the scheme runs (zero for a
    measure-free family), and returns the max entrywise error relative to
    ``max(1, |analytic|_inf)``.
    """
    up = fam.jet(t, x, EmpiricalMeasure(mu.points + h * direction), 0)[0]
    dn = fam.jet(t, x, EmpiricalMeasure(mu.points - h * direction), 0)[0]
    fd = (up - dn) / (2.0 * h)
    if fam.measure_free:
        analytic = np.zeros_like(fd)
    else:
        analytic = fam.mixing(fam.jet(t, x, mu, 1)[2], direction[:, :, None])[:, :, 0, :]
    scale = max(1.0, float(np.max(np.abs(analytic))))
    return float(np.max(np.abs(fd - analytic)) / scale)


def ornstein_uhlenbeck_set(rate: float = 0.3, vol: float = 0.5) -> CoefficientSet:
    """Mean-reverting drift plus constant Brownian volatility, no signal term."""
    return coefficient_set(
        1,
        1,
        1,
        drift=lambda t, x, mu: -rate * x,
        diffusion=lambda t, x, mu: vol * np.ones((x.shape[0], 1, 1)),
    )


@pytest.fixture
def forbid_package_einsum(monkeypatch):
    """Calling the fixture makes ``np.einsum`` raise when the modules of the
    per-step and per-node paths call it.  The driver may, as it forms one
    span per cell, and so may test code."""
    einsum = np.einsum
    guarded_modules = {
        f"roughmkv.{name}" for name in ("simulate", "coefficients", "backward", "weakcheck")
    }

    def guarded(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller in guarded_modules:
            raise AssertionError(f"{caller} called np.einsum on a per-step or per-node path")
        return einsum(*args, **kwargs)

    return lambda: monkeypatch.setattr(np, "einsum", guarded)


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


def drop_magic_token(path, key: str) -> None:
    """Remove the ``key=...`` token from the magic line of the file at ``path``."""
    magic, rest = path.read_text(encoding="utf-8").split("\n", 1)
    kept = " ".join(t for t in magic.split() if not t.startswith(key + "="))
    path.write_text(kept + "\n" + rest, encoding="utf-8")


def edit_cell(path, row: int, column: int, text: str) -> None:
    """Set the cell at data ``row`` and ``column`` of the stamp-free table at
    ``path`` to ``text``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[2 + row].split(",")
    cells[column] = text
    lines[2 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def edit_magic(path, old: str, new: str) -> None:
    """Replace ``old`` by ``new`` in the magic line of the table at ``path``."""
    magic, rest = path.read_text(encoding="utf-8").split("\n", 1)
    path.write_text(magic.replace(old, new) + "\n" + rest, encoding="utf-8")


def assert_refused_naming(load, path, match: str) -> None:
    """``load(str(path))`` raises a ``ValueError`` that matches ``match`` and
    starts with ``<path>: ``."""
    with pytest.raises(ValueError, match=match) as refused:
        load(str(path))
    assert str(refused.value).startswith(f"{path}: ")
