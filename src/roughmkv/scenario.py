"""Scenario files: a small sectioned key-value format for experiment runs.

A scenario is UTF-8 text in INI syntax with a fixed set of sections and keys
(see the schema below; everything except ``[scenario] name`` and
``[scenario] experiment`` has a documented default).  Parsing is strict:
unknown sections or keys are errors that name the nearest valid spelling,
and every value error names its section and key.  ``canonical_text`` emits a
normal form listing every field; parsing the normal form reproduces the same
scenario, and its SHA-256 is the scenario checksum embedded in reports.

Value grammar for composite fields is ``kind arg arg ...`` with
space-separated float arguments, e.g. ``drift = linear_mean -0.5 0.25``.
"""

from __future__ import annotations

import configparser
import difflib
import hashlib
import io
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .coefficients import (
    CoefficientSet,
    RoughFamily,
    coefficient_set,
    constant_rough,
    convolution_family,
    measure_free_family,
    moment_family,
)
from .grids import TimeGrid
from .roughpath import GridRoughPath, brownian_lift, lift_piecewise_linear

__all__ = [
    "EXPERIMENTS",
    "Scenario",
    "ScenarioError",
    "parse_scenario_text",
    "parse_scenario_file",
    "canonical_text",
    "scenario_checksum",
    "build_driver",
    "build_coefficients",
    "build_initial_sampler",
    "build_terminal",
]

EXPERIMENTS = ("lift_checks", "residual_scan", "chaos_scan", "duality", "diagnostics")

_DRIFT_KINDS = {"none": 0, "linear": 1, "linear_mean": 2, "tanh": 1}
_SIGMA_KINDS = {"none": 0, "constant": 1}
_ROUGH_KINDS = {
    "none": 0,
    "constant": 1,
    "linear_state": 1,
    "sin_state": 1,
    "moment_sin": 2,
    "convolution_gauss": 2,
}
_INITIAL_KINDS = {"point": 1, "gaussian": 2, "uniform": 2}
_TERMINAL_KINDS = {"identity": 0, "square": 0, "gauss": 2}
_DRIVER_KINDS = ("brownian", "line", "sinusoid")
_CONVENTIONS = ("stratonovich", "ito")
_SCHEMES = ("davie_full", "davie_no_lift")

_MEASURE_DEP_DRIFT = {"linear_mean"}
_MEASURE_DEP_ROUGH = {"moment_sin", "convolution_gauss"}


class ScenarioError(ValueError):
    """Malformed scenario text; message pins down section and key."""


@dataclass(frozen=True)
class Scenario:
    name: str
    experiment: str
    seed: int = 0
    dim: int = 1
    brownian_dim: int = 1
    driver_dim: int = 1
    horizon: float = 1.0
    cells: int = 64
    levels: int = 4
    driver_kind: str = "brownian"
    driver_seed: int = 1
    refinement: int = 64
    alpha: float = 0.4
    convention: str = "stratonovich"
    driver_scale: float = 1.0
    drift: tuple = ("none",)
    sigma: tuple = ("none",)
    rough: tuple = ("none",)
    particles: int = 256
    particle_counts: tuple[int, ...] = (250, 1000, 4000)
    initial: tuple = ("gaussian", 0.0, 1.0)
    scheme: str = "davie_full"
    backward_samples: int = 4096
    terminal: tuple = ("identity",)
    x_points: int = 33
    time_points: int = 5


# (section, key) -> (scenario field, parser)
def _parse_int(sec: str, key: str, raw: str) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise ScenarioError(f"[{sec}] {key}: expected an integer, got {raw!r}") from None


def _parse_float(sec: str, key: str, raw: str) -> float:
    try:
        return float(raw.strip())
    except ValueError:
        raise ScenarioError(f"[{sec}] {key}: expected a number, got {raw!r}") from None


def _parse_choice(choices) -> Callable[[str, str, str], str]:
    def parse(sec: str, key: str, raw: str) -> str:
        val = raw.strip()
        if val not in choices:
            hint = _nearest(val, choices)
            raise ScenarioError(
                f"[{sec}] {key}: unknown value {val!r};{hint} valid: {', '.join(choices)}"
            )
        return val

    return parse


def _parse_kinded(kinds: dict[str, int]) -> Callable[[str, str, str], tuple]:
    def parse(sec: str, key: str, raw: str) -> tuple:
        toks = raw.split()
        if not toks:
            raise ScenarioError(f"[{sec}] {key}: empty value")
        kind = toks[0]
        if kind not in kinds:
            hint = _nearest(kind, kinds)
            raise ScenarioError(
                f"[{sec}] {key}: unknown kind {kind!r};{hint} valid: {', '.join(kinds)}"
            )
        arity = kinds[kind]
        if len(toks) - 1 != arity:
            raise ScenarioError(
                f"[{sec}] {key}: kind {kind!r} takes {arity} argument(s), "
                f"got {len(toks) - 1}"
            )
        return (kind,) + tuple(_parse_float(sec, key, t) for t in toks[1:])

    return parse


def _parse_int_list(sec: str, key: str, raw: str) -> tuple[int, ...]:
    toks = raw.split()
    if not toks:
        raise ScenarioError(f"[{sec}] {key}: empty list")
    return tuple(_parse_int(sec, key, t) for t in toks)


def _parse_str(sec: str, key: str, raw: str) -> str:
    val = raw.strip()
    if not val:
        raise ScenarioError(f"[{sec}] {key}: must not be empty")
    return val


_SCHEMA: dict[str, dict[str, tuple[str, Callable]]] = {
    "scenario": {
        "name": ("name", _parse_str),
        "experiment": ("experiment", _parse_choice(EXPERIMENTS)),
        "seed": ("seed", _parse_int),
        "dim": ("dim", _parse_int),
        "brownian_dim": ("brownian_dim", _parse_int),
        "driver_dim": ("driver_dim", _parse_int),
    },
    "grid": {
        "horizon": ("horizon", _parse_float),
        "cells": ("cells", _parse_int),
        "levels": ("levels", _parse_int),
    },
    "driver": {
        "kind": ("driver_kind", _parse_choice(_DRIVER_KINDS)),
        "driver_seed": ("driver_seed", _parse_int),
        "refinement": ("refinement", _parse_int),
        "alpha": ("alpha", _parse_float),
        "convention": ("convention", _parse_choice(_CONVENTIONS)),
        "scale": ("driver_scale", _parse_float),
    },
    "coefficients": {
        "drift": ("drift", _parse_kinded(_DRIFT_KINDS)),
        "sigma": ("sigma", _parse_kinded(_SIGMA_KINDS)),
        "rough": ("rough", _parse_kinded(_ROUGH_KINDS)),
    },
    "particles": {
        "count": ("particles", _parse_int),
        "count_list": ("particle_counts", _parse_int_list),
        "initial": ("initial", _parse_kinded(_INITIAL_KINDS)),
        "scheme": ("scheme", _parse_choice(_SCHEMES)),
    },
    "backward": {
        "samples": ("backward_samples", _parse_int),
        "terminal": ("terminal", _parse_kinded(_TERMINAL_KINDS)),
        "x_points": ("x_points", _parse_int),
        "time_points": ("time_points", _parse_int),
    },
}


def _nearest(word: str, options) -> str:
    close = difflib.get_close_matches(word, list(options), n=1)
    return f" did you mean {close[0]!r}?" if close else ""


def parse_scenario_text(text: str) -> Scenario:
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str  # keys are case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario text: {exc}") from None

    values: dict[str, object] = {}
    for sec in cp.sections():
        if sec not in _SCHEMA:
            raise ScenarioError(
                f"unknown section [{sec}];{_nearest(sec, _SCHEMA)} "
                f"valid: {', '.join(_SCHEMA)}"
            )
        for key, raw in cp.items(sec):
            if key not in _SCHEMA[sec]:
                raise ScenarioError(
                    f"unknown key {key!r} in [{sec}];{_nearest(key, _SCHEMA[sec])} "
                    f"valid: {', '.join(_SCHEMA[sec])}"
                )
            field_name, parser = _SCHEMA[sec][key]
            values[field_name] = parser(sec, key, raw)

    for required in ("name", "experiment"):
        if required not in values:
            raise ScenarioError(f"[scenario] {required} is required")
    sc = Scenario(**values)
    _validate(sc)
    return sc


def parse_scenario_file(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario_text(fh.read())


def _validate(sc: Scenario) -> None:
    def bad(sec: str, key: str, msg: str) -> ScenarioError:
        return ScenarioError(f"[{sec}] {key}: {msg}")

    if min(sc.dim, sc.brownian_dim, sc.driver_dim) < 1:
        raise bad("scenario", "dim", "all dimensions must be >= 1")
    if sc.horizon <= 0:
        raise bad("grid", "horizon", "must be positive")
    if sc.cells < 1:
        raise bad("grid", "cells", "must be >= 1")
    if sc.levels < 1:
        raise bad("grid", "levels", "must be >= 1")
    if not (1.0 / 3.0 < sc.alpha <= 0.5):
        raise bad("driver", "alpha", f"must lie in (1/3, 1/2], got {sc.alpha}")
    if sc.refinement < 1:
        raise bad("driver", "refinement", "must be >= 1")
    if sc.particles < 1:
        raise bad("particles", "count", "must be >= 1")
    if sc.backward_samples < 2:
        raise bad("backward", "samples", "must be >= 2")
    if sc.x_points < 4:
        raise bad("backward", "x_points", "must be >= 4")
    if sc.time_points < 2:
        raise bad("backward", "time_points", "must be >= 2")
    if sc.initial[0] == "gaussian" and sc.initial[2] <= 0:
        raise bad("particles", "initial", "gaussian std must be positive")
    if sc.initial[0] == "uniform" and sc.initial[1] >= sc.initial[2]:
        raise bad("particles", "initial", "uniform needs lo < hi")

    state_channel = {"linear_state", "sin_state"}
    if sc.rough[0] in state_channel and sc.dim != sc.driver_dim:
        raise bad("coefficients", "rough", f"{sc.rough[0]} needs dim == driver_dim")
    if sc.rough[0] in ("moment_sin", "convolution_gauss") and (
        sc.dim != 1 or sc.driver_dim != 1
    ):
        raise bad("coefficients", "rough", f"{sc.rough[0]} is implemented for dim = driver_dim = 1")
    if sc.rough[0] == "convolution_gauss" and sc.rough[2] <= 0:
        raise bad("coefficients", "rough", "kernel width must be positive")

    if sc.experiment == "duality":
        if sc.drift[0] in _MEASURE_DEP_DRIFT or sc.rough[0] in _MEASURE_DEP_ROUGH:
            raise bad(
                "scenario",
                "experiment",
                "duality needs measure-free coefficients "
                f"(drift {sc.drift[0]!r} / rough {sc.rough[0]!r} depend on the cloud)",
            )
        if sc.dim > 2:
            raise bad("scenario", "experiment", "duality lattice supports dim <= 2")
    if sc.experiment == "chaos_scan":
        if len(sc.particle_counts) < 2:
            raise bad("particles", "count_list", "chaos scan needs at least two sizes")
        if any(c < 2 for c in sc.particle_counts):
            raise bad("particles", "count_list", "sizes must be >= 2")
        if sc.dim != 1 and max(sc.particle_counts) > 512:
            raise bad(
                "particles", "count_list",
                "for dim > 1 the exact coupling caps sizes at 512",
            )
        if sc.dim != 1 and any(
            max(sc.particle_counts) % c != 0 for c in sc.particle_counts
        ):
            raise bad(
                "particles", "count_list",
                "for dim > 1 every size must divide the largest "
                "(the reference comparison duplicates atoms to a square assignment)",
            )
    if sc.experiment == "residual_scan" and sc.levels < 2:
        raise bad("grid", "levels", "residual scan needs at least two levels")


# ---------------------------------------------------------------------------
# canonical form


def canonical_text(sc: Scenario) -> str:
    def fmt(v) -> str:
        if isinstance(v, bool):
            raise TypeError("no boolean scenario fields")
        if isinstance(v, tuple):
            return " ".join(fmt(x) for x in v)
        if isinstance(v, float):
            return repr(v)
        return str(v)

    out = io.StringIO()
    for sec, keys in _SCHEMA.items():
        out.write(f"[{sec}]\n")
        for key, (field_name, _) in keys.items():
            out.write(f"{key} = {fmt(getattr(sc, field_name))}\n")
        out.write("\n")
    return out.getvalue()


def scenario_checksum(sc: Scenario) -> str:
    return hashlib.sha256(canonical_text(sc).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# builders


def build_driver(
    sc: Scenario, grid: TimeGrid, driver_seed: int | None = None
) -> GridRoughPath:
    seed = sc.driver_seed if driver_seed is None else driver_seed
    if sc.driver_kind == "brownian":
        return brownian_lift(
            seed, sc.driver_dim, grid,
            refinement_factor=sc.refinement,
            convention=sc.convention,
            alpha=sc.alpha,
        )
    t = grid.points[:, None]
    chan = np.arange(1, sc.driver_dim + 1)[None, :]
    if sc.driver_kind == "line":
        samples = sc.driver_scale * t / chan
    else:  # sinusoid
        samples = sc.driver_scale * np.sin(
            2.0 * np.pi * chan * t / grid.horizon + 0.3 * (chan - 1)
        )
    rp = lift_piecewise_linear(grid, samples, alpha=sc.alpha)
    if sc.convention == "ito":
        from .roughpath import ito_from_stratonovich

        rp = ito_from_stratonovich(rp)
    return rp


def _drift_callable(sc: Scenario) -> tuple[Callable | None, bool]:
    kind = sc.drift[0]
    if kind == "none":
        return None, True
    if kind == "linear":
        a = sc.drift[1]
        return (lambda t, x, mu: a * x), True
    if kind == "tanh":
        a = sc.drift[1]
        return (lambda t, x, mu: a * np.tanh(x)), True
    if kind == "linear_mean":
        a, c = sc.drift[1], sc.drift[2]
        return (lambda t, x, mu: a * x + c * mu.mean()[None, :]), False
    raise AssertionError(kind)


def _sigma_callable(sc: Scenario) -> Callable | None:
    kind = sc.sigma[0]
    if kind == "none":
        return None
    s = sc.sigma[1]
    mat = s * np.eye(sc.dim, sc.brownian_dim)
    return lambda t, x, mu: np.broadcast_to(mat, (x.shape[0],) + mat.shape).copy()


def _rough_family(sc: Scenario) -> RoughFamily | None:
    kind = sc.rough[0]
    d, n = sc.dim, sc.driver_dim
    if kind == "none":
        return None
    if kind == "constant":
        return constant_rough(sc.rough[1] * np.eye(d, n))
    if kind in ("linear_state", "sin_state"):
        c = sc.rough[1]
        # channel kap is driven by state coordinate kap alone
        diag = np.eye(d)[:, :, None] * np.eye(d, n)[None, :, :]   # (d, d, n) selector

        if kind == "linear_state":
            fun = lambda t, x: c * x[:, :, None] * np.eye(d, n)[None, :, :]
            dx_fun = lambda t, x: np.broadcast_to(
                c * diag, (x.shape[0], d, d, n)
            ).copy()
            return measure_free_family(d, n, fun, dx_fun, certified=False)
        fun = lambda t, x: c * np.sin(x)[:, :, None] * np.eye(d, n)[None, :, :]
        dx_fun = lambda t, x: c * np.cos(x)[:, :, None, None] * diag[None, :, :, :]
        return measure_free_family(d, n, fun, dx_fun, certified=True, bound=abs(c))
    if kind == "moment_sin":
        a, b = sc.rough[1], sc.rough[2]

        def phi(t, x, m):
            return (a * np.sin(x) + b * np.cos(x) * np.tanh(m[0]))[:, :, None]

        def dx_phi(t, x, m):
            return (a * np.cos(x) - b * np.sin(x) * np.tanh(m[0]))[:, :, None, None]

        def dm_phi(t, x, m):
            sech2 = 1.0 / np.cosh(m[0]) ** 2
            return (b * np.cos(x) * sech2)[:, :, None, None]

        return moment_family(
            1, 1, phi, dx_phi, dm_phi,
            certified=True, bound=abs(a) + abs(b), lions_lip=abs(b),
        )
    if kind == "convolution_gauss":
        a, w = sc.rough[1], sc.rough[2]
        w2 = w * w

        def g(t, x, y):
            return a * np.exp(-0.5 * (x - y) ** 2 / w2)[:, :, :, None]

        def dx_g(t, x, y):
            r = (x - y) / w2
            return (-r * a * np.exp(-0.5 * (x - y) ** 2 / w2))[:, :, :, None, None]

        def dy_g(t, x, y):
            r = (x - y) / w2
            return (r * a * np.exp(-0.5 * (x - y) ** 2 / w2))[:, :, :, None, None]

        return convolution_family(
            1, 1, g, dx_g, dy_g,
            certified=True, bound=abs(a), lions_lip=abs(a) / w2 * 2.0,
        )
    raise AssertionError(kind)


def build_coefficients(sc: Scenario) -> CoefficientSet:
    drift, drift_free = _drift_callable(sc)
    return coefficient_set(
        sc.dim,
        sc.brownian_dim,
        sc.driver_dim,
        drift=drift,
        diffusion=_sigma_callable(sc),
        rough=_rough_family(sc),
        drift_measure_free=drift_free,
    )


def build_initial_sampler(sc: Scenario) -> Callable[[np.random.Generator, int], np.ndarray]:
    kind = sc.initial[0]
    d = sc.dim
    if kind == "point":
        x0 = sc.initial[1]
        return lambda rng, n: np.full((n, d), x0)
    if kind == "gaussian":
        mean, std = sc.initial[1], sc.initial[2]
        return lambda rng, n: mean + std * rng.standard_normal((n, d))
    lo, hi = sc.initial[1], sc.initial[2]
    return lambda rng, n: rng.uniform(lo, hi, size=(n, d))


def build_terminal(sc: Scenario) -> tuple[str, Callable[[np.ndarray], np.ndarray]]:
    kind = sc.terminal[0]
    if kind == "identity":
        return kind, lambda x: x.sum(axis=1)
    if kind == "square":
        return kind, lambda x: np.sum(x**2, axis=1)
    center, width = sc.terminal[1], sc.terminal[2]
    return kind, lambda x: np.exp(
        -0.5 * np.sum((x - center) ** 2, axis=1) / width**2
    )
