"""Scenario files: a small sectioned key-value format for experiment runs.

A scenario is UTF-8 text in INI syntax with a fixed set of sections and keys.
Each ``Scenario`` field declares its section, key, parser, default and
optional lower bound; every field except ``[scenario] name`` and
``[scenario] experiment`` has a default.  Parsing is strict: unknown
sections (``[DEFAULT]`` included) or keys are errors that name the nearest
valid spelling, and every value error names its section and key.
``canonical_text`` emits a normal form listing every field; parsing the
normal form reproduces the same scenario, and its SHA-256 is the scenario
checksum embedded in reports.

Value grammar for composite fields is ``kind arg arg ...`` with
space-separated float arguments, e.g. ``drift = linear_mean -0.5 0.25``.
"""

from __future__ import annotations

import configparser
import difflib
import hashlib
import io
import math
from dataclasses import MISSING, Field, dataclass, field, fields
from typing import Callable

import numpy as np

from .coefficients import (
    CoefficientSet,
    RoughFamily,
    coefficient_set,
    constant_rough,
    convolution_family,
    linear_state_family,
    measure_free_family,
    moment_sin_family,
)
from .grids import TimeGrid
from .roughpath import (
    ALPHA_MAX,
    ALPHA_MIN,
    GridRoughPath,
    brownian_lift,
    ito_from_stratonovich,
    lift_piecewise_linear,
)
from .simulate import SCHEME_FULL, SCHEMES

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
# A residual scan's finest grid, ``cells * 2**(levels - 1)`` cells, may not
# exceed this; the driver and every level's flow are built on that grid.
_MAX_SCAN_CELLS = 65536


class ScenarioError(ValueError):
    """Malformed scenario text; message pins down section and key."""


def _parse_int(sec: str, key: str, raw: str) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise ScenarioError(f"[{sec}] {key}: expected an integer, got {raw!r}") from None


def _parse_float(sec: str, key: str, raw: str) -> float:
    try:
        val = float(raw.strip())
    except ValueError:
        raise ScenarioError(f"[{sec}] {key}: expected a number, got {raw!r}") from None
    if not math.isfinite(val):
        raise ScenarioError(f"[{sec}] {key}: expected a finite number, got {raw.strip()!r}")
    return val


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


def _key(sec: str, key: str, parse: Callable, default=MISSING, least: int | None = None):
    """A field read from ``[sec] key`` by ``parse``; ``least`` is an inclusive lower bound."""
    meta = {"section": sec, "key": key, "parse": parse, "least": least}
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class Scenario:
    """Every key of the format; the declaration order is the canonical order."""

    name: str = _key("scenario", "name", _parse_str)
    experiment: str = _key("scenario", "experiment", _parse_choice(EXPERIMENTS))
    seed: int = _key("scenario", "seed", _parse_int, 0, least=0)
    dim: int = _key("scenario", "dim", _parse_int, 1, least=1)
    brownian_dim: int = _key("scenario", "brownian_dim", _parse_int, 1, least=1)
    driver_dim: int = _key("scenario", "driver_dim", _parse_int, 1, least=1)
    horizon: float = _key("grid", "horizon", _parse_float, 1.0)
    cells: int = _key("grid", "cells", _parse_int, 64, least=1)
    levels: int = _key("grid", "levels", _parse_int, 4, least=1)
    driver_kind: str = _key("driver", "kind", _parse_choice(_DRIVER_KINDS), "brownian")
    driver_seed: int = _key("driver", "driver_seed", _parse_int, 1, least=0)
    refinement: int = _key("driver", "refinement", _parse_int, 64, least=1)
    alpha: float = _key("driver", "alpha", _parse_float, 0.4)
    convention: str = _key("driver", "convention", _parse_choice(_CONVENTIONS), "stratonovich")
    driver_scale: float = _key("driver", "scale", _parse_float, 1.0)
    drift: tuple = _key("coefficients", "drift", _parse_kinded(_DRIFT_KINDS), ("none",))
    sigma: tuple = _key("coefficients", "sigma", _parse_kinded(_SIGMA_KINDS), ("none",))
    rough: tuple = _key("coefficients", "rough", _parse_kinded(_ROUGH_KINDS), ("none",))
    particles: int = _key("particles", "count", _parse_int, 256, least=1)
    particle_counts: tuple[int, ...] = _key(
        "particles", "count_list", _parse_int_list, (250, 1000, 4000)
    )
    initial: tuple = _key(
        "particles", "initial", _parse_kinded(_INITIAL_KINDS), ("gaussian", 0.0, 1.0)
    )
    scheme: str = _key("particles", "scheme", _parse_choice(SCHEMES), SCHEME_FULL)
    backward_samples: int = _key("backward", "samples", _parse_int, 4096, least=2)
    terminal: tuple = _key("backward", "terminal", _parse_kinded(_TERMINAL_KINDS), ("identity",))
    x_points: int = _key("backward", "x_points", _parse_int, 33, least=4)
    time_points: int = _key("backward", "time_points", _parse_int, 5, least=2)


# section -> key -> field, in declaration order
_SECTIONS: dict[str, dict[str, Field]] = {}
for _f in fields(Scenario):
    _SECTIONS.setdefault(_f.metadata["section"], {})[_f.metadata["key"]] = _f


def _nearest(word: str, options) -> str:
    close = difflib.get_close_matches(word, list(options), n=1)
    return f" did you mean {close[0]!r}?" if close else ""


def parse_scenario_text(text: str) -> Scenario:
    # configparser would copy a [DEFAULT] section's keys into every section;
    # "" is never a header, so [DEFAULT] parses as an (unknown) section
    cp = configparser.ConfigParser(interpolation=None, strict=True, default_section="")
    cp.optionxform = str  # keys are case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario text: {exc}") from None

    values: dict[str, object] = {}
    for sec in cp.sections():
        if sec not in _SECTIONS:
            raise ScenarioError(
                f"unknown section [{sec}];{_nearest(sec, _SECTIONS)} "
                f"valid: {', '.join(_SECTIONS)}"
            )
        keys = _SECTIONS[sec]
        for key, raw in cp.items(sec):
            if key not in keys:
                raise ScenarioError(
                    f"unknown key {key!r} in [{sec}];{_nearest(key, keys)} "
                    f"valid: {', '.join(keys)}"
                )
            values[keys[key].name] = keys[key].metadata["parse"](sec, key, raw)

    for f in fields(Scenario):
        if f.default is MISSING and f.name not in values:
            raise ScenarioError(f"[{f.metadata['section']}] {f.metadata['key']} is required")
    sc = Scenario(**values)
    _validate(sc)
    return sc


def parse_scenario_file(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return parse_scenario_text(text)


def _validate(sc: Scenario) -> None:
    def bad(sec: str, key: str, msg: str) -> ScenarioError:
        return ScenarioError(f"[{sec}] {key}: {msg}")

    for f in fields(sc):
        least = f.metadata["least"]
        if least is not None and getattr(sc, f.name) < least:
            raise bad(f.metadata["section"], f.metadata["key"], f"must be >= {least}")
    if sc.horizon <= 0:
        raise bad("grid", "horizon", "must be positive")
    if not (ALPHA_MIN < sc.alpha <= ALPHA_MAX):
        raise bad("driver", "alpha", f"must lie in (1/3, 1/2], got {sc.alpha}")
    if sc.initial[0] == "gaussian" and sc.initial[2] <= 0:
        raise bad("particles", "initial", "gaussian std must be positive")
    if sc.initial[0] == "uniform" and sc.initial[1] >= sc.initial[2]:
        raise bad("particles", "initial", "uniform needs lo < hi")
    if sc.terminal[0] == "gauss" and sc.terminal[2] <= 0:
        raise bad("backward", "terminal", "gauss width must be positive")

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
        if not build_coefficients(sc).measure_free:
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
        if any(a >= b for a, b in zip(sc.particle_counts, sc.particle_counts[1:])):
            raise bad(
                "particles", "count_list",
                "sizes must be strictly increasing (the scan checks that W2 "
                "falls in list order)",
            )
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
    if sc.experiment == "residual_scan":
        if sc.convention == "ito":  # the weak-form expansion has no bracket term
            raise bad("driver", "convention", "the scan needs a geometric (stratonovich) signal")
        if sc.levels < 2:
            raise bad("grid", "levels", "residual scan needs at least two levels")
        # the shift is exact for integers and stays cheap for any ``levels``
        if sc.cells > _MAX_SCAN_CELLS >> (sc.levels - 1):
            raise bad(
                "grid", "levels",
                f"residual scan's finest grid of cells * 2**(levels - 1) = "
                f"{sc.cells} * 2**{sc.levels - 1} cells exceeds {_MAX_SCAN_CELLS}",
            )


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
    for sec, keys in _SECTIONS.items():
        out.write(f"[{sec}]\n")
        for key, f in keys.items():
            out.write(f"{key} = {fmt(getattr(sc, f.name))}\n")
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
        rp = brownian_lift(
            seed, sc.driver_dim, grid, refinement_factor=sc.refinement, alpha=sc.alpha
        )
    else:
        t = grid.points[:, None]
        chan = np.arange(1, sc.driver_dim + 1)[None, :]
        if sc.driver_kind == "line":
            samples = sc.driver_scale * t / chan
        else:  # sinusoid
            samples = sc.driver_scale * np.sin(
                2.0 * np.pi * chan * t / grid.horizon + 0.3 * (chan - 1)
            )
        samples.setflags(write=False)  # handed over frozen, so the lift keeps it as it is
        rp = lift_piecewise_linear(grid, samples, alpha=sc.alpha)
    if sc.convention == "ito":
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
    return lambda t, x, mu: np.broadcast_to(mat, (x.shape[0],) + mat.shape)


def _rough_family(sc: Scenario) -> RoughFamily | None:
    kind = sc.rough[0]
    d, n = sc.dim, sc.driver_dim
    if kind == "none":
        return None
    if kind == "constant":
        return constant_rough(sc.rough[1] * np.eye(d, n))
    if kind == "linear_state":
        return linear_state_family(sc.rough[1], d, n)
    if kind == "sin_state":
        c = sc.rough[1]
        # channel kap is driven by state coordinate kap alone
        sel = np.eye(d, n)
        diag = np.eye(d)[:, :, None] * sel[None, :, :]   # (d, d, n) selector

        def jet(t, x):
            return (
                c * np.sin(x)[:, :, None] * sel[None, :, :],
                c * np.cos(x)[:, :, None, None] * diag[None, :, :, :],
            )

        return measure_free_family(d, n, jet)
    if kind == "moment_sin":
        return moment_sin_family(sc.rough[1], sc.rough[2])
    if kind == "convolution_gauss":
        a, w = sc.rough[1], sc.rough[2]
        w2 = w * w

        def kernel(t, x, y, order):
            u = x - y
            e = np.exp(-0.5 * u**2 / w2)
            if not order:
                return ((a * e)[:, :, :, None],)
            r = u / w2
            return (
                (a * e)[:, :, :, None],
                (-r * a * e)[:, :, :, None, None],
                (r * a * e)[:, :, :, None, None],
            )

        return convolution_family(1, 1, kernel)
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
