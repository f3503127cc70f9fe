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

A composite field is ``kind arg arg ...`` with space-separated float
arguments, e.g. ``drift = linear_mean -0.5 0.25``.  Each kind is one
``coefficients.Kind`` entry, with its arity, builder and refusal, in its key's
table: ``coefficients.ROUGH_KINDS`` for ``rough`` and the tables below for
``drift``, ``sigma``, ``initial`` and ``terminal``.
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

from .coefficients import ROUGH_KINDS, CoefficientSet, Kind, coefficient_set
from .grids import TimeGrid, broadcast_view, read_only
from .roughpath import (
    ALPHA_MAX,
    ALPHA_MIN,
    GridRoughPath,
    brownian_lift,
    ito_from_stratonovich,
    lift_piecewise_linear,
)
from .simulate import SCHEME_FULL, SCHEMES, SimulationConfig

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
    "build_simulation_config",
]

EXPERIMENTS = ("lift_checks", "residual_scan", "chaos_scan", "duality", "diagnostics")

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
            raise ScenarioError(f"[{sec}] {key}: " + _unknown(f"value {val!r}", val, choices))
        return val

    return parse


def _parse_kinded(kinds: dict[str, Kind]) -> Callable[[str, str, str], tuple]:
    def parse(sec: str, key: str, raw: str) -> tuple:
        toks = raw.split()
        if not toks:
            raise ScenarioError(f"[{sec}] {key}: empty value")
        kind = toks[0]
        if kind not in kinds:
            raise ScenarioError(f"[{sec}] {key}: " + _unknown(f"kind {kind!r}", kind, kinds))
        arity = kinds[kind].arity
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


def _key(sec: str, key: str, parse: Callable, default=MISSING, least: int | None = None, **kinded):
    """A field read from ``[sec] key`` by ``parse``; ``least`` is an inclusive lower bound."""
    meta = {"section": sec, "key": key, "parse": parse, "least": least, "kinds": None} | kinded
    return field(default=default, metadata=meta)


def _kinded(sec: str, key: str, kinds: dict[str, Kind], default: tuple, n: str = "driver_dim"):
    """A ``kind arg ...`` field; its kinds take the field named ``n`` as channel dimension."""
    return _key(sec, key, _parse_kinded(kinds), default, kinds=kinds, n=n)


def _constant_diffusion(mat: np.ndarray) -> Callable:
    mat = read_only(mat)
    return lambda t, x, mu: broadcast_view(mat, (x.shape[0],) + mat.shape)


# The kinds of the other composite keys, in the unknown-kind message's order; they
# build (drift or None, measure-free), the diffusion or None, a sampler or g(x_T).
_DRIFT_KINDS = {
    "none": Kind(0, lambda d, n: (None, True)),
    "linear": Kind(1, lambda d, n, a: ((lambda t, x, mu: a * x), True)),
    "linear_mean": Kind(
        2, lambda d, n, a, c: ((lambda t, x, mu: a * x + c * mu.mean()[None, :]), False)
    ),
    "tanh": Kind(1, lambda d, n, a: ((lambda t, x, mu: a * np.tanh(x)), True)),
}
_SIGMA_KINDS = {
    "none": Kind(0, lambda d, n: None),
    "constant": Kind(1, lambda d, n, s: _constant_diffusion(s * np.eye(d, n))),
}
_INITIAL_KINDS = {
    "point": Kind(1, lambda d, n, x0: lambda rng, k: np.full((k, d), x0)),
    "gaussian": Kind(
        2,
        lambda d, n, mean, std: lambda rng, k: mean + std * rng.standard_normal((k, d)),
        lambda d, n, mean, std: None if std > 0 else "gaussian std must be positive",
    ),
    "uniform": Kind(
        2,
        lambda d, n, lo, hi: lambda rng, k: rng.uniform(lo, hi, size=(k, d)),
        lambda d, n, lo, hi: None if lo < hi else "uniform needs lo < hi",
    ),
}
_TERMINAL_KINDS = {
    "identity": Kind(0, lambda d, n: lambda x: x.sum(axis=1)),
    "square": Kind(0, lambda d, n: lambda x: np.sum(x**2, axis=1)),
    "gauss": Kind(
        2,
        lambda d, n, c, w: lambda x: np.exp(-0.5 * np.sum((x - c) ** 2, axis=1) / w**2),
        lambda d, n, c, w: None if w > 0 else "gauss width must be positive",
    ),
}


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
    drift: tuple = _kinded("coefficients", "drift", _DRIFT_KINDS, ("none",))
    sigma: tuple = _kinded("coefficients", "sigma", _SIGMA_KINDS, ("none",), n="brownian_dim")
    rough: tuple = _kinded("coefficients", "rough", ROUGH_KINDS, ("none",))
    particles: int = _key("particles", "count", _parse_int, 256, least=1)
    particle_counts: tuple[int, ...] = _key(
        "particles", "count_list", _parse_int_list, (250, 1000, 4000)
    )
    initial: tuple = _kinded("particles", "initial", _INITIAL_KINDS, ("gaussian", 0.0, 1.0))
    scheme: str = _key("particles", "scheme", _parse_choice(SCHEMES), SCHEME_FULL)
    backward_samples: int = _key("backward", "samples", _parse_int, 4096, least=4)
    terminal: tuple = _kinded("backward", "terminal", _TERMINAL_KINDS, ("identity",))
    x_points: int = _key("backward", "x_points", _parse_int, 33, least=4)
    time_points: int = _key("backward", "time_points", _parse_int, 5, least=2)


_FIELDS: dict[str, Field] = {f.name: f for f in fields(Scenario)}
# section -> key -> field, in declaration order
_SECTIONS: dict[str, dict[str, Field]] = {}
for _f in _FIELDS.values():
    _SECTIONS.setdefault(_f.metadata["section"], {})[_f.metadata["key"]] = _f


def _unknown(what: str, word: str, options) -> str:
    """``unknown <what>``, the nearest of ``options`` to ``word`` if any is
    near, and every option."""
    close = difflib.get_close_matches(word, list(options), n=1)
    hint = f" did you mean {close[0]!r}?" if close else ""
    return f"unknown {what};{hint} valid: {', '.join(options)}"


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
            raise ScenarioError(_unknown(f"section [{sec}]", sec, _SECTIONS))
        keys = _SECTIONS[sec]
        for key, raw in cp.items(sec):
            if key not in keys:
                raise ScenarioError(_unknown(f"key {key!r} in [{sec}]", key, keys))
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
    if sc.backward_samples % 2:
        raise bad("backward", "samples", "must be even (the sampler draws antithetic pairs)")
    if sc.horizon <= 0:
        raise bad("grid", "horizon", "must be positive")
    if not (ALPHA_MIN < sc.alpha <= ALPHA_MAX):
        raise bad("driver", "alpha", f"must lie in (1/3, 1/2], got {sc.alpha}")
    for f in fields(sc):
        why = f.metadata["kinds"] and _kind_call(sc, f.name, "refuse")
        if why:
            raise bad(f.metadata["section"], f.metadata["key"], why)

    if sc.experiment == "duality":
        if not build_coefficients(sc).measure_free:
            raise bad(
                "scenario",
                "experiment",
                "duality needs measure-free coefficients "
                f"(drift {sc.drift[0]!r} / rough {sc.rough[0]!r} depend on the cloud)",
            )
        if sc.dim > 2:
            raise bad(
                "scenario", "experiment",
                f"duality is capped at dim <= 2: its lattice holds x_points**dim = "
                f"{sc.x_points}**{sc.dim} points",
            )
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


def _kind_call(sc: Scenario, name: str, part: str = "build"):
    """Call ``part`` (``build`` or ``refuse``) of the kind of composite field
    ``name`` with ``(d, n, *args)``; a kind without a refusal refuses nothing."""
    f = _FIELDS[name]
    kind, *args = getattr(sc, name)
    call = getattr(f.metadata["kinds"][kind], part)
    return call and call(sc.dim, getattr(sc, f.metadata["n"]), *args)


def build_coefficients(sc: Scenario) -> CoefficientSet:
    drift, drift_free = _kind_call(sc, "drift")
    return coefficient_set(
        sc.dim, sc.brownian_dim, sc.driver_dim, drift=drift, diffusion=_kind_call(sc, "sigma"),
        rough=_kind_call(sc, "rough"), drift_measure_free=drift_free,
    )


def build_initial_sampler(sc: Scenario) -> Callable[[np.random.Generator, int], np.ndarray]:
    return _kind_call(sc, "initial")


def build_terminal(sc: Scenario) -> tuple[str, Callable[[np.ndarray], np.ndarray]]:
    return sc.terminal[0], _kind_call(sc, "terminal")


def build_simulation_config(
    sc: Scenario, grid: TimeGrid, seed: int, particle_count: int
) -> SimulationConfig:
    """The scenario's particle system on ``grid`` with particle seed ``seed``."""
    return SimulationConfig(
        particle_count=particle_count,
        grid=grid,
        seed=seed,
        dim=sc.dim,
        brownian_dim=sc.brownian_dim,
        driver_dim=sc.driver_dim,
        scheme=sc.scheme,
        initial_sampler=build_initial_sampler(sc),
    )
