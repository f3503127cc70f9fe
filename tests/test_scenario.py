"""Scenario parsing, validation, canonical form, and builders."""

import re
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmkv.grids import TimeGrid
from roughmkv.roughpath import ito_from_stratonovich, roughpath_checksum, sym_defect
from roughmkv.scenario import (
    Scenario,
    ScenarioError,
    build_coefficients,
    build_driver,
    build_initial_sampler,
    build_terminal,
    canonical_text,
    parse_scenario_file,
    parse_scenario_text,
    scenario_checksum,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

MINIMAL = """
[scenario]
name = demo
experiment = lift_checks
"""


def test_minimal_file_gets_documented_defaults():
    sc = parse_scenario_text(MINIMAL)
    assert sc.name == "demo"
    assert sc.experiment == "lift_checks"
    assert sc.alpha == 0.4
    assert sc.refinement == 64
    assert sc.backward_samples == 4096
    assert sc.driver_kind == "brownian"
    assert sc.convention == "stratonovich"
    assert sc.particle_counts == (250, 1000, 4000)


def test_missing_required_keys():
    with pytest.raises(ScenarioError, match="name"):
        parse_scenario_text("[scenario]\nexperiment = duality\n")
    with pytest.raises(ScenarioError, match="experiment"):
        parse_scenario_text("[scenario]\nname = x\n")


def test_unknown_key_suggests_nearest():
    text = MINIMAL + "\n[particles]\nsheme = davie_full\n"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario_text(text)
    msg = str(exc.value)
    assert "sheme" in msg and "scheme" in msg


def test_unknown_section_suggests_nearest():
    with pytest.raises(ScenarioError, match="particle"):
        parse_scenario_text(MINIMAL + "\n[particle]\ncount = 3\n")


def test_unknown_kind_suggests_nearest():
    text = MINIMAL + "\n[coefficients]\nrough = constantt 0.5\n"
    with pytest.raises(ScenarioError, match="constant"):
        parse_scenario_text(text)


# (section, key) -> kind -> arity, every kind of every composite key in
# the order the unknown-kind message lists them
KIND_ARITY = {
    ("coefficients", "drift"): {"none": 0, "linear": 1, "linear_mean": 2, "tanh": 1},
    ("coefficients", "sigma"): {"none": 0, "constant": 1},
    ("coefficients", "rough"): {
        "none": 0, "constant": 1, "linear_state": 1, "sin_state": 1,
        "moment_sin": 2, "convolution_gauss": 2,
    },
    ("particles", "initial"): {"point": 1, "gaussian": 2, "uniform": 2},
    ("backward", "terminal"): {"identity": 0, "square": 0, "gauss": 2},
}
# arguments every kind accepts at dim = brownian_dim = driver_dim = 1
KIND_ARGS = ("0.25", "0.5", "0.75")


@pytest.mark.parametrize(
    "section, key, kind, arity",
    [
        pytest.param(sec, key, kind, arity, id=f"{key}-{kind}")
        for (sec, key), kinds in KIND_ARITY.items()
        for kind, arity in kinds.items()
    ],
)
def test_kind_arity_is_checked(section, key, kind, arity):
    def text(count):
        return MINIMAL + f"[{section}]\n{key} = {' '.join((kind,) + KIND_ARGS[:count])}\n"

    sc = parse_scenario_text(text(arity))
    assert getattr(sc, key) == (kind,) + tuple(float(a) for a in KIND_ARGS[:arity])
    build_coefficients(sc)
    assert build_initial_sampler(sc)(np.random.default_rng(0), 3).shape == (3, 1)
    assert build_terminal(sc)[1](np.zeros((3, 1))).shape == (3,)
    for got in (arity - 1, arity + 1):
        if got < 0:
            continue
        want = f"[{section}] {key}: kind {kind!r} takes {arity} argument(s), got {got}"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_text(text(got))
        assert str(exc.value) == want


def dims_text(dim: int, driver_dim: int, section: str, line: str) -> str:
    return (
        f"[scenario]\nname = k\nexperiment = diagnostics\ndim = {dim}\n"
        f"driver_dim = {driver_dim}\n[{section}]\n{line}\n"
    )


# every refusal a kind makes: (dim, driver_dim, section, line, reason); the
# whole message is "[section] key: reason"
KIND_REFUSALS = [
    *(
        (d, n, "coefficients", f"rough = {kind} 0.5", f"{kind} needs dim == driver_dim")
        for kind in ("linear_state", "sin_state")
        for d, n in ((2, 1), (1, 2), (3, 2))
    ),
    *(
        (d, n, "coefficients", f"rough = {kind} 0.5 0.7",
         f"{kind} is implemented for dim = driver_dim = 1")
        for kind in ("moment_sin", "convolution_gauss")
        for d, n in ((2, 1), (1, 2), (2, 2))
    ),
    *(
        (1, 1, "coefficients", f"rough = convolution_gauss 0.5 {w}",
         "kernel width must be positive")
        for w in ("0", "-0.5")
    ),
    *(
        (1, 1, "particles", f"initial = gaussian 0.0 {s}", "gaussian std must be positive")
        for s in ("0", "-1.0")
    ),
    *(
        (1, 1, "particles", f"initial = uniform {lo} {hi}", "uniform needs lo < hi")
        for lo, hi in (("1.0", "1.0"), ("2.0", "1.0"))
    ),
    *(
        (1, 1, "backward", f"terminal = gauss 0.0 {w}", "gauss width must be positive")
        for w in ("0", "-0.5")
    ),
    *(
        (1, 1, sec, f"{key} = xyzzy 1.0", f"unknown kind 'xyzzy'; valid: {', '.join(kinds)}")
        for (sec, key), kinds in KIND_ARITY.items()
    ),
]


@pytest.mark.parametrize("dim, driver_dim, section, line, reason", KIND_REFUSALS)
def test_kind_refusals_are_pinned(dim, driver_dim, section, line, reason):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario_text(dims_text(dim, driver_dim, section, line))
    assert str(exc.value) == f"[{section}] {line.split()[0]}: {reason}"


def test_several_kind_refusals_report_the_first_declared_key():
    # each file breaks the rules of the keys from the i-th on, in declaration order
    broken = [
        ("coefficients", "rough = convolution_gauss 0.5 0", "rough: kernel width must be positive"),
        ("particles", "initial = uniform 1.0 1.0", "initial: uniform needs lo < hi"),
        ("backward", "terminal = gauss 0.0 0", "terminal: gauss width must be positive"),
    ]
    for i, (_, _, want) in enumerate(broken):
        text = MINIMAL + "".join(f"[{sec}]\n{line}\n" for sec, line, _ in broken[i:])
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_text(text)
        assert str(exc.value) == f"[{broken[i][0]}] {want}"


def test_type_errors_name_section_and_key():
    with pytest.raises(ScenarioError, match=r"\[grid\] cells"):
        parse_scenario_text(MINIMAL + "\n[grid]\ncells = few\n")


def test_semantic_validation():
    with pytest.raises(ScenarioError, match="alpha"):
        parse_scenario_text(MINIMAL + "\n[driver]\nalpha = 0.2\n")
    for coefficients in (
        "rough = moment_sin 0.5 0.4",
        "drift = linear_mean -0.3 0.2",
        "rough = convolution_gauss 0.5 0.7",
    ):
        with pytest.raises(ScenarioError, match="measure-free") as exc:
            parse_scenario_text(
                "[scenario]\nname = d\nexperiment = duality\n"
                f"[coefficients]\n{coefficients}\n"
            )
        kind = coefficients.split()[2]
        assert f"{kind!r}" in str(exc.value)
        assert "drift" in str(exc.value) and "rough" in str(exc.value)
    with pytest.raises(ScenarioError, match="two sizes"):
        parse_scenario_text(
            "[scenario]\nname = c\nexperiment = chaos_scan\n"
            "[particles]\ncount_list = 100\n"
        )
    with pytest.raises(ScenarioError, match="dim == driver_dim"):
        parse_scenario_text(
            "[scenario]\nname = s\nexperiment = diagnostics\ndim = 2\n"
            "[coefficients]\nrough = sin_state 0.5\n"
        )
    with pytest.raises(ScenarioError, match=r"\[scenario\] seed: must be >= 0"):
        parse_scenario_text(MINIMAL + "seed = -1\n")
    with pytest.raises(ScenarioError, match=r"\[driver\] driver_seed: must be >= 0"):
        parse_scenario_text(MINIMAL + "\n[driver]\ndriver_seed = -3\n")
    for width in ("0", "-0.5"):
        with pytest.raises(ScenarioError, match="gauss width must be positive"):
            parse_scenario_text(
                "[scenario]\nname = g\nexperiment = duality\n"
                f"[backward]\nterminal = gauss 0.0 {width}\n"
            )


@pytest.mark.parametrize(
    "section, line",
    [
        ("grid", "horizon = {}"),
        ("driver", "alpha = {}"),
        ("driver", "scale = {}"),
        ("coefficients", "drift = linear_mean -0.5 {}"),
        ("coefficients", "sigma = constant {}"),
        ("coefficients", "rough = convolution_gauss {} 0.5"),
        ("particles", "initial = gaussian {} 1.0"),
        ("backward", "terminal = gauss 0.0 {}"),
    ],
)
@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "+Infinity", "-INF"])
def test_non_finite_numbers_rejected_at_parse(section, line, value):
    key = line.split()[0]
    with pytest.raises(
        ScenarioError, match=rf"\[{section}\] {key}: expected a finite number, got '{re.escape(value)}'"
    ):
        parse_scenario_text(MINIMAL + f"[{section}]\n{line.format(value)}\n")


SCAN = "[scenario]\nname = s\nexperiment = residual_scan\n[grid]\n"


def test_residual_scan_size_is_bounded():
    # the bound is on the finest grid, cells * 2**(levels - 1) <= 65536
    for cells, levels in ((16, 13), (4096, 5), (32768, 2)):
        sc = parse_scenario_text(SCAN + f"cells = {cells}\nlevels = {levels}\n")
        assert sc.cells * 2 ** (sc.levels - 1) == 65536
    for cells, levels in ((16, 14), (4097, 5), (32769, 2), (16, 40), (1, 10**9)):
        size = f"{cells} * 2**{levels - 1} cells exceeds 65536"
        with pytest.raises(ScenarioError, match=r"\[grid\] levels: .*" + re.escape(size)):
            parse_scenario_text(SCAN + f"cells = {cells}\nlevels = {levels}\n")
    # other experiments do not build the dyadic ladder
    parse_scenario_text(MINIMAL + "[grid]\ncells = 16\nlevels = 14\n")


def test_duality_dimension_cap_names_the_lattice_size():
    duality = "[scenario]\nname = d\nexperiment = duality\ndim = {}\n[backward]\nx_points = 9\n"
    assert parse_scenario_text(duality.format(2)).dim == 2
    size = "its lattice holds x_points**dim = 9**3 points"
    with pytest.raises(
        ScenarioError,
        match=r"\[scenario\] experiment: duality is capped at dim <= 2: " + re.escape(size),
    ):
        parse_scenario_text(duality.format(3))
    # the other experiments build no lattice
    assert parse_scenario_text(MINIMAL + "dim = 3\n").dim == 3


@pytest.mark.parametrize("counts", ["250 250 1000", "1000 250 4000"])
def test_chaos_sizes_must_increase(counts):
    with pytest.raises(ScenarioError, match=r"\[particles\] count_list: sizes must be strictly increasing"):
        parse_scenario_text(
            "[scenario]\nname = c\nexperiment = chaos_scan\n"
            f"[particles]\ncount_list = {counts}\n"
        )


@pytest.mark.parametrize(
    "counts, reason",
    [
        ("8 16 1024", "for dim > 1 the exact coupling caps sizes at 512"),
        ("8 12 32", "for dim > 1 every size must divide the largest"),
    ],
)
def test_chaos_sizes_in_two_dims_fit_the_exact_coupling(counts, reason):
    def chaos(dim):
        return parse_scenario_text(
            f"[scenario]\nname = c\nexperiment = chaos_scan\ndim = {dim}\n"
            f"[particles]\ncount_list = {counts}\n"
        )

    with pytest.raises(ScenarioError, match=r"\[particles\] count_list: " + re.escape(reason)):
        chaos(2)
    # d = 1 couples by quantiles, with no cap and no divisibility
    assert chaos(1).dim == 1


def test_duplicate_keys_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario_text(MINIMAL + "\n[grid]\ncells = 4\ncells = 8\n")


# (section, key, inclusive lower bound) of every bounded key
BOUNDS = [
    ("scenario", "seed", 0),
    ("scenario", "dim", 1),
    ("scenario", "brownian_dim", 1),
    ("scenario", "driver_dim", 1),
    ("grid", "cells", 1),
    ("grid", "levels", 1),
    ("driver", "driver_seed", 0),
    ("driver", "refinement", 1),
    ("particles", "count", 1),
    ("backward", "samples", 4),
    ("backward", "x_points", 4),
    ("backward", "time_points", 2),
]


@pytest.mark.parametrize("section, key, least", BOUNDS)
def test_every_bounded_key_refuses_one_below_its_bound(section, key, least):
    head = MINIMAL + ("" if section == "scenario" else f"[{section}]\n")
    sc = parse_scenario_text(head + f"{key} = {least}\n")
    assert canonical_text(sc).count(f"\n{key} = {least}\n") == 1
    with pytest.raises(ScenarioError, match=rf"^\[{section}\] {key}: must be >= {least}$"):
        parse_scenario_text(head + f"{key} = {least - 1}\n")


@pytest.mark.parametrize("samples", [5, 4097])
def test_odd_backward_samples_are_refused(samples):
    want = "[backward] samples: must be even (the sampler draws antithetic pairs)"
    with pytest.raises(ScenarioError, match=f"^{re.escape(want)}$"):
        parse_scenario_text(MINIMAL + f"[backward]\nsamples = {samples}\n")
    even = parse_scenario_text(MINIMAL + f"[backward]\nsamples = {samples + 1}\n")
    assert even.backward_samples == samples + 1


def test_fields_and_section_keys_map_one_to_one():
    declared = fields(Scenario)
    pairs = {(f.metadata["section"], f.metadata["key"]): f for f in declared}
    assert len(pairs) == len(declared) == 26
    bounded = [(*pair, f.metadata["least"]) for pair, f in pairs.items()]
    assert [b for b in bounded if b[2] is not None] == BOUNDS
    assert [f.name for f in declared if f.default is MISSING] == ["name", "experiment"]


def test_default_section_is_refused():
    valid = "valid: scenario, grid, driver, coefficients, particles, backward"
    # configparser would copy these keys into every section
    for text in (
        "[DEFAULT]\nseed = 5\n" + MINIMAL,
        "[DEFAULT]\ncells = 8\n" + MINIMAL + "[grid]\nlevels = 2\n",
        "[DEFAULT]\n" + MINIMAL,
    ):
        with pytest.raises(ScenarioError, match=re.escape(f"unknown section [DEFAULT]; {valid}")):
            parse_scenario_text(text)


def test_residual_scan_refuses_ito():
    want = "[driver] convention: the scan needs a geometric (stratonovich) signal"
    with pytest.raises(ScenarioError, match=f"^{re.escape(want)}$"):
        parse_scenario_text(SCAN + "[driver]\nconvention = ito\n")
    for experiment in ("lift_checks", "chaos_scan", "duality", "diagnostics"):
        sc = parse_scenario_text(
            f"[scenario]\nname = i\nexperiment = {experiment}\n[driver]\nconvention = ito\n"
        )
        assert sc.convention == "ito"


def test_readme_scenario_example_parses():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^```\n(\[coefficients\]\n.*?)^```$", readme, re.M | re.S).group(1)
    sc = parse_scenario_text(MINIMAL + block)
    assert sc.drift == ("linear_mean", -0.5, 0.25)
    assert sc.sigma == ("constant", 0.3)
    assert sc.rough == ("moment_sin", 0.5, 0.4)


def test_readme_lists_every_kind_of_every_composite_key():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed: dict[str, list[str]] = {}
    for key, kind in re.findall(r"^\| `(\[\w+\] \w+)` +\| `(\w+)` +\|", readme, re.M):
        listed.setdefault(key, []).append(kind)
    tables = {
        f"[{f.metadata['section']}] {f.metadata['key']}": list(f.metadata["kinds"])
        for f in fields(Scenario)
        if f.metadata["kinds"]
    }
    assert tables == {f"[{sec}] {k}": list(kinds) for (sec, k), kinds in KIND_ARITY.items()}
    assert listed == tables


# ---------------------------------------------------------------------------
# canonical form


HAND_WRITTEN = (
    "[scenario]\nname = rt\nexperiment = residual_scan\nseed = 9\n"
    "[grid]\nhorizon = 0.5\ncells = 32\nlevels = 3\n"
    "[driver]\nkind = sinusoid\nscale = 0.8\nalpha = 0.45\n"
    "[coefficients]\ndrift = tanh 0.3\nrough = moment_sin 0.5 0.4\n"
    "[particles]\ncount = 64\ninitial = uniform -1.0 1.0\n"
)
ROUND_TRIP_TEXTS = {"hand_written": HAND_WRITTEN} | {
    p.stem: p.read_text(encoding="utf-8") for p in sorted(SCENARIOS.glob("*.ini"))
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_TEXTS))
def test_round_trip_through_canonical_text(name):
    sc = parse_scenario_text(ROUND_TRIP_TEXTS[name])
    again = parse_scenario_text(canonical_text(sc))
    assert again == sc
    assert canonical_text(again) == canonical_text(sc)
    assert scenario_checksum(again) == scenario_checksum(sc)


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 10**6),
    cells=st.integers(1, 512),
    horizon=st.floats(0.1, 8.0, allow_nan=False),
    alpha=st.floats(0.34, 0.5, allow_nan=False),
    drift_a=st.floats(-3.0, 3.0, allow_nan=False),
    scale=st.floats(0.1, 2.0, allow_nan=False),
)
def test_round_trip_property(seed, cells, horizon, alpha, drift_a, scale):
    sc = Scenario(
        name="prop",
        experiment="diagnostics",
        seed=seed,
        cells=cells,
        horizon=horizon,
        alpha=alpha,
        drift=("linear", drift_a),
        sigma=("constant", scale),
        rough=("sin_state", 0.7),
    )
    again = parse_scenario_text(canonical_text(sc))
    assert again == sc


MINIMAL_CANONICAL = """\
[scenario]
name = demo
experiment = lift_checks
seed = 0
dim = 1
brownian_dim = 1
driver_dim = 1

[grid]
horizon = 1.0
cells = 64
levels = 4

[driver]
kind = brownian
driver_seed = 1
refinement = 64
alpha = 0.4
convention = stratonovich
scale = 1.0

[coefficients]
drift = none
sigma = none
rough = none

[particles]
count = 256
count_list = 250 1000 4000
initial = gaussian 0.0 1.0
scheme = davie_full

[backward]
samples = 4096
terminal = identity
x_points = 33
time_points = 5

"""


def test_canonical_text_of_the_minimal_scenario_is_pinned():
    # every default, key and section in order: any change moves every checksum
    assert canonical_text(parse_scenario_text(MINIMAL)) == MINIMAL_CANONICAL


def test_checksum_tracks_content():
    a = parse_scenario_text(MINIMAL)
    b = parse_scenario_text(MINIMAL.replace("demo", "demo2"))
    assert scenario_checksum(a) != scenario_checksum(b)


def test_parse_file(tmp_path):
    p = tmp_path / "s.ini"
    p.write_text(MINIMAL)
    assert parse_scenario_file(str(p)) == parse_scenario_text(MINIMAL)


# ---------------------------------------------------------------------------
# builders


def test_line_driver_matches_formula():
    sc = parse_scenario_text(
        "[scenario]\nname = l\nexperiment = lift_checks\ndriver_dim = 2\n"
        "[driver]\nkind = line\nscale = 0.5\n"
    )
    grid = TimeGrid.uniform(1.0, 8)
    rp = build_driver(sc, grid)
    assert np.allclose(rp.values[:, 0], 0.5 * grid.points)
    assert np.allclose(rp.values[:, 1], 0.25 * grid.points)
    assert sym_defect(rp) <= 1e-12


def test_sinusoid_driver_is_geometric_and_deterministic():
    sc = parse_scenario_text(
        "[scenario]\nname = s\nexperiment = lift_checks\n"
        "[driver]\nkind = sinusoid\nscale = 0.8\n"
    )
    grid = TimeGrid.uniform(1.0, 16)
    a = build_driver(sc, grid)
    b = build_driver(sc, grid)
    assert np.array_equal(a.values, b.values)
    assert abs(a.values[4, 0] - 0.8 * np.sin(2 * np.pi * grid.points[4])) <= 1e-12
    assert sym_defect(a) <= 1e-12


def test_brownian_driver_ito_convention():
    sc = parse_scenario_text(
        "[scenario]\nname = b\nexperiment = lift_checks\n"
        "[driver]\nconvention = ito\nrefinement = 8\n"
    )
    grid = TimeGrid.uniform(1.0, 8)
    ito = build_driver(sc, grid)
    assert sym_defect(ito) > 1e-3  # genuinely non geometric


@pytest.mark.parametrize("kind", ["brownian", "line", "sinusoid"])
def test_ito_driver_is_the_shifted_stratonovich_driver(kind):
    # build_driver applies the one convention shift to every driver kind
    text = (
        "[scenario]\nname = b\nexperiment = lift_checks\ndriver_dim = 2\n"
        f"[driver]\nkind = {kind}\nrefinement = 4\n"
    )
    grid = TimeGrid(np.array([0.0, 0.1, 0.3, 1.0 / 3.0, 0.7, 0.71, 1.3]))
    ito = build_driver(parse_scenario_text(text + "convention = ito\n"), grid)
    want = ito_from_stratonovich(build_driver(parse_scenario_text(text), grid))
    assert np.array_equal(ito.cell_areas, want.cell_areas)
    assert roughpath_checksum(ito) == roughpath_checksum(want)


def test_coefficient_builders_evaluate():
    sc = parse_scenario_text(
        "[scenario]\nname = c\nexperiment = diagnostics\n"
        "[coefficients]\ndrift = linear_mean -0.5 0.3\nsigma = constant 0.4\n"
        "rough = convolution_gauss 0.6 1.2\n"
    )
    cs = build_coefficients(sc)
    assert not cs.measure_free
    from roughmkv.measures import EmpiricalMeasure

    x = np.array([[0.1], [0.4]])
    mu = EmpiricalMeasure(np.array([[0.0], [1.0]]))
    assert np.allclose(cs.drift(0.0, x, mu), -0.5 * x + 0.3 * 0.5)
    assert np.allclose(cs.diffusion(0.0, x, mu), 0.4)
    f = cs.rough.jet(0.0, x, mu, 0)[0]
    want = 0.6 * 0.5 * (
        np.exp(-((x - 0.0) ** 2) / (2 * 1.2**2)) + np.exp(-((x - 1.0) ** 2) / (2 * 1.2**2))
    )
    assert np.allclose(f[:, :, 0], want, rtol=1e-12)


def test_initial_sampler_kinds():
    rng = np.random.default_rng(0)
    point = parse_scenario_text(MINIMAL + "\n[particles]\ninitial = point 0.3\n")
    cloud = build_initial_sampler(point)(rng, 5)
    assert np.all(cloud == 0.3)
    uni = parse_scenario_text(MINIMAL + "\n[particles]\ninitial = uniform -1.0 2.0\n")
    u = build_initial_sampler(uni)(rng, 200)
    assert u.min() >= -1.0 and u.max() <= 2.0


def test_terminal_builders():
    sq = parse_scenario_text(MINIMAL + "\n[backward]\nterminal = square\n")
    name, g = build_terminal(sq)
    x = np.array([[1.0, 2.0], [0.0, 0.5]])
    assert np.allclose(g(x), [5.0, 0.25])
    assert "square" in name
    ga = parse_scenario_text(MINIMAL + "\n[backward]\nterminal = gauss 0.0 1.0\n")
    _, gg = build_terminal(ga)
    assert np.allclose(gg(np.zeros((1, 1))), 1.0)
