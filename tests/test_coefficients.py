"""Measure-coupled coefficient families and their certified derivatives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    TIME_CONTROL,
    gauss_kernel_family,
    linear_signal_family,
    mean_coupled_sin_family,
    time_controlled_family,
)

from roughmkv.coefficients import (
    ROUGH_KINDS,
    RoughFamily,
    area_coefficient,
    area_tensor,
    coefficient_set,
    constant_rough,
    diffusion_square,
    lions_fd_check,
    linear_state_family,
    measure_free_family,
    moment_family,
    moment_sin_family,
    zero_rough,
)
from roughmkv.measures import EmpiricalMeasure, symmetric_mean
from roughmkv.scenario import build_coefficients, parse_scenario_text


def cloud(seed: int, n: int, d: int = 1) -> EmpiricalMeasure:
    return EmpiricalMeasure(np.random.default_rng(seed).standard_normal((n, d)))


def scenario_family(rough: str, dim: int = 1):
    sc = parse_scenario_text(
        f"[scenario]\nname = j\nexperiment = diagnostics\ndim = {dim}\ndriver_dim = {dim}\n"
        f"[coefficients]\nrough = {rough}\n"
    )
    return build_coefficients(sc).rough


# ---------------------------------------------------------------------------
# jets against the separate value and derivative formulas they replaced,
# kept here as references


def ref_constant(c):
    d, n = c.shape
    return (lambda t, x: np.broadcast_to(c, (x.shape[0], d, n)).copy(),
            lambda t, x: np.zeros((x.shape[0], d, d, n)))


def ref_linear_state(c, d, n):
    sel = np.eye(d, n)
    diag = np.eye(d)[:, :, None] * sel[None, :, :]
    return (lambda t, x: c * x[:, :, None] * sel[None, :, :],
            lambda t, x: np.broadcast_to(c * diag, (x.shape[0], d, d, n)).copy())


def ref_sin_state(c, d, n):
    diag = np.eye(d)[:, :, None] * np.eye(d, n)[None, :, :]
    return (lambda t, x: c * np.sin(x)[:, :, None] * np.eye(d, n)[None, :, :],
            lambda t, x: c * np.cos(x)[:, :, None, None] * diag[None, :, :, :])


def ref_moment_sin(a, b):
    def phi(t, x, m):
        return (a * np.sin(x) + b * np.cos(x) * np.tanh(m[0]))[:, :, None]

    def dx_phi(t, x, m):
        return (a * np.cos(x) - b * np.sin(x) * np.tanh(m[0]))[:, :, None, None]

    def dm_phi(t, x, m):
        sech2 = 1.0 / np.cosh(m[0]) ** 2
        return (b * np.cos(x) * sech2)[:, :, None, None]

    return phi, dx_phi, dm_phi


def ref_mean_coupled_sin(a, b):
    phi, dx_phi, _ = ref_moment_sin(a, b)

    def dm_phi(t, x, m):
        return (b * np.cos(x) / np.cosh(m[0]) ** 2)[:, :, None, None]

    return phi, dx_phi, dm_phi


def ref_convolution_gauss(a, w):
    w2 = w * w

    def g(t, x, y):
        return a * np.exp(-0.5 * (x - y) ** 2 / w2)[:, :, :, None]

    def dx_g(t, x, y):
        r = (x - y) / w2
        return (-r * a * np.exp(-0.5 * (x - y) ** 2 / w2))[:, :, :, None, None]

    def dy_g(t, x, y):
        r = (x - y) / w2
        return (r * a * np.exp(-0.5 * (x - y) ** 2 / w2))[:, :, :, None, None]

    return g, dx_g, dy_g


def ref_gauss_kernel(amp, width):
    w2 = width * width

    def core(x, y):
        u = (x - y)[..., 0]
        return u, amp * np.exp(-(u**2) / (2 * w2))

    def g(t, x, y):
        return core(x, y)[1][..., None, None]

    def dx_g(t, x, y):
        u, c = core(x, y)
        return (-(u / w2) * c)[..., None, None, None]

    def dy_g(t, x, y):
        u, c = core(x, y)
        return ((u / w2) * c)[..., None, None, None]

    return g, dx_g, dy_g


JET_CASES = {
    "zero": (lambda: zero_rough(2, 3), "free", ref_constant(np.zeros((2, 3)))),
    "constant": (
        lambda: constant_rough(np.array([[0.7, -0.3]])), "free",
        ref_constant(np.array([[0.7, -0.3]])),
    ),
    "linear_state": (lambda: linear_state_family(0.7, 3, 2), "free", ref_linear_state(0.7, 3, 2)),
    "linear_signal": (lambda: linear_signal_family(0.5), "free", ref_linear_state(0.5, 1, 1)),
    "sin_state": (lambda: scenario_family("sin_state 0.8"), "free", ref_sin_state(0.8, 1, 1)),
    "sin_state_2": (lambda: scenario_family("sin_state 0.8", 2), "free", ref_sin_state(0.8, 2, 2)),
    "sin_state_3": (lambda: scenario_family("sin_state 0.8", 3), "free", ref_sin_state(0.8, 3, 3)),
    "moment_sin": (lambda: moment_sin_family(0.5, 0.4), "moment", ref_moment_sin(0.5, 0.4)),
    "scenario_moment_sin": (
        lambda: scenario_family("moment_sin 0.3 0.7"), "moment", ref_moment_sin(0.3, 0.7),
    ),
    "mean_coupled_sin": (
        lambda: mean_coupled_sin_family(0.5, 0.4), "moment", ref_mean_coupled_sin(0.5, 0.4),
    ),
    "convolution_gauss": (
        lambda: scenario_family("convolution_gauss 0.6 1.2"), "convolution",
        ref_convolution_gauss(0.6, 1.2),
    ),
    "gauss_kernel": (
        lambda: gauss_kernel_family(1.3, 0.9), "convolution", ref_gauss_kernel(1.3, 0.9),
    ),
}


@pytest.mark.parametrize("name", sorted(JET_CASES))
def test_jet_equals_the_separate_formulas(name):
    build, kind, refs = JET_CASES[name]
    fam = build()
    rng = np.random.default_rng(21)
    mu = EmpiricalMeasure(rng.standard_normal((9, fam.dim)))
    x = np.vstack([rng.standard_normal((5, fam.dim)), mu.points])
    t = 0.3
    if kind == "free":
        f, dxf = (ref(t, x) for ref in refs)
        dmu = None
    elif kind == "moment":
        f, dxf, dmu = (ref(t, x, mu.mean()) for ref in refs)
    else:
        xa, yb = x[:, None, :], mu.points[None, :, :]
        g, dxg, dmu = (ref(t, xa, yb) for ref in refs)
        f, dxf = symmetric_mean(g, axis=1), symmetric_mean(dxg, axis=1)
    got = fam.jet(t, x, None if kind == "free" else mu, 1)
    assert np.array_equal(got[0], f) and np.array_equal(got[1], dxf)
    assert got[2] is None if dmu is None else np.array_equal(got[2], dmu)
    (value,) = fam.jet(t, x, None if kind == "free" else mu, 0)
    assert np.array_equal(value, f)
    assert fam.measure_free == (kind == "free")


# ---------------------------------------------------------------------------
# evaluation oracles


def test_every_rough_builder_fits_the_dimensions_its_refusal_accepts():
    for kind, entry in ROUGH_KINDS.items():
        args = (0.5, 0.7)[: entry.arity]
        dims = [(d, n) for d in (1, 2, 3) for n in (1, 2, 3)]
        accepted = [(d, n) for d, n in dims if not (entry.refuse and entry.refuse(d, n, *args))]
        assert accepted, kind
        for d, n in accepted:
            fam = entry.build(d, n, *args)
            assert (fam.dim, fam.channels) == (d, n), kind
            assert coefficient_set(d, 1, n, rough=fam).rough is fam


def test_moment_family_evaluates_through_the_mean():
    fam = mean_coupled_sin_family(0.5, 0.4)
    mu = EmpiricalMeasure(np.array([[0.25], [0.75], [-1.0]]))
    m = (0.25 + 0.75 - 1.0) / 3.0
    x = np.array([[0.3], [1.1]])
    got = fam.jet(0.0, x, mu, 0)[0]
    want = 0.5 * np.sin(x) + 0.4 * np.cos(x) * np.tanh(m)
    assert np.allclose(got[:, :, 0], want, rtol=1e-14)


def test_convolution_family_averages_the_kernel():
    fam = gauss_kernel_family(2.0, 1.5)
    pts = np.array([[0.5], [-0.25], [1.0], [0.0]])
    mu = EmpiricalMeasure(pts)
    x = np.array([[0.2]])
    want = np.mean(2.0 * np.exp(-((0.2 - pts[:, 0]) ** 2) / (2 * 1.5**2)))
    assert np.isclose(fam.jet(0.0, x, mu, 0)[0][0, 0, 0], want, rtol=1e-14)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 24))
def test_family_outputs_are_permutation_exact(seed, n):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 1))
    perm = rng.permutation(n)
    x = rng.standard_normal((3, 1))
    for fam in (gauss_kernel_family(1.0, 0.8), mean_coupled_sin_family(0.7, 0.2)):
        a = fam.jet(0.0, x, EmpiricalMeasure(pts), 0)[0]
        b = fam.jet(0.0, x, EmpiricalMeasure(pts[perm]), 0)[0]
        assert np.array_equal(a, b)
        mu_a, mu_b = EmpiricalMeasure(pts), EmpiricalMeasure(pts[perm])
        ma = fam.mixing(fam.jet(0.0, x, mu_a, 1)[2], fam.jet(0.0, mu_a.points, mu_a, 0)[0])
        mb = fam.mixing(fam.jet(0.0, x, mu_b, 1)[2], fam.jet(0.0, mu_b.points, mu_b, 0)[0])
        assert np.array_equal(ma, mb)


def test_reweighting_closed_form_for_particle_averages():
    # dyadic coordinates keep every average exact, so appending one particle
    # must change the evaluation by the analytic (N a + g_new) / (N + 1) rule
    pts = np.array([[0.5], [0.25], [-0.75], [1.0]])
    extra = np.array([[0.125]])
    fam = gauss_kernel_family(1.0, 1.0)
    x = np.array([[0.0]])
    before = fam.jet(0.0, x, EmpiricalMeasure(pts), 0)[0][0, 0, 0]
    after = fam.jet(0.0, x, EmpiricalMeasure(np.vstack([pts, extra])), 0)[0][0, 0, 0]
    g_new = np.exp(-(0.0 - 0.125) ** 2 / 2.0)
    assert np.isclose(after, (4 * before + g_new) / 5.0, rtol=1e-15)

    fam2 = mean_coupled_sin_family(0.0, 1.0)  # depends on the mean only
    b2 = fam2.jet(0.0, x, EmpiricalMeasure(pts), 0)[0][0, 0, 0]
    a2 = fam2.jet(0.0, x, EmpiricalMeasure(np.vstack([pts, extra])), 0)[0][0, 0, 0]
    mean_after = (4 * 0.25 + 0.125) / 5.0
    assert np.isclose(a2, np.cos(0.0) * np.tanh(mean_after), rtol=1e-15)
    assert not np.isclose(a2, b2)


# ---------------------------------------------------------------------------
# measure derivatives


def test_measure_free_family_has_zero_measure_response():
    fam = linear_signal_family(0.7)
    mu = cloud(0, 12)
    x = np.array([[0.4]])
    assert fam.mixing is None and fam.jet(0.0, x, mu, 1)[2] is None
    assert fam.measure_free
    assert lions_fd_check(fam, 0.0, x, mu, np.ones((12, 1))) == 0.0


def test_finite_difference_agreement_both_families():
    rng = np.random.default_rng(5)
    mu = EmpiricalMeasure(rng.standard_normal((16, 1)))
    x = rng.standard_normal((2, 1))
    direction = rng.standard_normal((16, 1))
    for fam in (gauss_kernel_family(1.3, 0.9), mean_coupled_sin_family(0.5, 0.4)):
        err = lions_fd_check(fam, 0.0, x, mu, direction, h=1e-4)
        assert err <= 1e-4


def test_finite_difference_catches_wrong_derivative():
    def jet_with_wrong_dm(t, x, m):
        cos = np.cos(x + m[0])
        return np.sin(x + m[0])[:, :, None], cos[:, :, None, None], 2.5 * cos[:, :, None, None]

    fam = moment_family(1, 1, jet_with_wrong_dm)
    mu = cloud(1, 8)
    err = lions_fd_check(fam, 0.0, np.array([[0.1]]), mu, np.ones((8, 1)))
    assert err > 1e-2


def test_finite_difference_reads_the_mixing_the_scheme_runs():
    # the true jet of f(x, mu) = sin(x + mean(mu)), paired with its true mixing
    # and with a doubled one: only the mixing tells the two families apart
    def jet(t, x, m, order):
        cos = np.cos(x + m[0])[:, :, None, None]
        out = (np.sin(x + m[0])[:, :, None], cos, cos)
        return out if order else out[:1]

    def mixing(dmu, fz):
        return np.einsum("aijl,jk->aikl", dmu, symmetric_mean(fz, axis=0))

    def family(scale):
        return RoughFamily(
            dim=1,
            channels=1,
            jet=lambda t, x, mu, order: jet(t, x, mu.mean(), order),
            mixing=lambda dmu, fz: scale * mixing(dmu, fz),
        )

    mu = cloud(4, 8)
    x = np.array([[0.1], [-0.7]])
    direction = np.random.default_rng(6).standard_normal((8, 1))
    assert lions_fd_check(family(1.0), 0.0, x, mu, direction) <= 1e-4
    assert lions_fd_check(family(2.0), 0.0, x, mu, direction) > 1e-2


# ---------------------------------------------------------------------------
# assembled tensors


def test_area_tensor_for_linear_coefficient_is_state():
    # f(x) = x in one dim: the correction tensor is Df f = x
    fam = linear_signal_family(1.0)
    cs = coefficient_set(1, 1, 1, rough=fam)
    x = np.array([[0.3], [-1.2]])
    area = area_coefficient(cs, 0.0, x, None)
    assert np.allclose(area[:, :, 0, 0], x, rtol=1e-14)


def test_area_tensor_constant_coefficient_vanishes():
    cs = coefficient_set(1, 1, 2, rough=constant_rough(np.array([[0.7, -0.3]])))
    area = area_coefficient(cs, 0.0, np.array([[0.5]]), None)
    assert np.all(area == 0.0)


def test_area_tensor_includes_measure_response():
    # f(x, mu) = mean(mu): Df = 0, and the mixing term is avg D_mu f . f = f
    def jet(t, x, m):
        A = x.shape[0]
        return np.full((A, 1, 1), m[0]), np.zeros((A, 1, 1, 1)), np.ones((A, 1, 1, 1))

    fam = moment_family(1, 1, jet)
    cs = coefficient_set(1, 1, 1, rough=fam)
    mu = EmpiricalMeasure(np.array([[0.5], [1.5]]))
    area = area_coefficient(cs, 0.0, np.array([[9.9]]), mu)
    assert np.isclose(area[0, 0, 0, 0], 1.0, rtol=1e-14)  # mean of the cloud


def smallest_kind_family(kind: str):
    """The ``ROUGH_KINDS`` entry built at the smallest (d, n) its refusal accepts."""
    entry = ROUGH_KINDS[kind]
    args = (0.5, 0.7)[: entry.arity]
    d, n = next(
        (d, n) for d in (1, 2, 3) for n in (1, 2, 3)
        if not (entry.refuse and entry.refuse(d, n, *args))
    )
    return entry.build(d, n, *args)


# name -> (family builder, its constant time control or None)
AREA_FAMILIES = {
    "mean_coupled_sin": (lambda: mean_coupled_sin_family(0.5, 0.4), None),
    "moment_sin": (lambda: moment_sin_family(0.5, 0.4), None),
    "gauss_kernel": (lambda: gauss_kernel_family(1.3, 0.9), None),
    "linear_state": (lambda: linear_state_family(0.7, 2, 2), None),
    "time_control": (time_controlled_family, TIME_CONTROL),
    **{
        f"kind-{kind}": (lambda kind=kind: smallest_kind_family(kind), None)
        for kind in ROUGH_KINDS
    },
}


@pytest.mark.parametrize("name", list(AREA_FAMILIES))
def test_area_tensor_from_the_held_coefficient_equals_area_coefficient(name):
    build, prime = AREA_FAMILIES[name]
    fam = build()
    cs = coefficient_set(fam.dim, 1, fam.channels, rough=fam)
    mu = cloud(11, 9, fam.dim)
    marg = None if fam.measure_free else mu
    jet = fam.jet(0.3, mu.points, marg, 1)
    assert len(jet) == 4 and (jet[3] is None) == (prime is None)
    f = jet[0]
    held = area_tensor(fam, jet, f)
    assert np.array_equal(held, area_coefficient(cs, 0.3, mu.points, marg))

    # away from the cloud the wrapper still averages the measure response
    # against the coefficient at the cloud's own points
    x = np.random.default_rng(12).standard_normal((4, fam.dim))
    fx, dxf = fam.jet(0.3, x, marg, 1)[:2]
    want = np.einsum("aijl,ajk->aikl", dxf, fx)
    if not fam.measure_free:
        dmu = fam.jet(0.3, x, mu, 1)[2]
        if dmu.ndim == 4:   # a moment family's derivative is the same at every insertion
            dmu = np.broadcast_to(dmu[:, None], (x.shape[0], mu.size) + dmu.shape[1:])
        response = np.einsum("azijl,zjk->aikl", dmu, f)
        want = want + response / mu.size
    if prime is not None:
        want = want + np.swapaxes(prime, -1, -2)
    assert np.allclose(area_coefficient(cs, 0.3, x, marg), want, rtol=1e-13, atol=1e-15)


def test_diffusion_square_symmetric_exact():
    rng = np.random.default_rng(8)

    def sig(t, x, mu):
        return rng.standard_normal((x.shape[0], 3, 2))

    cs = coefficient_set(3, 2, 1, diffusion=lambda t, x, mu: sig(t, x, mu))
    a = diffusion_square(cs, 0.0, rng.standard_normal((5, 3)), None)
    assert np.array_equal(a, np.swapaxes(a, 1, 2))


def test_zero_family_and_defaults():
    cs = coefficient_set(2, 1, 1)
    x = np.random.default_rng(0).standard_normal((4, 2))
    assert np.all(cs.drift(0.0, x, None) == 0.0)
    assert np.all(cs.diffusion(0.0, x, None) == 0.0)
    assert np.all(cs.rough.jet(0.0, x, None, 0)[0] == 0.0)
    assert cs.measure_free


def test_linear_state_family_equals_the_one_dimensional_hand_written_family():
    c = 0.7

    def ev(t, x):
        return c * x[:, :, None]

    def dx(t, x):
        return np.broadcast_to(c * np.eye(1)[:, :, None], (x.shape[0], 1, 1, 1)).copy()

    fam = linear_state_family(c, 1, 1)
    x = np.array([[-0.0], [5e-324], [0.1 + 0.2], [-3.5], [1e300]])
    assert np.array_equal(fam.jet(0.0, x, None, 0)[0], ev(0.0, x))
    assert np.array_equal(fam.jet(0.0, x, None, 1)[1], dx(0.0, x))
    assert fam.measure_free


def test_linear_state_family_drives_channel_kap_by_coordinate_kap():
    fam = linear_state_family(2.0, 3, 2)
    x = np.array([[1.0, -2.0, 5.0]])
    expect = np.array([[[2.0, 0.0], [0.0, -4.0], [0.0, 0.0]]])
    assert np.array_equal(fam.jet(0.0, x, None, 0)[0], expect)
    jac = fam.jet(0.0, x, None, 1)[1]
    assert jac.shape == (1, 3, 3, 2)
    for i in range(3):
        for j in range(3):
            for k in range(2):
                assert jac[0, i, j, k] == (2.0 if i == j == k else 0.0)
