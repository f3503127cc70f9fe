"""Measure-coupled coefficient families and their certified derivatives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gauss_kernel_family, linear_signal_family, mean_coupled_sin_family

from roughmkv.coefficients import (
    _area_tensor,
    area_coefficient,
    coefficient_set,
    constant_rough,
    diffusion_square,
    lions_fd_check,
    lions_taylor_remainder,
    linear_state_family,
    measure_free_family,
    moment_family,
    moment_sin_family,
)
from roughmkv.measures import EmpiricalMeasure


def cloud(seed: int, n: int, d: int = 1) -> EmpiricalMeasure:
    return EmpiricalMeasure(np.random.default_rng(seed).standard_normal((n, d)))


# ---------------------------------------------------------------------------
# evaluation oracles


def test_moment_family_evaluates_through_the_mean():
    fam = mean_coupled_sin_family(0.5, 0.4)
    mu = EmpiricalMeasure(np.array([[0.25], [0.75], [-1.0]]))
    m = (0.25 + 0.75 - 1.0) / 3.0
    x = np.array([[0.3], [1.1]])
    got = fam.eval(0.0, x, mu)
    want = 0.5 * np.sin(x) + 0.4 * np.cos(x) * np.tanh(m)
    assert np.allclose(got[:, :, 0], want, rtol=1e-14)


def test_convolution_family_averages_the_kernel():
    fam = gauss_kernel_family(2.0, 1.5)
    pts = np.array([[0.5], [-0.25], [1.0], [0.0]])
    mu = EmpiricalMeasure(pts)
    x = np.array([[0.2]])
    want = np.mean(2.0 * np.exp(-((0.2 - pts[:, 0]) ** 2) / (2 * 1.5**2)))
    assert np.isclose(fam.eval(0.0, x, mu)[0, 0, 0], want, rtol=1e-14)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 24))
def test_family_outputs_are_permutation_exact(seed, n):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 1))
    perm = rng.permutation(n)
    x = rng.standard_normal((3, 1))
    for fam in (gauss_kernel_family(1.0, 0.8), mean_coupled_sin_family(0.7, 0.2)):
        a = fam.eval(0.0, x, EmpiricalMeasure(pts))
        b = fam.eval(0.0, x, EmpiricalMeasure(pts[perm]))
        assert np.array_equal(a, b)
        mu_a, mu_b = EmpiricalMeasure(pts), EmpiricalMeasure(pts[perm])
        ma = fam.mixing(0.0, x, mu_a, fam.eval(0.0, mu_a.points, mu_a))
        mb = fam.mixing(0.0, x, mu_b, fam.eval(0.0, mu_b.points, mu_b))
        assert np.array_equal(ma, mb)


def test_reweighting_closed_form_for_particle_averages():
    # dyadic coordinates keep every average exact, so appending one particle
    # must change the evaluation by the analytic (N a + g_new) / (N + 1) rule
    pts = np.array([[0.5], [0.25], [-0.75], [1.0]])
    extra = np.array([[0.125]])
    fam = gauss_kernel_family(1.0, 1.0)
    x = np.array([[0.0]])
    before = fam.eval(0.0, x, EmpiricalMeasure(pts))[0, 0, 0]
    after = fam.eval(0.0, x, EmpiricalMeasure(np.vstack([pts, extra])))[0, 0, 0]
    g_new = np.exp(-(0.0 - 0.125) ** 2 / 2.0)
    assert np.isclose(after, (4 * before + g_new) / 5.0, rtol=1e-15)

    fam2 = mean_coupled_sin_family(0.0, 1.0)  # depends on the mean only
    b2 = fam2.eval(0.0, x, EmpiricalMeasure(pts))[0, 0, 0]
    a2 = fam2.eval(0.0, x, EmpiricalMeasure(np.vstack([pts, extra])))[0, 0, 0]
    mean_after = (4 * 0.25 + 0.125) / 5.0
    assert np.isclose(a2, np.cos(0.0) * np.tanh(mean_after), rtol=1e-15)
    assert not np.isclose(a2, b2)


# ---------------------------------------------------------------------------
# measure derivatives


def test_measure_free_family_has_zero_measure_response():
    fam = linear_signal_family(0.7)
    mu = cloud(0, 12)
    x = np.array([[0.4]])
    assert np.all(fam.lions(0.0, x, mu, mu.points) == 0.0)
    assert np.all(fam.mixing(0.0, x, mu, fam.eval(0.0, mu.points, mu)) == 0.0)
    assert fam.measure_free


def test_finite_difference_agreement_both_families():
    rng = np.random.default_rng(5)
    mu = EmpiricalMeasure(rng.standard_normal((16, 1)))
    x = rng.standard_normal((2, 1))
    direction = rng.standard_normal((16, 1))
    for fam in (gauss_kernel_family(1.3, 0.9), mean_coupled_sin_family(0.5, 0.4)):
        err = lions_fd_check(fam, 0.0, x, mu, direction, h=1e-4)
        assert err <= 1e-4


def test_finite_difference_catches_wrong_derivative():
    def phi(t, x, m):
        return np.sin(x + m[0])[:, :, None]

    def dxp(t, x, m):
        return np.cos(x + m[0])[:, :, None, None]

    def wrong_dm(t, x, m):
        return 2.5 * np.cos(x + m[0])[:, :, None, None]

    fam = moment_family(1, 1, phi, dxp, wrong_dm)
    mu = cloud(1, 8)
    err = lions_fd_check(fam, 0.0, np.array([[0.1]]), mu, np.ones((8, 1)))
    assert err > 1e-2


def test_taylor_remainder_and_declared_bound():
    fam = gauss_kernel_family(1.0, 1.0, lions_lip=2.0)
    mu = cloud(2, 10)
    same = lions_taylor_remainder(fam, 0.0, np.array([[0.0]]), mu, mu.points)
    assert same[0] == 0.0
    nudged = mu.points + 0.05 * np.random.default_rng(3).standard_normal((10, 1))
    rem, bound = lions_taylor_remainder(fam, 0.0, np.array([[0.0]]), mu, nudged)
    assert bound is not None and rem <= bound
    no_lip = gauss_kernel_family(1.0, 1.0)
    assert lions_taylor_remainder(no_lip, 0.0, np.array([[0.0]]), mu, nudged)[1] is None


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
    def phi(t, x, m):
        return np.broadcast_to(m[0], (x.shape[0], 1))[:, :, None].copy()

    def dxp(t, x, m):
        return np.zeros((x.shape[0], 1, 1, 1))

    def dmp(t, x, m):
        return np.ones((x.shape[0], 1, 1, 1))

    fam = moment_family(1, 1, phi, dxp, dmp)
    cs = coefficient_set(1, 1, 1, rough=fam)
    mu = EmpiricalMeasure(np.array([[0.5], [1.5]]))
    area = area_coefficient(cs, 0.0, np.array([[9.9]]), mu)
    assert np.isclose(area[0, 0, 0, 0], 1.0, rtol=1e-14)  # mean of the cloud


@pytest.mark.parametrize(
    "fam",
    [
        mean_coupled_sin_family(0.5, 0.4),
        moment_sin_family(0.5, 0.4),
        gauss_kernel_family(1.3, 0.9),
        linear_state_family(0.7, 2, 2),
    ],
    ids=["mean_coupled_sin", "moment_sin", "gauss_kernel", "linear_state"],
)
def test_area_tensor_from_the_held_coefficient_equals_area_coefficient(fam):
    cs = coefficient_set(fam.dim, 1, fam.channels, rough=fam)
    mu = cloud(11, 9, fam.dim)
    marg = None if fam.measure_free else mu
    f = fam.eval(0.3, mu.points, marg)
    held = _area_tensor(fam, 0.3, mu.points, marg, f, f)
    assert np.array_equal(held, area_coefficient(cs, 0.3, mu.points, marg))

    # away from the cloud the wrapper still averages the measure response
    # against the coefficient at the cloud's own points
    x = np.random.default_rng(12).standard_normal((4, fam.dim))
    want = np.einsum("aijl,ajk->aikl", fam.dx(0.3, x, marg), fam.eval(0.3, x, marg))
    if not fam.measure_free:
        response = np.einsum("azijl,zjk->aikl", fam.lions(0.3, x, mu, mu.points), f)
        want = want + response / mu.size
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
    assert np.all(cs.rough.eval(0.0, x, None) == 0.0)
    assert cs.measure_free


def test_linear_state_family_equals_the_one_dimensional_hand_written_family():
    c = 0.7

    def ev(t, x):
        return c * x[:, :, None]

    def dx(t, x):
        return np.broadcast_to(c * np.eye(1)[:, :, None], (x.shape[0], 1, 1, 1)).copy()

    fam = linear_state_family(c, 1, 1)
    x = np.array([[-0.0], [5e-324], [0.1 + 0.2], [-3.5], [1e300]])
    assert np.array_equal(fam.eval(0.0, x, None), ev(0.0, x))
    assert np.array_equal(fam.dx(0.0, x, None), dx(0.0, x))
    assert fam.measure_free


def test_linear_state_family_drives_channel_kap_by_coordinate_kap():
    fam = linear_state_family(2.0, 3, 2)
    x = np.array([[1.0, -2.0, 5.0]])
    expect = np.array([[[2.0, 0.0], [0.0, -4.0], [0.0, 0.0]]])
    assert np.array_equal(fam.eval(0.0, x, None), expect)
    jac = fam.dx(0.0, x, None)
    assert jac.shape == (1, 3, 3, 2)
    for i in range(3):
        for j in range(3):
            for k in range(2):
                assert jac[0, i, j, k] == (2.0 if i == j == k else 0.0)
