"""Two-channel linear mean-field oracle: the scheme against closed forms.

With ``f_k(x, mu) = A_k x + C_k mean(mu)`` on d = n = 2, no drift and no
noise, the scheme's area tensor is ``A_l f_k(x) + C_l M_k m`` with
``M = A + C`` and ``m`` the cloud mean.  So the mean follows the Davie map of
``dm = M_k m dW^k`` exactly, and each deviation ``X - m`` the Davie map with
``A`` alone: the whole cloud has a closed form at any particle count and on
any grid.  The ``A_k`` do not commute, so the signal's Levy area moves the
solution.  Two mutants built here show that the checks see it: the signal
with its cell tensors symmetrised, and the family with its measure term
(``mixing``) rescaled.
"""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from roughmkv.coefficients import coefficient_set, moment_family
from roughmkv.grids import TimeGrid
from roughmkv.roughpath import GridRoughPath, lift_piecewise_linear, restrict
from roughmkv.simulate import SCHEME_FULL, SCHEME_NO_LIFT, SimulationConfig, simulate

ALPHA = 0.45
# A_1 = 0.8 E_12 and A_2 = 0.8 E_21 do not commute
A = 0.8 * np.array([[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
C = np.array([[[0.3, -0.2], [0.1, 0.4]], [[-0.25, 0.15], [0.35, 0.2]]])
M = A + C


def linear_family(mixing_scale=1.0):
    """``f_k(x, mu) = A_k x + C_k mean(mu)``; a ``mixing_scale`` other than 1
    rescales the family's measure term, a mutant of the scheme."""
    dx, dm = np.moveaxis(A, 0, -1), np.moveaxis(C, 0, -1)   # (d, d, n)

    def jet(t, x, m):
        f = np.einsum("kij,aj->aik", A, x) + np.einsum("kij,j->ik", C, m)
        shape = (x.shape[0], 2, 2, 2)
        return f, np.broadcast_to(dx, shape), np.broadcast_to(dm, shape)

    fam = moment_family(2, 2, jet)
    if mixing_scale == 1.0:
        return fam
    base = fam.mixing
    return dataclasses.replace(fam, mixing=lambda g, fz: mixing_scale * base(g, fz))


def run(rp, n, family=None, scheme=SCHEME_FULL):
    """The scheme's history ``(K+1, n, 2)`` from a cloud around (1, -0.5)."""
    config = SimulationConfig(
        n, rp.grid, seed=3, dim=2, brownian_dim=1, driver_dim=2, scheme=scheme,
        initial_sampler=lambda rng, k: [1.0, -0.5] + 0.5 * rng.standard_normal((k, 2)),
    )
    return simulate(config, coefficient_set(2, 1, 2, rough=family or linear_family()), rp)[1]


def davie_steps(B, rp):
    """``I + B_k dW^k + B_l B_k WW^{kl}`` for every cell of ``rp``."""
    K = rp.grid.num_cells
    dw, ww = rp.span(np.arange(K), np.arange(1, K + 1))
    return np.eye(2) + np.einsum("kij,ck->cij", B, dw) + np.einsum("lij,kjm,ckl->cim", B, B, ww)


def fine_signal(seed, cells=2048):
    """Geometric lift of a piecewise-linear two-channel Brownian sample."""
    rng = np.random.default_rng(seed)
    steps = rng.standard_normal((cells, 2)) * np.sqrt(1.0 / cells)
    path = np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
    return lift_piecewise_linear(TimeGrid.uniform(1.0, cells), path, ALPHA)


def symmetrised(rp):
    """``rp`` with its Levy area dropped: each cell tensor replaced by its symmetric part."""
    a = rp.cell_areas
    return GridRoughPath(rp.grid, rp.values, 0.5 * (a + np.swapaxes(a, 1, 2)), rp.alpha)


def mean_error(hist, exact_flow):
    """Relative error of the horizon mean against ``exact_flow @ m_0``."""
    exact = exact_flow @ hist[0].mean(axis=0)
    return np.linalg.norm(hist[-1].mean(axis=0) - exact) / np.linalg.norm(exact)


@pytest.mark.parametrize("n", [2, 64, 4096])
def test_cloud_is_the_closed_form_davie_map(n):
    fine = fine_signal(0)
    for cells in (16, 64):
        rp = restrict(fine, TimeGrid.uniform(1.0, cells))
        hist = run(rp, n)
        m = hist[0].mean(axis=0)
        y = hist[0] - m
        means, cloud = [m], [hist[0]]
        for SM, SA in zip(davie_steps(M, rp), davie_steps(A, rp)):
            m, y = SM @ m, y @ SA.T
            means.append(m)
            cloud.append(m + y)
        means, cloud = np.array(means), np.array(cloud)
        assert np.max(np.abs(hist.mean(axis=1) - means)) <= 1e-13 * np.max(np.abs(means))
        assert np.max(np.abs(hist - cloud)) <= 1e-13 * np.max(np.abs(cloud))


def test_mean_converges_to_the_piecewise_linear_solution_and_reads_the_area():
    # along a piecewise-linear signal the exact flow of dm = M_k m dW^k is the
    # ordered product of exp(M_k dw^k) over its segments
    levels = [16, 32, 64, 128, 256]
    errors = np.empty((2, 4, len(levels)))
    for s in range(4):
        fine = fine_signal(s)
        flow = np.eye(2)
        for step in expm(np.einsum("kij,ck->cij", M, np.diff(fine.values, axis=0))):
            flow = step @ flow
        for j, cells in enumerate(levels):
            rp = restrict(fine, TimeGrid.uniform(1.0, cells))
            errors[0, s, j] = mean_error(run(rp, 2), flow)
            errors[1, s, j] = mean_error(run(symmetrised(rp), 2), flow)
    scheme, levy_dropped = np.sqrt(np.mean(errors**2, axis=1))
    assert np.all(np.diff(scheme) < 0), scheme
    slope = np.polyfit(np.log(levels), -np.log(scheme), 1)[0]
    assert slope >= (3.0 * ALPHA - 1.0) * 0.8, slope
    assert levy_dropped[-1] >= 5.0 * scheme[-1], (levy_dropped, scheme)


def test_pure_area_signal_moves_the_mean_by_the_commutator():
    # no first level, cell tensors a * delta * J: the mean's limit is
    # exp(a [M_2, M_1]) m_0, which only the area term can reach
    a = 1.0
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    flow = expm(a * (M[1] @ M[0] - M[0] @ M[1]))
    scheme, mutants = [], []
    for cells in (16, 64, 256):
        rp = GridRoughPath(
            TimeGrid.uniform(1.0, cells), np.zeros((cells + 1, 2)),
            np.broadcast_to(a / cells * J, (cells, 2, 2)), ALPHA,
        )
        scheme.append(mean_error(run(rp, 2), flow))
        mutants.append([
            mean_error(run(symmetrised(rp), 2), flow),
            mean_error(run(rp, 2, scheme=SCHEME_NO_LIFT), flow),
            mean_error(run(rp, 2, linear_family(0.0)), flow),
            mean_error(run(rp, 2, linear_family(2.0)), flow),
        ])
    # first order in the cell width, and every mutant stays O(1)
    scheme = np.array(scheme)
    assert scheme[0] < 0.05 and np.all(scheme[1:] < 0.3 * scheme[:-1]), scheme
    assert np.min(mutants) >= 0.1, mutants
