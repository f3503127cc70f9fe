"""Strong convergence against the closed-form geometric solution.

The equation dX = X dW driven by a geometric signal has the exact solution
X_0 exp(W_T), so the one-step scheme's global error is measurable without a
reference run.  The study builds one fine driver per seed, restricts it to
each coarser dyadic grid, and prints the root-mean-square relative terminal
error per level together with the fitted decay order.
"""

import argparse

import numpy as np

from roughmkv.coefficients import coefficient_set, linear_state_family
from roughmkv.grids import TimeGrid
from roughmkv.roughpath import brownian_lift, restrict
from roughmkv.simulate import SimulationConfig, simulate


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--drivers", type=int, default=16, help="independent signal seeds")
    ap.add_argument("--levels", type=int, default=5, help="dyadic levels, coarsest 16 cells")
    ap.add_argument("--alpha", type=float, default=0.45)
    ap.add_argument("--seed", type=int, default=500)
    args = ap.parse_args()

    cells = [16 * 2**l for l in range(args.levels)]
    coeffs = coefficient_set(1, 1, 1, rough=linear_state_family(1.0, 1, 1))
    rel = np.empty((args.drivers, len(cells)))
    for s in range(args.drivers):
        fine = brownian_lift(
            args.seed + s, 1, TimeGrid.uniform(1.0, cells[-1]),
            refinement_factor=8, alpha=args.alpha,
        )
        exact = float(np.exp(fine.values[-1, 0]))
        for l, K in enumerate(cells):
            rp = fine if K == cells[-1] else restrict(fine, TimeGrid.uniform(1.0, K))
            config = SimulationConfig(
                particle_count=1, grid=rp.grid, seed=0, dim=1,
                brownian_dim=1, driver_dim=1,
                initial_sampler=lambda rng, n: np.ones((n, 1)),
            )
            _, hist = simulate(config, coeffs, rp)
            rel[s, l] = abs(float(hist[-1, 0, 0]) - exact) / abs(exact)

    rms = np.sqrt(np.mean(rel**2, axis=0))
    print(f"{'cells':>8} {'rms rel error':>14} {'ratio':>7}")
    for l, K in enumerate(cells):
        ratio = f"{rms[l - 1] / rms[l]:7.2f}" if l else "      -"
        print(f"{K:8d} {rms[l]:14.3e} {ratio}")
    slope = np.polyfit(np.log(1.0 / np.asarray(cells)), np.log(rms), 1)[0]
    print(f"fitted order: {slope:.3f}")


if __name__ == "__main__":
    main()
