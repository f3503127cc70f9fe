"""Same-size contraction of independent particle approximations.

For each particle count the script runs pairs of fully independent clouds
under one shared signal and averages the transport distance between the
pair's terminal laws.  The averaged distance should fall as the count
grows; the table prints one row per count for each signal seed.
"""

import argparse

import numpy as np

from roughmkv.coefficients import coefficient_set, moment_sin_family
from roughmkv.grids import TimeGrid
from roughmkv.measures import EmpiricalMeasure, wasserstein2_1d
from roughmkv.roughpath import brownian_lift
from roughmkv.simulate import SimulationConfig, simulate


def mix(*parts):
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--counts", type=int, nargs="+", default=[250, 1000, 4000])
    ap.add_argument("--pairs", type=int, default=16, help="independent pairs per count")
    ap.add_argument("--cells", type=int, default=64)
    ap.add_argument("--signal-seeds", type=int, default=3)
    args = ap.parse_args()

    coeffs = coefficient_set(
        1, 1, 1,
        drift=lambda t, x, mu: -0.3 * x,
        diffusion=lambda t, x, mu: 0.5 * np.ones((x.shape[0], 1, 1)),
        rough=moment_sin_family(0.5, 0.4),
    )
    grid = TimeGrid.uniform(1.0, args.cells)

    print(f"{'signal':>7} {'count':>7} {'mean W2':>10}")
    for tau in range(args.signal_seeds):
        rp = brownian_lift(mix(900 + tau), 1, grid, refinement_factor=16)
        for count in args.counts:
            vals = []
            for pair in range(args.pairs):
                clouds = []
                for copy in range(2):
                    config = SimulationConfig(
                        particle_count=count, grid=grid,
                        seed=mix(tau, count, pair, copy),
                        dim=1, brownian_dim=1, driver_dim=1,
                    )
                    _, hist = simulate(config, coeffs, rp)
                    clouds.append(EmpiricalMeasure(hist[-1]))
                vals.append(wasserstein2_1d(clouds[0], clouds[1]))
            print(f"{tau:7d} {count:7d} {np.mean(vals):10.4f}")


if __name__ == "__main__":
    main()
