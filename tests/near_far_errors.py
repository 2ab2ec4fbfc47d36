"""Print how far the near/far path lies from the dense fold, by density, n,
band and near rows (the fold's last row; an even phi of degree >= 4 sums
the pairs from there to the band in blocks): the largest relative energy
error and the largest gradient error over max|g| across the profiles of
helpers.near_far_profiles, each with the profile where it occurs. The path
is forced even where an _Evaluator would run the dense fold (power:3 and abs
on the rough and hat profiles, where _direct_pays declines it).

    PYTHONPATH=src python tests/near_far_errors.py [--sizes 512 4096 ...]

The default sizes run from the crossover, NEAR_FAR_FROM_N, to 16384.
The dense fold at n = 16384 takes about a second per call, so they run for
a few minutes.
"""

from __future__ import annotations

import argparse

import numpy as np

from helpers import fold, hand_built, near_far, near_far_profiles, stripped
from nlvar import energy
from nlvar.grid import Grid1D
from nlvar.integrands import half_square, power_p, quadratic_mass, two_well_bare, two_well_full


def errors(n: int, integrand) -> tuple[tuple[float, str], tuple[float, str]]:
    """((energy error, profile), (gradient error, profile)), the largest."""
    grid, value, grad = Grid1D(n), (0.0, ""), (0.0, "")
    for name, values in near_far_profiles(n).items():
        got, got_grad = near_far(grid, values, integrand)
        want, want_grad = fold(grid, values, stripped(integrand))
        value = max(value, (abs(got - want) / abs(want), name))
        grad = max(grad, (np.max(np.abs(got_grad - want_grad)) / np.max(np.abs(want_grad)), name))
    return value, grad


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[energy.NEAR_FAR_FROM_N, 384, energy.NEAR_FAR_ABOVE_N + 1, 1024,
                                 2048, 4096, 8192, 16384])
    sizes = parser.parse_args(argv).sizes
    densities = [half_square(), quadratic_mass(), power_p(2), power_p(3), power_p(4),
                 two_well_full(), two_well_bare()] + hand_built()
    print(f"{'density':<14} {'n':>6} {'band':>5} {'near':>5}  {'energy':>8} {'profile':<10} "
          f"{'gradient':>8} profile")
    for integrand in densities:
        for n in sizes:
            near, band, _ = energy._plan(Grid1D(n).nodes, integrand.phi_coefficients)
            (e, e_at), (g, g_at) = errors(n, integrand)
            print(f"{integrand.name:<14} {n:>6} {band:>5} {near:>5}  {e:8.1e} {e_at:<10} "
                  f"{g:8.1e} {g_at}", flush=True)


if __name__ == "__main__":
    main()
