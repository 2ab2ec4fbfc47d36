"""Print where the near/far path of power:3 pays with the far pairs whose
sign is unknown summed directly: for the rough and hat profiles of
helpers.near_far_profiles and each n, the share of the far pairs in the
cells that _unsigned_cells cannot certify, and the CPU time of one
value-and-gradient call on the path (forced, as in helpers.near_far) and on
the dense fold with its kept plan, best of interleaved calls, with their
ratio. _direct_pays' cut is set from it.

    PYTHONPATH=src python tests/unsigned_scan.py [--sizes 512 1024 ...] [--calls 5]

Run it with one BLAS thread on an otherwise idle machine; the default
sizes, 512 to 8192, take about a minute.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from helpers import near_far, near_far_profiles, stripped
from nlvar import energy
from nlvar.grid import Grid1D
from nlvar.integrands import power_p


def share(values: np.ndarray, n: int, band: int) -> float:
    """The share of the n (n - 2 band - 1) / 2 far pairs in unsigned cells,
    each counted at SIGN_CELL pairs as _direct_pays counts them."""
    unsigned = energy._unsigned_cells(values, band)
    return energy.SIGN_CELL * np.count_nonzero(unsigned) / (n * (n - 2 * band - 1) / 2)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[512, 1024, 2048, 4096, 8192])
    parser.add_argument("--calls", type=int, default=5)
    args = parser.parse_args(argv)
    W = power_p(3)
    dense = stripped(W)
    print(f"{'n':>5} {'profile':<7} {'share':>5} {'path ms':>8} {'fold ms':>8} {'ratio':>5}")
    for n in args.sizes:
        grid, band = Grid1D(n), energy._near_band(n, W.phi_coefficients)
        for name in ("rough", "hat"):
            values = near_far_profiles(n)[name]
            sides = {"path": lambda: near_far(grid, values, W),
                     "fold": lambda: energy._quadrature(grid, values, dense, True)}
            best = dict.fromkeys(sides, np.inf)
            for _ in range(args.calls):
                for side, call in sides.items():
                    t0 = time.process_time()
                    call()
                    best[side] = min(best[side], time.process_time() - t0)
            print(f"{n:5d} {name:<7} {share(values, n, band):5.2f} {1e3 * best['path']:8.2f} "
                  f"{1e3 * best['fold']:8.2f} {best['path'] / best['fold']:5.2f}", flush=True)


if __name__ == "__main__":
    main()
