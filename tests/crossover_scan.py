"""Print where the near/far path is slower than the dense fold: for each
density and each n in a range, the CPU time of one value-and-gradient call
on the path (forced, as in helpers.near_far) over that of the dense fold
with its kept plan, best of interleaved calls on x^2 + 0.1 sin 3x. Sizes
where the ratio reaches 1 are listed; NEAR_FAR_ABOVE_N is set above the
last of them. With --blocks it compares, for an even phi of degree >= 4,
the path whose fold stops at row band // 4 and whose pairs up to the band
are summed in blocks (_block_pairs) with the path whose fold runs to the
band; BLOCKS_FROM_BAND is set above the last band where the blocks lost.

    PYTHONPATH=src python tests/crossover_scan.py [--first 257] [--last 1100] [--step 1]
    PYTHONPATH=src python tests/crossover_scan.py --blocks --first 512 --last 2048 \\
        --densities two-well two-well-bare power:4

Run it with one BLAS thread on an otherwise idle machine; every size from
257 to 1100 takes a few minutes.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from helpers import near_far, stripped
from nlvar import energy
from nlvar.grid import Grid1D
from nlvar.integrands import integrand_by_name


def ratio(n: int, name: str, calls: int, blocks: bool = False) -> float:
    """Best path time over best dense-fold time at n cells, or with blocks,
    best time with the blocks over best time without."""
    grid, W = Grid1D(n), integrand_by_name(name)
    x = grid.nodes
    values = x * x + 0.1 * np.sin(3.0 * x)
    if blocks:
        band = energy._near_band(n, W.phi_coefficients)
        sides = {"base": lambda: energy._fold(grid, values, W, True, band),
                 "new": lambda: energy._fold(grid, values, W, True, band, None, band // 4)}
    else:
        dense = stripped(W)
        sides = {"base": lambda: energy._quadrature(grid, values, dense, True),
                 "new": lambda: near_far(grid, values, W)}
    best = dict.fromkeys(sides, np.inf)
    for _ in range(calls):
        for side, call in sides.items():
            t0 = time.process_time()
            call()
            best[side] = min(best[side], time.process_time() - t0)
    return best["new"] / best["base"]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", type=int, default=257)
    parser.add_argument("--last", type=int, default=1100)
    parser.add_argument("--step", type=int, default=1)
    parser.add_argument("--calls", type=int, default=21)
    parser.add_argument("--blocks", action="store_true")
    parser.add_argument("--densities", nargs="+",
                        default=["half-square", "quad-mass", "power:3", "two-well"])
    args = parser.parse_args(argv)
    what = "the blocks" if args.blocks else "the path"
    for name in args.densities:
        lost = [(n, r) for n in range(args.first, args.last + 1, args.step)
                if (r := ratio(n, name, args.calls, args.blocks)) >= 1.0]
        print(f"{name}: {what} lost at {len(lost)} sizes"
              + "".join(f", {n} ({r:.2f})" for n, r in lost), flush=True)


if __name__ == "__main__":
    main()
