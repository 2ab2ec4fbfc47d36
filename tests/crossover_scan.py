"""Print where the near/far path is slower than the dense fold: for each
density and each n in a range, the CPU time of one value-and-gradient call
on the path (forced, as in helpers.near_far) over that of the dense fold
with its kept plan, best of interleaved calls on x^2 + 0.1 sin 3x. Sizes
where the ratio reaches 1 are listed; NEAR_FAR_ABOVE_N is set above the
last of them.

    PYTHONPATH=src python tests/crossover_scan.py [--first 257] [--last 1100]

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


def ratio(n: int, name: str, calls: int) -> float:
    """Best path time over best dense-fold time at n cells."""
    grid, W = Grid1D(n), integrand_by_name(name)
    x = grid.nodes
    values, dense = x * x + 0.1 * np.sin(3.0 * x), stripped(W)
    best = {"fold": np.inf, "path": np.inf}
    for _ in range(calls):
        for side, call in (("fold", lambda: energy._quadrature(grid, values, dense, True)),
                           ("path", lambda: near_far(grid, values, W))):
            t0 = time.process_time()
            call()
            best[side] = min(best[side], time.process_time() - t0)
    return best["path"] / best["fold"]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", type=int, default=257)
    parser.add_argument("--last", type=int, default=1100)
    parser.add_argument("--calls", type=int, default=21)
    parser.add_argument("--densities", nargs="+",
                        default=["half-square", "quad-mass", "power:3", "two-well"])
    args = parser.parse_args(argv)
    for name in args.densities:
        lost = [(n, r) for n in range(args.first, args.last + 1)
                if (r := ratio(n, name, args.calls)) >= 1.0]
        print(f"{name}: the path lost at {len(lost)} sizes"
              + "".join(f", {n} ({r:.2f})" for n, r in lost), flush=True)


if __name__ == "__main__":
    main()
