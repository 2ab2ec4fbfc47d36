"""Print how fast the near/far path runs against the dense fold: for each
density, size and profile, the side that an _Evaluator takes (path or
fold, by _near_far), the CPU time of one value-and-gradient call on the
path, forced as in helpers.near_far, and on the dense fold, each from an
evaluator built once as a solve builds it and the best of --calls runs of
consecutive calls that alternate between the two (best_times), and their
ratio. For a phi with an odd coefficient
it also prints the share of the far pairs in the cells whose sign
_unsigned_cells cannot certify (_unsigned_share), which _direct_pays
reads. The crossover (NEAR_FAR_FROM_N, NEAR_FAR_ABOVE_N and the sizes
between that take the path) follows where the path won, and
_direct_pays' cut where path and fold tie.

With --blocks it times, for an even phi of degree >= 4, the path whose
fold stops at row band // 4 and whose pairs from there to the band are
summed in blocks (_block_pairs) against the path whose fold runs to the
band, each from its own evaluator built once; BLOCKS_FROM_BAND's comment
gives what it measured.

    PYTHONPATH=src python tests/near_far_scan.py --sizes 130:600
    PYTHONPATH=src python tests/near_far_scan.py --densities power:3 \\
        --profiles rough hat --sizes 512 1024 2048 4096 8192 --calls 5
    PYTHONPATH=src python tests/near_far_scan.py --blocks --sizes 512:2816:32 \\
        --densities two-well two-well-bare power:4

A size first:last or first:last:step stands for every size from first to
last in that step. The profiles are helpers.near_far_profiles' and sin3x,
x^2 + 0.1 sin 3x. Run it with one BLAS thread on an otherwise idle
machine; every size from 130 to 600 takes a few minutes.
"""

from __future__ import annotations

import argparse
import time
from functools import partial

import numpy as np

from helpers import near_far_profiles, stripped
from nlvar import energy
from nlvar.grid import Grid1D
from nlvar.integrands import integrand_by_name


def profiles(n: int) -> dict[str, np.ndarray]:
    x = Grid1D(n).nodes
    return {**near_far_profiles(n), "sin3x": x * x + 0.1 * np.sin(3.0 * x)}


def sizes(token: str) -> list[int]:
    """[n], or the sizes first..last in steps of step for first:last[:step]."""
    first, _, rest = token.partition(":")
    if not rest:
        return [int(first)]
    last, _, step = rest.partition(":")
    return list(range(int(first), int(last) + 1, int(step or 1)))


def calls(grid: Grid1D, values: np.ndarray, W, blocks: bool):
    """The two calls to time: the path and the dense fold, or with blocks,
    the path with its fold to band // 4 and the path with its fold to the
    band."""
    c, ends = W.phi_coefficients, (values[0], values[-1])
    if not blocks:
        path = energy._Evaluator(grid, W, ends, energy._split(grid.n, c))
        dense = energy._Evaluator(grid, stripped(W), ends)
        return (lambda: path._fold(values, True, energy._plan(values, c)),
                lambda: dense(values, True))
    plan = energy._plan(values, c)
    sides = [plan._replace(near=near) for near in (plan.band // 4, plan.band)]
    return tuple(partial(energy._Evaluator(grid, W, ends, side[:2])._fold, values, True, side)
                 for side in sides)


def share(values: np.ndarray, W) -> str:
    """The share of the far pairs in unsigned cells for a phi with an odd
    coefficient, "-" otherwise."""
    plan = energy._plan(values, W.phi_coefficients)
    if plan.unsigned is None:
        return "-"
    return f"{energy._unsigned_share(plan.unsigned, values.size - 1, plan.band):.2f}"


# each side is timed over runs of consecutive calls, which alternate
# between the sides: at small n a call right after the other side's is
# slower, and alternating single calls read two-well at n = 256 as 0.96
# of the fold, against 0.75 by runs of 20 calls. A run takes about RUN_S
# of CPU time, and at least one call
RUN_S = 0.005


def best_times(pair, repeats: int) -> list[float]:
    """Best CPU time per call of each call, over repeats runs of it, the
    runs alternating between the two."""
    counts = []
    for call in pair:
        call()  # builds what the call keeps, such as spectra and plans
        t0 = time.process_time()
        call()
        counts.append(max(1, round(RUN_S / max(time.process_time() - t0, 1e-9))))
    best = [np.inf, np.inf]
    for _ in range(repeats):
        for k, (call, count) in enumerate(zip(pair, counts)):
            t0 = time.process_time()
            for _ in range(count):
                call()
            best[k] = min(best[k], (time.process_time() - t0) / count)
    return best


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=sizes, nargs="+", default=[[512], [1024], [2048]])
    parser.add_argument("--densities", nargs="+",
                        default=["half-square", "quad-mass", "power:3", "two-well"])
    parser.add_argument("--profiles", nargs="+", default=["sin3x"])
    parser.add_argument("--calls", type=int, default=11)
    parser.add_argument("--blocks", action="store_true")
    args = parser.parse_args(argv)
    new, base = ("blocks_ms", "rows_ms") if args.blocks else ("path_ms", "fold_ms")
    print(f"{'density':<14} {'n':>5} {'profile':<10} {'share':>5} {'side':<4} {new:>9} {base:>9} "
          "ratio")
    for name in args.densities:
        W = integrand_by_name(name)
        for n in [n for group in args.sizes for n in group]:
            grid = Grid1D(n)
            for profile in args.profiles:
                values = profiles(n)[profile]
                side = "fold" if energy._near_far(values, W.phi_coefficients) is None else "path"
                t_new, t_base = best_times(calls(grid, values, W, args.blocks), args.calls)
                print(f"{name:<14} {n:>5} {profile:<10} {share(values, W):>5} {side:<4} "
                      f"{1e3 * t_new:9.2f} {1e3 * t_base:9.2f} {t_new / t_base:5.2f}", flush=True)


if __name__ == "__main__":
    main()
