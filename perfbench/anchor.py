"""Per-call energy and gradient times by grid size, for comparison with the
re-anchor table in ROADMAP.md.

    python3 perfbench/anchor.py

For n = 128 ... 4096 it times energy_value and energy_gradient of three
densities on a fixed smooth profile (best of several calls) and reads the
process high-water mark after each size. Sizes run in increasing order, so
the mark after size n is the peak of the n-sized calls.
"""

from __future__ import annotations

import resource
import time

import numpy as np

from worker import _import_nlvar

SIZES = (128, 512, 1024, 2048, 4096)
DENSITIES = ("half-square", "power:3", "two-well")


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    nl = _import_nlvar()
    print(f"{'n':>5} {'density':12} {'energy ms':>10} {'gradient ms':>12} {'peak MiB':>9}")
    for n in SIZES:
        grid = nl.Grid1D(n)
        u = nl.NodalFunction(grid, grid.nodes ** 2 + 0.1 * np.sin(np.pi * grid.nodes))
        repeats = 5 if n <= 1024 else 3
        for name in DENSITIES:
            W = nl.integrand_by_name(name)
            e = best_of(lambda: nl.energy_value(u, W), repeats)
            g = best_of(lambda: nl.energy_gradient(u, W), repeats)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            print(f"{n:5d} {name:12} {1e3 * e:10.2f} {1e3 * g:12.2f} {peak:9.0f}", flush=True)


if __name__ == "__main__":
    main()
