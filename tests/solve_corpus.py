"""Print how every solve of a small corpus ends, one line per solve, and a
count by outcome.

    PYTHONPATH=src python tests/solve_corpus.py
    PYTHONPATH=src python tests/solve_corpus.py --densities power:4 --sizes 16 --starts zero

The corpus is every built-in density and power:1.5, 2.5, 6 and 40, on n =
16, 33, 64, 129 and 256 cells, from each named start of
solver.INITIAL_GUESSES, with the end values (0, 1), (0, 0) and (-1, 2):
660 solves with max_iters = 3000 and the default grad_tol, about 5 s.
The options pick a slice of it.

A line gives the density, n, start and end values, then the outcome:
converged, stalled (not converged, stopped before max_iters: an accepted
step moved no bit of the iterate), max_iters, or the class of the exception
the solve raised. Then the iterations, evaluations and Newton steps, the
gradient norm (its repr) and the sha256 of the nodal values, or a dash for
each where the solve raised. `diff` of two checkouts' outputs, run in one
environment, shows every solve whose outcome or bits moved; the solves at
n = 256 that take the near/far path depend on numpy's FFT build.
"""

from __future__ import annotations

import argparse
import hashlib
from collections import Counter

from golden import DENSITIES
from nlvar.grid import Grid1D
from nlvar.integrands import integrand_by_name
from nlvar.solver import INITIAL_GUESSES, SolverConfig, minimize

CORPUS_DENSITIES = DENSITIES + ("power:1.5", "power:2.5", "power:6", "power:40")
SIZES = (16, 33, 64, 129, 256)
END_VALUES = ((0.0, 1.0), (0.0, 0.0), (-1.0, 2.0))
MAX_ITERS = 3000


def outcome(name: str, n: int, start: str, bc: tuple[float, float], cfg: SolverConfig) -> str:
    """The printed line of one solve, without its label."""
    try:
        res = minimize(integrand_by_name(name), Grid1D(n), bc, start, cfg)
    except Exception as exc:  # the corpus reports every way a solve ends
        return f"{type(exc).__name__} - - - - -"
    end = ("converged" if res.converged
           else "max_iters" if res.iters == cfg.max_iters else "stalled")
    digest = hashlib.sha256(res.u.values.tobytes()).hexdigest()
    return f"{end} {res.iters} {res.evaluations} {res.newton_steps} {res.grad_norm!r} {digest}"


def main(argv=None) -> Counter:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--densities", nargs="+", default=CORPUS_DENSITIES)
    parser.add_argument("--sizes", type=int, nargs="+", default=SIZES)
    parser.add_argument("--starts", nargs="+", choices=INITIAL_GUESSES, default=INITIAL_GUESSES)
    args = parser.parse_args(argv)
    cfg = SolverConfig(max_iters=MAX_ITERS)
    counts = Counter()
    for name in args.densities:
        for n in args.sizes:
            for start in args.starts:
                for bc in END_VALUES:
                    line = outcome(name, n, start, bc, cfg)
                    counts[line.split()[0]] += 1
                    print(f"{name} {n} {start} {bc[0]:g},{bc[1]:g} {line}", flush=True)
    print("outcomes: " + ", ".join(f"{end} {k}" for end, k in sorted(counts.items())))
    return counts


if __name__ == "__main__":
    main()
