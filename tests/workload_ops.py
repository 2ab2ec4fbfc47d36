"""Print the median CPU time of each operation of one benchmark workload
over a number of rounds, for one seed: the per-op view that the
benchmark's round totals hide, where one operation's input spreads with
the seed (large-n's power:3) and another's time is what a change moves.

    PYTHONPATH=src python tests/workload_ops.py [--workload large-n] [--seed 1] [--rounds 21]
        [--against DIR]

It builds the workload from perfbench/workloads.py of this checkout, runs
each operation once to warm its caches and then --rounds times, and prints
one JSON object of milliseconds by operation. With --against DIR, it also
loads DIR/src/nlvar, another checkout's package, as the package
nlvar_against, builds the same workload on it, and runs each operation of
both in turn every round, the first of the pair alternating; it prints, by
operation, [this checkout's median, DIR's median, their ratio]. A shared
host's speed can drift between processes (a two-well call at n = 256 read
192 us in one run and 300 us in one an hour later on a 2-vCPU VM), so only
timings taken side by side in one process compare two checkouts. Run as a script, it first
re-executes itself in perfbench/run.py's worker environment where that is
missing (WORKER_ENV): one BLAS thread, and glibc malloc serving blocks
under 32 MiB from a heap it never trims. Both malloc settings count:
without MALLOC_TRIM_THRESHOLD_ glibc trims the heap, the block
temporaries page-fault again, and solve's bolza took 277-294 ms a round
against 120-154 ms with both.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import nlvar
import nlvar.cli  # noqa: F401  the figures workload calls it through the package

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

# the environment perfbench/run.py gives its worker processes; glibc reads
# the malloc settings at start-up, so only a new process takes them
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(1 << 32)}


def load_package(checkout: Path):
    """checkout/src/nlvar imported as the package nlvar_against, beside this
    checkout's nlvar: its modules import each other relatively, so they
    load as its submodules, replacing any loaded before. The figures
    workload reads its cli."""
    name = "nlvar_against"
    for key in [key for key in sys.modules if key == name or key.startswith(f"{name}.")]:
        del sys.modules[key]
    init = Path(checkout) / "src" / "nlvar" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def _ms(seconds: list) -> float:
    return round(1e3 * statistics.median(seconds), 3)


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="large-n", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=21)
    parser.add_argument("--against", type=Path, default=None,
                        help="another checkout, whose operations run beside this one's")
    args = parser.parse_args(argv)
    packages = [nlvar] if args.against is None else [nlvar, load_package(args.against)]
    with contextlib.ExitStack() as stack:
        workloads = []
        for package in packages:
            workdir = Path(stack.enter_context(tempfile.TemporaryDirectory()))
            workload = WORKLOADS[args.workload](package, args.seed, workdir)
            workload.setup()
            stack.callback(workload.cleanup)
            workloads.append(workload)
        medians = {}
        for i, (label, _) in enumerate(workloads[0].ops):
            ops = [workload.ops[i][1] for workload in workloads]
            for op in ops:
                op(0)
            times = [[] for _ in ops]
            for r in range(args.rounds):
                for k in (range(len(ops)) if r % 2 == 0 else reversed(range(len(ops)))):
                    t0 = time.process_time()
                    ops[k](r)
                    times[k].append(time.process_time() - t0)
            if len(ops) == 1:
                medians[label] = _ms(times[0])
            else:
                this, other = _ms(times[0]), _ms(times[1])
                medians[label] = [this, other, round(this / other, 4)]
    print(json.dumps(medians))
    return medians


if __name__ == "__main__":
    if any(os.environ.get(key) != value for key, value in WORKER_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **WORKER_ENV})
    main()
