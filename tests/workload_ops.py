"""Print the median CPU time of each operation of one benchmark workload
over a number of rounds, for one seed: the per-op view that the
benchmark's round totals hide, where one operation's input spreads with
the seed (large-n's power:3) and another's time is what a change moves.

    PYTHONPATH=src python tests/workload_ops.py [--workload large-n] [--seed 1] [--rounds 21]

It builds the workload from perfbench/workloads.py of this checkout, runs
each operation once to warm its caches and then --rounds times, and prints
one JSON object of milliseconds by operation. Run as a script, it first
re-executes itself in perfbench/run.py's worker environment where that is
missing (WORKER_ENV): one BLAS thread, and glibc malloc serving blocks
under 32 MiB from a heap it never trims. Both malloc settings count:
without MALLOC_TRIM_THRESHOLD_ glibc trims the heap, the block
temporaries page-fault again, and solve's bolza took 277-294 ms a round
against 120-154 ms with both.
"""

from __future__ import annotations

import argparse
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


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="large-n", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=21)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        workload = WORKLOADS[args.workload](nlvar, args.seed, Path(workdir))
        workload.setup()
        medians = {}
        for label, op in workload.ops:
            op(0)
            times = []
            for r in range(args.rounds):
                t0 = time.process_time()
                op(r)
                times.append(time.process_time() - t0)
            medians[label] = round(1e3 * statistics.median(times), 3)
        workload.cleanup()
    print(json.dumps(medians))
    return medians


if __name__ == "__main__":
    if any(os.environ.get(key) != value for key, value in WORKER_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **WORKER_ENV})
    main()
