"""Benchmark command for nlvar.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; nlvar is imported from its `src`. The
workload runs in a child process (worker.py) with one BLAS/OpenMP thread.
With --trace 0 the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics ref_cpu_s (median CPU time of a round, scaled
to a reference machine speed measured around it by calibrate.py), setup_s
(median over several set-ups of the CPU time from process start to the
first round) and peak_rss_mb; with --trace 1 the metrics are the per-layer
ones of a traced run. CPU times leave out the time other processes and, in
a virtual machine, the hypervisor take from the worker. The line above the
JSON also gives the median wall time and the median unscaled CPU time of a
round. --workload all runs every workload in
turn and prefixes each metric with its workload's name. Problems found by
the checks go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import scaled_median

HERE = Path(__file__).resolve().parent
WORKLOADS = ("solve", "figures", "residual", "large-n")
SETUP_SAMPLES = 5  # set-ups per untraced run: the main one plus four set-up-only
WORKER_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    pass


def _worker(args: list[str], timeout: float) -> dict:
    """Run worker.py; returns its JSON line."""
    # One thread: nlvar's kernels are elementwise numpy, and idle BLAS
    # threads that spin would count as CPU time. glibc malloc serves blocks
    # under 32 MiB from a heap it never trims: by default, whether the n x n
    # temporaries are fresh, page-faulting mappings depends on the heap's
    # history and differs between processes of the same input.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               MALLOC_MMAP_THRESHOLD_=str(32 << 20), MALLOC_TRIM_THRESHOLD_=str(1 << 32))
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker(args + ["--setup-only"], deadline - time.monotonic())["setup_cpu_s"])
    main = _worker(args, deadline - time.monotonic())
    setups.append(main["setup_cpu_s"])
    for problem in main["problems"]:
        print(f"{workload}: {problem}", file=sys.stderr)
    if trace:
        metrics = main["layers"]
    else:
        metrics = {
            "ref_cpu_s": {"value": scaled_median(main["round_cpu_s"], main["round_speed"]),
                          "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MiB"},
        }
    print(f"{workload}: {len(main['round_s'])} rounds, {main['attempted']} operations, "
          f"{main['failed']} failed; median round wall time "
          f"{statistics.median(main['round_s']):.6g} s, CPU time "
          f"{statistics.median(main['round_cpu_s']):.6g} s; "
          + ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()))
    # every operation is checked, so a wrong output is a failed operation
    correct = main["failed"] == 0 and not main["problems"]
    return {"correct": correct, "attempted": main["attempted"], "failed": main["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            parts = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                     for w in WORKLOADS}
            result = {
                "correct": all(p["correct"] for p in parts.values()),
                "attempted": sum(p["attempted"] for p in parts.values()),
                "failed": sum(p["failed"] for p in parts.values()),
                "metrics": {f"{w}.{k}": m for w, p in parts.items()
                            for k, m in p["metrics"].items()},
            }
    except (WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
