"""One workload in one process: set up, timed rounds, checks.

Started by run.py. It imports nlvar from the `src` directory
of the checkout it sits in, and from nowhere else. With --setup-only it
stops once the inputs are built. It prints one JSON line:

    setup_cpu_s  CPU time of the process from its start (interpreter start
                 included) to the moment the first round could start
    round_cpu_s  CPU time of each timed round
    round_speed  machine speed measured before the first round and after
                 each round, so round i lies between entries i and i + 1
    round_s    wall time of each timed round
    peak_rss_mb  high-water mark of the process after the timed rounds
    attempted, failed, problems   operation counts and the first problems
    layers     per-layer metrics (traced runs only)
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# at least three rounds, so that the median round is never the mean of two
MIN_ROUNDS = 3


def _import_nlvar():
    if not (SRC / "nlvar" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nlvar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nlvar
    import nlvar.cli

    if Path(nlvar.__file__).resolve().parent != (SRC / "nlvar").resolve():
        sys.exit(f"perfbench: imported nlvar from {nlvar.__file__}, not {SRC}")
    return nlvar


def scaled_median(cpu_s: list, speed: list) -> float:
    """Median round CPU time at reference speed (see calibrate.py), each
    round scaled by the mean of the speeds measured just before and after."""
    return statistics.median(c * (a + b) / 2 for c, a, b in zip(cpu_s, speed, speed[1:]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    nlvar = _import_nlvar()
    import calibrate
    from tracer import Tracer
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else None
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    workdir = HERE / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    fingerprints, first = [], None
    wl = None
    try:
        with tracer.patch(nlvar) if tracer else contextlib.nullcontext():
            wl = WORKLOADS[args.workload](nlvar, args.seed, workdir)
            with span("bench.setup"):
                wl.setup()
            setup_cpu_s = time.process_time()
            if args.setup_only:
                print(json.dumps({"setup_cpu_s": setup_cpu_s}))
                return 0
            round_s, round_cpu_s = [], []
            round_speed = [calibrate.speed(args.workload)]
            start = time.perf_counter()
            while len(round_s) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
                with span("bench.round"):
                    t0, c0 = time.perf_counter(), time.process_time()
                    outputs = wl.run_round(len(round_s))
                    round_cpu_s.append(time.process_time() - c0)
                    round_s.append(time.perf_counter() - t0)
                round_speed.append(calibrate.speed(args.workload))
                if first is None:
                    first = outputs
                fingerprints.append(wl.fingerprints(outputs, len(round_s) - 1))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report = wl.check(first)
    finally:
        if wl is not None:
            wl.cleanup()

    # an operation fails when it raised, when its first-round output failed
    # a check, or when it did not reproduce the first round's output exactly
    failed, problems = 0, [p for ops in report for p in ops]
    for r, fps in enumerate(fingerprints):
        for i, fp in enumerate(fps):
            if report[i] or fp != fingerprints[0][i]:
                failed += 1
                if not report[i]:
                    problems.append(f"{wl.ops[i][0]}: round {r} differs from round 0")
    result = {
        "setup_cpu_s": setup_cpu_s,
        "round_s": round_s,
        "round_cpu_s": round_cpu_s,
        "round_speed": round_speed,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(fingerprints) * len(wl.ops),
        "failed": failed,
        "problems": problems[:20],
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        # the traced round at reference speed; its excess over the untraced
        # ref_cpu_s is the tracing overhead
        result["layers"]["trace.ref_cpu_s"] = {"value": scaled_median(round_cpu_s, round_speed),
                                               "unit": "s"}
        tracer.write(HERE / "out" / f"trace-{args.workload}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
