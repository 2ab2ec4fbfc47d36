"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steady.py [--first-seed 100]

Each set runs every workload of BENCHMARK.json ten times, for its
run_seconds, with seeds s .. s+9 (set A) and s+10 .. s+19 (set B). For every
workload and end-to-end metric it prints the first quartile, median and
third quartile of each set, the spread (q3 - q1) / median, and the drift
(median B / median A - 1, signed so that positive is worse). A metric
passes when the size of the drift, in either direction, is within the
metric's bound and, for every metric but setup_s, so is each set's spread.
setup_s is the median of a few set-ups per run, each mostly imports, which
a loaded host slows more than any work the benchmark can measure next to
them; its spread between runs is printed but not judged, and its drift is
(see README.md). A workload passes when, in addition, both sets have the
same share of failed operations. Then one traced run per workload gives the
per-layer metrics and the tracing overhead (traced median round time over
untraced ref_cpu_s). All figures also go to perfbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # runs per workload in each set


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdicts(spec: dict, runs: dict) -> tuple[bool, list]:
    """Verdict per workload and end-to-end metric for two sets of results."""
    ok, table = True, []
    print(f"\n{'workload':9} {'metric':12} {'A q1/median/q3':>30} {'B q1/median/q3':>30} "
          f"{'spread A':>8} {'spread B':>8} {'drift':>7} {'bound':>5}  verdict")
    for w, sets in runs.items():
        shares = [{r["failed"] / r["attempted"] for r in sets[s]} for s in (0, 1)]
        if len(shares[0] | shares[1]) != 1:
            ok = False
            print(f"{w}: failed shares differ between runs: {sorted(shares[0] | shares[1])}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            qs = [quartiles([r["metrics"][name]["value"] for r in sets[s]]) for s in (0, 1)]
            spreads = [(q[2] - q[0]) / q[1] for q in qs]
            drift = qs[1][1] / qs[0][1] - 1.0
            if metric["better"] == "higher":
                drift = -drift
            passed = abs(drift) <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok &= passed
            table.append({"workload": w, "metric": name, "bound": bound, "A": qs[0], "B": qs[1],
                          "spread": spreads, "drift": drift, "pass": passed})
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
            print(f"{w:9} {name:12} {fmt(qs[0]):>30} {fmt(qs[1]):>30} {spreads[0]:8.3f} "
                  f"{spreads[1]:8.3f} {drift:+7.3f} {bound:5.2f}  {'ok' if passed else 'FAIL'}")
    return ok, table


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=100)
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = {w: ([], []) for w in workloads}
    for s, name in enumerate("AB"):
        for w in workloads:
            for i in range(RUNS):
                seed = args.first_seed + s * RUNS + i
                res = bench_run(w, seed, seconds, 0)
                runs[w][s].append(res)
                print(f"set {name} {w} seed {seed}: failed {res['failed']}/{res['attempted']} "
                      + " ".join(f"{k}={m['value']:.6g}" for k, m in res["metrics"].items()),
                      flush=True)

    ok, table = verdicts(spec, runs)

    print("\ntraced runs (per-layer metrics, one run per workload)")
    traced, overhead = {}, {}
    for w in workloads:
        traced[w] = bench_run(w, args.first_seed, seconds, 1)["metrics"]
        cpu = statistics.median(r["metrics"]["ref_cpu_s"]["value"] for r in runs[w][0])
        overhead[w] = traced[w]["trace.ref_cpu_s"]["value"] / cpu - 1.0
        print(f"{w}: tracing overhead {overhead[w]:+.1%}; "
              + ", ".join(f"{k} {m['value']:.4g}" for k, m in traced[w].items() if m["value"]))
    out = HERE / "out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "runs": runs, "table": table,
                               "traced": traced, "overhead": overhead, "pass": ok}, indent=1))
    print(f"\n{'PASS' if ok else 'FAIL'}; raw figures in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
