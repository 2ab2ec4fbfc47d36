"""Print what nlvar CLI commands cost as whole processes: per command, the
median wall time, CPU time (user + system) and peak RSS over fresh runs,
the end-to-end view that the benchmark's in-process rounds leave out
(interpreter start, imports, output files).

    PYTHONPATH=src python tests/cli_cost.py [--runs 8] [--large] [--against DIR]
        [--command "minimize --problem quad-mass --n 512" ...]

Each run is `python -m nlvar.cli COMMAND --out TMPDIR` in a new process
with one BLAS/OpenMP thread, and its CPU time and peak RSS are the child's
own, read by os.wait4 as it exits. The default commands are the end-to-end
set of ROADMAP.md: reproduce fig2-problem1, fig3-quad-mass and fig4-bolza,
and minimize on problem1, quad-mass, power:3 and bolza at n = 128 and 512
(bolza from the random start of seed 0, which descends and takes Newton
steps, where its default zero start is a critical point); --large adds
n = 2048. --command replaces the set. With --against DIR, each run also
runs DIR's checkout (DIR/src), the first of the pair alternating, and each
row gives both medians and their ratio.
"""

from __future__ import annotations

import argparse
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MINIMIZE = ["--problem problem1", "--problem quad-mass", "--integrand power:3",
            "--problem bolza --init random --seed 0"]


def commands(large: bool) -> list[str]:
    sizes = (128, 512, 2048) if large else (128, 512)
    return ([f"reproduce {figure}" for figure in ("fig2-problem1", "fig3-quad-mass", "fig4-bolza")]
            + [f"minimize {what} --n {n}" for n in sizes for what in MINIMIZE])


def run(checkout: Path, command: str) -> tuple[float, float, float]:
    """(wall s, CPU s, peak RSS MiB) of one process running command from
    checkout's src; a command that exits non-zero raises."""
    env = dict(os.environ, **ENV, PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryDirectory() as out:
        argv = [sys.executable, "-m", "nlvar.cli", *shlex.split(command), "--out", out]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped, so Popen must not wait
    if proc.returncode != 0:
        raise RuntimeError(f"{command!r} from {checkout} exited {proc.returncode}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024  # KiB on Linux


def medians(samples: list[tuple[float, float, float]]) -> list[float]:
    return [round(statistics.median(column), 4) for column in zip(*samples)]


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=8)
    parser.add_argument("--large", action="store_true", help="add minimize at n = 2048")
    parser.add_argument("--against", type=Path, help="another checkout, run alternately")
    parser.add_argument("--command", action="append",
                        help="a command to run in place of the default set (repeatable)")
    args = parser.parse_args(argv)
    checkouts = [ROOT] + ([args.against.resolve()] if args.against else [])
    columns = ["wall_s", "cpu_s", "rss_mib"]
    if args.against:
        columns = [f"{name}{side}" for name in columns for side in ("", "_against", "_ratio")]
    width = max(map(len, columns)) + 2
    print(f"{'command':<56}" + "".join(f"{name:>{width}}" for name in columns))
    rows = {}
    for command in args.command or commands(args.large):
        samples = [[] for _ in checkouts]
        for r in range(args.runs):
            order = range(len(checkouts)) if r % 2 == 0 else reversed(range(len(checkouts)))
            for side in order:
                samples[side].append(run(checkouts[side], command))
        this = medians(samples[0])
        if args.against:
            other = medians(samples[1])
            row = [[a, b, round(a / b, 4)] for a, b in zip(this, other)]
            cells = [value for triple in row for value in triple]
        else:
            row = cells = this
        rows[command] = row
        print(f"{command:<56}" + "".join(f"{value:>{width}.4f}" for value in cells), flush=True)
    return rows


if __name__ == "__main__":
    main()
