"""Reference kernels that tell how fast the machine runs at this moment.

On a shared host the CPU time of the same work changes by up to a factor of
two within minutes, when other guests load the same physical cores. The
worker runs a fixed reference kernel, which shares no code with nlvar,
before the first timed round and after each one, and scales each round's
CPU time by nominal / measured time of the kernel, averaged over the runs
just before and just after the round. The scaled time is the round's CPU
time at the speed at which the kernel takes its nominal time. A kernel of
the same kind as the round tracks it best: from 17 processes per workload
in a noisy hour, the spread (q3 - q1) / median of the median round fell
from 0.35 to 0.09 (figures), 0.32 to 0.07 (residual), 0.14 to 0.07
(large-n) and 0.12 to 0.07 (solve) with the kernels below.

Each workload gets a kernel of the same kind as its own work: the Python
interpreter and 128 × 128 numpy passes for figures and residual, 128 × 128
and 512 × 512 passes for solve, and passes over 1024 × 4096 blocks for
large-n, whose kernels stream memory. Set-up is not scaled: it is mostly
imports, which slow down more than any of these kernels on a loaded host,
and within a loaded period its raw CPU time spread less than any scaled
version tried (0.05-0.06 against 0.08-0.22).
"""

from __future__ import annotations

import time

import numpy as np


def _python_loop():
    s = 0.0
    for i in range(150_000):
        s += (i % 7) * 0.5
    return s


def _numpy_passes(rows: int, cols: int, reps: int):
    """Difference quotients of a rows x cols block, like the energy kernels."""
    x = np.linspace(0.0, 1.0, cols)
    s = 0.0
    for _ in range(reps):
        a = x[:rows, None] - x[None, :]
        b = np.abs(a) ** 2 + a * 0.5
        c = np.where(a != 0.0, b / (a + 1e-300), 0.0)
        s += float(c.sum())
    return s


# kernel -> (call, nominal CPU seconds). The nominal times are the fastest
# medians seen on a 2-vCPU Xeon virtual machine at 2.1 GHz; they fix the
# unit of the scaled times and nothing else.
KERNELS = {
    "python": (_python_loop, 0.0095),
    "numpy128": (lambda: _numpy_passes(128, 128, 200), 0.0115),
    "numpy512": (lambda: _numpy_passes(512, 512, 10), 0.0167),
    "numpy4096": (lambda: _numpy_passes(1024, 4096, 1), 0.038),
}

MIX = {
    "figures": ("python", "numpy128"),
    "residual": ("python", "numpy128"),
    "solve": ("numpy128", "numpy512"),
    "large-n": ("numpy4096",),
}


def speed(mix: str) -> float:
    """Nominal over measured CPU time of the mix's kernels; above 1 when
    the machine is faster than nominal."""
    t0 = time.process_time()
    for k in MIX[mix]:
        KERNELS[k][0]()
    return sum(KERNELS[k][1] for k in MIX[mix]) / (time.process_time() - t0)
