"""Reference values of nlvar's outputs, and the script that records them.

    PYTHONPATH=src python tests/golden.py            # rewrites tests/golden.json
    PYTHONPATH=src python tests/golden.py --digest   # prints digests, writes nothing
    PYTHONPATH=src python tests/golden.py --compare  # prints margins, writes nothing
    PYTHONPATH=src python tests/golden.py --kernel [--sizes N ...]  # the kernel's bits

`compute()` runs `nlvar reproduce fig1-fig4` and `nlvar minimize` on
problem1, quad-mass, power:3 and bolza at n = 64 and 128 (stdout, exit code
and every CSV written), and evaluates energy, gradient and residual report
of four fixed profiles for every built-in density. `tests/test_golden.py`
compares a fresh `compute()` with the committed file, with a tolerance for
each kind of number. Rewrite the file only from a commit whose numbers are
meant to become the reference, and say so in CHANGES.md.

`--digest` prints one line per entry, the sha256 of its JSON, in which
floats are written as their repr and so exactly; two checkouts give the same
numbers bit for bit when `diff` finds no difference between their outputs.

`--kernel` prints one sha256 per density, n, profile and call of the
energy kernel's bits at the sizes where the near/far path runs, which the
entries above, at n <= 129, never reach: `energy_value`, and
`value_and_grad`'s value and gradient, of every built-in density and
`helpers.hand_built()` on `helpers.near_far_profiles`, at KERNEL_SIZES or
the sizes given. Then one per benchmark workload and seed 1-3: its first
round's fingerprints, read from perfbench/workloads.py. It reads only
public entries of the package, so the same script runs against another
checkout's `src`, and `diff` of the two outputs compares their bits. No
hash is pinned: the FFT's bits depend on numpy's build.

`--compare` prints, for each entry, the largest deviation from the committed
file next to the pin tolerance of its kind (`deviations` gives both, and
`tests/test_golden.py` asserts one within the other), and the recorded and
current solver iteration counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path
from typing import Iterator
from unittest import mock

import numpy as np

import nlvar
from nlvar import cli
from nlvar.energy import energy_value, value_and_grad
from nlvar.grid import Grid1D, NodalFunction
from nlvar.integrands import integrand_by_name
from nlvar.optimality import residual_report

PATH = Path(__file__).with_name("golden.json")

DENSITIES = ("power:2", "power:3", "power:4", "half-square", "quad-mass",
             "two-well", "two-well-bare")
PROFILES = {
    "linear": lambda x, rng: x,
    "square": lambda x, rng: x * x,
    "hat": lambda x, rng: 0.5 - np.abs(x - 0.5),
    "seeded": lambda x, rng: x + 0.2 * rng.uniform(-1.0, 1.0, x.size),
}
FIXED_N = (64, 129)  # an even and an odd cell count
SOLVE_N = (64, 128)
# both sides of each crossover: the path from 256 at the fast FFT lengths
# (256, 300, 384) and at every n from 512, the blocks from 2048
KERNEL_SIZES = (64, 128, 129, 255, 256, 300, 384, 511, 512, 1024, 2048, 2049, 4096, 8192)
WORKLOAD_SEEDS = (1, 2, 3)
USAGE = "usage: {0} [--digest | --compare]\n       {0} --kernel [--sizes N ...]"

# pin tolerances of each kind of number; test_golden.py says why
NODAL = 100 * 1e-8
EXACT = 1e-13
SOLVER_ENERGY = 1e-12
PRINTED = 5e-6  # half a unit in the 6th significant digit


def commands() -> list[list[str]]:
    runs = [["reproduce", "fig1-ode-approx"]]
    for n in SOLVE_N:
        for fig in ("fig2-problem1", "fig3-quad-mass", "fig4-bolza"):
            runs.append(["reproduce", fig, "--n", str(n)])
        for problem in ("problem1", "quad-mass", "bolza"):
            runs.append(["minimize", "--problem", problem, "--n", str(n)])
        runs.append(["minimize", "--integrand", "power:3", "--n", str(n)])
    return runs


def _parse_stdout(text: str) -> dict:
    """'key: value' pairs of every line; fig4's per-level lines start with
    'n=<cells>', which prefixes their keys."""
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        prefix = ""
        if line.startswith("n="):
            level, line = line.split(" ", 1)
            prefix = level + " "
        tokens = line.split(": ")
        # "a: 1 b: 2" splits into ["a", "1 b", "2"]
        keys = [tokens[0]] + [t.rsplit(" ", 1)[-1] for t in tokens[1:-1]]
        values = [t.rsplit(" ", 1)[0] for t in tokens[1:-1]] + tokens[-1:]
        out.update({prefix + k.strip(): v.strip() for k, v in zip(keys, values)})
    return out


def run_cli(argv: list[str]) -> dict:
    """Exit code, stdout keys, solver iterations and written curves of one
    nlvar command, run in a temporary output directory."""
    iters = []

    def recording_minimize(*args, **kwargs):
        result = cli_minimize(*args, **kwargs)
        iters.append(result.iters)
        return result

    cli_minimize = cli.minimize
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        with mock.patch.object(cli, "minimize", recording_minimize), \
                contextlib.redirect_stdout(stdout):
            code = cli.main(argv + ["--out", out])
        curves = {p.name: np.loadtxt(p, delimiter=",", skiprows=1)[:, 1].tolist()
                  for p in sorted(Path(out).glob("*.csv"))}
    stdout = _parse_stdout(stdout.getvalue())
    stdout.pop("curve", None)  # the temporary path
    return {"exit": code, "stdout": stdout, "iters": iters, "curves": curves}


def fixed_profile(name: str, profile: str, n: int) -> dict:
    grid = Grid1D(n)
    u = NodalFunction(grid, PROFILES[profile](grid.nodes, np.random.default_rng(n)))
    W = integrand_by_name(name)
    report = residual_report(u, W)
    return {
        "energy": energy_value(u, W),
        "gradient": value_and_grad(u, W)[1].tolist(),
        "residuals": report.residuals.tolist(),
        "norm_l2": report.norm_l2,
        "norm_sup": report.norm_sup,
        "norm_l2_central": report.norm_l2_central,
    }


def _relative(got: float, want: float) -> float:
    """|got - want| / max(|got|, |want|): math.isclose(got, want, rel_tol=r,
    abs_tol=0) holds exactly when this is at most r."""
    scale = max(abs(got), abs(want))
    return abs(got - want) / scale if scale else 0.0


def _sup(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(got - want), initial=0.0))


def _stdout_deviations(got: dict, want: dict, solved: bool):
    for key, text in want.items():
        name = key.split(" ")[-1]
        if key not in got or name in ("iters", "grad_norm"):
            continue  # key sets are compared by the caller; these are recorded only
        a, b = got[key], text
        if name == "energy" and solved:
            yield key, _relative(float(a), float(b)), SOLVER_ENERGY
        elif name == "k_normalized":
            yield key, _relative(float(a), float(b)), EXACT
        elif name.startswith("sup_distance"):
            levels = 2 if name.endswith("levels") else 1
            yield key, abs(float(a) - float(b)), levels * NODAL + PRINTED * abs(float(b))
        else:  # text, which must match
            yield key, 0.0 if a == b else math.inf, 0.0


def _curve_deviations(got: dict, want: dict):
    for name, values in want.items():
        if name not in got:
            continue
        if name.startswith("fig1_") or "local_exp" in name:
            # sup norm relative to the reference's
            yield name, _sup(got[name], values), EXACT * np.max(np.abs(values), initial=0.0)
        elif "derivative" in name:
            yield name, _sup(got[name], values), 2 * NODAL * len(values)
        else:
            yield name, _sup(got[name], values), NODAL


def deviations(key: str, got: dict, want: dict) -> list[tuple[str, float, float]]:
    """(what, deviation, tolerance) of every pinned number and text of entry
    key; the pin holds when each deviation is at most its tolerance. Exit
    codes and key sets are the caller's to compare."""
    if key.startswith("fixed"):
        out = [(k, _relative(got[k], want[k]), EXACT)
               for k in ("energy", "norm_l2", "norm_sup", "norm_l2_central")]
        return out + [(k, _sup(got[k], want[k]), EXACT * np.max(np.abs(want[k]), initial=0.0))
                      for k in ("gradient", "residuals")]
    return [*_stdout_deviations(got["stdout"], want["stdout"], solved=bool(want["iters"])),
            *_curve_deviations(got["curves"], want["curves"])]


def _share(deviation: float, tolerance: float) -> float:
    """The share of its pin a deviation uses (above 1 breaks the pin)."""
    if deviation == 0.0:
        return 0.0
    return deviation / tolerance if tolerance else math.inf


def _margin(key: str, got: dict, want: dict) -> str:
    """The entry's deviation nearest its pin, and its iteration counts."""
    # among equal shares, a numeric pin before a text
    what, dev, tol = max(deviations(key, got, want), key=lambda d: (_share(d[1], d[2]), d[2] > 0))
    line = f"{key}: {what} {dev:.3g} (pin {tol:.3g})"
    if "iters" in want:
        line += f" iters {want['iters']} -> {got['iters']}"
    return line


def compute() -> dict:
    data = {" ".join(argv): run_cli(argv) for argv in commands()}
    for name in DENSITIES:
        for profile in PROFILES:
            for n in FIXED_N:
                data[f"fixed {name} {profile} {n}"] = fixed_profile(name, profile, n)
    return data


def _sha256(*arrays) -> str:
    return hashlib.sha256(b"".join(np.asarray(a, float).tobytes() for a in arrays)).hexdigest()


def kernel_digests(sizes) -> Iterator[tuple[str, str]]:
    """(sha256, label) of the kernel's bits, as `--kernel` prints them."""
    from helpers import hand_built, near_far_profiles
    for W in [integrand_by_name(name) for name in DENSITIES] + hand_built():
        for n in sizes:
            grid = Grid1D(n)
            for profile, values in near_far_profiles(n).items():
                u = NodalFunction(grid, values)
                yield _sha256(energy_value(u, W)), f"{W.name} {n} {profile} value"
                yield _sha256(*value_and_grad(u, W)), f"{W.name} {n} {profile} value+grad"
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import WORKLOADS
    for name, workload in WORKLOADS.items():
        for seed in WORKLOAD_SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                run = workload(nlvar, seed, Path(workdir))
                run.setup()
                fingerprints = run.fingerprints(run.run_round(0), 0)
                run.cleanup()
            digest = hashlib.sha256(repr(fingerprints).encode()).hexdigest()
            yield digest, f"workload {name} seed {seed}"


def main(argv: list[str]) -> None:
    if argv[:1] == ["--kernel"]:
        sizes = argv[2:] if argv[1:2] == ["--sizes"] else None
        if len(argv) > 1 and not (sizes and all(a.isdigit() for a in sizes)):
            sys.exit(USAGE.format(sys.argv[0]))
        for digest, label in kernel_digests([int(a) for a in sizes] if sizes else KERNEL_SIZES):
            print(f"{digest}  {label}", flush=True)
        return
    if argv not in ([], ["--digest"], ["--compare"]):
        sys.exit(USAGE.format(sys.argv[0]))
    data = compute()
    if argv == ["--digest"]:
        for key, value in data.items():
            digest = hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
            print(f"{digest}  {key}")
        return
    if argv == ["--compare"]:
        reference = json.loads(PATH.read_text())
        for key, value in data.items():
            print(_margin(key, value, reference[key]) if key in reference
                  else f"{key}: not in {PATH.name}")
        return
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in data.items()]
    PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(data)} entries to {PATH}")


if __name__ == "__main__":
    main(sys.argv[1:])
