"""Reference values of nlvar's outputs, and the script that records them.

    PYTHONPATH=src python tests/golden.py            # rewrites tests/golden.json
    PYTHONPATH=src python tests/golden.py --digest   # prints digests, writes nothing

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
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

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


def compute() -> dict:
    data = {" ".join(argv): run_cli(argv) for argv in commands()}
    for name in DENSITIES:
        for profile in PROFILES:
            for n in FIXED_N:
                data[f"fixed {name} {profile} {n}"] = fixed_profile(name, profile, n)
    return data


def main(argv: list[str]) -> None:
    if argv not in ([], ["--digest"]):
        sys.exit(f"usage: {sys.argv[0]} [--digest]")
    data = compute()
    if argv:
        for key, value in data.items():
            digest = hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
            print(f"{digest}  {key}")
        return
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in data.items()]
    PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(data)} entries to {PATH}")


if __name__ == "__main__":
    main(sys.argv[1:])
