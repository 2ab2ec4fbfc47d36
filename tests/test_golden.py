"""Today's numbers, pinned with a tolerance for each kind (see golden.py).

- Nothing solved (fig1, the local comparison curve, energy, gradient and
  residual report of a fixed profile): 1e-13 relative, in the sup norm for
  vectors. A change of summation order moves these by a few ulps.
- A solver energy: 1e-12 relative.
- Solver nodal values: NODAL = 100 x the stopping tolerance (1e-8 at
  n <= 128) in the sup norm. Solves that both stop at |g| <= 1e-8 can end
  at different points of the same basin; a one-ulp change of the start
  moves problem1 at n = 128 by 2e-16, the folded kernel's summation order
  moves fig4 at n = 128 by 2.2e-8. Quantities derived from nodal values get the bound
  carried through: 2 NODAL / h for the fig2 derivative, NODAL and 2 NODAL
  for the fig3 and fig4 sup distances (printed with 6 digits, which adds
  5e-6 relative).
- Iteration counts and gradient norms are recorded, not compared: they
  follow the stopping point. Exit codes and text must match.
"""

import json
import math

import numpy as np
import pytest

import golden

REFERENCE = json.loads(golden.PATH.read_text())
NODAL = 100 * 1e-8
EXACT = 1e-13
SOLVER_ENERGY = 1e-12
PRINTED = 5e-6  # half a unit in the 6th significant digit
ID = lambda key: key.replace(" ", "_")  # test ids without spaces


def close_vec(got, want, rel):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.max(np.abs(got - want), initial=0.0) <= rel * np.max(
        np.abs(want), initial=0.0)


def check_stdout_value(key, got, want, solved):
    name = key.split(" ")[-1]
    if name in ("iters", "grad_norm"):
        return
    if name == "energy" and solved:
        assert math.isclose(float(got), float(want), rel_tol=SOLVER_ENERGY, abs_tol=0.0), key
    elif name == "k_normalized":
        assert math.isclose(float(got), float(want), rel_tol=EXACT, abs_tol=0.0), key
    elif name.startswith("sup_distance"):
        levels = 2 if name.endswith("levels") else 1
        assert abs(float(got) - float(want)) <= levels * NODAL + PRINTED * abs(float(want)), key
    else:
        assert got == want, key


def check_curve(name, got, want):
    if name.startswith("fig1_") or "local_exp" in name:
        assert close_vec(got, want, EXACT), name
        return
    bound = 2 * NODAL * len(got) if "derivative" in name else NODAL
    assert len(got) == len(want)
    assert np.max(np.abs(np.subtract(got, want))) <= bound, name


@pytest.mark.parametrize("key", [k for k in REFERENCE if not k.startswith("fixed")], ids=ID)
def test_cli_run(key):
    want = REFERENCE[key]
    got = golden.run_cli(key.split(" "))
    assert got["exit"] == want["exit"]
    assert got["stdout"].keys() == want["stdout"].keys()
    for k, v in want["stdout"].items():
        check_stdout_value(k, got["stdout"][k], v, solved=bool(want["iters"]))
    assert got["curves"].keys() == want["curves"].keys()
    for name, values in want["curves"].items():
        check_curve(name, got["curves"][name], values)


@pytest.mark.parametrize("key", [k for k in REFERENCE if k.startswith("fixed")], ids=ID)
def test_fixed_profile(key):
    want = REFERENCE[key]
    _, name, profile, n = key.split(" ")
    got = golden.fixed_profile(name, profile, int(n))
    for k in ("energy", "norm_l2", "norm_sup", "norm_l2_central"):
        assert math.isclose(got[k], want[k], rel_tol=EXACT, abs_tol=0.0), k
    for k in ("gradient", "residuals"):
        assert close_vec(got[k], want[k], EXACT), k
