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

import copy
import json

import pytest

import golden

REFERENCE = json.loads(golden.PATH.read_text())
ID = lambda key: key.replace(" ", "_")  # test ids without spaces


def check(key, got, want):
    for what, deviation, tolerance in golden.deviations(key, got, want):
        assert deviation <= tolerance, (what, deviation, tolerance)


@pytest.mark.parametrize("key", [k for k in REFERENCE if not k.startswith("fixed")], ids=ID)
def test_cli_run(key):
    want = REFERENCE[key]
    got = golden.run_cli(key.split(" "))
    assert got["exit"] == want["exit"]
    assert got["stdout"].keys() == want["stdout"].keys()
    assert got["curves"].keys() == want["curves"].keys()
    check(key, got, want)


@pytest.mark.parametrize("key", [k for k in REFERENCE if k.startswith("fixed")], ids=ID)
def test_fixed_profile(key):
    _, name, profile, n = key.split(" ")
    check(key, golden.fixed_profile(name, profile, int(n)), REFERENCE[key])


class TestScript:
    """golden.py's arguments, on a stand-in compute() and reference file."""

    SOLVE, FIXED = "minimize --problem problem1 --n 64", "fixed half-square linear 64"

    @pytest.fixture
    def moved(self, monkeypatch, tmp_path):
        """A reference of two entries, a fresh run in which both moved within
        their pins, and one entry the reference lacks; returns the file."""
        path = tmp_path / "golden.json"
        path.write_text(json.dumps({k: REFERENCE[k] for k in (self.SOLVE, self.FIXED)}))
        solve = copy.deepcopy(REFERENCE[self.SOLVE])
        solve["curves"]["problem1_n64.csv"][5] += 5e-7
        solve["iters"] = [3]
        fixed = copy.deepcopy(REFERENCE[self.FIXED])
        fixed["energy"] *= 1.0 + 4e-14
        data = {self.SOLVE: solve, self.FIXED: fixed, "fixed absent": fixed}
        monkeypatch.setattr(golden, "PATH", path)
        monkeypatch.setattr(golden, "compute", lambda: data)
        return path

    @pytest.mark.parametrize("argv", [["--bogus"], ["--digest", "--compare"], ["--compare", "x"]])
    def test_bad_arguments_print_usage(self, argv, moved):
        with pytest.raises(SystemExit, match=r"usage: .* \[--digest \| --compare\]"):
            golden.main(argv)

    def test_compare_prints_margins_and_writes_nothing(self, moved, capsys):
        before = moved.read_bytes()
        golden.main(["--compare"])
        assert moved.read_bytes() == before
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"{self.SOLVE}: problem1_n64.csv 5e-07 (pin 1e-06) iters [24] -> [3]"
        assert lines[1].startswith(f"{self.FIXED}: energy 4e-14 (pin 1e-13)")
        assert lines[2] == "fixed absent: not in golden.json"
        assert len(lines) == 3

    def test_digest_prints_hashes_and_writes_nothing(self, moved, capsys):
        before = moved.read_bytes()
        golden.main(["--digest"])
        assert moved.read_bytes() == before
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("  ", 1)[1] for line in lines] == [self.SOLVE, self.FIXED, "fixed absent"]
        assert all(len(line.split("  ", 1)[0]) == 64 for line in lines)

    def test_deviations_fail_outside_their_pins(self):
        fixed = copy.deepcopy(REFERENCE[self.FIXED])
        fixed["gradient"][3] += 1e-10
        failing = [what for what, dev, tol in golden.deviations(self.FIXED, fixed,
                                                                REFERENCE[self.FIXED])
                   if dev > tol]
        assert failing == ["gradient"]
