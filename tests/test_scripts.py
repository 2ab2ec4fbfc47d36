"""The measurement scripts beside the tests, run at their smallest sizes so
that a rename of the kernel names they read fails here, not by hand."""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import golden
import near_far_errors
import near_far_scan
import solve_corpus
import workload_ops
from nlvar import energy
from nlvar.energy import energy_value, value_and_grad
from nlvar.grid import Grid1D, NodalFunction
from nlvar.integrands import (
    half_square,
    integrand_by_name,
    power_p,
    quadratic_mass,
    two_well_bare,
    two_well_full,
)

from helpers import hand_built, near_far_profiles


def test_near_far_errors_prints_one_row_per_density_within_the_bounds(capsys):
    densities = [half_square(), quadratic_mass(), power_p(2), power_p(3), power_p(4),
                 two_well_full(), two_well_bare()] + hand_built()
    near_far_errors.main(["--sizes", "513"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["density", "n", "band", "near", "energy", "profile", "gradient",
                              "profile"]
    assert len(rows) == len(densities)
    for row, W in zip(rows, densities):
        name, n, band, near, value, _, grad, _ = row.split()
        assert (name, int(n), (int(near), int(band))) == (W.name, 513,
                                                          energy._split(513, W.phi_coefficients))
        # TestNearFar's bounds: 1e-12 relative in the energy, 1e-11 of max|g|
        assert float(value) <= 1e-12 and float(grad) <= 1e-11, row


# one call per size: the timings are noise, only the format and the
# shares are checked. The default mode of near_far_scan.py scans the
# crossover of path and fold per density and size, and prints the share of
# unsigned far pairs per profile.
def test_crossover_scan_prints_one_line_per_density(capsys):
    near_far_scan.main(["--sizes", "512:513", "--calls", "1", "--densities", "half-square",
                        "power:3"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["density", "n", "profile", "share", "side", "path_ms", "fold_ms",
                              "ratio"]
    assert [row.split()[:3] for row in rows] == [["half-square", "512", "sin3x"],
                                                 ["half-square", "513", "sin3x"],
                                                 ["power:3", "512", "sin3x"],
                                                 ["power:3", "513", "sin3x"]]
    assert all(float(x) > 0 for row in rows for x in row.split()[5:])


# n = 256 = 2^8 is a fast FFT length and 257 a prime: degree 2 and the
# quartics take the path at 256 only, power:3 (near rows 64 > 256 // 8)
# neither
def test_crossover_scan_prints_the_side_quadrature_takes(capsys):
    near_far_scan.main(["--sizes", "256:257", "--calls", "1", "--densities", "half-square",
                        "two-well", "power:3"])
    _, *rows = capsys.readouterr().out.splitlines()
    assert [(row.split()[0], row.split()[1], row.split()[4]) for row in rows] == [
        ("half-square", "256", "path"), ("half-square", "257", "fold"),
        ("two-well", "256", "path"), ("two-well", "257", "fold"),
        ("power:3", "256", "fold"), ("power:3", "257", "fold")]


def test_unsigned_scan_prints_share_and_times_per_profile(capsys):
    near_far_scan.main(["--sizes", "512", "--calls", "1", "--densities", "half-square",
                        "power:3", "--profiles", "rough", "hat"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["density", "n", "profile", "share", "side", "path_ms", "fold_ms",
                              "ratio"]
    # the hat's share at n = 512, by _unsigned_share's count of the real
    # pairs; power:3 takes the path only where the share is at most 1/2
    assert [row.split()[:5] for row in rows] == [["half-square", "512", "rough", "-", "path"],
                                                 ["half-square", "512", "hat", "-", "path"],
                                                 ["power:3", "512", "rough", "1.00", "fold"],
                                                 ["power:3", "512", "hat", "0.62", "fold"]]
    assert all(float(x) > 0 for row in rows for x in row.split()[5:])


def test_near_far_scan_of_the_blocks_prints_one_row_per_size(capsys):
    near_far_scan.main(["--blocks", "--sizes", "2048:2049", "--calls", "1",
                        "--densities", "two-well"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["density", "n", "profile", "share", "side", "blocks_ms", "rows_ms",
                              "ratio"]
    assert [row.split()[:5] for row in rows] == [["two-well", "2048", "sin3x", "-", "path"],
                                                 ["two-well", "2049", "sin3x", "-", "path"]]


def test_workload_ops_prints_a_median_per_operation(capsys):
    medians = workload_ops.main(["--workload", "large-n", "--rounds", "1"])
    assert list(medians) == [f"{name}/{op}" for name in ("half-square", "power:3", "two-well")
                             for op in ("value", "gradient")]
    assert all(ms > 0 for ms in medians.values())
    assert capsys.readouterr().out.strip() == json.dumps(medians)


# against its own checkout, loaded a second time under another package
# name whose caches are its own: both medians of each operation, side by
# side, and their ratio
def test_workload_ops_against_a_checkout_prints_both_medians(capsys):
    root = Path(workload_ops.__file__).resolve().parent.parent
    medians = workload_ops.main(["--workload", "large-n", "--rounds", "1", "--against",
                                 str(root)])
    assert list(medians) == [f"{name}/{op}" for name in ("half-square", "power:3", "two-well")
                             for op in ("value", "gradient")]
    assert all(this > 0 and other > 0 and ratio == round(this / other, 4)
               for this, other, ratio in medians.values())
    assert capsys.readouterr().out.strip() == json.dumps(medians)
    against = sys.modules["nlvar_against"]
    assert against.energy is not energy
    assert Path(against.energy.__file__) == root / "src" / "nlvar" / "energy.py"


# n = 64 on the dense fold, 256 on the path for degree 2 and the quartics:
# one line per density, size, profile and call, then per workload and seed,
# and each line the sha256 of the call's bits
def test_kernel_digests_print_one_line_per_call_and_workload(capsys):
    golden.main(["--kernel", "--sizes", "64", "256"])
    lines = capsys.readouterr().out.splitlines()
    densities = [integrand_by_name(name) for name in golden.DENSITIES] + hand_built()
    labels = [f"{W.name} {n} {profile} {call}" for W in densities for n in (64, 256)
              for profile in near_far_profiles(n) for call in ("value", "value+grad")]
    labels += [f"workload {name} seed {seed}"
               for name in ("solve", "figures", "residual", "large-n") for seed in (1, 2, 3)]
    assert [line.split("  ", 1)[1] for line in lines] == labels
    digests = dict(line.split("  ", 1)[::-1] for line in lines)
    u = NodalFunction(Grid1D(256), near_far_profiles(256)["rough"])
    value, grad = value_and_grad(u, two_well_full())
    assert digests["two-well 256 rough value"] == hashlib.sha256(
        np.float64(energy_value(u, two_well_full())).tobytes()).hexdigest()
    assert digests["two-well 256 rough value+grad"] == hashlib.sha256(
        np.float64(value).tobytes() + grad.tobytes()).hexdigest()


# one density that converges and one that stalls at its round-off floor
# from the zero start at n = 16 with the end values (0, 1), each with the
# three end values: one line per solve, then the count by outcome
def test_solve_corpus_prints_one_line_per_solve_and_the_counts(capsys):
    counts = solve_corpus.main(["--densities", "half-square", "power:4", "--sizes", "16",
                                "--starts", "zero"])
    *lines, total = capsys.readouterr().out.splitlines()
    assert [line.split()[:4] for line in lines] == [
        [name, "16", "zero", ends] for name in ("half-square", "power:4")
        for ends in ("0,1", "0,0", "-1,2")]
    for line in lines:
        end, iters, evaluations, newton, gnorm, digest = line.split()[4:]
        assert end in ("converged", "stalled")
        assert int(iters) < int(evaluations) and int(newton) <= int(iters)
        assert float(gnorm) >= 0 and len(digest) == 64
    assert lines[3].split()[4] == "stalled"
    assert counts == {"converged": 5, "stalled": 1}
    assert total == "outcomes: converged 5, stalled 1"
