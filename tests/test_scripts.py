"""The measurement scripts beside the tests, run at their smallest sizes so
that a rename of the kernel names they read fails here, not by hand."""

import json
import re

import crossover_scan
import near_far_errors
import unsigned_scan
import workload_ops
from nlvar import energy
from nlvar.integrands import half_square, power_p, quadratic_mass, two_well_bare, two_well_full

from helpers import hand_built


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
        c = W.phi_coefficients
        assert (name, int(n), int(band), int(near)) == (W.name, 513, energy._near_band(513, c),
                                                        energy._near_rows(513, c))
        # TestNearFar's bounds: 1e-12 relative in the energy, 1e-11 of max|g|
        assert float(value) <= 1e-12 and float(grad) <= 1e-11, row


def test_crossover_scan_prints_one_line_per_density(capsys):
    # one call per size: the timings are noise, only the format is checked
    crossover_scan.main(["--first", "512", "--last", "513", "--calls", "1",
                         "--densities", "half-square", "power:3"])
    lines = capsys.readouterr().out.splitlines()
    names = []
    for line in lines:
        match = re.fullmatch(r"(.+?): the path lost at (\d) sizes((?:, 51[23] \(\d+\.\d\d\))*)",
                             line)
        assert match, line
        assert int(match[2]) == match[3].count("(")
        names.append(match[1])
    assert names == ["half-square", "power:3"]


def test_crossover_scan_of_the_blocks_prints_one_line_per_density(capsys):
    crossover_scan.main(["--first", "2048", "--last", "2049", "--calls", "1", "--blocks",
                         "--densities", "two-well"])
    line, = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"two-well: the blocks lost at (\d) sizes(, 204[89] \(\d+\.\d\d\))*",
                        line), line


def test_unsigned_scan_prints_share_and_times_per_profile(capsys):
    unsigned_scan.main(["--sizes", "512", "--calls", "1"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["n", "profile", "share", "path", "ms", "fold", "ms", "ratio"]
    assert [row.split()[:2] for row in rows] == [["512", "rough"], ["512", "hat"]]
    # the hat's share at n = 512, by _direct_pays' count
    assert float(rows[1].split()[2]) == 0.75


def test_workload_ops_prints_a_median_per_operation(capsys):
    medians = workload_ops.main(["--workload", "large-n", "--rounds", "1"])
    assert list(medians) == [f"{name}/{op}" for name in ("half-square", "power:3", "two-well")
                             for op in ("value", "gradient")]
    assert all(ms > 0 for ms in medians.values())
    assert capsys.readouterr().out.strip() == json.dumps(medians)
