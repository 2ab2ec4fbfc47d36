"""The measurement scripts beside the tests, run at their smallest sizes so
that a rename of the kernel names they read fails here, not by hand."""

import re

import crossover_scan
import near_far_errors
from nlvar import energy
from nlvar.integrands import half_square, power_p, quadratic_mass, two_well_bare, two_well_full

from helpers import hand_built


def test_near_far_errors_prints_one_row_per_density_within_the_bounds(capsys):
    densities = [half_square(), quadratic_mass(), power_p(2), power_p(3), power_p(4),
                 two_well_full(), two_well_bare()] + hand_built()
    near_far_errors.main(["--sizes", "513"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["density", "n", "band", "energy", "profile", "gradient", "profile"]
    assert len(rows) == len(densities)
    for row, W in zip(rows, densities):
        name, n, band, value, _, grad, _ = row.split()
        assert (name, int(n), int(band)) == (W.name, 513,
                                             energy._near_band(513, W.phi_coefficients))
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
