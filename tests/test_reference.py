import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import nlvar
from nlvar.grid import Grid1D, GridError, NodalFunction
from nlvar.reference import (
    local_exp_solution,
    normalize_k,
    ode_approx_derivative,
    ode_approx_profile,
)

from helpers import holder_exponent

# 1 / int_0^1 x^{2x} (1-x)^{2(1-x)} dx, frozen from a 30-digit mpmath run
K_NORMALIZED = 2.5162088822971746


class TestLocalExpSolution:
    def test_end_values(self):
        assert local_exp_solution(0.0) == pytest.approx(0.0, abs=1e-15)
        assert local_exp_solution(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_end_values_exact(self):
        # sinh(4x) / sinh(4): the overlay holds both end values bit for bit
        assert local_exp_solution(0.0) == 0.0
        assert local_exp_solution(1.0) == 1.0

    def test_midpoint(self):
        assert local_exp_solution(0.5) == pytest.approx(0.13290111441703986, rel=1e-12)

    def test_strictly_increasing(self):
        xs = np.linspace(0.0, 1.0, 1001)
        assert np.all(np.diff(local_exp_solution(xs)) > 0.0)


class TestOdeApproxDerivative:
    def test_midpoint(self):
        assert ode_approx_derivative(0.5, 1.0) == pytest.approx(0.25, rel=1e-14)

    def test_end_limits(self):
        assert ode_approx_derivative(0.0, 3.0) == pytest.approx(3.0)
        assert ode_approx_derivative(1.0, 3.0) == pytest.approx(3.0)
        assert ode_approx_derivative(1e-12, 3.0) == pytest.approx(3.0, rel=1e-9)

    def test_quarter_point(self):
        expected = 0.25**0.5 * 0.75**1.5
        assert ode_approx_derivative(0.25, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_symmetric_about_half(self):
        xs = np.linspace(0.0, 1.0, 257)
        vals = ode_approx_derivative(xs, 1.7)
        assert np.allclose(vals, vals[::-1], rtol=0, atol=1e-15)

    def test_bad_scale(self):
        for k in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="scale constant must be positive"):
                ode_approx_derivative(0.5, k)


class TestNormalizeK:
    def test_value(self):
        assert normalize_k() == pytest.approx(K_NORMALIZED, rel=2e-15, abs=0)

    def test_differs_from_display_scale_two(self):
        assert abs(normalize_k() - 2.0) > 0.5


class TestOdeApproxProfile:
    def test_end_and_mid_values(self):
        profile = ode_approx_profile(Grid1D(128))
        assert profile.u(0.0) == 0.0
        assert profile.u(1.0) == pytest.approx(1.0, abs=1e-6)
        assert profile.u(0.5) == pytest.approx(0.5, abs=1e-6)

    def test_reflection_identity(self):
        profile = ode_approx_profile(Grid1D(64))
        xs = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(profile.u(xs) + profile.u(1.0 - xs) - 1.0)) <= 1e-6

    def test_nodal_values_are_read_only(self):
        profile = ode_approx_profile(Grid1D(4))
        with pytest.raises(ValueError):
            profile.params["nodal"][2] = 9.0
        assert profile.u(0.5) == pytest.approx(0.5, abs=1e-12)

    def test_profile_is_a_nodal_function(self):
        g = Grid1D(16)
        profile = ode_approx_profile(g)
        assert isinstance(profile.u, NodalFunction) and profile.u.grid == g
        assert profile.params["nodal"] is profile.u.values

    @pytest.mark.parametrize("x", [1.5, -0.25, float("nan")])
    def test_evaluation_outside_unit_interval_rejected(self, x):
        with pytest.raises(GridError, match="outside"):
            ode_approx_profile(Grid1D(16)).u(x)

    def test_derivative_attached(self):
        profile = ode_approx_profile(Grid1D(32))
        assert ode_approx_derivative(0.5, profile.params["k"]) == pytest.approx(
            profile.params["k"] / 4.0, rel=1e-12)


class TestAgainstTightQuad:
    """The profile's nodal values against scipy's adaptive quad at its
    tightest relative tolerance, cell by cell, on the closed-form integrand."""

    @pytest.mark.parametrize("n", [32, 256, 2048])
    def test_nodal_values(self, n):
        grid = Grid1D(n)
        cells = [quad(lambda t: t ** (2 * t) * (1 - t) ** (2 * (1 - t)), a, b,
                      epsabs=0.0, epsrel=1.2e-14, limit=200)[0]
                 for a, b in zip(grid.nodes[:-1], grid.nodes[1:])]
        nodal = ode_approx_profile(grid).params["nodal"]
        assert nodal[0] == 0.0
        assert nodal[1:] == pytest.approx(K_NORMALIZED * np.cumsum(cells), rel=1e-14, abs=0)
        assert nodal[-1] == pytest.approx(1.0, rel=0, abs=1e-14)


def test_import_leaves_out_scipy_integrate():
    # scipy.integrate is a test-side reference only, scipy.linalg loads
    # when a solve first factors and numpy.fft when an energy first takes
    # the near/far path: importing any of them costs start-up time
    src = str(Path(nlvar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import nlvar, nlvar.cli, sys; "
         "print('scipy.integrate' in sys.modules, 'scipy.linalg' in sys.modules, "
         "'numpy.fft' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    assert proc.stdout == "False False False\n"


class TestHolderExponent:
    def test_p4(self):
        assert holder_exponent(4.0) == 0.5

    def test_p3(self):
        assert holder_exponent(3.0) == pytest.approx(1.0 / 3.0)

    def test_approaches_zero(self):
        assert holder_exponent(2.0001) < 1e-4

    @pytest.mark.parametrize("p", [2.0, 1.5, -1.0, float("nan"), float("inf")])
    def test_rejects_p_at_most_two(self, p):
        with pytest.raises(ValueError):
            holder_exponent(p)
