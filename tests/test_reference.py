import numpy as np
import pytest
from scipy.integrate import quad

from nlvar.grid import Grid1D
from nlvar.reference import (
    _QUAD_EPSABS,
    _shape,
    holder_exponent,
    local_exp_solution,
    normalize_k,
    ode_approx_derivative,
    ode_approx_profile,
)

# 1 / int_0^1 x^{2x} (1-x)^{2(1-x)} dx, frozen from a 30-digit mpmath run
K_NORMALIZED = 2.5162088822971746


class TestLocalExpSolution:
    def test_end_values(self):
        assert local_exp_solution(0.0) == pytest.approx(0.0, abs=1e-15)
        assert local_exp_solution(1.0) == pytest.approx(1.0, rel=1e-14)

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
        with pytest.raises(ValueError):
            ode_approx_derivative(0.5, 0.0)


class TestNormalizeK:
    def test_value(self):
        assert normalize_k() == pytest.approx(K_NORMALIZED, abs=1e-8)

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

    def test_explicit_scale_changes_range(self):
        profile = ode_approx_profile(Grid1D(32), k=2.0)
        assert profile.u(1.0) == pytest.approx(2.0 / K_NORMALIZED, rel=1e-6)

    def test_derivative_attached(self):
        profile = ode_approx_profile(Grid1D(32))
        assert profile.u_prime(0.5) == pytest.approx(profile.params["k"] / 4.0, rel=1e-12)


class TestScalarQuadIntegrand:
    """quad's integrand works on one Python float at a time; its values,
    and so the profile and k, must equal the array formula's bit for bit."""

    @staticmethod
    def array_integrand(t):
        return float(_shape(np.atleast_1d(t))[0])

    def test_normalize_k(self):
        total, _ = quad(self.array_integrand, 0.0, 1.0, epsabs=_QUAD_EPSABS, limit=200)
        assert normalize_k() == 1.0 / total

    def test_profile_nodal_values(self):
        grid = Grid1D(256)
        k = normalize_k()
        increments = [k * quad(self.array_integrand, a, b, epsabs=_QUAD_EPSABS, limit=200)[0]
                      for a, b in zip(grid.nodes[:-1], grid.nodes[1:])]
        nodal = np.concatenate([[0.0], np.cumsum(increments)])
        assert np.array_equal(ode_approx_profile(grid).params["nodal"], nodal)


class TestHolderExponent:
    def test_p4(self):
        assert holder_exponent(4.0) == 0.5

    def test_p3(self):
        assert holder_exponent(3.0) == pytest.approx(1.0 / 3.0)

    def test_approaches_zero(self):
        assert holder_exponent(2.0001) < 1e-4

    @pytest.mark.parametrize("p", [2.0, 1.5, -1.0])
    def test_rejects_p_at_most_two(self, p):
        with pytest.raises(ValueError):
            holder_exponent(p)
