from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import polynomial

from nlvar.integrands import (
    Integrand,
    half_square,
    integrand_by_name,
    power_p,
    quadratic_mass,
    two_well_bare,
    two_well_full,
)

from helpers import check_derivatives, evaluate

ALL = [power_p(2), power_p(3), power_p(4), half_square(), quadratic_mass(),
       two_well_full(), two_well_bare()]


def probe_lattice():
    vals = np.linspace(-2.0, 2.0, 9)
    return [(x, u, U) for x in (0.1, 0.5, 0.9) for u in vals for U in vals]


class TestEvaluate:
    def test_power4_at_one(self):
        assert evaluate(power_p(4), 0.5, 0.0, 1.0) == 1.0

    @pytest.mark.parametrize("U", [1.0, -1.0])
    def test_two_well_bare_wells_are_zero(self, U):
        assert evaluate(two_well_bare(), 0.5, 0.0, U) == 0.0

    def test_quadratic_mass_zero_slope(self):
        assert evaluate(quadratic_mass(), 0.3, 1.0, 0.0) == 8.0

    def test_half_square(self):
        assert evaluate(half_square(), 0.0, 5.0, 3.0) == 4.5


def partials(integrand, x, u, U):
    """(dW/du, dW/dU) at (x, u, U): psi'(u) and phi'(U)."""
    return integrand.w_u(u), integrand.w_U(U)


@pytest.mark.parametrize("integrand", ALL, ids=lambda i: i.name)
def test_convexity_is_stated(integrand):
    assert integrand.convex == (not integrand.name.startswith("two-well"))


class TestGrad:
    def test_half_square(self):
        assert partials(half_square(), 0.2, 7.0, 3.0) == (0.0, 3.0)

    def test_two_well_bare_well_bottom(self):
        assert partials(two_well_bare(), 0.2, 0.0, 1.0) == (0.0, 0.0)

    def test_two_well_full_critical_slope(self):
        assert partials(two_well_full(), 0.2, 2.0, 0.0) == (2.0, 0.0)


class TestDerivativeConsistency:
    # phi'' of |U|^1.5 is infinite at U = 0, and the difference of phi' of
    # |U|^2.5 there is 2.5 sqrt(step), not phi''(0) = 0; the lattice holds U = 0
    @pytest.mark.parametrize("integrand", ALL + [power_p(1.5), power_p(2.5)],
                             ids=lambda i: i.name)
    def test_builtins_pass(self, integrand):
        report = check_derivatives(integrand, probe_lattice())
        assert report.passed, report

    def test_second_derivatives_are_checked(self):
        report = check_derivatives(two_well_full(), probe_lattice())
        assert 0.0 < report.max_err_UU <= report.tol

    def test_second_derivative_near_a_kink_is_checked(self):
        # only |U| < sqrt(step) is left out at a non-integer exponent
        bad = replace(power_p(2.5), w_UU=lambda U: 3.75 * np.abs(U) ** 0.5 + 1e-3)
        report = check_derivatives(bad, [(0.5, 0.0, 2e-3)])
        assert report.max_err_UU > report.tol
        report = check_derivatives(bad, [(0.5, 0.0, 0.0), (0.5, 0.0, 5e-4)])
        assert report.passed and report.max_err_UU == 0.0

    def test_two_well_full_random_probes(self):
        rng = np.random.default_rng(42)
        probes = [tuple(p) for p in rng.uniform(-2, 2, size=(100, 3))]
        assert check_derivatives(two_well_full(), probes).passed

    def test_corrupted_derivative_fails(self):
        base = half_square()
        bad = Integrand(
            w=base.w, mass=base.mass, w_u=base.w_u,
            w_U=lambda U: U + 1.0,  # off by one
            w_UU=base.w_UU, w_uu=base.w_uu, p=2.0, name="corrupt",
        )
        assert not check_derivatives(bad, probe_lattice()).passed
        bad_mass = replace(quadratic_mass(), w_u=lambda u: 16.0 * u + 1.0)
        report = check_derivatives(bad_mass, probe_lattice())
        assert report.max_err_U <= report.tol < report.max_err_u

    def test_corrupted_second_derivative_fails(self):
        # off by one; without coefficients, which would refuse it (TestPhiCoefficients)
        bad = replace(two_well_bare(), w_UU=lambda U: 3.0 * U**2, phi_coefficients=None)
        report = check_derivatives(bad, probe_lattice())
        assert not report.passed
        assert max(report.max_err_u, report.max_err_U, report.max_err_uu) <= report.tol
        assert report.max_err_UU > report.tol
        bad_mass = replace(quadratic_mass(), w_uu=lambda u: np.full_like(u, 8.0))
        report = check_derivatives(bad_mass, probe_lattice())
        assert not report.passed and report.tol < report.max_err_uu

    def test_empty_probes_rejected(self):
        with pytest.raises(ValueError):
            check_derivatives(half_square(), [])


def _pow_form(p):
    """power_p's phi, phi' and phi'' as numpy powers of |U|, the form a
    non-integer p keeps and every p had before the integer products."""
    return (lambda U: np.abs(U) ** p, lambda U: p * np.sign(U) * np.abs(U) ** (p - 1),
            lambda U: p * (p - 1) * np.abs(U) ** (p - 2))


def _sample(seed):
    """Slopes of both signs over 80 binades, with 0 and +-1."""
    rng = np.random.default_rng(seed)
    U = rng.uniform(-4.0, 4.0, 20000) * np.exp2(rng.integers(-40, 40, 20000))
    return np.concatenate([U, [0.0, 1.0, -1.0]])


def _ulps(got, want):
    """Distance in units in the last place of two arrays of non-negative floats."""
    return np.abs(got.view(np.int64) - want.view(np.int64))


class TestProductForms:
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_phi_and_phi2_within_two_ulps(self, p):
        W, (w, _, w_UU) = power_p(p), _pow_form(p)
        U = _sample(int(p))
        assert _ulps(W.w(U), w(U)).max() <= 2
        assert _ulps(W.w_UU(U), w_UU(U)).max() <= 2

    def test_cubic_phi1_is_bit_identical(self):
        # 3 (U |U|) and (3 sign U) U^2 round the same product, so the power:3
        # residuals, which read phi' only, keep their bits
        U = _sample(3)
        assert np.array_equal(power_p(3).w_U(U), _pow_form(3.0)[1](U))

    @pytest.mark.parametrize("p, finite, overflows", [(40.0, 4.73e7, 4.73e8), (200.0, 30.0, 1e3)])
    def test_large_exponents_overflow_and_underflow_where_pow_does(self, p, finite, overflows):
        U = np.concatenate([_sample(int(p)), np.geomspace(1e-320, 1e308, 4000), [finite, overflows]])
        U = np.concatenate([U, -U])
        with np.errstate(over="ignore"):
            for got, want in zip((f(U) for f in (power_p(p).w, power_p(p).w_U, power_p(p).w_UU)),
                                 (f(U) for f in _pow_form(p))):
                assert np.array_equal(np.isinf(got), np.isinf(want))
                assert np.array_equal(got == 0.0, want == 0.0)
                normal = np.isfinite(want) & (np.abs(want) >= np.finfo(float).tiny)
                error = np.abs(got[normal] - want[normal]) / np.abs(want[normal])
                assert error.max() <= 8 * p * np.finfo(float).eps
            assert np.isfinite(power_p(p).w(finite)) and np.isinf(power_p(p).w(overflows))

    @pytest.mark.parametrize("p", [1.5, 2.5])
    def test_non_integer_exponent_is_unchanged(self, p):
        U = _sample(7)
        with np.errstate(divide="ignore"):  # phi'' of |U|^1.5 is infinite at 0
            for got, want in zip((power_p(p).w, power_p(p).w_U, power_p(p).w_UU), _pow_form(p)):
                assert np.array_equal(got(U), want(U))


class TestStructuralProperties:
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_positive_homogeneity(self, p):
        integrand = power_p(p)
        for U in np.linspace(-3, 3, 13):
            for lam in (0.5, 2.0, 7.0):
                assert evaluate(integrand, 0.5, 0.0, lam * U) == pytest.approx(
                    lam**p * evaluate(integrand, 0.5, 0.0, U), rel=1e-12
                )

    @pytest.mark.parametrize("integrand", ALL, ids=lambda i: i.name)
    def test_bounded_below_by_zero(self, integrand):
        for x, u, U in probe_lattice():
            assert evaluate(integrand, x, u, U) >= 0.0

    @pytest.mark.parametrize("integrand", ALL, ids=lambda i: i.name)
    def test_coercivity_on_probe_lattice(self, integrand):
        # W >= C0 (|U|^p - 1); C0 = 1/20 covers the two-well densities, whose
        # wells at |U| = 1 keep the admissible constant small
        for x, u, U in probe_lattice():
            assert evaluate(integrand, x, u, U) >= 0.05 * (abs(U) ** integrand.p - 1.0)

    def test_two_well_bare_strictly_positive_off_wells(self):
        integrand = two_well_bare()
        for U in np.linspace(-2, 2, 41):
            if abs(abs(U) - 1.0) > 1e-9:
                assert evaluate(integrand, 0.5, 0.0, U) > 0.0


class TestNameResolution:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("half-square", "half-square"),
            ("quad-mass", "quad-mass"),
            ("two-well", "two-well"),
            ("two-well-bare", "two-well-bare"),
            ("power:4", "power:4"),
            ("power:2.5", "power:2.5"),
            # {p:g} would name these power:2 and power:1.23457e+08
            ("power:2.0000001", "power:2.0000001"),
            ("power:123456789", "power:123456789.0"),
        ],
    )
    def test_known_names(self, name, expected):
        assert integrand_by_name(name).name == expected

    @pytest.mark.parametrize("name", ["bogus", "power:x", "power:"])
    def test_unknown_names(self, name):
        with pytest.raises(KeyError):
            integrand_by_name(name)

    @pytest.mark.parametrize("p", [1.0, 0.5, -2.0, float("nan"), float("inf"), -float("inf")])
    def test_bad_exponents(self, p):
        with pytest.raises(ValueError, match="finite and exceed 1"):
            power_p(p)
        with pytest.raises(ValueError, match="finite and exceed 1"):
            integrand_by_name(f"power:{p}")


class TestPhiCoefficients:
    PROBES = np.array([-3.0, -2.0, -1.0, -0.5, 0.0, 0.25, 1.0, 1.5, 2.7])

    # the coefficients are read in |U|: phi(U) = P(|U|), phi'(U) = sign(U)
    # P'(|U|) and phi''(U) = P''(|U|); for an even P these are P, P', P'' at U
    @pytest.mark.parametrize("name", ["half-square", "quad-mass", "two-well", "two-well-bare",
                                      "power:2", "power:3", "power:4"])
    def test_coefficients_match_the_closed_forms(self, name):
        W = integrand_by_name(name)
        c = np.array(W.phi_coefficients)
        U = self.PROBES
        for closed, order, sign in ((W.w, 0, 1.0), (W.w_U, 1, np.sign(U)), (W.w_UU, 2, 1.0)):
            P = polynomial.polyval(np.abs(U), polynomial.polyder(c, order))
            np.testing.assert_allclose(sign * P, closed(U), rtol=1e-14, atol=0.0)

    # the far-pair sums take phi, phi' and phi'' from the closed forms at the
    # end values' slope and the rest from the coefficients, so a mismatch
    # would be summed silently. phi'(0) = 0 is a valid subgradient of |U|,
    # but the sums take c_1 = 1 there
    @pytest.mark.parametrize("W, coefficients, part", [
        (Integrand(w=np.abs, w_U=np.sign, w_UU=np.zeros_like, mass=np.zeros_like,
                   w_u=np.zeros_like, w_uu=np.zeros_like, p=1.0, name="abs"), (0.0, 1.0), "w_U"),
        (replace(two_well_bare(), w_UU=lambda U: 3.0 * U**2, phi_coefficients=None),
         two_well_bare().phi_coefficients, "w_UU"),
        (half_square(), (0.0, 0.0, 1.0), "w"),
    ], ids=["abs-sign", "two-well-bare-phi2", "half-square-doubled"])
    def test_coefficients_that_disagree_are_refused(self, W, coefficients, part):
        with pytest.raises(ValueError, match=f"give {part} = "):
            replace(W, phi_coefficients=coefficients)

    # no coefficient at all: the check compared nothing and accepted it,
    # and the energy then raised IndexError from n = 256, where the far
    # sums take phi's degree, -1
    def test_empty_coefficients_are_refused(self):
        zero = Integrand(w=np.zeros_like, w_U=np.zeros_like, w_UU=np.zeros_like,
                         mass=np.zeros_like, w_u=np.zeros_like, w_uu=np.zeros_like, p=2.0,
                         name="zero")
        with pytest.raises(ValueError, match="^zero: phi_coefficients is empty"):
            replace(zero, phi_coefficients=())

    # a zero last coefficient is the same phi read as one degree higher:
    # half-square as a cubic took the band n // 64, not 1, and at n = 4096
    # its value and gradient ran 3.4 times slower, with other bits
    @pytest.mark.parametrize("coefficients", [(0.0, 0.0, 0.5, 0.0), (0.0, 0.0, 0.5, 0.0, -0.0)])
    def test_zero_last_coefficient_is_refused(self, coefficients):
        with pytest.raises(ValueError, match="^half-square: phi_coefficients end in 0"):
            replace(half_square(), phi_coefficients=coefficients)

    # an infinite coefficient gives phi = inf * 0 = nan at U = 0, which the
    # check refuses without numpy's invalid-value warning (an error here)
    def test_non_finite_coefficient_is_refused_without_a_warning(self):
        with pytest.raises(ValueError, match="^half-square: phi_coefficients give w = nan"):
            replace(half_square(), phi_coefficients=(0.0, 0.0, np.inf))

    def test_power_3_carries_the_cube_of_abs(self):
        assert integrand_by_name("power:3").phi_coefficients == (0.0, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("name", ["power:2.5", "power:6"])
    def test_other_exponents_carry_none(self, name):
        assert integrand_by_name(name).phi_coefficients is None

    def test_hand_built_density_carries_none(self):
        W = Integrand(w=np.square, w_U=lambda U: 2.0 * U, w_UU=lambda U: np.full_like(U, 2.0),
                      mass=np.zeros_like, w_u=np.zeros_like, w_uu=np.zeros_like, p=2.0,
                      name="square")
        assert W.phi_coefficients is None
