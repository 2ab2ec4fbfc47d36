import warnings

import numpy as np
import pytest

from nlvar.energy import NonFiniteEnergyError, _block_rows
from nlvar.grid import Grid1D, NodalFunction
from nlvar.integrands import half_square, power_p, quadratic_mass, two_well_bare, \
    two_well_full
from nlvar.optimality import residual, residual_report
from nlvar.solver import SolverConfig, minimize

from helpers import constant, midpoint_values

LN3 = np.log(3.0)
ALL = [power_p(2), power_p(3), power_p(4), half_square(), quadratic_mass(),
       two_well_full(), two_well_bare()]


def per_node_residuals(u, integrand):
    """R(x_k) one interior node at a time: the per-cell terms of node k as
    one row of length n, then summed in symmetric pairs around k."""
    g = u.grid
    m, um, n = g.midpoints, midpoint_values(u), g.n
    out = []
    for k in range(1, n):
        ux = np.full_like(m, u.values[k])
        dX = m - g.nodes[k]
        D = (um - u.values[k]) / dX
        wU_here = integrand.w_U(D)  # W_U(x_k, u_k, D) = phi'(D)
        wU_there = integrand.w_U(D)  # W_U(m, u(m), D) = phi'(D)
        wu_here = integrand.w_u(ux)  # W_u(x_k, u_k, D) = psi'(u_k)
        terms = g.h * (-(wU_here + wU_there) / dX + wu_here)
        w = min(k, n - k)
        pairs = terms[k - w:k][::-1] + terms[k:k + w]
        singles = terms[:k - w] if k > n - k else terms[k + w:]
        out.append(float(pairs.sum() + singles.sum()))
    return np.array(out)


def seeded_curve(n):
    """A non-affine curve with non-zero end values."""
    g = Grid1D(n)
    x = g.nodes
    rng = np.random.default_rng(n)
    return NodalFunction(g, 0.3 + x * x + 0.1 * np.sin(3.0 * x) * rng.uniform(-1, 1))


def quadratic_check(u):
    """int (u(X) - u(x)) / (X - x)^2 dX at the interior nodes, which for the
    half-square density is -1/2 times the residual, for any u."""
    return -0.5 * residual_report(u, half_square()).residuals


def discrete_pv(n):
    """Interior nodes and the paired midpoint quadrature of the principal
    value int_0^1 dX / (X - x) = log((1 - x) / x): the quadratic check of
    the identity map."""
    u = NodalFunction.linear(Grid1D(n), 0.0, 1.0)
    return u.grid.nodes[1:-1], quadratic_check(u)


class TestPvLog:
    def test_center(self):
        x, pv = discrete_pv(128)
        assert pv[63] == 0.0

    def test_quarter_points(self):
        # the quadrature error at a fixed interior x is O(h^2), 3.6e-5 here
        x, pv = discrete_pv(128)
        assert (x[31], x[95]) == (0.25, 0.75)
        assert abs(pv[31] - LN3) <= 1e-4
        assert pv[95] == -pv[31]

    @pytest.mark.parametrize("x", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, x):
        u = NodalFunction.linear(Grid1D(16), 0.0, 1.0)
        with pytest.raises(ValueError):
            residual(u, half_square(), x)

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_paired_quadrature_mean_error_first_order(self, n):
        # pairs cancel exactly; the leftover one-sided tail carries the error.
        # Averaged over interior nodes the error behaves like C/n; the
        # node-wise maximum sits at the boundary-adjacent nodes and is O(1).
        x, pv = discrete_pv(n)
        errors = np.abs(pv - np.log((1.0 - x) / x))
        assert errors.mean() <= 0.13 / n

    def test_paired_quadrature_mean_error_halves(self):
        means = []
        for n in (64, 128):
            x, pv = discrete_pv(n)
            means.append(np.abs(pv - np.log((1.0 - x) / x)).mean())
        assert 0.4 <= means[1] / means[0] <= 0.6


class TestResidual:
    def test_bolza_trivial_solution(self):
        u = constant(Grid1D(128), 0.0)
        for x in (0.25, 0.5, 1.0 / 128.0):
            assert abs(residual(u, two_well_full(), x)) <= 1e-10

    def test_linear_half_square_quarter_point(self):
        u = NodalFunction.linear(Grid1D(128), 0.0, 1.0)
        assert residual(u, half_square(), 0.25) == pytest.approx(-2 * LN3, abs=1e-2)

    def test_linear_half_square_center_vanishes(self):
        u = NodalFunction.linear(Grid1D(128), 0.0, 1.0)
        assert abs(residual(u, half_square(), 0.5)) <= 1e-10

    @pytest.mark.parametrize("x", [0.0, 1.0, 0.255, np.inf, np.nan])
    def test_non_node_rejected(self, x):
        u = NodalFunction.linear(Grid1D(100), 0.0, 1.0)
        with pytest.raises(ValueError, match="is not an interior node"):
            residual(u, half_square(), x)


class TestResidualReport:
    def test_bolza_trivial_norms(self):
        u = constant(Grid1D(128), 0.0)
        report = residual_report(u, two_well_full())
        assert report.norm_sup <= 1e-10
        assert report.norm_l2 <= 1e-10

    def test_linear_half_square_sup_attained_near_quarter_points(self):
        u = NodalFunction.linear(Grid1D(128), 0.0, 1.0)
        report = residual_report(u, half_square())
        assert report.norm_sup >= 2 * LN3 * (1 - 1e-2)

    def test_norms_recomputable(self):
        u = NodalFunction.linear(Grid1D(64), 0.0, 1.0)
        report = residual_report(u, half_square())
        h = 1.0 / 64
        assert report.norm_l2 == pytest.approx(
            np.sqrt(h * np.sum(report.residuals**2)), rel=1e-14
        )
        assert report.norm_sup == np.max(np.abs(report.residuals[1:-1]))

    @pytest.mark.parametrize("n", [5, 7, 128, 129])
    def test_central_band_is_quarter_floor(self, n):
        # the band is min(k, n - k) >= max(n // 4, 1): at n = 129 it takes
        # nodes 32 and 97, and for n <= 7 every interior node
        report = residual_report(seeded_curve(n), half_square())
        k = np.arange(1, n)
        band = report.residuals[np.minimum(k, n - k) >= max(n // 4, 1)]
        assert report.norm_l2_central == np.sqrt(1.0 / n * np.sum(band**2))

    def test_converged_minimizer_central_band_small(self):
        # discrete stationarity shows up in the central band; the end-point
        # layers of the p=2 minimizer dominate the all-node l2 norm
        cfg = SolverConfig(grad_tol=1e-8, max_iters=50000)
        res = minimize(half_square(), Grid1D(128), (0.0, 1.0), "linear", cfg)
        report = residual_report(res.u, half_square())
        assert report.norm_l2_central <= 1e-2


class TestCheckInteqo:
    def test_constant_vanishes(self):
        u = constant(Grid1D(32), 4.0)
        assert np.max(np.abs(quadratic_check(u))) == 0.0

    def test_linear_quarter_point(self):
        u = NodalFunction.linear(Grid1D(128), 0.0, 1.0)
        k = 32  # node x = 0.25
        assert quadratic_check(u)[k - 1] == pytest.approx(LN3, abs=1e-2)

    def test_half_square_identity_minus_two(self):
        # Ndiv W_U = 2 (u(X)-u(x))/(X-x)^2 for the quadratic density, so the
        # general residual equals -2 times the specialized sum, for any u
        rng = np.random.default_rng(21)
        g = Grid1D(64)
        u = NodalFunction(g, rng.uniform(-1, 1, 65))
        general = residual_report(u, half_square()).residuals
        x, m = g.nodes[1:-1, None], g.midpoints[None, :]
        ux, um = u.values[1:-1, None], midpoint_values(u)[None, :]
        special = g.h * ((um - ux) / (m - x) ** 2).sum(axis=1)
        assert np.max(np.abs(general + 2.0 * special)) <= 1e-10


class TestBlockedResidual:
    def test_n1000_has_ragged_blocks(self):
        # 500 row pairs (r, n - 1 - r): 31 blocks of 16 and one of 4
        assert _block_rows(1000) == 16 and divmod((1000 + 1) // 2, 16) == (31, 4)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 129, 1000])
    @pytest.mark.parametrize("integrand", ALL, ids=lambda W: W.name)
    def test_report_equals_per_node_formula(self, integrand, n):
        # the same pairs, summed in another order: within the golden EXACT bound
        u = seeded_curve(n)
        got = residual_report(u, integrand).residuals
        ref = per_node_residuals(u, integrand)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [3, 129])
    @pytest.mark.parametrize("integrand", ALL, ids=lambda W: W.name)
    def test_single_node_equals_report(self, integrand, n):
        u = seeded_curve(n)
        report = residual_report(u, integrand)
        for k in range(1, n):
            assert residual(u, integrand, u.grid.nodes[k]) == report.residuals[k - 1]

    @pytest.mark.parametrize("W, bc, n, x", [
        (power_p(40), 4.73e8, 64, 0.015625),
        (power_p(200), 1e3, 16, 0.0625),
    ], ids=["power-40", "power-200"])
    def test_non_finite_raises_without_warning(self, W, bc, n, x):
        u = NodalFunction.linear(Grid1D(n), 0.0, bc)
        message = f"residual of {W.name} non-finite at x={x:g}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteEnergyError, match=message):
                residual_report(u, W)
            with pytest.raises(NonFiniteEnergyError, match=message):
                residual(u, W, x)


class TestStationarityTransfer:
    def test_central_l2_non_increasing_across_levels(self):
        cfg = SolverConfig(grad_tol=1e-8, max_iters=50000)
        norms = []
        for n in (32, 64, 128):
            res = minimize(half_square(), Grid1D(n), (0.0, 1.0), "linear", cfg)
            norms.append(residual_report(res.u, half_square()).norm_l2_central)
        assert norms[1] <= norms[0] and norms[2] <= norms[1]
