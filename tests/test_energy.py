import numpy as np
import pytest

from nlvar.energy import (
    BLOCK_ELEMS,
    NonFiniteEnergyError,
    energy,
    energy_gradient,
    energy_value,
    refine_and_compare,
    value_and_grad,
)
from nlvar.grid import Grid1D, NodalFunction, make_uniform_grid
from nlvar.integrands import (
    Integrand,
    half_square,
    power_p,
    quadratic_mass,
    two_well_bare,
    two_well_full,
)

ALL = [power_p(2), power_p(3), power_p(4), half_square(), quadratic_mass(),
       two_well_full(), two_well_bare()]


def dense_quadrature(u, integrand):
    """Per-row energies, energy and gradient from full n x n matrices."""
    g = u.grid
    h, m, um = g.h, g.midpoints, u.midpoint_values
    dm = m[None, :] - m[:, None]
    np.fill_diagonal(dm, 1.0)
    D = (um[None, :] - um[:, None]) / dm
    np.fill_diagonal(D, u.slopes)
    np.fill_diagonal(dm, 0.0)
    x, ux = m[:, None], um[:, None]
    rows = h * h * integrand.evaluate(x, ux, D).sum(axis=1)
    A = integrand.w_u(x, ux, D)
    B = integrand.w_U(x, ux, D)
    C = np.zeros_like(B)
    off = dm != 0.0
    C[off] = B[off] / dm[off]
    g_um = A.sum(axis=1) - C.sum(axis=1) + C.sum(axis=0)
    grad_nodes = np.zeros(g.n + 1)
    grad_nodes[:-1] += 0.5 * g_um
    grad_nodes[1:] += 0.5 * g_um
    Bd = np.diag(B)
    grad_nodes[1:] += Bd / h
    grad_nodes[:-1] -= Bd / h
    return rows, float(rows.sum()), h * h * grad_nodes[1:-1]


def fd_gradient(grid, vals, integrand, step=1e-6):
    """Central finite differences of the energy in the interior nodal values."""
    out = np.empty(grid.n - 1)
    for k in range(1, grid.n):
        vp, vm = vals.copy(), vals.copy()
        vp[k] += step
        vm[k] -= step
        out[k - 1] = (
            energy_value(NodalFunction(grid, vp), integrand)
            - energy_value(NodalFunction(grid, vm), integrand)
        ) / (2 * step)
    return out


class TestEnergyValues:
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_linear_power2_is_one(self, n):
        u = NodalFunction.linear(make_uniform_grid(n), 0.0, 1.0)
        assert energy_value(u, power_p(2)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("c", [0.0, 1.0, -3.0])
    def test_constants_have_zero_energy(self, p, c):
        u = NodalFunction.constant(make_uniform_grid(16), c)
        assert energy_value(u, power_p(p)) <= 1e-14

    def test_zero_function_two_well_bare(self):
        u = NodalFunction.constant(make_uniform_grid(64), 0.0)
        assert energy_value(u, two_well_bare()) == pytest.approx(0.25, abs=1e-13)

    def test_linear_half_square(self):
        u = NodalFunction.linear(make_uniform_grid(32), 0.0, 1.0)
        assert energy_value(u, half_square()) == pytest.approx(0.5, abs=1e-13)

    def test_breakdown_reproduces_value(self):
        rng = np.random.default_rng(5)
        u = NodalFunction(make_uniform_grid(16), rng.normal(size=17))
        report = energy(u, two_well_full(), breakdown=True)
        assert report.breakdown.sum() == report.value
        assert energy(u, two_well_full()).value == report.value

    def test_non_finite_density_reported(self):
        exploding = Integrand(
            w=lambda x, u, U: np.log(U),  # nan for negative quotients
            w_u=lambda x, u, U: np.zeros_like(U),
            w_U=lambda x, u, U: 1.0 / U,
            p=2.0,
            name="log-slope",
        )
        u = NodalFunction(make_uniform_grid(8), np.linspace(1, 0, 9))
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteEnergyError):
                energy_value(u, exploding)


class TestEnergyProperties:
    @pytest.mark.parametrize("integrand", ALL, ids=lambda i: i.name)
    def test_nonnegative(self, integrand):
        rng = np.random.default_rng(11)
        u = NodalFunction(make_uniform_grid(24), rng.uniform(-2, 2, 25))
        assert energy_value(u, integrand) >= 0.0

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_power_homogeneity(self, p):
        rng = np.random.default_rng(2)
        g = make_uniform_grid(20)
        vals = rng.uniform(-1, 1, 21)
        base = energy_value(NodalFunction(g, vals), power_p(p))
        for lam in (0.5, 2.0, 5.0):
            scaled = energy_value(NodalFunction(g, lam * vals), power_p(p))
            assert scaled == pytest.approx(lam**p * base, rel=1e-12)

    @pytest.mark.parametrize(
        "integrand", [half_square(), power_p(3), two_well_bare()],
        ids=lambda i: i.name,
    )
    def test_translation_invariance_without_mass_term(self, integrand):
        rng = np.random.default_rng(9)
        g = make_uniform_grid(20)
        vals = rng.uniform(-1, 1, 21)
        base = energy_value(NodalFunction(g, vals), integrand)
        shifted = energy_value(NodalFunction(g, vals + 3.7), integrand)
        assert shifted == pytest.approx(base, rel=1e-12)

    def test_reflection_equivariance_half_square(self):
        rng = np.random.default_rng(13)
        g = make_uniform_grid(32)
        vals = rng.uniform(0, 1, 33)
        vals[0], vals[-1] = 0.0, 1.0
        reflected = 1.0 - vals[::-1]
        e1 = energy_value(NodalFunction(g, vals), half_square())
        e2 = energy_value(NodalFunction(g, reflected), half_square())
        assert e2 == pytest.approx(e1, rel=1e-12)


class TestEnergyGradient:
    def test_linear_half_square_matches_fd(self):
        g = make_uniform_grid(16)
        u = NodalFunction.linear(g, 0.0, 1.0)
        ga = energy_gradient(u, half_square())
        gf = fd_gradient(g, u.values.copy(), half_square())
        rel = np.abs(ga - gf) / np.maximum(np.abs(gf), 1.0)
        assert rel.max() <= 1e-6

    def test_zero_function_two_well_bare_is_critical(self):
        u = NodalFunction.constant(make_uniform_grid(32), 0.0)
        assert np.array_equal(energy_gradient(u, two_well_bare()), np.zeros(31))

    @pytest.mark.parametrize("integrand", ALL, ids=lambda i: i.name)
    def test_random_vectors_match_fd(self, integrand):
        g = make_uniform_grid(32)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            vals = rng.uniform(-1, 1, 33)
            ga = energy_gradient(NodalFunction(g, vals), integrand)
            gf = fd_gradient(g, vals, integrand)
            rel = np.abs(ga - gf) / np.maximum(np.abs(gf), 1.0)
            assert rel.max() <= 1e-6, f"seed {seed}: {rel.max():.3g}"


class TestBlockedKernel:
    N = 1000  # several row blocks and a shorter last one

    def test_several_ragged_blocks(self):
        rows = BLOCK_ELEMS // self.N
        assert self.N // rows > 1 and self.N % rows != 0

    @pytest.mark.parametrize("integrand", ALL, ids=lambda i: i.name)
    def test_bit_identical_to_dense(self, integrand):
        rng = np.random.default_rng(3)
        u = NodalFunction(make_uniform_grid(self.N), rng.uniform(-1, 1, self.N + 1))
        rows, value, grad = dense_quadrature(u, integrand)
        report = energy(u, integrand, breakdown=True)
        assert np.array_equal(report.breakdown, rows)
        assert report.value == value
        assert np.array_equal(energy_gradient(u, integrand), grad)
        fused = value_and_grad(u, integrand)
        assert fused[0] == energy_value(u, integrand)
        assert np.array_equal(fused[1], energy_gradient(u, integrand))

    def test_non_finite_names_point_in_later_block(self):
        g = make_uniform_grid(self.N)
        x_bad = g.midpoints[500]
        assert 500 >= BLOCK_ELEMS // self.N
        spiked = Integrand(
            w=lambda x, u, U: np.where(x == x_bad, np.nan, 1.0) * U**2,
            w_u=lambda x, u, U: np.zeros_like(U),
            w_U=lambda x, u, U: 2.0 * U,
            p=2.0,
            name="spiked",
        )
        u = NodalFunction.linear(g, 0.0, 1.0)
        for kernel in (energy_value, value_and_grad):
            with pytest.raises(NonFiniteEnergyError) as excinfo:
                kernel(u, spiked)
            assert f"(x={x_bad:.6g}, X={g.midpoints[0]:.6g})" in str(excinfo.value)

    def test_affine_exactness_at_large_n(self):
        # the dense n x n fields would need several GB here
        u = NodalFunction.linear(Grid1D(8192), 0.25, 1.0)
        assert energy_value(u, half_square()) == pytest.approx(0.5 * 0.75**2, rel=1e-12)


class TestRefineAndCompare:
    def test_affine_gap_is_zero(self):
        e1, e2, gap = refine_and_compare(lambda x: x, half_square(), 8)
        assert gap == pytest.approx(0.0, abs=1e-13)
        assert e1 == pytest.approx(0.5, abs=1e-13)

    def test_quadratic_profile_gap_shrinks(self):
        _, _, gap_coarse = refine_and_compare(lambda x: x**2, half_square(), 8)
        _, _, gap_fine = refine_and_compare(lambda x: x**2, half_square(), 16)
        assert gap_fine < gap_coarse

    def test_hat_two_well_gap_finite(self):
        hat = lambda x: 0.5 - np.abs(x - 0.5)
        e1, e2, gap = refine_and_compare(hat, two_well_bare(), 32)
        assert np.isfinite(gap) and gap > 0.0

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            refine_and_compare(lambda x: x, half_square(), 8, factor=1)
