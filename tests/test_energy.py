import dataclasses
import warnings
from math import comb

import numpy as np
import pytest
from numpy.polynomial import polynomial

from nlvar import energy
from nlvar.energy import (
    BLOCK_ELEMS,
    FOLD_PLAN_MAX_N,
    NEAR_FAR_ABOVE_N,
    NEAR_FAR_FROM_N,
    NonFiniteEnergyError,
    energy_gradient,
    energy_value,
    value_and_grad,
)
from nlvar.grid import Grid1D, GridError, NodalFunction
from nlvar.integrands import (
    Integrand,
    half_square,
    power_p,
    quadratic_mass,
    two_well_bare,
    two_well_full,
)
from nlvar.optimality import residual_report

from helpers import (
    constant,
    evaluate,
    fold,
    hand_built,
    midpoint_values,
    near_far,
    near_far_profiles,
    refine_and_compare,
    stripped,
)

ALL = [power_p(2), power_p(3), power_p(4), half_square(), quadratic_mass(),
       two_well_full(), two_well_bare()]
POLYNOMIAL = [W for W in ALL if W.phi_coefficients is not None]


def dense_quadrature(u, integrand):
    """Energy and gradient from full n x n matrices: every ordered pair of
    midpoints, W evaluated as one field, psi' broadcast over each row."""
    g = u.grid
    h, m, um = g.h, g.midpoints, midpoint_values(u)
    dm = m[None, :] - m[:, None]
    np.fill_diagonal(dm, 1.0)
    D = (um[None, :] - um[:, None]) / dm
    np.fill_diagonal(D, u.slopes)
    np.fill_diagonal(dm, 0.0)
    x, ux = m[:, None], um[:, None]
    rows = h * h * evaluate(integrand, x, ux, D).sum(axis=1)
    A = integrand.w_u(ux) * np.ones_like(D)
    B = integrand.w_U(D)
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
    return float(rows.sum()), h * h * grad_nodes[1:-1]


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
        u = NodalFunction.linear(Grid1D(n), 0.0, 1.0)
        assert energy_value(u, power_p(2)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("c", [0.0, 1.0, -3.0])
    def test_constants_have_zero_energy(self, p, c):
        u = constant(Grid1D(16), c)
        assert energy_value(u, power_p(p)) <= 1e-14

    def test_zero_function_two_well_bare(self):
        u = constant(Grid1D(64), 0.0)
        assert energy_value(u, two_well_bare()) == pytest.approx(0.25, abs=1e-13)

    def test_linear_half_square(self):
        u = NodalFunction.linear(Grid1D(32), 0.0, 1.0)
        assert energy_value(u, half_square()) == pytest.approx(0.5, abs=1e-13)

    def test_non_finite_density_reported(self):
        exploding = Integrand(
            w=lambda U: np.log(U),  # nan for negative quotients
            w_U=lambda U: 1.0 / U,
            mass=np.zeros_like,
            w_u=np.zeros_like,
            w_UU=np.ones_like,
            w_uu=np.zeros_like,
            p=2.0,
            name="log-slope",
        )
        u = NodalFunction(Grid1D(8), np.linspace(1, 0, 9))
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteEnergyError):
                energy_value(u, exploding)


    def test_row_sum_overflow_reported(self):
        # each |U|^40 is finite, about 1e307, but a row of 64 of them is not
        u = NodalFunction.linear(Grid1D(64), 0.0, 4.73e7)
        assert np.isfinite(evaluate(power_p(40), 0.5, 0.0, 4.73e7))
        for kernel in (energy_value, value_and_grad):
            with np.errstate(over="ignore"):
                with pytest.raises(NonFiniteEnergyError, match=r"overflows at x=0\.0078125$"):
                    kernel(u, power_p(40))

    def test_overflow_raises_without_warning(self):
        u = NodalFunction.linear(Grid1D(64), 0.0, 4.73e7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kernel in (energy_value, value_and_grad):
                with pytest.raises(NonFiniteEnergyError, match=r"overflows at x=0\.0078125$"):
                    kernel(u, power_p(40))

    def test_gradient_overflow_reported(self):
        # W and every dW/dU are finite, but dW/dU / (m_j - m_i) overflows
        steep = Integrand(
            w=lambda U: np.zeros_like(U),
            w_U=lambda U: np.full_like(U, 1e307),
            mass=np.zeros_like,
            w_u=np.zeros_like,
            w_UU=np.ones_like,
            w_uu=np.zeros_like,
            p=2.0,
            name="steep",
        )
        u = NodalFunction.linear(Grid1D(16), 0.0, 1.0)
        assert energy_value(u, steep) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteEnergyError,
                               match=r"^gradient of W\(steep\) non-finite at x=0\.0625$"):
                value_and_grad(u, steep)


class TestEnergyProperties:
    @pytest.mark.parametrize("integrand", ALL, ids=lambda i: i.name)
    def test_nonnegative(self, integrand):
        rng = np.random.default_rng(11)
        u = NodalFunction(Grid1D(24), rng.uniform(-2, 2, 25))
        assert energy_value(u, integrand) >= 0.0

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_power_homogeneity(self, p):
        rng = np.random.default_rng(2)
        g = Grid1D(20)
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
        g = Grid1D(20)
        vals = rng.uniform(-1, 1, 21)
        base = energy_value(NodalFunction(g, vals), integrand)
        shifted = energy_value(NodalFunction(g, vals + 3.7), integrand)
        assert shifted == pytest.approx(base, rel=1e-12)

    def test_reflection_equivariance_half_square(self):
        rng = np.random.default_rng(13)
        g = Grid1D(32)
        vals = rng.uniform(0, 1, 33)
        vals[0], vals[-1] = 0.0, 1.0
        reflected = 1.0 - vals[::-1]
        e1 = energy_value(NodalFunction(g, vals), half_square())
        e2 = energy_value(NodalFunction(g, reflected), half_square())
        assert e2 == pytest.approx(e1, rel=1e-12)


class TestEnergyGradient:
    def test_linear_half_square_matches_fd(self):
        g = Grid1D(16)
        u = NodalFunction.linear(g, 0.0, 1.0)
        ga = energy_gradient(u, half_square())
        gf = fd_gradient(g, u.values.copy(), half_square())
        rel = np.abs(ga - gf) / np.maximum(np.abs(gf), 1.0)
        assert rel.max() <= 1e-6

    def test_zero_function_two_well_bare_is_critical(self):
        u = constant(Grid1D(32), 0.0)
        assert np.array_equal(energy_gradient(u, two_well_bare()), np.zeros(31))

    @pytest.mark.parametrize("integrand", ALL, ids=lambda i: i.name)
    def test_random_vectors_match_fd(self, integrand):
        g = Grid1D(32)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            vals = rng.uniform(-1, 1, 33)
            ga = energy_gradient(NodalFunction(g, vals), integrand)
            gf = fd_gradient(g, vals, integrand)
            rel = np.abs(ga - gf) / np.maximum(np.abs(gf), 1.0)
            assert rel.max() <= 1e-6, f"seed {seed}: {rel.max():.3g}"


def assert_matches_dense(u, integrand):
    """Energy within 1e-13 relative and gradient within 1e-13 of its sup
    norm of the dense reference: the fold sums the same terms in another
    order. The value of value_and_grad is energy_value's, bit for bit, and
    repeated calls agree bit for bit."""
    value, grad = dense_quadrature(u, integrand)
    fused = value_and_grad(u, integrand)
    assert abs(fused[0] - value) <= 1e-13 * abs(value)
    assert np.max(np.abs(fused[1] - grad)) <= 1e-13 * np.max(np.abs(grad))
    assert fused[0] == energy_value(u, integrand)
    again = value_and_grad(u, integrand)
    assert again[0] == fused[0] and np.array_equal(again[1], fused[1])
    assert np.array_equal(energy_gradient(u, integrand), fused[1])


class TestBlockedKernel:
    N = 1000  # several fold blocks and a shorter last one

    def test_several_ragged_blocks(self):
        rows = BLOCK_ELEMS // self.N
        fold_rows = self.N // 2 + 1
        assert fold_rows // rows > 1 and fold_rows % rows != 0

    @pytest.mark.parametrize("integrand", ALL, ids=lambda i: i.name)
    def test_bit_identical_to_dense(self, integrand):
        rng = np.random.default_rng(3)
        u = NodalFunction(Grid1D(self.N), rng.uniform(-1, 1, self.N + 1))
        assert_matches_dense(u, integrand)

    # 2 and 4: a half row n / 2 that is the only off-diagonal row, or not;
    # 3 and 5: no half row; 127 and 128: one block with and without it
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 127, 128])
    @pytest.mark.parametrize("integrand", ALL, ids=lambda i: i.name)
    def test_fold_edge_cases_match_dense(self, integrand, n):
        rng = np.random.default_rng(n)
        assert_matches_dense(NodalFunction(Grid1D(n), rng.uniform(-1, 1, n + 1)), integrand)

    def test_non_finite_names_point_in_later_block(self):
        # phi is NaN at the quotient of the single pair (200, 600), which
        # sits in fold row 400, block 25
        g = Grid1D(self.N)
        assert 400 // (BLOCK_ELEMS // self.N) == 25
        u = NodalFunction(g, np.random.default_rng(4).uniform(-1, 1, self.N + 1))
        m, um = g.midpoints, midpoint_values(u)
        D_bad = (um[600] - um[200]) / (m[600] - m[200])
        spiked = Integrand(
            w=lambda U: np.where(U == D_bad, np.nan, 1.0) * U**2,
            w_U=lambda U: 2.0 * U,
            mass=np.zeros_like,
            w_u=np.zeros_like,
            w_UU=np.ones_like,
            w_uu=np.zeros_like,
            p=2.0,
            name="spiked",
        )
        for kernel in (energy_value, value_and_grad):
            with pytest.raises(NonFiniteEnergyError) as excinfo:
                kernel(u, spiked)
            assert str(excinfo.value) == ("W(spiked) non-finite at quadrature point "
                                          f"(x={m[200]:.6g}, X={m[600]:.6g})")

    # the kernel checks only the total and the gradient, and reruns the
    # fold with its per-block checks where either is non-finite: n = 256
    # has blocks of 64 fold rows, and the pair (10, 110) sits in row 100,
    # the middle one of three blocks; phi, or only phi', is NaN there
    @pytest.mark.parametrize("part", ["w", "w_U"])
    def test_non_finite_in_a_middle_block_names_its_pair(self, part):
        n = 256
        g = Grid1D(n)
        rows = BLOCK_ELEMS // n
        assert 100 // rows == 1 and -(-(n // 2 + 1) // rows) == 3
        u = NodalFunction(g, np.random.default_rng(6).uniform(-1, 1, n + 1))
        m, um = g.midpoints, midpoint_values(u)
        D_bad = (um[110] - um[10]) / (m[110] - m[10])
        spike = lambda U, f: np.where(U == D_bad, np.nan, 1.0) * f(U)
        W = half_square()
        spiked = dataclasses.replace(W, name="spiked", phi_coefficients=None,
                                     **{part: lambda U: spike(U, getattr(W, part))})
        what = "W" if part == "w" else "dW/dU"
        kernels = (energy_value, value_and_grad) if part == "w" else (value_and_grad,)
        for kernel in kernels:
            with pytest.raises(NonFiniteEnergyError) as excinfo:
                kernel(u, spiked)
            assert str(excinfo.value) == (f"{what}(spiked) non-finite at quadrature point "
                                          f"(x={m[10]:.6g}, X={m[110]:.6g})")
        if part == "w_U":
            assert np.isfinite(energy_value(u, spiked))

    def test_affine_exactness_at_large_n(self):
        # the dense n x n fields would need several GB here
        u = NodalFunction.linear(Grid1D(8192), 0.25, 1.0)
        assert energy_value(u, half_square()) == pytest.approx(0.5 * 0.75**2, rel=1e-12)
        # power:3 takes the near/far path with the end values rising or falling
        for left, right in ((0.25, 1.0), (1.0, 0.5)):
            u = NodalFunction.linear(Grid1D(8192), left, right)
            assert energy_value(u, power_p(3)) == pytest.approx(abs(right - left) ** 3, rel=1e-12)


class TestFoldPlan:
    """Up to FOLD_PLAN_MAX_N cells the fold reads its pair distances from one
    read-only array per n, built on the first call at that n: the dense
    fold every row of it, the near/far path its rows 0..near."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 127, 128, FOLD_PLAN_MAX_N])
    def test_rows_are_the_fold_distances(self, n):
        plan = energy._fold_distances(n)
        mm = energy._windows(energy._midpoints_twice(n), 0, 1, (n // 2 + 1, n))
        want = mm - Grid1D(n).midpoints
        assert plan.shape == want.shape and np.all(plan[0] == np.inf)
        assert plan[1:].tobytes() == want[1:].tobytes()

    def test_is_read_only(self):
        with pytest.raises(ValueError):
            energy._fold_distances(8)[1, 0] = 0.0

    def test_none_above_the_crossover_or_for_residuals(self):
        # the near/far path builds no table above FOLD_PLAN_MAX_N (at n =
        # 4096 it would hold 67 MB), and the residual's two layouts none at
        # all (33 MB at n = 2048). power:3 takes the path on a monotone
        # profile only
        energy._fold_distances.cache_clear()
        residual_report(NodalFunction.linear(Grid1D(1024), 0.0, 1.0), power_p(3))
        for n in (4096, NEAR_FAR_ABOVE_N + 1, FOLD_PLAN_MAX_N):
            grid = Grid1D(n)
            rough = np.random.default_rng(n).uniform(-1, 1, n + 1)
            for W, values in ((half_square(), rough), (power_p(3), grid.nodes ** 2)):
                u = NodalFunction(grid, values)
                energy_value(u, W)
                value_and_grad(u, W)
            if n == 4096:
                assert energy._fold_distances.cache_info().currsize == 0
        # up to FOLD_PLAN_MAX_N the path builds the table of its n, once
        info = energy._fold_distances.cache_info()
        assert (info.currsize, info.misses) == (2, 2)
        # and the dense fold reads the same one: power:3 on the rough
        # profile, whose far pairs' sign is mostly unknown
        value_and_grad(NodalFunction(Grid1D(FOLD_PLAN_MAX_N), rough[:FOLD_PLAN_MAX_N + 1]),
                       power_p(3))
        info = energy._fold_distances.cache_info()
        assert (info.currsize, info.misses) == (2, 2)

    # the near/far path hands the generator rows 0..near of the fold's
    # table: 17 rows for a quartic at n = 256, 2 for degree 2, 65 for
    # power:3 at 512 and FOLD_PLAN_MAX_N; the dense fold (power:3 at 256,
    # whose near rows exceed n // 8) all n // 2 + 1
    @pytest.mark.parametrize("n", [256, 512, FOLD_PLAN_MAX_N])
    def test_near_rows_are_the_first_fold_distances(self, n, monkeypatch):
        handed = record_distances(monkeypatch)
        grid = Grid1D(n)
        paths = 0
        for W in POLYNOMIAL:
            plan = energy._near_far(grid.nodes, W.phi_coefficients)
            handed.clear()
            value_and_grad(NodalFunction(grid, grid.nodes), W)
            rows = n // 2 + 1 if plan is None else plan.near + 1
            table = energy._fold_distances(n)
            assert len(handed) == 1 and handed[0].base is table
            assert handed[0].shape == (rows, n)
            assert handed[0].tobytes() == table[:rows].tobytes()
            with pytest.raises(ValueError):
                handed[0][1, 0] = 0.0
            paths += plan is not None
        assert paths >= 5

    def test_near_rows_only_up_to_the_plan_size(self, monkeypatch):
        handed = record_distances(monkeypatch)
        energy._fold_distances.cache_clear()
        for n in (FOLD_PLAN_MAX_N + 1, 4096):
            u = NodalFunction(Grid1D(n), np.random.default_rng(n).uniform(-1, 1, n + 1))
            # the near/far path, then the dense fold
            for W in (two_well_full(), stripped(half_square())):
                value_and_grad(u, W)
        assert len(handed) == 4 and all(distances is None for distances in handed)
        assert energy._fold_distances.cache_info().currsize == 0
        # one entry per n, read by every later call at that n
        u = NodalFunction(Grid1D(256), np.random.default_rng(256).uniform(-1, 1, 257))
        for _ in range(3):
            value_and_grad(u, two_well_full())
        info = energy._fold_distances.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 2)


def record_distances(monkeypatch) -> list:
    """The distances that each _circulant_blocks call is handed, in a list
    that fills as the fold runs."""
    handed, blocks = [], energy._circulant_blocks

    def recording(um, x, ux, offset, step, rows, distances=None):
        handed.append(distances)
        return blocks(um, x, ux, offset, step, rows, distances)

    monkeypatch.setattr(energy, "_circulant_blocks", recording)
    return handed


def same_bits(got, want):
    return got[0] == want[0] and np.array_equal(got[1], want[1])


def assert_near_far_matches(near_far, dense):
    """Energy within 1e-12 relative and gradient within 1e-11 of its sup
    norm: the Toeplitz sums of the far pairs cancel in another order."""
    (value, grad), (want, want_grad) = near_far, dense
    assert abs(value - want) <= 1e-12 * abs(want)
    assert np.max(np.abs(grad - want_grad)) <= 1e-11 * np.max(np.abs(want_grad))


def assert_path_matches_the_dense_fold(n, integrand, names=None):
    """On every profile, or those named, value_and_grad gives the near/far
    path's bits, or the dense fold's where _near_far declines the path (at
    the sizes TestCrossover names, or where the sign of too many far pairs
    is unknown: _direct_pays, TestSignCells), and the path is within the
    bounds of the dense fold."""
    grid = Grid1D(n)
    for name, values in near_far_profiles(n).items():
        if names is not None and name not in names:
            continue
        u = NodalFunction(grid, values)
        value, grad = value_and_grad(u, integrand)
        assert value == energy_value(u, integrand)
        dense = value_and_grad(u, stripped(integrand))
        path = near_far(grid, values, integrand)
        fold = energy._near_far(values, integrand.phi_coefficients) is None
        assert same_bits((value, grad), dense if fold else path)
        assert_near_far_matches(path, dense)


class TestNearFar:
    """Where _near_far admits it (TestCrossover), a density with phi
    coefficients sums the pairs beyond the near rows of _split(n, c) by
    Toeplitz products."""

    # n = 8192, where n / b is largest, on four profiles (both signs of the
    # end values' slope, and beta = 0) to save 3 s of dense folds
    @pytest.mark.parametrize("n", [256, 384, NEAR_FAR_ABOVE_N + 1, 2049, 4096, 8192])
    @pytest.mark.parametrize("integrand", POLYNOMIAL, ids=lambda i: i.name)
    def test_matches_the_dense_fold(self, integrand, n):
        names = ("rough", "smooth", "hat", "falling") if n == 8192 else None
        assert_path_matches_the_dense_fold(n, integrand, names)

    # |U| has degree 1 and an odd coefficient; |U| + |U|^3 has two, so the
    # path's direct sums on the rough and hat profiles add a term for each;
    # U^6 takes the band n / 5.3, wider than any built-in density's
    @pytest.mark.parametrize("integrand", hand_built(), ids=lambda i: i.name)
    def test_hand_built_matches_the_dense_fold(self, integrand):
        assert_path_matches_the_dense_fold(4096, integrand)

    @pytest.mark.parametrize("integrand", POLYNOMIAL, ids=lambda i: i.name)
    def test_path_matches_below_the_crossover(self, integrand):
        n = NEAR_FAR_ABOVE_N
        grid = Grid1D(n)
        for values in near_far_profiles(n).values():
            assert_near_far_matches(near_far(grid, values, integrand),
                                    fold(grid, values, integrand))

    # every golden pin (n <= 129) and fig4 (64 and 128) stay on the dense
    # fold, bit for bit, as do the sizes whose FFT length 2 n has a large
    # prime factor (257 = 257, 511 = 7 * 73) and, at n = 256, the densities
    # whose near rows exceed n // 8 (power:3's 64, U^6's 48)
    @pytest.mark.parametrize("n, integrand", [
        pytest.param(n, W, id=f"{W.name}-{n}")
        for n, W in [*((n, W) for W in POLYNOMIAL
                       for n in (129, NEAR_FAR_FROM_N - 1, 257, NEAR_FAR_ABOVE_N)),
                     (NEAR_FAR_FROM_N, power_p(3)), (NEAR_FAR_FROM_N, hand_built()[2])]])
    def test_dense_fold_up_to_the_crossover(self, integrand, n):
        grid = Grid1D(n)
        for values in near_far_profiles(n).values():
            assert same_bits(value_and_grad(NodalFunction(grid, values), integrand),
                             fold(grid, values, integrand))

    # phi = |U| on a profile with equal end values (beta = 0, s = +1), whose
    # far pairs on the plateau have D = 0 exactly: with phi'(0) = sign(0) =
    # 0 the path summed 1.2013 against the dense fold's 0.6659 at n = 4096.
    # Such a density is refused; with phi'(0) = +1, as the sums take it,
    # the path gives the dense fold's energy
    @pytest.mark.parametrize("n", [NEAR_FAR_ABOVE_N + 1, 4096])
    def test_abs_with_a_zero_slope_at_zero(self, n):
        absolute = hand_built()[0]
        with pytest.raises(ValueError, match="w_U"):
            dataclasses.replace(absolute, w_U=np.sign)
        x = Grid1D(n).nodes
        u = NodalFunction(Grid1D(n), np.minimum(np.minimum(x / 0.01, (1.0 - x) / 0.2), 1.0))
        assert energy._split(n, absolute.phi_coefficients) is not None
        assert_near_far_matches(near_far(u.grid, u.values, absolute),
                                value_and_grad(u, stripped(absolute)))

    # two-well at 1e80 overflows in the first pair; a log mass is NaN at the
    # negative midpoint values, which the path meets after all its pairs.
    # power:3's D^3 overflows at 1e110: on the random values the sign of
    # most far pairs is unknown, and the path meets the overflow in its
    # direct sums (at n = 4096 _direct_pays takes the path at any share),
    # while on the rising ones it meets it in its cells and products
    @pytest.mark.parametrize("scale, W, rising", [
        (1e80, two_well_full(), False),
        (1.0, dataclasses.replace(two_well_full(), mass=lambda v: np.log(v) ** 2,
                                  w_u=lambda v: 2.0 * np.log(v) / v), False),
        (1e110, power_p(3), False),
        (1e110, power_p(3), True),
    ], ids=["overflow", "nan-mass", "power3-overflow", "power3-rising-overflow"])
    def test_non_finite_raises_what_the_dense_fold_raises(self, scale, W, rising):
        n = 4096
        values = np.random.default_rng(5).uniform(-1, 1, n + 1)
        if rising:
            values = Grid1D(n).nodes + 0.05 * values
            assert energy._near_far(values, W.phi_coefficients) is not None
        u = NodalFunction(Grid1D(n), scale * values)
        for kernel in (energy_value, value_and_grad):
            with pytest.raises(NonFiniteEnergyError) as want:
                kernel(u, stripped(W))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteEnergyError) as got:
                    kernel(u, W)
            assert str(got.value) == str(want.value)


def five_smooth(n):
    """Whether n is 2^a 3^b 5^c, from the set of such numbers up to n."""
    return n in {2 ** a * 3 ** b * 5 ** c for a in range(11) for b in range(7) for c in range(5)}


class TestCrossover:
    """_near_far gives _quadrature the near/far path's plan for every n >
    NEAR_FAR_ABOVE_N and, from NEAR_FAR_FROM_N on, at the n with no prime
    factor above 5 (a fast FFT length 2 n) where _split's near rows are at
    most n // 8; None, the dense fold, elsewhere."""

    def test_path_exactly_where_the_rule_says(self):
        # on a monotone profile every far cell of an odd phi is certified,
        # so _direct_pays passes
        sizes = range(130, 601)
        for W in POLYNOMIAL + hand_built():
            c = W.phi_coefficients
            plans = {n: energy._near_far(Grid1D(n).nodes, c) for n in sizes}
            taken = [n for n, plan in plans.items() if plan is not None]
            splits = {n: energy._split(n, c) for n in sizes}
            assert taken == [n for n, split in splits.items() if split is not None and (
                n > NEAR_FAR_ABOVE_N
                or (n >= NEAR_FAR_FROM_N and five_smooth(n) and split[0] <= n // 8))], W.name
            assert all(plans[n][:2] == splits[n] for n in taken)
            below = [n for n in taken if n <= NEAR_FAR_ABOVE_N]
            if W.phi_coefficients in ((0.0, 0.0, 0.5), (0.25, 0.0, -0.5, 0.0, 0.25)):
                # degree 2 and the quartics: the fast sizes from 256 on
                assert below[:4] == [256, 270, 288, 300] and 384 in below and 500 in below
            if W.name in ("power:3", "U^6", "abs", "abs+abs^3"):
                assert below == []


class TestEvaluator:
    """A solve builds one _Evaluator from the grid, the density and the end
    values, and calls it on every iterate: each call gives the bits of a
    fresh public call, which builds its own, on the dense fold, the near/far
    path and the path with unsigned cells, and for power:3 where
    _direct_pays sends the call to the fold. Its counts name the path."""

    @pytest.mark.parametrize("n", [64, 128, 256, 512, 4096])
    @pytest.mark.parametrize("integrand", ALL + hand_built(), ids=lambda i: i.name)
    def test_one_evaluator_gives_the_bits_of_fresh_calls(self, integrand, n):
        grid = Grid1D(n)
        wave = 0.1 * np.sin(3.0 * np.pi * grid.nodes)
        for name, values in near_far_profiles(n).items():
            evaluate = energy._Evaluator(grid, integrand, (values[0], values[-1]))
            # iterates that keep the profile's end values bit for bit
            moved = values.copy()
            moved[1:-1] += wave[1:-1]
            for v in (values, moved, values):
                u = NodalFunction(grid, v)
                value, grad = evaluate(v, True)
                want, want_grad = value_and_grad(u, integrand)
                assert value.hex() == want.hex() and grad.tobytes() == want_grad.tobytes()
                assert evaluate(v, False)[0].hex() == energy_value(u, integrand).hex()
            counts = evaluate.counts
            assert sum(counts.values()) == 6 and counts["rerun"] == 0
            if integrand.name == "power:3" and name in ("rough", "hat") and n in (512, 4096):
                # at 512 the unsigned cells hold more than half of the far
                # pairs, and the fold runs; at 4096 the path runs with them
                assert counts["fold" if n == 512 else "unsigned"] == 6, name

    # a non-finite energy reruns the checked dense fold, which raises, and
    # the evaluator counts the call as a rerun
    def test_rerun_is_counted(self):
        grid = Grid1D(512)
        values = near_far_profiles(512)["smooth"]
        evaluate = energy._Evaluator(grid, two_well_full(), (values[0], values[-1]))
        evaluate(values, True)
        bad = values.copy()
        bad[7] = 1e200
        with pytest.raises(NonFiniteEnergyError):
            evaluate(bad, True)
        assert evaluate.counts == {"fold": 0, "path": 1, "unsigned": 0, "rerun": 1}


def direct_pairs(r, beta, c, n, lo, hi, first, second):
    """(f, gradient) of the sum of P(s D_ij) over the pairs i < j = i + d,
    lo < d <= hi, of each row of r with first[t, i] and second[t, j], D_ij =
    beta[t] + (r_j - r_i) / ((j - i) h), h = 1 / n and s the sign of
    beta[t], summed pair by pair; f holds half of each pair's term at each
    end."""
    f, grad = np.zeros(r.shape), np.zeros(r.shape)
    width = r.shape[1]
    d = np.arange(lo + 1, min(hi, width - 1) + 1)
    i_all = np.concatenate([np.arange(width - e) for e in d])
    j_all = i_all + np.repeat(d, width - d)
    for t in range(r.shape[0]):
        keep = first[t, i_all] & second[t, j_all]
        i, j = i_all[keep], j_all[keep]
        dm = (j - i) / n
        s = -1.0 if beta[t] < 0 else 1.0
        sD = s * (beta[t] + (r[t, j] - r[t, i]) / dm)
        half = 0.5 * polynomial.polyval(sD, c)
        f[t] = np.bincount(i, half, width) + np.bincount(j, half, width)
        slope = s * polynomial.polyval(sD, polynomial.polyder(c)) / dm
        grad[t] = np.bincount(j, slope, width) - np.bincount(i, slope, width)
    return f, grad


def centred_far_input(values):
    """(r, beta) of the global far sums, as _far_terms centres them."""
    n = values.size - 1
    a, beta = 0.5 * (values[:-1] + values[1:]), values[-1] - values[0]
    r = a - (values[0] + beta * Grid1D(n).midpoints)
    return r - 0.5 * (r.max() + r.min()), beta


def far_row(n, integrand, beta):
    """_row of a fresh evaluator on n cells, with the end values (0, beta)
    and both its near rows and band at _split's band: the global far sums
    over band < d < n - band, as a solve's evaluator runs them."""
    _, band = energy._split(n, integrand.phi_coefficients)
    return energy._Evaluator(Grid1D(n), integrand, (0.0, beta), (band, band))._row


def far_sums(n, integrand, r, beta):
    """The bytes of the global far sums' f and gradient at _split's band."""
    f, grad = far_row(n, integrand, beta)(r, True)
    return f.tobytes() + grad.tobytes()


class TestFarPairs:
    """The far sums, whose powers are repeated products, against a direct
    sum of P(s D_ij) and its gradient in r, with max |r| near 1: an
    evaluator's one row (_Evaluator._row) over the far pairs band < j - i <
    n - band, and _far_pairs' masked windows of the pairs lo < j - i <= hi,
    one slope per window. One row's weights
    c'_(p+q) C(p+q, q) Z_(p+q) are kept per n, FFT length, pair range and
    the bits of c' (_row_weights): a call that reads them gives the bits of
    one that builds them."""

    @pytest.mark.parametrize("n", [300, 512])
    @pytest.mark.parametrize("integrand", POLYNOMIAL + hand_built(), ids=lambda i: i.name)
    def test_matches_a_direct_sum(self, integrand, n):
        c = np.array(integrand.phi_coefficients)
        _, band = energy._split(n, integrand.phi_coefficients)
        everywhere = np.ones((1, n), bool)
        rng = np.random.default_rng(n)
        for beta in (0.7, 0.0, -1.3):
            r = rng.uniform(-1.0, 1.0, n)
            r -= 0.5 * (r.max() + r.min())
            want, want_grad = direct_pairs(r[None], [beta], c, n, band, n - band - 1,
                                           everywhere, everywhere)
            f, grad = far_row(n, integrand, beta)(r, True)
            assert f.shape == grad.shape == (n,)
            assert_near_far_matches((f.sum(), grad), (want.sum(), want_grad[0]))

    # the global sums, an evaluator's one row with a scalar slope, against
    # the same row as a batch of one window with its slope in a column and
    # an all-true mask, on r as _far_terms centres it; an odd phi's far sum on
    # the hat (beta = 0) cancels to rounding, so the energies compare
    # within the sum of |f|
    @pytest.mark.parametrize("n", [512, 4096])
    @pytest.mark.parametrize("integrand", POLYNOMIAL + hand_built(), ids=lambda i: i.name)
    def test_symmetric_sums_match_the_masked_engine(self, integrand, n):
        _, band = energy._split(n, integrand.phi_coefficients)
        everywhere = np.ones((1, n), bool)
        for values in near_far_profiles(n).values():
            r, beta = centred_far_input(values)
            f, grad = far_row(n, integrand, beta)(r, True)
            want, want_grad = energy._far_pairs(r[None], np.array([beta]), integrand, n, band,
                                                n - band - 1, 2 * n, True, everywhere)
            assert abs(f.sum() - want.sum()) <= 1e-13 * np.abs(want).sum()
            assert np.max(np.abs(grad - want_grad[0])) <= 1e-13 * np.max(np.abs(want_grad))

    # windows of 2 B values, each with its own slope and a mask of its valid
    # positions: the first window's first B // 2 are masked, as the blocks'
    # first window is left of a, and the last window is ragged, with 2 B / 3
    # values; the three slopes have both signs and 0. The products have
    # length 4 B, so that nothing wraps
    @pytest.mark.parametrize("B", [32, 100, 256])
    @pytest.mark.parametrize("integrand", POLYNOMIAL + hand_built(), ids=lambda i: i.name)
    def test_windows_match_a_direct_masked_sum(self, integrand, B):
        c = np.array(integrand.phi_coefficients)
        n, width, lo, hi = 4096, 2 * B, B // 4, B - 3
        k = np.arange(width)
        valid = ((k >= np.array([B // 2, 0, 0])[:, None])
                 & (k < np.array([width, width, width // 3])[:, None]))
        rng = np.random.default_rng(B)
        r = rng.uniform(-1.0, 1.0, (3, width))
        beta = np.array([0.7, 0.0, -1.3])
        want, want_grad = direct_pairs(r, beta, c, n, lo, hi, valid, valid)
        f, grad = energy._far_pairs(r, beta, integrand, n, lo, hi, 2 * width, True, valid)
        assert not f[~valid].any() and not grad[~valid].any()
        for t in range(3):
            assert_near_far_matches((f[t].sum(), grad[t]), (want[t].sum(), want_grad[t]))
            assert np.max(np.abs(f[t] - want[t])) <= 1e-11 * np.max(np.abs(want[t]))
        value, _ = energy._far_pairs(r, beta, integrand, n, lo, hi, 2 * width, False, valid)
        assert np.array_equal(value, f)

    # windows of width, the least 5-smooth number >= 4 band, keep B = width
    # - 2 band central values each. For a quartic, n = 2048 has the band
    # 128, where the blocks start, and 8 whole blocks of 256; n = 2049 the
    # same windows, whose 9th block holds one value; n = 2100 the band 131,
    # width 540 and blocks of 278, the last holding 154; n = 4096 the band
    # 256 and 8 whole blocks of 512. U^6's band is about n / 5, and its
    # windows about 0.76 n
    @pytest.mark.parametrize("n", [2048, 2049, 2100, 4096])
    @pytest.mark.parametrize("integrand", [two_well_full(), power_p(4), hand_built()[2]],
                             ids=lambda i: i.name)
    def test_blocks_match_a_direct_sum(self, integrand, n):
        c = np.array(integrand.phi_coefficients)
        near, band = energy._split(n, integrand.phi_coefficients)
        assert near == band // 4
        everywhere = np.ones((1, n), bool)
        for name, values in near_far_profiles(n).items():
            a = 0.5 * (values[:-1] + values[1:])
            want, want_grad = direct_pairs(a[None], [0.0], c, n, near, band, everywhere,
                                           everywhere)
            f, grad = energy._block_pairs(a, integrand, near, band, True)
            assert_near_far_matches((f.sum(), grad), (want.sum(), want_grad[0]))

    @pytest.mark.parametrize("n", [256, 512, 4096])
    @pytest.mark.parametrize("integrand", POLYNOMIAL, ids=lambda i: i.name)
    def test_warm_weights_give_the_cold_bits(self, integrand, n):
        for values in near_far_profiles(n).values():
            r, beta = centred_far_input(values)
            energy._row_weights.cache_clear()
            cold = far_sums(n, integrand, r, beta)
            assert far_sums(n, integrand, r, beta) == cold
            assert energy._row_weights.cache_info()[:2] == (1, 1)  # hits, misses

    # the reference: each spectrum p summed term by term, q = 0, 1, ..., of
    # (c'_(p+q) C(p+q, q)) Z_(p+q) R_q, as _far_pairs did before its
    # weights; the weights' products over all p at once, one q at a time,
    # give its bits, for one row (numbers) and for windows (columns)
    def test_weights_give_the_bits_of_the_term_by_term_products(self):
        n, size, lo, hi, degree = 512, 1024, 32, 479, 4
        K = energy._far_kernels(n, size, lo, hi, degree)
        rng = np.random.default_rng(4)
        for shape in ((), (3,)):
            shifted = [rng.uniform(-1.0, 1.0, shape + (1,) * len(shape)) for _ in range(5)]
            shifted = [x if shape else float(x) for x in shifted]
            R = np.fft.rfft(rng.uniform(-1.0, 1.0, (degree + 1,) + shape + (size,)))
            W = tuple(energy._far_weights(K, shifted))
            got = np.multiply(W[0], R[0])
            for q in range(1, degree + 1):
                got[:degree + 1 - q] += W[q] * R[q]
            for p in range(degree + 1):
                want = shifted[p] * comb(p, 0) * K[p] * R[0]
                for q in range(1, degree + 1 - p):
                    want += shifted[p + q] * comb(p + q, q) * K[p + q] * R[q]
                assert got[p].tobytes() == want.tobytes()

    # half-square's c'_1 = w_U(beta) is -0.0 at beta = -0.0: the key holds
    # c''s bits, so neither zero reads the other's weights
    @pytest.mark.parametrize("integrand", POLYNOMIAL + hand_built(), ids=lambda i: i.name)
    def test_signed_zero_slopes_give_the_bits_of_a_cold_call(self, integrand):
        n = 512
        r, _ = centred_far_input(near_far_profiles(n)["hat"])
        cold = {}
        for beta in (0.0, -0.0):
            energy._row_weights.cache_clear()
            cold[beta.hex()] = far_sums(n, integrand, r, beta)
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            energy._row_weights.cache_clear()
            far_sums(n, integrand, r, first)
            assert far_sums(n, integrand, r, second) == cold[second.hex()]
        if integrand.name == "half-square":
            assert energy._row_weights.cache_info().currsize == 2

    def test_equal_coefficients_share_weights(self):
        n = 512
        r, beta = centred_far_input(near_far_profiles(n)["smooth"])
        energy._row_weights.cache_clear()
        half, mass = (far_sums(n, W, r, beta) for W in (half_square(), quadratic_mass()))
        assert half == mass
        info = energy._row_weights.cache_info()
        assert (info.currsize, info.hits) == (1, 1)

    def test_weights_are_read_only(self):
        n = 512
        _, band = energy._split(n, two_well_full().phi_coefficients)
        weights = energy._row_weights(n, 2 * n, band, n - band - 1,
                                      np.array([0.25, 0.0, -0.5, 0.0, 0.25]).tobytes())
        assert [w.shape for w in weights] == [(5 - q, n + 1) for q in range(5)]
        for w in weights:
            with pytest.raises(ValueError):
                w[0, 0] = 0.0

    # a quartic's entry keeps the 15 spectra with p + q <= 4, not all 25
    def test_weights_are_bounded_as_their_docstring_says(self):
        n = 8192
        _, band = energy._split(n, two_well_full().phi_coefficients)
        weights = energy._row_weights(n, 2 * n, band, n - band - 1,
                                      np.array([0.25, 0.0, -0.5, 0.0, 0.25]).tobytes())
        mib = sum(w.nbytes for w in weights) / 2 ** 20
        maxsize = energy._row_weights.cache_info().maxsize
        assert f"{mib:.1f} MiB" == "1.9 MiB" and f"{maxsize * mib:.0f} MiB" == "15 MiB"
        assert "1.9 MiB" in energy._row_weights.__doc__ and "15 MiB" in energy._row_weights.__doc__
        energy._row_weights.cache_clear()


class TestSignCells:
    """A phi with an odd coefficient (power:3) sums its far pairs as P(s D),
    and directly only in the cells whose sign _unsigned_cells cannot
    certify."""

    @pytest.mark.parametrize("n", [NEAR_FAR_ABOVE_N + 1, 2049, 4096])
    def test_certified_cells_hold_their_sign(self, n):
        grid, W = Grid1D(n), power_p(3)
        (_, band), L = energy._split(n, W.phi_coefficients), energy.SIGN_CELL
        for name, values in near_far_profiles(n).items():
            s = -1.0 if values[-1] < values[0] else 1.0
            a = s * 0.5 * (values[:-1] + values[1:])
            unsigned = energy._unsigned_cells(values, band)
            assert unsigned.shape == (-(-n // L), n - 2 * band - 1)
            for t, d in enumerate(range(band + 1, n - band)):
                i = np.arange(n - d)
                certified = ~unsigned[i // L, t]
                assert np.all(a[i + d][certified] >= a[i][certified]), (name, d)
            got = value_and_grad(NodalFunction(grid, values), W)
            if energy._near_far(values, W.phi_coefficients) is not None:
                assert same_bits(got, near_far(grid, values, W))
            else:
                assert same_bits(got, fold(grid, values, W))
            if name not in ("rough", "hat"):
                # a monotone profile: every far cell is certified
                assert not unsigned.any()

    # _direct_pays counts each unsigned cell at its pairs, min(L, n - d - c L)
    # in row d, not at L: a random profile, whose cells all fail, holds at
    # most every far pair, and the count agrees with one cell by cell
    @pytest.mark.parametrize("n", [512, 1024, 8192])
    def test_share_counts_the_pairs_of_each_cell(self, n):
        (_, band), L = energy._split(n, power_p(3).phi_coefficients), energy.SIGN_CELL
        d = np.arange(band + 1, n - band)
        pairs = np.clip(n - d - L * np.arange(-(-n // L))[:, None], 0, L)
        for name in ("rough", "hat"):
            unsigned = energy._unsigned_cells(near_far_profiles(n)[name], band)
            share = energy._unsigned_share(unsigned, n, band)
            assert share == pytest.approx(pairs[unsigned].sum() / pairs.sum(), rel=1e-15)
            if name == "rough":
                assert share <= 1.0


class TestNearBand:
    """_split(n, c) = (near, band): b = n 16^(-3 / (k - 1)) for phi of degree
    k, at least 1 and, for an odd phi, at least SIGN_CELL; None, the dense
    fold, where that reaches n // 2. The fold's last row is b // 4 for an
    even phi of degree >= 4 with b >= BLOCKS_FROM_BAND, b otherwise."""

    @pytest.mark.parametrize("n", [NEAR_FAR_ABOVE_N + 1, 2047, 2048, 2049, 3000, 4095, 4096,
                                   8191, 8192, 16384, 65537])
    def test_rule(self, n):
        split = lambda c: energy._split(n, c)
        for W in (half_square(), quadratic_mass(), power_p(2)):
            assert split(W.phi_coefficients) == (max(n // 4096, 1),) * 2
        # the quartics keep the far cut n // 16; from a band of
        # BLOCKS_FROM_BAND, n = 2048, the fold stops at n // 64
        for W in (two_well_full(), two_well_bare(), power_p(4)):
            assert split(W.phi_coefficients) == (n // 64 if n >= 2048 else n // 16, n // 16)
        # degree 5 has an odd coefficient: n // 8 is below SIGN_CELL up to n = 511
        assert split((0.0,) * 5 + (1.0,)) == (max(n // 8, energy.SIGN_CELL),) * 2
        # U^6 is even: its band n / 5.3 is at least BLOCKS_FROM_BAND from n = 676
        near, band = split((0.0,) * 6 + (1.0,))
        assert near == (band // 4 if n >= 676 else band)
        assert n // 3 < split((0.0,) * 12 + (1.0,))[1] < n // 2
        for c in ((0.0,) * 13 + (1.0,), (0.0,) * 14 + (1.0,)):
            assert split(c) is None
        assert split((1.0,)) == split((0.0, 0.0)) == (1, 1)
        # an odd phi never takes a band below a sign cell, nor blocks
        assert split(power_p(3).phi_coefficients) == (max(n // 64, energy.SIGN_CELL),) * 2
        for c in ((0.0, 1.0), (1.0, 1.0, 1.0), (0.0,) * 5 + (1.0,)):
            near, band = split(c)
            assert near == band >= energy.SIGN_CELL

    # the fold's rows 0..n // 64, the far cut n // 16 and the blocks between
    def test_degree_4_splits_at_n_over_64_and_n_over_16(self):
        n = 4096
        grid = Grid1D(n)
        for W in (two_well_full(), two_well_bare(), power_p(4)):
            for values in near_far_profiles(n).values():
                assert same_bits(value_and_grad(NodalFunction(grid, values), W),
                                 fold(grid, values, W, energy._Plan(n // 64, n // 16, None)))

    def test_half_the_fold_or_more_runs_the_dense_fold(self):
        n = 4096
        grid, values = Grid1D(n), near_far_profiles(n)["smooth"]
        W = dataclasses.replace(power_p(14), phi_coefficients=(0.0,) * 14 + (1.0,))
        assert energy._split(n, W.phi_coefficients) is None
        assert same_bits(value_and_grad(NodalFunction(grid, values), W),
                         fold(grid, values, W))


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

    def test_end_values_that_hold(self):
        free = refine_and_compare(lambda x: x, half_square(), 8)
        pinned = refine_and_compare(lambda x: x, half_square(), 8, left_bc=0.0, right_bc=1.0)
        assert pinned == free

    def test_end_values_that_do_not_hold(self):
        with pytest.raises(GridError, match="violates right end condition 2.0"):
            refine_and_compare(lambda x: x, half_square(), 8, left_bc=0.0, right_bc=2.0)
