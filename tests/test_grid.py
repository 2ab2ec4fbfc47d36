import numpy as np
import pytest
from hypothesis import given, strategies as st

from nlvar.energy import _circulant_blocks
from nlvar.grid import Grid1D, GridError, NodalFunction

from helpers import constant, midpoint_values

EPS = np.finfo(float).eps


def quotients(u):
    """The n x n difference quotients D(m_i, m_j) the energy kernel uses,
    read from its circulant fold: fold row d holds the pairs (i, (i + d) mod
    n), and (j, i) takes the entry of (i, j) where the fold lists only one of
    them. The cell slope sits on the diagonal."""
    n, um = u.grid.n, midpoint_values(u)
    with np.errstate(invalid="ignore"):  # row 0 divides 0 by 0
        fold = np.vstack([D for *_, D in _circulant_blocks(um, u.grid.midpoints, um, 0, 1, n // 2 + 1)])
    fold[0] = u.slopes
    out = np.full((n, n), np.nan)
    i = np.arange(n)
    for d, row in enumerate(fold):
        out[i, (i + d) % n] = row
    for d, row in enumerate(fold):
        j = (i + d) % n
        once = np.isnan(out[j, i])
        out[j[once], i[once]] = row[once]
    return out


class TestGridConstruction:
    def test_n4_nodes_and_midpoints(self):
        g = Grid1D(4)
        assert np.allclose(g.nodes, [0, 0.25, 0.5, 0.75, 1.0], atol=0)
        assert np.allclose(g.midpoints, [0.125, 0.375, 0.625, 0.875], atol=0)

    def test_n2(self):
        g = Grid1D(2)
        assert g.h == 0.5
        assert g.nodes.size == 3

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_too_few_cells_rejected(self, n):
        with pytest.raises(GridError):
            Grid1D(n)

    @pytest.mark.parametrize("n", [2, 7, 64, 511])
    def test_invariants(self, n):
        g = Grid1D(n)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
        assert np.all(np.diff(g.nodes) > 0)
        assert abs(g.h * n - 1.0) <= 4 * EPS
        # midpoints strictly between consecutive nodes, never on a node
        assert np.all(g.midpoints > g.nodes[:-1])
        assert np.all(g.midpoints < g.nodes[1:])

    def test_arrays_immutable(self):
        g = Grid1D(8)
        with pytest.raises(ValueError):
            g.nodes[0] = 0.5

    def test_grids_compare_and_hash_by_cell_count(self):
        assert Grid1D(64) == Grid1D(64) and hash(Grid1D(64)) == hash(Grid1D(64))
        assert Grid1D(64) != Grid1D(65)
        assert {Grid1D(64), Grid1D(32), Grid1D(64)} == {Grid1D(32), Grid1D(64)}


class TestNodalFunction:
    def test_length_mismatch(self):
        g = Grid1D(4)
        with pytest.raises(GridError):
            NodalFunction(g, np.zeros(4))

    def test_bc_violation(self):
        g = Grid1D(4)
        with pytest.raises(GridError):
            NodalFunction(g, np.zeros(5), left_bc=1.0)

    @pytest.mark.parametrize("values, right_bc, message", [
        ([0.0, np.nan, 1.0], None, "nodal values must be finite"),
        ([0.0, 0.5, np.inf], None, "nodal values must be finite"),
        ([0.0, 0.5, 1.0], 2.0, "violates right end condition 2.0"),
    ], ids=["nan", "inf", "right-end"])
    def test_values_rejected(self, values, right_bc, message):
        with pytest.raises(GridError, match=message):
            NodalFunction(Grid1D(2), np.array(values), right_bc=right_bc)

    def test_identity_eval(self):
        u = NodalFunction.linear(Grid1D(10), 0.0, 1.0)
        assert u(0.3) == pytest.approx(0.3, abs=4 * EPS)

    @pytest.mark.parametrize("left, right",
                             [(7.264, 0.829), (2.308, -2.326), (0.1, 0.7), (-0.0, 1.0)])
    def test_linear_hits_end_values(self, left, right):
        # left + (right - left) * 1.0 misses right by an ulp for the first
        # three pairs; -0.0 + 0.0 is +0.0, so the last compares bytes
        u = NodalFunction.linear(Grid1D(8), left, right)
        assert u.values[0] == left and u.values[-1] == right
        assert u.values[[0, -1]].tobytes() == np.array([left, right]).tobytes()

    def test_linear_that_overflows_rejected(self):
        # right - left overflows to -inf; the constructor rejects the result
        with pytest.raises(GridError, match="nodal values must be finite"):
            NodalFunction.linear(Grid1D(4), 1e308, -1e308)

    def test_constant_eval(self):
        u = constant(Grid1D(5), 2.5)
        for t in (0.0, 0.37, 1.0):
            assert u(t) == 2.5

    def test_hat_eval(self):
        g = Grid1D(2)
        u = NodalFunction(g, np.array([0.0, 0.5, 0.0]))
        assert u(0.25) == pytest.approx(0.25, abs=4 * EPS)

    def test_values_are_a_private_copy(self):
        v = np.linspace(0.0, 1.0, 5)
        w = v[1:3]
        u = NodalFunction(Grid1D(4), v)
        w[0] = 7.0
        v[2] = 9.0
        assert u.values.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert not u.values.flags.writeable

    def test_equal_only_to_itself(self):
        u = NodalFunction.linear(Grid1D(4), 0.0, 1.0)
        assert u == u and u != NodalFunction(u.grid, u.values)
        assert {u, u} == {u}

    def test_out_of_domain(self):
        u = constant(Grid1D(4), 0.0)
        with pytest.raises(GridError):
            u(1.0001)
        with pytest.raises(GridError):
            u(-0.1)

    @pytest.mark.parametrize("t", [float("nan"), np.array([0.5, np.nan]), np.inf])
    def test_non_finite_point_rejected(self, t):
        # NaN compares False with both ends of [0, 1]
        with pytest.raises(GridError):
            constant(Grid1D(4), 0.0)(t)

    def test_exact_at_nodes_and_linear_between(self):
        rng = np.random.default_rng(7)
        g = Grid1D(17)
        vals = rng.normal(size=18)
        u = NodalFunction(g, vals)
        assert np.array_equal(u(g.nodes), vals)
        ts = rng.uniform(0.0, 1.0, 1000)
        cells = np.minimum((ts / g.h).astype(int), g.n - 1)
        direct = vals[cells] + (ts - g.nodes[cells]) * (vals[cells + 1] - vals[cells]) / g.h
        assert np.max(np.abs(u(ts) - direct)) <= 4 * EPS * max(1.0, np.abs(vals).max())


class TestDifferenceQuotient:
    def test_affine_everywhere(self):
        u = NodalFunction.linear(Grid1D(8), 0.0, 1.0)
        assert np.max(np.abs(quotients(u) - 1.0)) <= 1e-13

    def test_constant_zero(self):
        u = constant(Grid1D(8), 3.0)
        assert np.array_equal(quotients(u), np.zeros((8, 8)))

    def test_hat_endpoints(self):
        # the two midpoints of the n = 2 hat carry equal values
        u = NodalFunction(Grid1D(2), np.array([0.0, 0.5, 0.0]))
        assert np.array_equal(quotients(u), [[1.0, 0.0], [0.0, -1.0]])

    def test_diagonal_is_cell_slope(self):
        g = Grid1D(4)
        u = NodalFunction(g, np.array([0.0, 1.0, 0.5, 0.5, 2.0]))
        assert np.array_equal(np.diag(quotients(u)), [4.0, -2.0, 0.0, 6.0])

    @given(n=st.integers(2, 40), seed=st.integers(0, 2**16))
    def test_symmetry(self, n, seed):
        rng = np.random.default_rng(seed)
        u = NodalFunction(Grid1D(n), rng.uniform(-2, 2, n + 1))
        D = quotients(u)
        assert np.array_equal(D, D.T)
        # each pair's quotient equals the one with its operands swapped
        m, um = u.grid.midpoints, midpoint_values(u)
        i, j = np.nonzero(~np.eye(n, dtype=bool))
        assert np.array_equal(D[i, j], (um[i] - um[j]) / (m[i] - m[j]))

    @given(c=st.floats(-10, 10))
    def test_translation_invariance(self, c):
        rng = np.random.default_rng(3)
        vals = rng.uniform(-1, 1, 9)
        g = Grid1D(8)
        shifted = quotients(NodalFunction(g, vals + c))
        assert np.max(np.abs(shifted - quotients(NodalFunction(g, vals)))) <= 1e-9
