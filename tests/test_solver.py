import numpy as np
import pytest

from nlvar.energy import energy_value
from nlvar.grid import NodalFunction, make_uniform_grid
from nlvar.integrands import half_square, power_p, quadratic_mass, two_well_bare
from nlvar.solver import (
    ContinuationResult,
    SolverConfig,
    continuation_refine,
    default_grad_tol,
    make_initial_guess,
    minimize,
)

TIGHT = SolverConfig(grad_tol=1e-8, max_iters=50000)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": 0},
            {"grad_tol": 0.0},
            {"shrink": 1.0},
            {"shrink": 0.0},
            {"armijo": 0.0},
            {"memory": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_default_grad_tol_scales_with_n(self):
        assert default_grad_tol(128) == 1e-8
        assert default_grad_tol(256) == 1e-6


class TestInitialGuess:
    def test_linear(self):
        u = make_initial_guess(make_uniform_grid(4), (0.0, 1.0), "linear")
        assert np.allclose(u.values, [0, 0.25, 0.5, 0.75, 1.0])

    def test_zero_keeps_ends(self):
        u = make_initial_guess(make_uniform_grid(4), (0.0, 1.0), "zero")
        assert u.values[0] == 0.0 and u.values[-1] == 1.0
        assert np.all(u.values[1:-1] == 0.0)

    def test_random_is_seeded(self):
        g = make_uniform_grid(16)
        u1 = make_initial_guess(g, (0.0, 1.0), "random", seed=5)
        u2 = make_initial_guess(g, (0.0, 1.0), "random", seed=5)
        u3 = make_initial_guess(g, (0.0, 1.0), "random", seed=6)
        assert np.array_equal(u1.values, u2.values)
        assert not np.array_equal(u1.values, u3.values)

    def test_infeasible_nodal_init_rejected(self):
        g = make_uniform_grid(4)
        bad = NodalFunction(g, np.ones(5))
        with pytest.raises(ValueError):
            make_initial_guess(g, (0.0, 1.0), bad)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_initial_guess(make_uniform_grid(4), (0.0, 1.0), "spline")


class TestMinimize:
    def test_half_square_beats_linear(self):
        res = minimize(half_square(), make_uniform_grid(64), (0.0, 1.0), "linear", TIGHT)
        assert res.converged
        assert res.energy < 0.5 - 1e-3

    def test_quadratic_mass_unique_minimizer(self):
        g = make_uniform_grid(64)
        r1 = minimize(quadratic_mass(), g, (0.0, 1.0), "linear", TIGHT)
        r2 = minimize(quadratic_mass(), g, (0.0, 1.0), "random", TIGHT)
        assert r1.converged and r2.converged
        assert np.max(np.abs(r1.u.values - r2.u.values)) <= 1e-5

    def test_two_well_bare_zero_start_never_increases(self):
        res = minimize(two_well_bare(), make_uniform_grid(64), (0.0, 0.0), "zero", TIGHT)
        assert res.energy <= 0.25

    def test_energy_trace_monotone(self):
        res = minimize(quadratic_mass(), make_uniform_grid(48), (0.0, 1.0), "random", TIGHT)
        energies = [e for e, _ in res.trace]
        assert all(b <= a for a, b in zip(energies, energies[1:]))

    def test_end_values_bit_exact(self):
        res = minimize(half_square(), make_uniform_grid(32), (0.25, 0.75), "linear", TIGHT)
        assert res.u.values[0] == 0.25 and res.u.values[-1] == 0.75

    def test_result_energy_consistent(self):
        res = minimize(half_square(), make_uniform_grid(32), (0.0, 1.0), "linear", TIGHT)
        assert res.energy == pytest.approx(
            energy_value(res.u, half_square()), rel=1e-14
        )
        assert res.converged and res.grad_norm <= TIGHT.grad_tol

    def test_quadratic_minimizer_reflection_symmetry(self):
        res = minimize(half_square(), make_uniform_grid(64), (0.0, 1.0), "linear", TIGHT)
        v = res.u.values
        assert np.max(np.abs(v + v[::-1] - 1.0)) <= 10 * TIGHT.grad_tol

    def test_deterministic_traces(self):
        g = make_uniform_grid(32)
        r1 = minimize(two_well_bare(), g, (0.0, 0.0), "random", TIGHT)
        r2 = minimize(two_well_bare(), g, (0.0, 0.0), "random", TIGHT)
        assert r1.trace == r2.trace
        assert np.array_equal(r1.u.values, r2.u.values)

    def test_plain_gradient_descent_mode(self):
        cfg = SolverConfig(grad_tol=1e-5, max_iters=20000, memory=0)
        res = minimize(quadratic_mass(), make_uniform_grid(16), (0.0, 1.0), "linear", cfg)
        assert res.converged

    def test_non_finite_trial_step_is_rejected(self):
        # the first full steps overflow |U|^40; they must shrink, not raise
        with np.errstate(over="ignore"):
            res = minimize(power_p(40), make_uniform_grid(64), (0.0, 1.0), "hat",
                           SolverConfig(max_iters=50))
        energies = [e for e, _ in res.trace]
        assert res.iters == 50
        assert np.all(np.isfinite(energies))
        assert all(b <= a for a, b in zip(energies, energies[1:]))

    def test_max_iters_reports_nonconvergence(self):
        cfg = SolverConfig(grad_tol=1e-14, max_iters=3)
        res = minimize(half_square(), make_uniform_grid(32), (0.0, 1.0), "linear", cfg)
        assert not res.converged
        assert res.iters == 3


class TestContinuation:
    def test_half_square_deltas_decrease(self):
        cr = continuation_refine(half_square(), (0.0, 1.0), 16, 64, cfg=TIGHT)
        assert isinstance(cr, ContinuationResult)
        assert cr.levels == [16, 32, 64]
        assert cr.deltas[1] < cr.deltas[0]

    def test_quad_mass_delta_recorded(self):
        # the minimizer keeps a sharpening end-point layer, so the inter-level
        # gap stays O(1); record it rather than expecting mesh convergence
        cr = continuation_refine(quadratic_mass(), (0.0, 1.0), 16, 32, cfg=TIGHT)
        assert cr.result.converged
        assert 0.2 < cr.deltas[0] < 0.4

    def test_two_well_bare_delta_reported_not_asserted(self):
        cr = continuation_refine(two_well_bare(), (0.0, 0.0), 32, 64, cfg=TIGHT, init="zero")
        assert len(cr.deltas) == 1
        assert np.isfinite(cr.deltas[0])

    def test_bad_ladder(self):
        with pytest.raises(ValueError):
            continuation_refine(half_square(), (0.0, 1.0), 16, 48)
