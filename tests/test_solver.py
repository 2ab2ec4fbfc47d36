import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nlvar
from nlvar import solver
from nlvar.energy import energy_value, value_and_grad
from nlvar.grid import Grid1D, NodalFunction
from nlvar.integrands import half_square, power_p, quadratic_mass, two_well_bare, two_well_full
from nlvar.solver import (
    PRECONDITION_MAX_N,
    ContinuationResult,
    SolverConfig,
    _half_square_hessian,
    _preconditioner,
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
            {"grad_tol": float("nan")},
            {"grad_tol": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_default_grad_tol_scales_with_n(self):
        assert default_grad_tol(128) == 1e-8
        assert default_grad_tol(256) == 1e-6

    def test_default_config_stops_where_no_config_does(self):
        # both resolve grad_tol to default_grad_tol(256) = 1e-6
        grid = Grid1D(256)
        a = minimize(power_p(3), grid, (0.0, 1.0), cfg=SolverConfig())
        b = minimize(power_p(3), grid, (0.0, 1.0), cfg=None)
        assert a.iters == b.iters and a.trace == b.trace
        assert a.u.values.tobytes() == b.u.values.tobytes()


class TestInitialGuess:
    def test_linear(self):
        u = make_initial_guess(Grid1D(4), (0.0, 1.0), "linear")
        assert np.allclose(u.values, [0, 0.25, 0.5, 0.75, 1.0])

    def test_zero_keeps_ends(self):
        u = make_initial_guess(Grid1D(4), (0.0, 1.0), "zero")
        assert u.values[0] == 0.0 and u.values[-1] == 1.0
        assert np.all(u.values[1:-1] == 0.0)

    def test_random_is_seeded(self):
        g = Grid1D(16)
        u1 = make_initial_guess(g, (0.0, 1.0), "random", seed=5)
        u2 = make_initial_guess(g, (0.0, 1.0), "random", seed=5)
        u3 = make_initial_guess(g, (0.0, 1.0), "random", seed=6)
        assert np.array_equal(u1.values, u2.values)
        assert not np.array_equal(u1.values, u3.values)

    def test_infeasible_nodal_init_rejected(self):
        g = Grid1D(4)
        bad = NodalFunction(g, np.ones(5))
        with pytest.raises(ValueError):
            make_initial_guess(g, (0.0, 1.0), bad)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_initial_guess(Grid1D(4), (0.0, 1.0), "spline")


class TestMinimize:
    def test_half_square_beats_linear(self):
        res = minimize(half_square(), Grid1D(64), (0.0, 1.0), "linear", TIGHT)
        assert res.converged
        assert res.energy < 0.5 - 1e-3

    def test_quadratic_mass_unique_minimizer(self):
        g = Grid1D(64)
        r1 = minimize(quadratic_mass(), g, (0.0, 1.0), "linear", TIGHT)
        r2 = minimize(quadratic_mass(), g, (0.0, 1.0), "random", TIGHT)
        assert r1.converged and r2.converged
        assert np.max(np.abs(r1.u.values - r2.u.values)) <= 1e-5

    def test_two_well_bare_zero_start_never_increases(self):
        res = minimize(two_well_bare(), Grid1D(64), (0.0, 0.0), "zero", TIGHT)
        assert res.energy <= 0.25

    def test_energy_trace_monotone(self):
        res = minimize(quadratic_mass(), Grid1D(48), (0.0, 1.0), "random", TIGHT)
        energies = [e for e, _ in res.trace]
        assert all(b <= a for a, b in zip(energies, energies[1:]))

    def test_end_values_bit_exact(self):
        res = minimize(half_square(), Grid1D(32), (0.25, 0.75), "linear", TIGHT)
        assert res.u.values[0] == 0.25 and res.u.values[-1] == 0.75

    def test_result_energy_consistent(self):
        res = minimize(half_square(), Grid1D(32), (0.0, 1.0), "linear", TIGHT)
        assert res.energy == pytest.approx(
            energy_value(res.u, half_square()), rel=1e-14
        )
        assert res.converged and res.grad_norm <= TIGHT.grad_tol

    def test_quadratic_minimizer_reflection_symmetry(self):
        res = minimize(half_square(), Grid1D(64), (0.0, 1.0), "linear", TIGHT)
        v = res.u.values
        assert np.max(np.abs(v + v[::-1] - 1.0)) <= 10 * TIGHT.grad_tol

    def test_deterministic_traces(self):
        g = Grid1D(32)
        r1 = minimize(two_well_bare(), g, (0.0, 0.0), "random", TIGHT)
        r2 = minimize(two_well_bare(), g, (0.0, 0.0), "random", TIGHT)
        assert r1.trace == r2.trace
        assert np.array_equal(r1.u.values, r2.u.values)

    def test_non_finite_trial_step_is_rejected(self):
        # the first full steps overflow |U|^40; they must shrink, not raise,
        # and the overflow of a rejected trial must not warn either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = minimize(power_p(40), Grid1D(64), (0.0, 1.0), "hat",
                           SolverConfig(max_iters=50))
        energies = [e for e, _ in res.trace]
        assert res.iters == 50
        assert np.all(np.isfinite(energies))
        assert all(b <= a for a, b in zip(energies, energies[1:]))

    def test_max_iters_reports_nonconvergence(self):
        # half-square converges in one preconditioned step; power:3 needs more
        cfg = SolverConfig(grad_tol=1e-14, max_iters=3)
        res = minimize(power_p(3), Grid1D(32), (0.0, 1.0), "linear", cfg)
        assert not res.converged
        assert res.iters == 3

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_half_square_tight_tolerance_does_not_stall(self, tol):
        # without the preconditioner 5000 iterations made no progress here
        cfg = SolverConfig(grad_tol=tol, max_iters=100)
        res = minimize(half_square(), Grid1D(512), (0.0, 1.0), "linear", cfg)
        assert res.converged and res.iters <= 3

    @pytest.mark.parametrize("W, most", [(quadratic_mass(), 20), (power_p(3), 40)],
                             ids=["quad-mass", "power:3"])
    def test_preconditioned_iterations(self, W, most):
        # 86 and 152 iterations with gamma I
        cfg = SolverConfig(grad_tol=1e-6, max_iters=200)
        res = minimize(W, Grid1D(512), (0.0, 1.0), "linear", cfg)
        assert res.converged and res.iters <= most


def unpack_lower(packed: np.ndarray, m: int) -> np.ndarray:
    """Symmetric m x m matrix from LAPACK's lower packed storage."""
    full = np.zeros((m, m))
    rows, cols = np.tril_indices(m)
    order = np.lexsort((rows, cols))  # column by column
    full[rows[order], cols[order]] = packed
    return full + np.tril(full, -1).T


class TestPreconditioner:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 64, 129])
    def test_packed_matrix_is_half_square_hessian(self, n):
        # the gradient is affine, so unit-step differences are exact columns
        grid, W = Grid1D(n), half_square()
        g0 = value_and_grad(NodalFunction(grid, np.zeros(n + 1)), W)[1]
        hessian = np.empty((n - 1, n - 1))
        for k in range(n - 1):
            v = np.zeros(n + 1)
            v[k + 1] = 1.0
            hessian[:, k] = value_and_grad(NodalFunction(grid, v), W)[1] - g0
        P = unpack_lower(_half_square_hessian(n), n - 1)
        assert np.max(np.abs(P - hessian)) <= 1e-10 * np.max(np.abs(hessian))

    def test_one_cell_has_no_interior_nodes(self):
        assert _half_square_hessian(1).size == 0

    @pytest.mark.parametrize("W, n", [(two_well_bare(), 64), (two_well_full(), 64),
                                      (half_square(), 1), (half_square(), PRECONDITION_MAX_N + 1)],
                             ids=["two-well-bare", "two-well", "one-cell", "large-n"])
    def test_factors_nothing_outside_its_range(self, W, n, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dpptrf called")

        monkeypatch.setattr(solver, "dpptrf", refuse)
        q = np.arange(3.0)
        assert _preconditioner(W, n)(q) is q

    def test_solve_inverts_packed_matrix(self):
        n = 64
        P = unpack_lower(_half_square_hessian(n), n - 1)
        x = np.random.default_rng(3).standard_normal(n - 1)
        solve = _preconditioner(power_p(3), n)
        assert np.max(np.abs(solve(P @ x) - x)) <= 1e-10 * np.max(np.abs(x))

    def test_outputs_do_not_depend_on_blas_threads(self):
        # a full Cholesky (dpotrf) changes its bits with the thread count
        # from n = 256 on; the packed one must not
        script = (
            "import sys\n"
            "from nlvar import Grid1D, integrand_by_name, minimize\n"
            "for name in ('power:3', 'quad-mass'):\n"
            "    res = minimize(integrand_by_name(name), Grid1D(512), (0.0, 1.0))\n"
            "    sys.stdout.write(res.u.values.tobytes().hex() + '\\n')\n"
        )
        src = str(Path(nlvar.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, env=env, timeout=120, check=True)
            outputs.append(proc.stdout)
        assert len(outputs[0].split()) == 2
        assert outputs[0] == outputs[1]


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
