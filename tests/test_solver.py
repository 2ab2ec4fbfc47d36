import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import lapack

import nlvar
from nlvar import energy, solver
from nlvar.cli import EXIT_NOCONV, EXIT_NUMERIC, main
from nlvar.energy import (
    NonFiniteEnergyError,
    _half_square_inverse,
    _hessian,
    _packed_inverse,
    energy_value,
    value_and_grad,
)
from nlvar.grid import Grid1D, GridError, NodalFunction
from nlvar.integrands import (
    half_square,
    integrand_by_name,
    power_p,
    quadratic_mass,
    two_well_bare,
    two_well_full,
)
from nlvar.solver import (
    NEWTON_SWITCH,
    PRECONDITION_MAX_N,
    SolverConfig,
    default_grad_tol,
    make_initial_guess,
    minimize,
)

from helpers import ContinuationResult, continuation_refine

TIGHT = SolverConfig(grad_tol=1e-8, max_iters=50000)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": 0},
            {"max_iters": float("nan")},
            {"max_iters": 1.5},
            {"grad_tol": 0.0},
            {"grad_tol": float("nan")},
            {"grad_tol": float("inf")},
            {"max_iters": True},
            {"grad_tol": True},
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

    @pytest.mark.parametrize("bc", [(7.264, 0.829), (2.308, -2.326), (0.1, 0.7), (-0.0, 1.0)])
    @pytest.mark.parametrize("init", solver.INITIAL_GUESSES)
    def test_named_starts_keep_ends_exactly(self, init, bc):
        u = make_initial_guess(Grid1D(8), bc, init, seed=1)
        assert (u.values[0], u.values[-1]) == bc
        assert u.values[[0, -1]].tobytes() == np.array(bc).tobytes()  # -0.0 keeps its sign

    def test_infeasible_nodal_init_rejected(self):
        g = Grid1D(4)
        bad = NodalFunction(g, np.ones(5))
        with pytest.raises(ValueError):
            make_initial_guess(g, (0.0, 1.0), bad)

    def test_start_on_another_grid_rejected(self):
        with pytest.raises(GridError):
            make_initial_guess(Grid1D(4), (0.0, 1.0), NodalFunction.linear(Grid1D(8), 0.0, 1.0))

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_initial_guess(Grid1D(4), (0.0, 1.0), "spline")


class TestMinimize:
    @pytest.mark.parametrize("bc", [(7.264, 0.829), (2.308, -2.326), (0.1, 0.7)])
    @pytest.mark.parametrize("init", solver.INITIAL_GUESSES)
    def test_any_end_values_from_every_start(self, init, bc):
        res = minimize(half_square(), Grid1D(16), bc, init, TIGHT)
        assert res.converged
        assert (res.u.values[0], res.u.values[-1]) == bc

    def test_half_square_beats_linear(self):
        res = minimize(half_square(), Grid1D(64), (0.0, 1.0), "linear", TIGHT)
        assert res.converged
        assert res.energy < 0.5 - 1e-3

    def test_named_random_start_is_make_initial_guess_seed_0(self):
        grid = Grid1D(32)
        named = minimize(two_well_bare(), grid, (0.0, 0.0), "random")
        start = make_initial_guess(grid, (0.0, 0.0), "random")
        built = minimize(two_well_bare(), grid, (0.0, 0.0), start)
        assert named.u.values.tobytes() == built.u.values.tobytes()
        assert named.trace == built.trace

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


class TestEvaluations:
    @pytest.mark.parametrize("W, n, grad_tol, iters, evaluations", [
        (half_square(), 512, 1e-6, 1, 2),
        (quadratic_mass(), 128, None, None, 11),  # fig3's solve
    ], ids=["problem1", "fig3-quad-mass"])
    def test_counts(self, W, n, grad_tol, iters, evaluations):
        res = minimize(W, Grid1D(n), (0.0, 1.0), "linear", SolverConfig(grad_tol=grad_tol))
        assert res.converged and res.evaluations == evaluations
        assert iters is None or res.iters == iters

    def test_every_evaluation_goes_through_one_name(self, monkeypatch):
        # the start and every trial, on raw nodal values; no NodalFunction
        # is built for a trial
        calls = []

        def counted(grid, values, integrand, with_grad):
            calls.append(values.copy())
            return quadrature(grid, values, integrand, with_grad)

        quadrature = solver._quadrature
        monkeypatch.setattr(solver, "_quadrature", counted)
        res = minimize(two_well_full(), Grid1D(32), (0.0, 0.0), "random", TIGHT)
        assert len(calls) == res.evaluations > res.iters + 1
        assert res.u.values.tobytes() == calls[-1].tobytes()
        assert all(v[0] == 0.0 and v[-1] == 0.0 for v in calls)

    # the benchmark's largest cost: bolza, two-well at n = 256 from the
    # seed-0 uniform noise of 0.05, takes the near/far path on every
    # evaluation. The count itself moves with any bit, so it is not pinned
    def test_bench_bolza_takes_the_path_on_every_evaluation(self, monkeypatch):
        plans = []

        def recorded(values, c):
            plans.append(near_far(values, c))
            return plans[-1]

        near_far = energy._near_far
        monkeypatch.setattr(energy, "_near_far", recorded)
        grid = Grid1D(256)
        noise = 0.05 * np.random.default_rng(0).uniform(-1.0, 1.0, grid.n - 1)
        start = NodalFunction(grid, np.concatenate([[0.0], noise, [0.0]]), 0.0, 0.0)
        res = minimize(two_well_full(), grid, (0.0, 0.0), start, SolverConfig(grad_tol=1e-6))
        assert res.converged
        assert sum(plan is not None for plan in plans) == res.evaluations == len(plans)

    def test_non_finite_trial_is_an_evaluation_error(self):
        # a trial with an infinite nodal value raises inside the kernel,
        # where the line search rejects it
        grid = Grid1D(8)
        values = np.zeros(9)
        values[4] = np.inf
        with pytest.raises(NonFiniteEnergyError):
            solver._quadrature(grid, values, two_well_full(), True)


class TestLineSearchExits:
    @pytest.fixture
    def rejecting_kernel(self, monkeypatch):
        """The kernel evaluates the start and rejects every trial after it;
        the list records each call."""
        calls = []

        def kernel(grid, values, integrand, with_grad):
            calls.append(values.copy())
            if len(calls) > 1:
                raise NonFiniteEnergyError("trial rejected")
            return quadrature(grid, values, integrand, with_grad)

        quadrature = solver._quadrature
        monkeypatch.setattr(solver, "_quadrature", kernel)
        return calls

    def test_underflow_raises_with_the_trace(self, rejecting_kernel):
        grid, W = Grid1D(16), power_p(3)
        with pytest.raises(solver.LineSearchError, match="at iteration 0 ") as info:
            minimize(W, grid, (0.0, 1.0), "hat")
        f0, g0 = value_and_grad(make_initial_guess(grid, (0.0, 1.0), "hat"), W)
        assert info.value.trace == [(f0, float(np.linalg.norm(g0)))]
        # the start, then trials at t = 2^0 .. 2^-66; 2^-67 < 1e-20 ends it
        assert len(rejecting_kernel) == 68

    def test_underflow_is_a_numeric_error_of_the_cli(self, rejecting_kernel, capsys):
        assert main(["minimize", "--problem", "problem1", "--n", "16"]) == EXIT_NUMERIC
        assert "numeric error: line search underflow" in capsys.readouterr().err

    def test_uphill_direction_falls_back_to_steepest_descent(self, monkeypatch):
        # every two-loop direction is +g, so g'd > 0 and the step is along -g
        calls = []

        def uphill(grad, pairs, solve):
            calls.append(grad)
            return grad.copy()

        monkeypatch.setattr(solver, "_two_loop", uphill)
        res = minimize(half_square(), Grid1D(8), (0.0, 1.0), "random")
        energies = [e for e, _ in res.trace]
        assert all(b <= a for a, b in zip(energies, energies[1:]))
        assert res.converged and res.iters == 12
        assert len(calls) == res.iters - res.newton_steps == 11


def textbook_two_loop(grad, s_list, y_list, solve):
    """Nocedal & Wright, Algorithm 7.4: rho recomputed from s and y on every
    call, the initial inverse Hessian gamma * solve from the newest pair."""
    q = grad.copy()
    rho = [1.0 / float(y @ s) for s, y in zip(s_list, y_list)]
    alpha = [0.0] * len(s_list)
    for i in reversed(range(len(s_list))):
        alpha[i] = rho[i] * float(s_list[i] @ q)
        q -= alpha[i] * y_list[i]
    r = solve(q)
    if s_list:
        s, y = s_list[-1], y_list[-1]
        r *= float(s @ y) / float(y @ solve(y))
    for i in range(len(s_list)):
        beta = rho[i] * float(y_list[i] @ r)
        r += (alpha[i] - beta) * s_list[i]
    return -r


class TestTwoLoop:
    @pytest.mark.parametrize("W, n, bc, init, preconditioned", [
        (two_well_full(), 32, (0.0, 0.0), "random", False),
        # from "linear", Newton steps end the solve before the memory fills
        (power_p(3), 64, (0.0, 1.0), "hat", True),
    ], ids=["two-well-identity", "power:3-preconditioned"])
    def test_matches_textbook_bit_for_bit(self, W, n, bc, init, preconditioned, monkeypatch):
        # the stored pair scalars give the directions of the recursion that
        # recomputes them, on the (s, y) pairs of a real run
        calls = []

        def recording(grad, pairs, solve):
            d = two_loop(grad, pairs, solve)
            calls.append((grad.copy(), [p.s for p in pairs], [p.y for p in pairs], solve, d))
            return d

        two_loop = solver._two_loop
        monkeypatch.setattr(solver, "_two_loop", recording)
        res = minimize(W, Grid1D(n), bc, init, SolverConfig(grad_tol=1e-8))
        assert res.converged and len(calls) == res.iters - res.newton_steps
        assert max(len(s_list) for _, s_list, *_ in calls) == solver.MEMORY
        for grad, s_list, y_list, solve, d in calls:
            probe = np.ones(n - 1)
            assert (solve(probe) is not probe) == preconditioned
            assert textbook_two_loop(grad, s_list, y_list, solve).tobytes() == d.tobytes()


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
        P = unpack_lower(_hessian(grid, np.zeros(n + 1), W), n - 1)
        assert np.max(np.abs(P - hessian)) <= 1e-10 * np.max(np.abs(hessian))

    @pytest.mark.parametrize("W, n", [(two_well_bare(), 64), (two_well_full(), 64),
                                      (half_square(), PRECONDITION_MAX_N + 1)],
                             ids=["two-well-bare", "two-well", "large-n"])
    def test_factors_nothing_outside_its_range(self, W, n, monkeypatch):
        # one iteration far above the Newton switch, where only P could be
        # factored
        def refuse(*args, **kwargs):
            raise AssertionError("dpptrf called")

        monkeypatch.setattr(lapack, "dpptrf", refuse)
        res = minimize(W, Grid1D(n), (0.0, 1.0), "random", SolverConfig(max_iters=1))
        assert res.iters == 1 and res.trace[0][1] > NEWTON_SWITCH

    def test_factors_p_for_a_convex_density(self, monkeypatch, cold_p_factor):
        # the same solve as above, on a density where P applies
        calls = []

        def recording(m, ap, **kwargs):
            calls.append(m)
            return factor(m, ap, **kwargs)

        factor = lapack.dpptrf
        monkeypatch.setattr(lapack, "dpptrf", recording)
        res = minimize(power_p(3), Grid1D(64), (0.0, 1.0), "random", SolverConfig(max_iters=1))
        assert res.iters == 1 and res.trace[0][1] > NEWTON_SWITCH and calls == [63]

    @pytest.fixture
    def dpptrf_calls(self, monkeypatch):
        """The order of each dpptrf call from here on."""
        calls = []

        def recording(m, ap, **kwargs):
            calls.append(m)
            return factor(m, ap, **kwargs)

        factor = lapack.dpptrf
        monkeypatch.setattr(lapack, "dpptrf", recording)
        return calls

    def test_factors_p_once_per_n(self, cold_p_factor, dpptrf_calls):
        for _ in range(2):
            res = minimize(power_p(3), Grid1D(64), (0.0, 1.0), "random", SolverConfig(max_iters=1))
            assert res.iters == 1 and res.trace[0][1] > NEWTON_SWITCH
        assert dpptrf_calls == [63]

    def test_failed_factor_is_not_kept(self, monkeypatch, cold_p_factor, dpptrf_calls):
        recording = lapack.dpptrf
        monkeypatch.setattr(lapack, "dpptrf", lambda m, ap, **kw: (ap, 1))
        with pytest.raises(np.linalg.LinAlgError):
            minimize(power_p(3), Grid1D(64), (0.0, 1.0))
        monkeypatch.setattr(lapack, "dpptrf", recording)
        res = minimize(power_p(3), Grid1D(64), (0.0, 1.0))
        assert res.converged and dpptrf_calls[0] == 63

    def test_kept_factor_is_read_only(self, cold_p_factor):
        solve = _half_square_inverse(64)
        assert _half_square_inverse(64) is solve
        factor, = (cell.cell_contents for cell in solve.__closure__
                   if isinstance(cell.cell_contents, np.ndarray))
        with pytest.raises(ValueError):
            factor[0] = 1.0

    def test_solve_inverts_packed_matrix(self):
        n = 64
        grid, W = Grid1D(n), half_square()
        P = unpack_lower(_hessian(grid, np.zeros(n + 1), W), n - 1)
        x = np.random.default_rng(3).standard_normal(n - 1)
        solve = _packed_inverse(_hessian(grid, np.zeros(n + 1), W), n - 1)
        assert np.max(np.abs(solve(P @ x) - x)) <= 1e-10 * np.max(np.abs(x))

    def test_outputs_do_not_depend_on_blas_threads(self):
        # a full Cholesky (dpotrf) changes its bits with the thread count
        # from n = 256 on; the packed ones must not, nor the Hessian's
        # assembly, which the Newton steps of all three solves read
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from nlvar import Grid1D, NodalFunction, integrand_by_name, minimize\n"
            "for name in ('power:3', 'quad-mass'):\n"
            "    res = minimize(integrand_by_name(name), Grid1D(512), (0.0, 1.0))\n"
            "    sys.stdout.write(res.u.values.tobytes().hex() + '\\n')\n"
            "grid = Grid1D(256)\n"
            "noise = 0.05 * np.random.default_rng(0).uniform(-1.0, 1.0, 255)\n"
            "start = NodalFunction(grid, np.concatenate([[0.0], noise, [0.0]]))\n"
            "res = minimize(integrand_by_name('two-well'), grid, (0.0, 0.0), start)\n"
            "assert res.newton_steps > 0\n"
            "sys.stdout.write(res.u.values.tobytes().hex() + '\\n')\n"
        )
        src = str(Path(nlvar.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, env=env, timeout=120, check=True)
            outputs.append(proc.stdout)
        assert len(outputs[0].split()) == 3
        assert outputs[0] == outputs[1]


DENSITIES = ("power:2", "power:3", "power:4", "half-square", "quad-mass", "two-well",
             "two-well-bare")


def smooth_profile(n: int) -> np.ndarray:
    x = Grid1D(n).nodes
    return x + 0.3 * np.sin(3.0 * x) + 0.1 * np.random.default_rng(n).uniform(-1.0, 1.0, n + 1)


def one_cell():
    """The fields of a one-cell grid that _hessian reads (Grid1D needs two)."""
    return SimpleNamespace(n=1, h=1.0, midpoints=np.array([0.5]))


class TestHessian:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 24, 129])
    @pytest.mark.parametrize("name", DENSITIES)
    def test_matches_gradient_differences(self, name, n):
        grid, W, values = Grid1D(n), integrand_by_name(name), smooth_profile(n)
        step = 1e-5
        columns = []
        for k in range(1, n):
            plus, minus = values.copy(), values.copy()
            plus[k] += step
            minus[k] -= step
            columns.append((value_and_grad(NodalFunction(grid, plus), W)[1]
                            - value_and_grad(NodalFunction(grid, minus), W)[1]) / (2 * step))
        differences = np.array(columns).T
        H = unpack_lower(_hessian(grid, values, W), n - 1)
        assert np.max(np.abs(H - differences)) <= 1e-8 * np.max(np.abs(differences))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 24, 129])
    def test_half_square_is_closed_form(self, n):
        # a matrix of n alone: the values do not enter it, bit for bit,
        # which lets P be built once per n, at zeros
        rough = np.random.default_rng(n).uniform(-1.0, 1.0, n + 1)
        P = _hessian(Grid1D(n), np.zeros(n + 1), half_square())
        H = _hessian(Grid1D(n), rough, half_square())
        assert H.tobytes() == P.tobytes()

    def test_one_cell_has_no_interior_nodes(self):
        assert _hessian(one_cell(), np.array([0.0, 1.0]), half_square()).size == 0

    def test_no_newton_step_above_the_size_cap(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("_hessian called")

        # the cap is read at each solve; at the cap itself Newton steps apply
        monkeypatch.setattr(solver, "PRECONDITION_MAX_N", 31)
        at_cap = minimize(quadratic_mass(), Grid1D(31), (0.0, 1.0), "linear", TIGHT)
        monkeypatch.setattr(solver, "_hessian", refuse)
        res = minimize(quadratic_mass(), Grid1D(32), (0.0, 1.0), "linear", TIGHT)
        assert at_cap.converged and at_cap.newton_steps >= 1
        assert res.converged and res.newton_steps == 0

    def test_newton_steps_reach_the_quasi_newton_minimizer(self, monkeypatch):
        grid = Grid1D(64)
        polished = minimize(quadratic_mass(), grid, (0.0, 1.0), "linear", TIGHT)
        monkeypatch.setattr(solver, "NEWTON_SWITCH", 0.0)
        res = minimize(quadratic_mass(), grid, (0.0, 1.0), "linear", TIGHT)
        assert res.converged and res.newton_steps == 0 and res.iters > 9
        assert polished.newton_steps >= 1 and polished.iters < res.iters
        assert np.max(np.abs(polished.u.values - res.u.values)) <= 1e-7

    def test_indefinite_hessian_keeps_the_two_loop_direction(self):
        # the zero function is a saddle of the bare two-well energy, where
        # phi''(0) = -1: the factor fails and no Newton step is taken
        grid = Grid1D(16)
        assert _packed_inverse(_hessian(grid, np.zeros(17), two_well_bare()), 15) is None
        # a density whose Hessian overflows, without the coefficients that
        # would refuse its phi''
        steep = replace(power_p(3), w_UU=lambda U: np.full_like(U, np.inf), phi_coefficients=None)
        assert _packed_inverse(_hessian(grid, grid.nodes.copy(), steep), 15) is None

    @pytest.mark.parametrize("W", [two_well_bare(), two_well_full()], ids=lambda W: W.name)
    def test_failed_attempt_ends_the_newton_steps(self, W, monkeypatch):
        # the start sits below the switch next to the saddle u = 0, where H
        # is indefinite; the quasi-Newton iterations then leave the saddle,
        # and without the first failure each of them would assemble H again
        calls = []

        def recording(*args):
            calls.append(args)
            return assemble(*args)

        assemble = solver._hessian
        monkeypatch.setattr(solver, "_hessian", recording)
        grid = Grid1D(32)
        noise = 1e-5 * np.random.default_rng(0).uniform(-1.0, 1.0, 31)
        start = NodalFunction(grid, np.concatenate([[0.0], noise, [0.0]]))
        res = minimize(W, grid, (0.0, 0.0), start, TIGHT)
        assert res.trace[0][1] < NEWTON_SWITCH and res.converged and res.iters > 50
        assert len(calls) == 1 and res.newton_steps == 0

    def test_newton_steps_start_below_the_switch(self, monkeypatch):
        calls = []

        def recording(grid, values, integrand):
            calls.append(values.copy())
            return assemble(grid, values, integrand)

        assemble = solver._hessian
        monkeypatch.setattr(solver, "_hessian", recording)
        grid, W = Grid1D(128), power_p(3)
        res = minimize(W, grid, (0.0, 1.0), "linear", TIGHT)
        assert res.converged and res.newton_steps >= 1
        norms = [np.linalg.norm(value_and_grad(NodalFunction(grid, v), W)[1]) for v in calls]
        assert norms and max(norms) < NEWTON_SWITCH
        gnorms = [g for _, g in res.trace[:-1]]
        assert len(calls) == sum(g < NEWTON_SWITCH for g in gnorms)


class TestRoundOffStall:
    """At these n and tolerances the solve without Newton steps ended after
    300 iterations at |g| between 6e-12 and 4.5e-9: every Armijo trial was
    decided by rounding."""

    @pytest.mark.parametrize("name, n, grad_tol", [
        ("quad-mass", 504, 1e-12),
        ("quad-mass", 508, 1e-12),
        ("quad-mass", 508, 1e-9),
        ("power:3", 500, 1e-12),
        ("power:3", 516, 1e-12),
    ])
    def test_converges(self, name, n, grad_tol):
        cfg = SolverConfig(grad_tol=grad_tol, max_iters=300)
        res = minimize(integrand_by_name(name), Grid1D(n), (0.0, 1.0), "linear", cfg)
        assert res.converged and res.grad_norm <= grad_tol
        assert res.newton_steps >= 1 and res.iters <= 30


class TestUnchangedStep:
    """With the default tolerance these convex solves reach a round-off floor
    above it (|g| 2.1e-8 and 1.26e-8 against 1e-8), where an accepted Newton
    step moves no bit of the iterate. The loop then repeated that step until
    max_iters; it stops after the first such step instead, unconverged."""

    @pytest.mark.parametrize("name, n, init", [("power:4", 16, "zero"), ("power:2.5", 33, "hat")])
    def test_stops_unconverged_with_the_spun_values(self, name, n, init):
        W, grid = integrand_by_name(name), Grid1D(n)
        res = minimize(W, grid, (0.0, 1.0), init)
        assert not res.converged and res.grad_norm > default_grad_tol(n)
        assert res.iters < 30 and len(res.trace) == res.iters + 1
        longer = minimize(W, grid, (0.0, 1.0), init, SolverConfig(max_iters=300))
        assert res.u.values.tobytes() == longer.u.values.tobytes()
        assert (res.energy, res.grad_norm, res.iters) == (longer.energy, longer.grad_norm,
                                                          longer.iters)

    def test_cli_exits_unconverged(self, tmp_path):
        code = main(["minimize", "--integrand", "power:4", "--n", "16", "--init", "zero",
                     "--out", str(tmp_path)])
        assert code == EXIT_NOCONV


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
        for n_start, n_end in [(16, 48), (8, 0), (8, -8), (0, 8), (-8, -8), (16, 8)]:
            with pytest.raises(ValueError, match="not n_start"):
                continuation_refine(half_square(), (0.0, 1.0), n_start, n_end)
