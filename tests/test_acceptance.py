"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two criteria assert statistics that the prescribed discretization provably
cannot deliver (see the notes next to criterion 5 and criterion 8); those are
marked strict-xfail and accompanied by a passing test of the attainable
statement.
"""

import numpy as np
import pytest

from nlvar.cli import main as cli_main
from nlvar.curveio import read_curve
from nlvar.energy import energy_gradient, energy_value
from nlvar.grid import Grid1D, NodalFunction
from nlvar.integrands import (
    half_square,
    power_p,
    quadratic_mass,
    two_well_bare,
    two_well_full,
)
from nlvar.optimality import residual, residual_report
from nlvar.reference import local_exp_solution, normalize_k, ode_approx_profile
from nlvar.solver import SolverConfig, minimize

from helpers import constant

LN3 = np.log(3.0)
TIGHT = SolverConfig(grad_tol=1e-8, max_iters=50000)


def report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def solve_half_square(n):
    return minimize(half_square(), Grid1D(n), (0.0, 1.0), "linear", TIGHT)


def test_criterion_1_affine_exactness():
    worst = 0.0
    for n in (16, 64, 256):
        u = NodalFunction.linear(Grid1D(n), 0.0, 1.0)
        worst = max(worst, abs(energy_value(u, power_p(2)) - 1.0))
        worst = max(worst, abs(energy_value(u, half_square()) - 0.5))
    report("1 affine exactness", worst <= 1e-12, f"max err {worst:.2e}")


def test_criterion_2_constant_minimizers():
    worst = 0.0
    for c in (0.0, 1.0, -3.0):
        for p in (2, 3, 4):
            u = constant(Grid1D(32), c)
            worst = max(worst, energy_value(u, power_p(p)))
    report("2 constant minimizers", worst <= 1e-14, f"max energy {worst:.2e}")


def test_criterion_3_gradient_oracle():
    integrands = [power_p(2), power_p(3), power_p(4), half_square(),
                  quadratic_mass(), two_well_full(), two_well_bare()]
    g = Grid1D(32)
    step = 1e-6
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(-1.0, 1.0, 33)
        for integrand in integrands:
            analytic = energy_gradient(NodalFunction(g, vals), integrand)
            fd = np.empty(31)
            for k in range(1, 32):
                vp, vm = vals.copy(), vals.copy()
                vp[k] += step
                vm[k] -= step
                fd[k - 1] = (
                    energy_value(NodalFunction(g, vp), integrand)
                    - energy_value(NodalFunction(g, vm), integrand)
                ) / (2 * step)
            rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1.0)
            worst = max(worst, float(rel.max()))
    report("3 gradient oracle", worst <= 1e-6, f"max rel err {worst:.2e}")


def test_criterion_4_linear_not_optimal():
    n = 128
    u_lin = NodalFunction.linear(Grid1D(n), 0.0, 1.0)
    r = residual(u_lin, half_square(), 0.25)
    res = solve_half_square(n)
    margin = 0.5 - res.energy
    ok = abs(r - (-2 * LN3)) <= 1e-2 and res.converged and margin >= 1e-3
    report(
        "4 linear non-optimality",
        ok,
        f"residual {r:.5f} vs {-2 * LN3:.5f}; solver margin {margin:.4f}",
    )


# Criterion 5 as literally stated (all-interior-node l2 norm <= 1e-2) is
# unattainable: the p=2 discrete minimizer develops end-point layers (point
# constraints have zero capacity in the underlying fractional space), and
# the layer nodes alone contribute l2 ~ 1.7 at n=128. Stationarity does
# transfer in the central band, tested below. See the decisions ledger.
@pytest.mark.xfail(
    strict=True,
    reason="end-point layers of the p=2 minimizer dominate the all-node l2 norm",
)
def test_criterion_5_stationarity_literal():
    norms = [residual_report(solve_half_square(n).u, half_square()).norm_l2
             for n in (128, 256)]
    report(
        "5 stationarity (literal all-node l2)",
        norms[0] <= 1e-2 and norms[1] <= norms[0],
        f"l2 {norms[0]:.3g} -> {norms[1]:.3g}",
    )


def test_criterion_5_stationarity_central_band():
    norms = [residual_report(solve_half_square(n).u, half_square()).norm_l2_central
             for n in (128, 256)]
    report(
        "5 stationarity (central band)",
        norms[0] <= 1e-2 and norms[1] <= norms[0],
        f"central l2 {norms[0]:.3g} -> {norms[1]:.3g}",
    )


def test_criterion_6_uniqueness_symmetry():
    g = Grid1D(64)
    r1 = minimize(half_square(), g, (0.0, 1.0), "linear", TIGHT)
    r2 = minimize(half_square(), g, (0.0, 1.0), "random", TIGHT)
    gap = float(np.max(np.abs(r1.u.values - r2.u.values)))
    v = r1.u.values
    refl = float(np.max(np.abs(v + v[::-1] - 1.0)))
    report("6 uniqueness/symmetry", gap <= 1e-5 and refl <= 1e-5,
           f"init gap {gap:.2e}, reflection {refl:.2e}")


def test_criterion_7_bolza_trivial_solution():
    u = constant(Grid1D(128), 0.0)
    rep = residual_report(u, two_well_full())
    report("7 Bolza trivial solution", rep.norm_sup <= 1e-10,
           f"norm_sup {rep.norm_sup:.2e}")


def _pv_errors(n):
    # for the identity map, -1/2 x the half-square residual is the paired
    # quadrature of the principal value int dX / (X - x) = log((1 - x) / x)
    g = Grid1D(n)
    u = NodalFunction.linear(g, 0.0, 1.0)
    rep = residual_report(u, half_square())
    return np.abs(-0.5 * rep.residuals - np.log((1.0 - rep.x_points) / rep.x_points))


# Criterion 8 as literally stated (node-wise max error halving) is
# unattainable: the discrete principal value at a node is a fixed sum, its
# error at the boundary-adjacent nodes is Theta(1) in n (0.0365 at both
# n=64 and n=128) and at fixed interior x it is O(h^2) (ratio 0.25); only
# the mean over interior nodes behaves like C/n. See the decisions ledger.
@pytest.mark.xfail(
    strict=True,
    reason="node-wise max error is Theta(1) at boundary-adjacent nodes",
)
def test_criterion_8_pv_convergence_literal():
    maxima = [float(_pv_errors(n).max()) for n in (64, 128)]
    ratio = maxima[1] / maxima[0]
    report("8 pv convergence (literal max)", 0.4 <= ratio <= 0.6,
           f"max {maxima[0]:.3g} -> {maxima[1]:.3g}, ratio {ratio:.3f}")


def test_criterion_8_pv_convergence_mean():
    means = [float(_pv_errors(n).mean()) for n in (64, 128)]
    ratio = means[1] / means[0]
    report("8 pv convergence (mean)", 0.4 <= ratio <= 0.6,
           f"mean {means[0]:.3g} -> {means[1]:.3g}, ratio {ratio:.3f}")


def test_criterion_9_ode_pipeline(tmp_path, capsys):
    k = normalize_k()
    profile = ode_approx_profile(Grid1D(256))
    ends_ok = (
        profile.u(0.0) == 0.0
        and abs(profile.u(1.0) - 1.0) <= 1e-6
        and abs(profile.u(0.5) - 0.5) <= 1e-6
    )
    code = cli_main(["reproduce", "fig1-ode-approx", "--out", str(tmp_path)])
    capsys.readouterr()
    both = (tmp_path / "fig1_k-normalized.csv").exists() and (
        tmp_path / "fig1_k2.csv"
    ).exists()
    report("9 ode-approximation pipeline",
           abs(k - 2.5162088822971746) <= 1e-8 and ends_ok and code == 0 and both,
           f"k {k:.10f}")


def test_criterion_10_fig3_quad_mass():
    n = 128
    res = minimize(quadratic_mass(), Grid1D(n), (0.0, 1.0), "linear", TIGHT)
    overlay = local_exp_solution(res.u.grid.nodes)
    ends_ok = (
        res.u.values[0] == 0.0
        and res.u.values[-1] == 1.0
        and abs(overlay[0]) <= 1e-9
        and abs(overlay[-1] - 1.0) <= 1e-9
    )
    sup = float(np.max(np.abs(res.u.values - overlay)))
    report("10 quad-mass vs local solution", res.converged and ends_ok,
           f"sup distance {sup:.4f} (reported, no threshold)")


def test_criterion_11_fig4_bolza(tmp_path, capsys):
    code1 = cli_main(["reproduce", "fig4-bolza", "--n", "128", "--seed", "0",
                      "--out", str(tmp_path / "a")])
    out1 = capsys.readouterr().out
    code2 = cli_main(["reproduce", "fig4-bolza", "--n", "128", "--seed", "0",
                      "--out", str(tmp_path / "b")])
    capsys.readouterr()
    same = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in ("fig4_bolza_bare_n64.csv", "fig4_bolza_bare_n128.csv")
    )
    energies = []
    for n in (64, 128):
        x, u = read_curve(tmp_path / "a" / f"fig4_bolza_bare_n{n}.csv")
        energies.append(energy_value(NodalFunction(Grid1D(n), u),
                                     two_well_bare()))
    sup_line = next(l for l in out1.splitlines() if "sup_distance" in l)
    ok = code1 == 0 and code2 == 0 and same and all(e <= 0.25 for e in energies)
    report("11 two-well figure", ok,
           f"energies {energies[0]:.4f}, {energies[1]:.4f}; {sup_line.strip()}")
