"""The names the benchmark's tracer (perfbench/tracer.py) patches on nlvar
must exist: a traced benchmark run fails on the first missing one."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import golden
import nlvar
import nlvar.cli  # noqa: F401  (the tracer patches the cli module too)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_patch_traces_minimize_and_energy_value():
    tracer = _tracer()
    minimize = nlvar.minimize
    with tracer.patch(nlvar):
        W = nlvar.integrand_by_name("half-square")
        res = nlvar.minimize(W, nlvar.Grid1D(8), (0.0, 1.0))
        value = nlvar.energy_value(res.u, W)
    assert value == res.energy
    assert {"solver.minimize", "energy.value", "integrands.w"} <= set(tracer.names)
    assert nlvar.minimize is minimize


def test_patch_traces_residual_report_and_reference_profile():
    tracer = _tracer()
    grid = nlvar.Grid1D(64)
    u = nlvar.NodalFunction(grid, grid.nodes ** 2)
    want = nlvar.residual_report(u, nlvar.power_p(3)).residuals
    with tracer.patch(nlvar):
        W = nlvar.integrand_by_name("power:3")
        report = nlvar.residual_report(u, W)
        profile = nlvar.ode_approx_profile(grid)
    assert np.array_equal(report.residuals, want)
    assert profile.params["nodal"][0] == 0.0
    assert {"optimality.residual_report", "integrands.w_U",
            "reference.ode_approx_profile"} <= set(tracer.names)


@pytest.mark.parametrize("name", golden.DENSITIES)
def test_traced_density_gives_the_same_bits(name):
    # the tracer copies a density by dataclasses.replace on the field names
    # w, w_u and w_U; a renamed field fails here, not in a traced benchmark run
    tracer = _tracer()
    W = nlvar.integrand_by_name(name)
    grid = nlvar.Grid1D(65)
    u = nlvar.NodalFunction(grid, grid.nodes + 0.2 * np.sin(7.0 * grid.nodes))
    value, grad = nlvar.value_and_grad(u, W)
    traced_value, traced_grad = nlvar.value_and_grad(u, tracer.integrand(W))
    assert traced_value == value
    assert np.array_equal(traced_grad, grad)
    assert {"integrands.w", "integrands.w_u", "integrands.w_U"} <= set(tracer.names)


@pytest.mark.parametrize("name", ["half-square", "two-well", "power:3"])
def test_traced_density_gives_the_same_bits_above_the_crossover(name):
    # dataclasses.replace carries phi_coefficients over, so the traced copy
    # takes the same near/far path
    tracer = _tracer()
    W = nlvar.integrand_by_name(name)
    grid = nlvar.Grid1D(4096)
    u = nlvar.NodalFunction(grid, grid.nodes + 0.2 * np.sin(7.0 * grid.nodes))
    value, grad = nlvar.value_and_grad(u, W)
    traced_value, traced_grad = nlvar.value_and_grad(u, tracer.integrand(W))
    assert traced_value == value
    assert np.array_equal(traced_grad, grad)
