"""The names the benchmark's tracer (perfbench/tracer.py) patches on nlvar
must exist: a traced benchmark run fails on the first missing one."""

import importlib.util
from pathlib import Path

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
