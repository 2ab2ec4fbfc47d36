"""Spans and counts recorded around calls into nlvar, from outside it.

`Tracer.patch` replaces public entry points (module and package
attributes, the `NodalFunction` constructor hook, the density callables the
benchmark builds) with wrappers that record one span per call: name, start, end,
parent span and an optional size (quadrature pairs, nodes, bytes,
iterations). The spans stay in memory until `write` dumps them as one JSON
file, and `layer_metrics` derives per-layer counts, self times and rates
from them. Span times are CPU times of the process, not scaled to the
reference speed of calibrate.py.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import time
from array import array
from pathlib import Path

import numpy as np

# per-layer metric -> unit; each is reported per timed round unless its
# name says "per call" (ms) or is a rate
LAYER_UNITS = {
    "solver.iters": "count",
    "solver.energy_calls": "count",
    "solver.gradient_calls": "count",
    "solver.self_s": "s",
    "grid.nodal_functions": "count",
    "energy.value_ms": "ms",
    "energy.gradient_ms": "ms",
    "energy.pairs_per_s": "1/s",
    "energy.self_s": "s",
    "integrands.eval_s": "s",
    "integrands.calls": "count",
    "optimality.report_ms": "ms",
    "optimality.nodes_per_s": "1/s",
    "reference.s": "s",
    "curveio.write_s": "s",
    "curveio.bytes": "bytes",
    "cli.self_s": "s",
}


class Tracer:
    """Spans kept as columns: name id, start, end, parent index (-1 for a
    root) and size (0 when the call has none)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name, self.parent = array("i"), array("i")
        self.start, self.end, self.size = array("d"), array("d"), array("d")
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, 0)

    def _open(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.size.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.process_time())
        return idx

    def _close(self, idx, size):
        self.end[idx] = time.process_time()
        self.size[idx] = size
        self._stack.pop()

    def wrap(self, name, fn, size=None):
        """fn recording a span per call; size(args, result) gives its size."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, 0)
                raise
            self._close(idx, size(args, result) if size else 0)
            return result

        return traced

    def integrand(self, integrand):
        """Copy of an nlvar Integrand whose three callables are traced."""
        return dataclasses.replace(
            integrand,
            w=self.wrap("integrands.w", integrand.w),
            w_u=self.wrap("integrands.w_u", integrand.w_u),
            w_U=self.wrap("integrands.w_U", integrand.w_U),
        )

    @contextlib.contextmanager
    def patch(self, nlvar):
        """Trace nlvar's public entry points for the duration of the block."""
        cli, solver, grid = nlvar.cli, nlvar.solver, nlvar.grid
        pairs = lambda args, _: args[0].grid.n ** 2
        written = lambda args, _: Path(args[0]).stat().st_size
        ref = lambda fn: self.wrap(f"reference.{fn.__name__}", fn)
        saved = []

        def setattr_saved(obj, attr, value):
            saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, value)

        post_init = grid.NodalFunction.__post_init__

        def traced_post_init(nodal):
            idx = self._open("grid.NodalFunction")
            try:
                post_init(nodal)
            finally:
                self._close(idx, 0)

        setattr_saved(grid.NodalFunction, "__post_init__", traced_post_init)
        setattr_saved(solver, "energy_value", self.wrap("energy.value", solver.energy_value, pairs))
        setattr_saved(solver, "energy_gradient",
                      self.wrap("energy.gradient", solver.energy_gradient, pairs))
        traced_minimize = self.wrap("solver.minimize", solver.minimize, lambda a, r: r.iters)
        setattr_saved(cli, "minimize", traced_minimize)
        setattr_saved(cli, "integrand_by_name",
                      lambda name, _f=cli.integrand_by_name: self.integrand(_f(name)))
        setattr_saved(cli, "write_curve", self.wrap("curveio.write_curve", cli.write_curve, written))
        setattr_saved(cli, "write_svg", self.wrap("curveio.write_svg", cli.write_svg, written))
        for fn in ("normalize_k", "ode_approx_derivative", "local_exp_solution"):
            setattr_saved(cli, fn, ref(getattr(cli, fn)))
        setattr_saved(cli, "main", self.wrap("cli.main", cli.main))
        # the package-level names the workloads call
        setattr_saved(nlvar, "minimize", traced_minimize)
        setattr_saved(nlvar, "energy_value", solver.energy_value)
        setattr_saved(nlvar, "energy_gradient", solver.energy_gradient)
        setattr_saved(nlvar, "residual_report",
                      self.wrap("optimality.residual_report", nlvar.residual_report,
                                lambda a, _: a[0].grid.n - 1))
        setattr_saved(nlvar, "ode_approx_profile", ref(nlvar.ode_approx_profile))
        setattr_saved(nlvar, "integrand_by_name",
                      lambda name, _f=nlvar.integrand_by_name: self.integrand(_f(name)))
        try:
            yield
        finally:
            for obj, attr, value in reversed(saved):
                setattr(obj, attr, value)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "names": self.names, "name": self.name.tolist(), "start": self.start.tolist(),
            "end": self.end.tolist(), "parent": self.parent.tolist(), "size": self.size.tolist(),
        }))

    # -- derived metrics -----------------------------------------------------

    def layer_metrics(self) -> dict:
        name, parent = np.asarray(self.name), np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        size = np.asarray(self.size)
        self_s = dur.copy()
        has_parent = parent >= 0
        np.subtract.at(self_s, parent[has_parent], dur[has_parent])
        # phase: the enclosing bench.* span, found by pointer jumping
        bench = np.array([n.startswith("bench.") for n in self.names])[name]
        phase = parent.copy()
        while True:
            up = (phase >= 0) & ~bench[np.maximum(phase, 0)]
            if not up.any():
                break
            phase[up] = parent[phase[up]]
        phase_name = np.where(phase >= 0, name[np.maximum(phase, 0)], -1)
        ids = {n: i for i, n in enumerate(self.names)}
        rounds = name == ids.get("bench.round", -2)
        per_round = 1.0 / rounds.sum()

        def select(prefix, where="bench.round"):
            wanted = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
            return np.isin(name, wanted) & (phase_name == ids.get(where, -2))

        def total(mask, value=dur):
            return float(value[mask].sum())

        def ratio(a, b):
            return a / b if b else 0.0

        def called_by(mask, caller):
            return mask & has_parent & (name[np.maximum(parent, 0)] == ids.get(caller, -2))

        minimize = select("solver.minimize")
        values, grads = select("energy.value"), select("energy.gradient")
        kernels = values | grads
        energy_calls = called_by(values, "solver.minimize")
        gradient_calls = called_by(grads, "solver.minimize")
        integrands = select("integrands.")
        reports = select("optimality.residual_report")
        writes = select("curveio.")
        mains = select("cli.main")

        metrics = {
            "solver.iters": total(minimize, size) * per_round,
            "solver.energy_calls": energy_calls.sum() * per_round,
            "solver.gradient_calls": gradient_calls.sum() * per_round,
            # minimize minus its energy and gradient calls; NodalFunction
            # constructions and the two-loop recursion count as solver time
            "solver.self_s": (total(minimize) - total(energy_calls | gradient_calls)) * per_round,
            "grid.nodal_functions": select("grid.NodalFunction").sum() * per_round,
            "energy.value_ms": 1e3 * ratio(total(values), values.sum()),
            "energy.gradient_ms": 1e3 * ratio(total(grads), grads.sum()),
            "energy.pairs_per_s": ratio(total(kernels, size), total(kernels)),
            "energy.self_s": total(kernels, self_s) * per_round,
            "integrands.eval_s": total(integrands) * per_round,
            "integrands.calls": integrands.sum() * per_round,
            "optimality.report_ms": 1e3 * ratio(total(reports), reports.sum()),
            "optimality.nodes_per_s": ratio(total(reports, size), total(reports)),
            "reference.s": total(select("reference.", "bench.setup"))
            + total(select("reference.")) * per_round,
            "curveio.write_s": total(writes) * per_round,
            "curveio.bytes": total(writes, size) * per_round,
            "cli.self_s": total(mains, self_s) * per_round,
        }
        return {k: {"value": float(v), "unit": LAYER_UNITS[k]} for k, v in metrics.items()}
