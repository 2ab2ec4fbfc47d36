"""First-order minimization of the discrete energy over interior nodal values.

Limited-memory quasi-Newton direction (two-loop recursion) with Armijo
backtracking; memory 0 degrades to plain gradient descent. End values are
held fixed bit-exactly throughout. For non-convex densities the result is a
critical point, with no global-optimality claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .energy import NonFiniteEnergyError, value_and_grad
# the benchmark's tracer (perfbench/tracer.py) patches these two on this
# module by name, so they stay importable from here
from .energy import energy_gradient, energy_value  # noqa: F401
from .grid import Grid1D, NodalFunction
from .integrands import Integrand

__all__ = [
    "SolverConfig",
    "MinimizeResult",
    "ContinuationResult",
    "LineSearchError",
    "make_initial_guess",
    "minimize",
    "continuation_refine",
]


class LineSearchError(RuntimeError):
    """Backtracking step underflowed; carries the trace accumulated so far."""

    def __init__(self, message: str, trace: list[tuple[float, float]]):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 5000
    grad_tol: float = 1e-8
    step0: float = 1.0
    shrink: float = 0.5
    armijo: float = 1e-4
    memory: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink factor must lie in (0, 1)")
        if not 0.0 < self.armijo < 1.0:
            raise ValueError("sufficient-decrease constant must lie in (0, 1)")
        if self.memory < 0:
            raise ValueError("memory must be >= 0")


def default_grad_tol(n: int) -> float:
    """1e-8 for n <= 128, relaxed to 1e-6 above (O(n^2) cost per gradient)."""
    return 1e-8 if n <= 128 else 1e-6


@dataclass(frozen=True)
class MinimizeResult:
    u: NodalFunction
    energy: float
    grad_norm: float
    iters: int
    trace: list[tuple[float, float]] = field(repr=False)
    converged: bool


def make_initial_guess(
    grid: Grid1D,
    bc: tuple[float, float],
    init: Union[NodalFunction, str],
    seed: int = 0,
    noise: float = 0.05,
) -> NodalFunction:
    """Build a feasible initial iterate.

    Named policies: 'linear' (interpolant of the end values), 'zero'
    (end values joined by zeros inside), 'hat' (peak 1/2 at the midpoint),
    'random' (linear plus seeded uniform perturbation of the interior).
    """
    left, right = bc
    if isinstance(init, NodalFunction):
        if init.grid.n != grid.n:
            raise ValueError("initial guess lives on a different grid")
        if init.values[0] != left or init.values[-1] != right:
            raise ValueError("initial guess violates the end conditions")
        return NodalFunction(grid, init.values, left_bc=left, right_bc=right)
    if init == "linear":
        return NodalFunction.linear(grid, left, right)
    if init == "zero":
        vals = np.zeros(grid.n + 1)
        vals[0], vals[-1] = left, right
        return NodalFunction(grid, vals, left_bc=left, right_bc=right)
    if init == "hat":
        vals = left + (right - left) * grid.nodes
        vals += 0.5 * (1.0 - np.abs(2.0 * grid.nodes - 1.0))
        vals[0], vals[-1] = left, right
        return NodalFunction(grid, vals, left_bc=left, right_bc=right)
    if init == "random":
        rng = np.random.default_rng(seed)
        vals = left + (right - left) * grid.nodes
        vals[1:-1] += noise * rng.uniform(-1.0, 1.0, grid.n - 1)
        return NodalFunction(grid, vals, left_bc=left, right_bc=right)
    raise ValueError(f"unknown initial-guess policy {init!r}")


def _two_loop(grad, s_list, y_list):
    """L-BFGS two-loop recursion for the search direction."""
    q = grad.copy()
    alphas = []
    for s, y in zip(reversed(s_list), reversed(y_list)):
        rho = 1.0 / float(y @ s)
        a = rho * float(s @ q)
        alphas.append((a, rho))
        q -= a * y
    if s_list:
        s, y = s_list[-1], y_list[-1]
        q *= float(s @ y) / float(y @ y)
    for (a, rho), (s, y) in zip(reversed(alphas), zip(s_list, y_list)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q


def minimize(
    integrand: Integrand,
    grid: Grid1D,
    bc: tuple[float, float],
    init: Union[NodalFunction, str] = "linear",
    cfg: Optional[SolverConfig] = None,
) -> MinimizeResult:
    """Descend the discrete energy from init until the gradient norm meets
    cfg.grad_tol or max_iters is exhausted.

    The energy trace is non-increasing at every accepted step. A trial step
    whose energy or gradient is non-finite is rejected like one without
    sufficient decrease. Raises LineSearchError if backtracking underflows,
    and propagates a non-finite energy at the initial iterate.
    """
    if cfg is None:
        cfg = SolverConfig(grad_tol=default_grad_tol(grid.n))

    u = make_initial_guess(grid, bc, init, seed=cfg.seed)
    left, right = bc

    def assemble(z):
        vals = np.empty(grid.n + 1)
        vals[0], vals[-1] = left, right
        vals[1:-1] = z
        return NodalFunction(grid, vals, left_bc=left, right_bc=right)

    z = u.values[1:-1].copy()
    f, g = value_and_grad(u, integrand)
    if not np.isfinite(f):
        raise ValueError("non-finite energy at the initial iterate")
    gnorm = float(np.linalg.norm(g))

    trace = [(f, gnorm)]
    s_list: list[np.ndarray] = []
    y_list: list[np.ndarray] = []
    iters = 0

    while gnorm > cfg.grad_tol and iters < cfg.max_iters:
        d = _two_loop(g, s_list, y_list) if s_list else -g
        slope = float(g @ d)
        if slope >= 0.0:  # quasi-Newton direction unusable, fall back
            d = -g
            slope = -gnorm * gnorm

        t = cfg.step0
        while True:
            z_new = z + t * d
            try:
                f_new, g_new = value_and_grad(assemble(z_new), integrand)
            except NonFiniteEnergyError:
                f_new = np.inf
            if np.isfinite(f_new) and f_new <= f + cfg.armijo * t * slope:
                break
            t *= cfg.shrink
            if t < 1e-20:
                raise LineSearchError(
                    f"line search underflow at iteration {iters} "
                    f"(energy {f:.6g}, |grad| {gnorm:.3g})",
                    trace,
                )

        if cfg.memory > 0:
            s = z_new - z
            y = g_new - g
            if float(s @ y) > 1e-14 * float(s @ s):
                s_list.append(s)
                y_list.append(y)
                if len(s_list) > cfg.memory:
                    s_list.pop(0)
                    y_list.pop(0)
        z, f, g = z_new, f_new, g_new
        gnorm = float(np.linalg.norm(g))
        iters += 1
        trace.append((f, gnorm))

    u_final = assemble(z)
    return MinimizeResult(
        u=u_final,
        energy=f,
        grad_norm=gnorm,
        iters=iters,
        trace=trace,
        converged=gnorm <= cfg.grad_tol,
    )


@dataclass(frozen=True)
class ContinuationResult:
    result: MinimizeResult
    levels: list[int]
    deltas: list[float]  # sup-norm gap between prolonged and re-solved iterates


def continuation_refine(
    integrand: Integrand,
    bc: tuple[float, float],
    n_start: int,
    n_end: int,
    cfg: Optional[SolverConfig] = None,
    init: Union[NodalFunction, str] = "linear",
) -> ContinuationResult:
    """Solve at n_start, then repeatedly double the grid, prolonging the
    previous minimizer by linear interpolation, until n_end.

    n_end must equal n_start * 2^k. Deltas record, per refinement level, the
    sup-norm distance between the prolonged coarse solution and the re-solved
    fine one.
    """
    ratio = n_end / n_start
    k = round(np.log2(ratio))
    if n_start * 2**k != n_end or k < 0:
        raise ValueError(f"n_end={n_end} is not n_start={n_start} times a power of 2")

    levels = [n_start * 2**j for j in range(k + 1)]
    deltas: list[float] = []

    grid = Grid1D(levels[0])
    res = minimize(integrand, grid, bc, init=init, cfg=_cfg_for(cfg, levels[0]))
    for n in levels[1:]:
        fine = Grid1D(n)
        prolonged_vals = np.interp(fine.nodes, res.u.grid.nodes, res.u.values)
        prolonged = NodalFunction(fine, prolonged_vals, bc[0], bc[1])
        res = minimize(integrand, fine, bc, init=prolonged, cfg=_cfg_for(cfg, n))
        deltas.append(float(np.max(np.abs(res.u.values - prolonged_vals))))
    return ContinuationResult(result=res, levels=levels, deltas=deltas)


def _cfg_for(cfg: Optional[SolverConfig], n: int) -> SolverConfig:
    if cfg is not None:
        return cfg
    return SolverConfig(grad_tol=default_grad_tol(n))
