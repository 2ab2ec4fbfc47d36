"""Minimization of the discrete energy over interior nodal values.

Limited-memory quasi-Newton direction (two-loop recursion over the last
MEMORY pairs) with Armijo backtracking. The initial inverse Hessian of the
recursion is gamma H0 with gamma = s'y / y'H0 y from the newest pair (1
with no pair). For a convex density on at most PRECONDITION_MAX_N cells H0
is P^-1, where P is the exact Hessian of the half-square energy:
half-square then converges in one Newton step, and the iteration counts of
the other convex densities barely grow with n. Otherwise H0 = I.

Near the minimizer, once the gradient norm is below NEWTON_SWITCH, a solve
on at most PRECONDITION_MAX_N cells takes Newton steps -H^-1 g from the
exact Hessian of the quadrature (Nocedal & Wright, Numerical Optimization,
section 3.3). Where H is not finite, not positive definite, or its
direction does not descend, the iteration keeps the quasi-Newton
direction, and the solve tries no further Newton step. Every step passes
the same Armijo test. End values are held fixed bit-exactly throughout.
For non-convex densities the result is a critical point, with no
global-optimality claim.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from .energy import NonFiniteEnergyError, _half_square_inverse, _hessian, _packed_inverse
# minimize evaluates every iterate through this one name, on raw nodal
# values, not a NodalFunction; the tests wrap it to count evaluations
from .energy import _quadrature
# perfbench/tracer.py wraps these two on this module by name and sets the
# wrapped ones as nlvar.energy_value and nlvar.energy_gradient, which its
# workloads call; minimize calls neither, and the tracer wraps no
# _quadrature, so the evaluations of a solve are not among its spans
from .energy import energy_gradient, energy_value  # noqa: F401
from .grid import Grid1D, NodalFunction
from .integrands import Integrand

__all__ = [
    "SolverConfig",
    "MinimizeResult",
    "LineSearchError",
    "PRECONDITION_MAX_N",
    "NEWTON_SWITCH",
    "INITIAL_GUESSES",
    "default_grad_tol",
    "make_initial_guess",
    "minimize",
]


class LineSearchError(RuntimeError):
    """Backtracking step underflowed; carries the trace accumulated so far."""

    def __init__(self, message: str, trace: list[tuple[float, float]]):
        super().__init__(message)
        self.trace = trace


# first trial step, its backtracking factor, the sufficient-decrease
# constant and the number of (s, y) pairs the recursion keeps
STEP0, SHRINK, ARMIJO, MEMORY = 1.0, 0.5, 1e-4, 10


@dataclass(frozen=True)
class SolverConfig:
    """max_iters caps the iterations; the solve stops once the gradient norm
    is at most grad_tol, default_grad_tol(n) when None. make_initial_guess
    alone draws a 'random' start."""

    max_iters: int = 5000
    grad_tol: Optional[float] = None

    def __post_init__(self):
        # bool is an int, but True is no count and no tolerance
        if isinstance(self.max_iters, bool) or not (
                isinstance(self.max_iters, (int, np.integer)) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if self.grad_tol is not None and (isinstance(self.grad_tol, bool)
                                          or not 0.0 < self.grad_tol < np.inf):
            raise ValueError(f"grad_tol must be finite and positive, got {self.grad_tol}")


def default_grad_tol(n: int) -> float:
    """1e-8 for n <= 128, relaxed to 1e-6 above, where each evaluation costs
    more; the tolerance does not depend on which path the energy takes."""
    return 1e-8 if n <= 128 else 1e-6


@dataclass(frozen=True)
class MinimizeResult:
    """The solve's last iterate and its counts. converged says whether the
    gradient norm met the tolerance. A solve that did not converge stopped
    at max_iters, or earlier (iters < max_iters) after an accepted step
    that left every bit of the iterate unchanged: from there on each
    iteration would repeat the last one exactly."""

    u: NodalFunction
    energy: float
    grad_norm: float
    iters: int
    trace: list[tuple[float, float]] = field(repr=False)
    converged: bool
    evaluations: int  # energy-and-gradient evaluations, the start included
    newton_steps: int  # iterations whose direction was the Newton one


INITIAL_GUESSES = ("linear", "zero", "hat", "random")


def make_initial_guess(
    grid: Grid1D,
    bc: tuple[float, float],
    init: Union[NodalFunction, str],
    seed: int = 0,
    noise: float = 0.05,
) -> NodalFunction:
    """Build a feasible initial iterate.

    Named policies: 'linear' (interpolant of the end values), 'zero'
    (end values joined by zeros inside), 'hat' (linear plus a hat of peak
    1/2 at the midpoint), 'random' (linear plus seeded uniform perturbation
    of the interior). The end values are set exactly in every case.
    """
    left, right = bc
    if isinstance(init, NodalFunction):
        vals = init.values  # NodalFunction below checks its grid and end values
    elif init in INITIAL_GUESSES:
        vals = NodalFunction.linear(grid, left, right).values.copy()
        if init == "zero":
            vals[1:-1] = 0.0
        elif init == "hat":
            vals[1:-1] += 0.5 * (1.0 - np.abs(2.0 * grid.nodes[1:-1] - 1.0))
        elif init == "random":
            vals[1:-1] += noise * np.random.default_rng(seed).uniform(-1.0, 1.0, grid.n - 1)
    else:
        raise ValueError(f"unknown initial-guess policy {init!r}")
    return NodalFunction(grid, vals, left_bc=left, right_bc=right)


# the packed factors of P and of the Hessian take 4 n^2 bytes and O(n^3)
# time to compute
PRECONDITION_MAX_N = 2048

# gradient norm below which the solver tries Newton steps; from the first
# iteration they lead the two-well solves to other critical points
NEWTON_SWITCH = 1e-3


class _Pair(NamedTuple):
    """A stored (s, y) pair with the scalars the recursion reads, computed
    once: rho = 1 / s'y and gamma = s'y / y'(solve y)."""

    s: np.ndarray
    y: np.ndarray
    rho: float
    gamma: float


def _two_loop(grad, pairs, solve):
    """L-BFGS two-loop recursion (Nocedal & Wright, Algorithm 7.4) for the
    search direction from the stored pairs, oldest first. The initial
    inverse Hessian is gamma * solve for the newest pair (solve itself with
    no pair)."""
    q = grad.copy()
    alphas = []
    for s, y, rho, _ in reversed(pairs):
        a = rho * float(s.dot(q))
        alphas.append(a)
        q -= a * y
    q = solve(q)
    if pairs:
        q *= pairs[-1].gamma
    for a, (s, y, rho, _) in zip(reversed(alphas), pairs):
        b = rho * float(y.dot(q))
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
    cfg.grad_tol (default_grad_tol(n) when None), max_iters is exhausted or
    an accepted step leaves the iterate unchanged (MinimizeResult), with
    Newton steps near the minimizer where they apply (module docstring).

    The energy trace is non-increasing at every accepted step. A trial step
    whose energy or gradient is non-finite is rejected like one without
    sufficient decrease. Raises LineSearchError if backtracking underflows,
    and propagates the NonFiniteEnergyError of a non-finite initial iterate.
    """
    cfg = cfg or SolverConfig()
    grad_tol = default_grad_tol(grid.n) if cfg.grad_tol is None else cfg.grad_tol

    u = make_initial_guess(grid, bc, init)
    z = u.values[1:-1].copy()
    # every trial is written into the interior of this one vector of nodal
    # values, and so is the result; after each accepted step it holds z
    vals = u.values.copy()
    trial = vals[1:-1]
    # one size rule for both packed factors, P's and the Hessian's
    dense = grid.n <= PRECONDITION_MAX_N
    solve = lambda q: q  # H0 = I
    if integrand.convex and dense:
        solve = _half_square_inverse(grid.n)
    newton_steps = 0
    # cleared by the first Newton attempt that fails or does not descend:
    # each attempt costs an assembly and a factor
    try_newton = dense
    f, g = _quadrature(grid, u.values, integrand, True)
    evaluations = 1
    # np.linalg.norm of a float vector, bit for bit
    gnorm = math.sqrt(g.dot(g))

    trace = [(f, gnorm)]
    pairs: deque[_Pair] = deque(maxlen=MEMORY)
    iters = 0

    while gnorm > grad_tol and iters < cfg.max_iters:
        slope = 0.0
        if try_newton and gnorm < NEWTON_SWITCH:
            inverse = _packed_inverse(_hessian(grid, vals, integrand), grid.n - 1)
            if inverse is not None:
                d = -inverse(g)
                slope = float(g.dot(d))
            try_newton = slope < 0.0
        if slope < 0.0:
            newton_steps += 1
        else:
            d = _two_loop(g, pairs, solve)
            slope = float(g.dot(d))
            if slope >= 0.0:  # quasi-Newton direction unusable, fall back
                d = -g
                slope = -gnorm * gnorm

        t = STEP0
        while True:
            # a trial that overflows is rejected below, so its
            # floating-point warnings are noise
            with np.errstate(over="ignore", invalid="ignore"):
                np.add(z, t * d, out=trial)
                try:
                    f_new, g_new = _quadrature(grid, vals, integrand, True)
                except NonFiniteEnergyError:
                    f_new = np.inf
            evaluations += 1
            if f_new <= f + ARMIJO * t * slope:
                break
            t *= SHRINK
            if t < 1e-20:
                raise LineSearchError(
                    f"line search underflow at iteration {iters} "
                    f"(energy {f:.6g}, |grad| {gnorm:.3g})",
                    trace,
                )

        z_new = trial.copy()
        # a step that moves no bit of z leaves z, f, g, the pairs and so the
        # next direction as they were: every later iteration would repeat it
        stalled = z_new.tobytes() == z.tobytes()
        s = z_new - z
        y = g_new - g
        sy = float(s.dot(y))
        if sy > 1e-14 * float(s.dot(s)):
            pairs.append(_Pair(s, y, 1.0 / sy, sy / float(y.dot(solve(y)))))
        z, f, g = z_new, f_new, g_new
        gnorm = math.sqrt(g.dot(g))
        iters += 1
        trace.append((f, gnorm))
        if stalled:
            break

    vals[1:-1] = z
    return MinimizeResult(
        u=NodalFunction(grid, vals, left_bc=bc[0], right_bc=bc[1]),
        energy=f,
        grad_norm=gnorm,
        iters=iters,
        trace=trace,
        converged=gnorm <= grad_tol,
        evaluations=evaluations,
        newton_steps=newton_steps,
    )
