"""First-order minimization of the discrete energy over interior nodal values.

Limited-memory quasi-Newton direction (two-loop recursion) with Armijo
backtracking. For a convex density on at most PRECONDITION_MAX_N cells the
initial inverse Hessian of the recursion is P^-1, where P is the exact
Hessian of the half-square energy: the first direction is -P^-1 g, later
ones scale P^-1 by s'y / y'P^-1 y from the newest pair, and memory 0 is
preconditioned gradient descent. Half-square then converges in one Newton
step, and the iteration counts of the other convex densities barely grow
with n. Otherwise the initial matrix is gamma I with gamma = s'y / y'y,
and memory 0 is plain gradient descent. End values are held fixed
bit-exactly throughout. For non-convex densities the result is a critical
point, with no global-optimality claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from scipy.linalg.lapack import dpptrf, dpptrs

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
    "PRECONDITION_MAX_N",
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


# the packed factor of P takes 4 n^2 bytes and O(n^3) time to compute
PRECONDITION_MAX_N = 2048


def _half_square_hessian(n: int) -> np.ndarray:
    """Hessian of the half-square energy on n cells in the n - 1 interior
    nodal values, in LAPACK's lower packed storage (column j holds rows
    j..n-2 of column j, one column after the other).

    The energy is (1/2) sum_i (v_i+1 - v_i)^2 plus (1/2) sum_{i != j}
    (a_i - a_j)^2 / (i - j)^2 over the midpoint values a = A v (h cancels),
    so the Hessian is tridiag(-1, 2, -1) + 2 A' (diag(r) - K) A, with the
    Toeplitz K_ij = 1/(i - j)^2 off the diagonal, r its row sums and A the
    node-to-midpoint average. Of this, -2 A'KA is Toeplitz and the rest is
    tridiagonal; t_d = 1/d^2 gives both parts.
    """
    m = n - 1
    if m < 1:
        return np.zeros(0)
    t = np.zeros(n)
    t[1:] = 1.0 / np.arange(1, n) ** 2
    # -2 A'KA at lag d = 0..m-1 is -(2 K(d) + K(d - 1) + K(d + 1)) / 2,
    # with K(0) = 0 and K(-1) = K(1)
    c = -0.5 * (2.0 * t[:m] + t[np.abs(np.arange(-1, m - 1))] + t[1:])
    ap = np.concatenate([c[:m - j] for j in range(m)])
    # r_i = S(i) + S(n - 1 - i) with S(k) = sum_{d=1..k} 1/d^2
    partial = np.cumsum(t)
    r = partial + partial[::-1]
    diag = np.arange(m) * m - np.arange(m) * (np.arange(m) - 1) // 2
    ap[diag] += 2.0 + 0.5 * (r[:-1] + r[1:])
    ap[diag[:-1] + 1] += 0.5 * r[1:-1] - 1.0
    return ap


def _preconditioner(integrand: Integrand, n: int):
    """P^-1 as a function of a vector for a convex density on
    2 <= n <= PRECONDITION_MAX_N cells, else None. The packed Cholesky
    factor (dpptrf) gives the same bits for any BLAS thread count."""
    if not integrand.convex or not 2 <= n <= PRECONDITION_MAX_N:
        return None
    factor, info = dpptrf(n - 1, _half_square_hessian(n), lower=1, overwrite_ap=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"half-square Hessian not positive definite (info {info})")

    def solve(q: np.ndarray) -> np.ndarray:
        return dpptrs(n - 1, factor, q, lower=1)[0]

    return solve


def _two_loop(grad, s_list, y_list, solve=None):
    """L-BFGS two-loop recursion for the search direction. The initial
    inverse Hessian is gamma * solve, or gamma * I without solve, with gamma
    s'y over y'(solve y) or y'y for the newest pair (1 with no pair)."""
    q = grad.copy()
    alphas = []
    for s, y in zip(reversed(s_list), reversed(y_list)):
        rho = 1.0 / float(y @ s)
        a = rho * float(s @ q)
        alphas.append((a, rho))
        q -= a * y
    if solve is not None:
        q = solve(q)
        if s_list:
            s, y = s_list[-1], y_list[-1]
            q *= float(s @ y) / float(y @ solve(y))
    elif s_list:
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
    and propagates the NonFiniteEnergyError of a non-finite initial iterate.
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
    solve = _preconditioner(integrand, grid.n)
    f, g = value_and_grad(u, integrand)
    gnorm = float(np.linalg.norm(g))

    trace = [(f, gnorm)]
    s_list: list[np.ndarray] = []
    y_list: list[np.ndarray] = []
    iters = 0

    while gnorm > cfg.grad_tol and iters < cfg.max_iters:
        d = _two_loop(g, s_list, y_list, solve)
        slope = float(g @ d)
        if slope >= 0.0:  # quasi-Newton direction unusable, fall back
            d = -g
            slope = -gnorm * gnorm

        t = cfg.step0
        while True:
            z_new = z + t * d
            try:
                # a trial that overflows is rejected below, so its
                # floating-point warnings are noise
                with np.errstate(over="ignore", invalid="ignore"):
                    f_new, g_new = value_and_grad(assemble(z_new), integrand)
            except NonFiniteEnergyError:
                f_new = np.inf
            if f_new <= f + cfg.armijo * t * slope:
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
    res = minimize(integrand, grid, bc, init=init, cfg=cfg)
    for n in levels[1:]:
        fine = Grid1D(n)
        prolonged_vals = np.interp(fine.nodes, res.u.grid.nodes, res.u.values)
        prolonged = NodalFunction(fine, prolonged_vals, bc[0], bc[1])
        res = minimize(integrand, fine, bc, init=prolonged, cfg=cfg)
        deltas.append(float(np.max(np.abs(res.u.values - prolonged_vals))))
    return ContinuationResult(result=res, levels=levels, deltas=deltas)

