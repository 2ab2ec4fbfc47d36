"""Oracles and shorthands that only the tests read: a finite-difference
check of a density's derivatives, the energy of one profile at n and 2n
cells, the Hoelder exponent, mesh-continuation solves, a constant nodal
function, midpoint values, a pointwise W, and the near/far path forced
against the dense fold with its profiles and hand-built polynomial
densities. The package itself runs none of them.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from nlvar import energy
from nlvar.energy import energy_value
from nlvar.grid import Grid1D, NodalFunction
from nlvar.integrands import ArrayFn, Integrand, _integer_exponent, _sign, power_p
from nlvar.solver import MinimizeResult, SolverConfig, minimize


def constant(grid: Grid1D, c: float) -> NodalFunction:
    """The nodal function of value c on grid."""
    return NodalFunction(grid, np.full(grid.n + 1, float(c)))


def midpoint_values(u: NodalFunction) -> np.ndarray:
    """Exact values at cell midpoints (average of adjacent nodes)."""
    return 0.5 * (u.values[:-1] + u.values[1:])


def evaluate(integrand: Integrand, x, u, U):
    """W(x, u, U); no built-in density depends on x."""
    return integrand.w(np.asarray(U, float)) + integrand.mass(np.asarray(u, float))


@dataclass(frozen=True)
class DerivativeCheckReport:
    """Largest mismatch of each derivative."""

    max_err_u: float
    max_err_U: float
    max_err_uu: float
    max_err_UU: float
    tol: float

    @property
    def passed(self) -> bool:
        return max(self.max_err_u, self.max_err_U, self.max_err_uu, self.max_err_UU) <= self.tol


def check_derivatives(
    integrand: Integrand, probes: Sequence[tuple[float, float, float]]
) -> DerivativeCheckReport:
    """Compare w_U against central finite differences of w at the probes' U,
    and w_u against those of mass at their u (x is not read); likewise w_UU
    against differences of w_U and w_uu against those of w_u.

    The mismatch is relative to max(1, |finite difference|) per probe. For
    a growth exponent p that is not an integer, |U|^p is not smooth at 0:
    phi'' is infinite there for p < 2, and for 2 < p < 3 the difference of
    phi' at 0 is p step^(p-2), not 0. So w_UU is compared only at probes
    with |U| >= sqrt(step), where the difference's error is O(step).
    """
    step, tol = 1e-6, 1e-5  # difference step; largest mismatch that passes
    probes = list(probes)
    if not probes:
        raise ValueError("probe list must be nonempty")
    def mismatch(derivative: ArrayFn, f: ArrayFn, z: float) -> float:
        fd = float((f(z + step) - f(z - step)) / (2 * step))
        return abs(float(derivative(z)) - fd) / max(1.0, abs(fd))

    us = [float(p[1]) for p in probes]
    Us = [float(p[2]) for p in probes]
    kink_at_0 = not _integer_exponent(integrand.p)
    smooth_Us = [U for U in Us if not kink_at_0 or abs(U) >= math.sqrt(step)]
    # name: (derivative, the function it differentiates, probe coordinates)
    checks = {"u": (integrand.w_u, integrand.mass, us), "U": (integrand.w_U, integrand.w, Us),
              "uu": (integrand.w_uu, integrand.w_u, us),
              "UU": (integrand.w_UU, integrand.w_U, smooth_Us)}
    # a non-finite derivative shows as an infinite mismatch, not a warning
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        errors = {"max_err_" + name: max((mismatch(derivative, f, z) for z in zs), default=0.0)
                  for name, (derivative, f, zs) in checks.items()}
    return DerivativeCheckReport(tol=tol, **errors)


def refine_and_compare(
    u_profile: Callable[[np.ndarray], np.ndarray],
    integrand: Integrand,
    n: int,
    left_bc: Optional[float] = None,
    right_bc: Optional[float] = None,
) -> tuple[float, float, float]:
    """Energy of the same continuum profile sampled at n and 2n cells.

    Returns (E_coarse, E_fine, |E_fine - E_coarse|).
    """
    energies = []
    for cells in (n, 2 * n):
        grid = Grid1D(cells)
        u = NodalFunction(grid, u_profile(grid.nodes), left_bc, right_bc)
        energies.append(energy_value(u, integrand))
    return energies[0], energies[1], abs(energies[1] - energies[0])


def holder_exponent(p: float) -> float:
    """Continuity exponent (p - 2)/p of finite-energy functions; defined only
    for p > 2, where end-point conditions are meaningful."""
    if not 2 < p < np.inf:  # NaN fails too
        raise ValueError(f"Hoelder exponent requires finite p > 2, got {p}")
    return (p - 2.0) / p


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
    levels = [n_start]
    while 0 < levels[-1] < n_end:
        levels.append(2 * levels[-1])
    if n_start < 1 or levels[-1] != n_end:
        raise ValueError(f"n_end={n_end} is not n_start={n_start} times a power of 2")

    deltas: list[float] = []

    grid = Grid1D(levels[0])
    res = minimize(integrand, grid, bc, init=init, cfg=cfg)
    for n in levels[1:]:
        fine = Grid1D(n)
        prolonged = NodalFunction(fine, res.u(fine.nodes), *bc)
        res = minimize(integrand, fine, bc, init=prolonged, cfg=cfg)
        deltas.append(float(np.max(np.abs(res.u.values - prolonged.values))))
    return ContinuationResult(result=res, levels=levels, deltas=deltas)


def stripped(integrand: Integrand) -> Integrand:
    """The same density without phi coefficients, which the dense fold sums."""
    return dataclasses.replace(integrand, phi_coefficients=None)


def near_far_profiles(n: int) -> dict[str, np.ndarray]:
    """Nodal values on n cells that the near/far path is checked on; falling
    has end values of slope s = -1, the hat s = +1 at beta = 0."""
    x = Grid1D(n).nodes
    rough = np.random.default_rng(n).uniform(-1, 1, n + 1)
    return {"rough": rough, "smooth": x * x + 0.1 * np.sin(np.pi * x),
            "affine": 0.25 + 0.75 * x, "hat": 0.5 - np.abs(x - 0.5),
            "x+1e-3sin": x + 1e-3 * np.sin(7.0 * x), "falling": 1.0 - x * x}


def fold(grid: Grid1D, values: np.ndarray, integrand: Integrand,
         plan: Optional[energy._Plan] = None):
    """(energy, gradient) from _Evaluator._fold on the nodal values: the
    dense fold, or the near/far path on plan, from an evaluator built at
    the plan's near rows and band, which forces the path where the size
    rule would not run it."""
    ends = (values[0], values[-1])
    return energy._Evaluator(grid, integrand, ends, plan and plan[:2])._fold(values, True, plan)


def near_far(grid: Grid1D, values: np.ndarray, integrand: Integrand):
    """(energy, gradient) from the near/far path on _plan, with the unsigned
    cells however many there are, as an _Evaluator runs it."""
    return fold(grid, values, integrand, energy._plan(values, integrand.phi_coefficients))


def hand_built() -> list[Integrand]:
    """Three densities with phi coefficients that no built-in one has: |U|,
    of degree 1 with an odd coefficient, whose phi' takes +1 at 0 as P(s D)
    does for s = +1; |U| + |U|^3, the only one with two odd coefficients;
    and U^6, of degree 6, which power:6 does not carry."""
    absolute = Integrand(w=np.abs, w_U=_sign, w_UU=np.zeros_like, mass=np.zeros_like,
                         w_u=np.zeros_like, w_uu=np.zeros_like, p=1.0, name="abs",
                         phi_coefficients=(0.0, 1.0))
    abs_cube = dataclasses.replace(absolute, w=lambda U: np.abs(U) * (1.0 + U * U),
                                   w_U=lambda U: _sign(U) * (1.0 + 3.0 * U * U),
                                   w_UU=lambda U: 6.0 * np.abs(U), p=3.0, name="abs+abs^3",
                                   phi_coefficients=(0.0, 1.0, 0.0, 1.0))
    sixth = dataclasses.replace(power_p(6), name="U^6", phi_coefficients=(0.0,) * 6 + (1.0,))
    return [absolute, abs_cube, sixth]
