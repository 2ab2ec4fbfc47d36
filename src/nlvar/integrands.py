"""Separable energy densities W(x, u, U) = phi(U) + psi(u) with analytic
derivatives.

The paper's class is a general W(x, u, U); every density shipped here is
x-independent and separable, which lets the energy kernel evaluate phi once
per unordered pair of midpoints and psi once per midpoint. Derivatives are
supplied in closed form so that residual evaluation never stacks numerical
differentiation on top of singular-kernel quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Integrand",
    "DerivativeCheckReport",
    "power_p",
    "half_square",
    "quadratic_mass",
    "two_well_full",
    "two_well_bare",
    "integrand_by_name",
    "check_derivatives",
]

ArrayFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Integrand:
    """Density W(x, u, U) = w(U) + mass(u): w is phi, w_U = phi', mass is
    psi and w_u = psi'. Densities without a zero-order term use zeros for
    psi and psi'. w returns a new array: the energy kernel weights rows of
    it in place.

    p is the growth exponent of W in U (used for coercivity and Hoelder
    diagnostics, even where the evaluation itself never reads it). convex
    states that W is convex in (u, U); the solver preconditions only such
    densities, so a density that does not state it keeps the unpreconditioned
    solver.
    """

    w: ArrayFn
    w_U: ArrayFn
    mass: ArrayFn
    w_u: ArrayFn
    p: float
    name: str
    convex: bool = False

    def evaluate(self, x, u, U):
        """W(x, u, U); no built-in density depends on x."""
        return self.w(np.asarray(U, float)) + self.mass(np.asarray(u, float))


def power_p(p: float) -> Integrand:
    """W = |U|^p (homogeneous problem with end conditions u(0)=0, u(1)=1)."""
    if not (np.isfinite(p) and p > 1):
        raise ValueError(f"growth exponent must be finite and exceed 1, got {p}")
    return Integrand(
        w=lambda U: np.abs(U) ** p, w_U=lambda U: p * np.sign(U) * np.abs(U) ** (p - 1),
        mass=np.zeros_like, w_u=np.zeros_like, p=p, name=f"power:{p:g}", convex=True,
    )


def half_square() -> Integrand:
    """W = U^2 / 2, the quadratic special case used for p = 2 experiments."""
    return Integrand(
        w=lambda U: 0.5 * U**2, w_U=lambda U: U, mass=np.zeros_like, w_u=np.zeros_like,
        p=2.0, name="half-square", convex=True,
    )


def quadratic_mass() -> Integrand:
    """W = U^2 / 2 + 8 u^2, quadratic plus a zero-order mass term."""
    return replace(half_square(), mass=lambda u: 8.0 * u**2, w_u=lambda u: 16.0 * u,
                   name="quad-mass")


def two_well_full() -> Integrand:
    """W = (U^2 - 1)^2 / 4 + u^2 / 2, the non-convex Bolza density."""
    return replace(two_well_bare(), mass=lambda u: 0.5 * u**2, w_u=lambda u: u,
                   name="two-well")


def two_well_bare() -> Integrand:
    """W = (U^2 - 1)^2 / 4, the two-well density without the mass term."""
    return Integrand(
        w=lambda U: 0.25 * (U**2 - 1.0) ** 2, w_U=lambda U: U * (U**2 - 1.0),
        mass=np.zeros_like, w_u=np.zeros_like, p=4.0, name="two-well-bare",
    )


_FACTORIES = {
    "half-square": half_square,
    "quad-mass": quadratic_mass,
    "two-well": two_well_full,
    "two-well-bare": two_well_bare,
}


def integrand_by_name(name: str) -> Integrand:
    """Resolve a CLI name: 'power:p', 'half-square', 'quad-mass', 'two-well',
    'two-well-bare'."""
    name = name.strip()
    if name.startswith("power:"):
        try:
            p = float(name.split(":", 1)[1])
        except ValueError:
            raise KeyError(f"bad exponent in integrand name {name!r}") from None
        return power_p(p)
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise KeyError(f"unknown integrand {name!r}") from None


@dataclass(frozen=True)
class DerivativeCheckReport:
    max_err_u: float
    max_err_U: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_err_u <= self.tol and self.max_err_U <= self.tol


def check_derivatives(
    integrand: Integrand,
    probes: Sequence[tuple[float, float, float]],
    step: float = 1e-6,
    tol: float = 1e-5,
) -> DerivativeCheckReport:
    """Compare w_U against central finite differences of w at the probes' U,
    and w_u against those of mass at their u (x is not read).

    The mismatch is relative to max(1, |finite difference|) per probe.
    """
    probes = list(probes)
    if not probes:
        raise ValueError("probe list must be nonempty")
    err_u = 0.0
    err_U = 0.0
    for _, u, U in probes:
        u, U = float(u), float(U)
        fd_u = (integrand.mass(u + step) - integrand.mass(u - step)) / (2 * step)
        fd_U = (integrand.w(U + step) - integrand.w(U - step)) / (2 * step)
        au, aU = integrand.w_u(u), integrand.w_U(U)
        err_u = max(err_u, abs(float(au) - float(fd_u)) / max(1.0, abs(float(fd_u))))
        err_U = max(err_U, abs(float(aU) - float(fd_U)) / max(1.0, abs(float(fd_U))))
    return DerivativeCheckReport(max_err_u=err_u, max_err_U=err_U, tol=tol)
