"""Optimality residuals for the non-local variational integral equation.

A stationary u satisfies, for a.e. x in (0, 1),

    R(x) = int_0^1 [ -Ndiv W_U(x, u(x), D(x, X)) + W_u(x, u(x), D(x, X)) ] dX = 0,

where Ndiv F(x, X) = (F(x, X) + F(X, x)) / (X - x). The 1/(X - x)
singularity is handled in a principal-value sense: residuals are evaluated
at interior grid nodes while quadrature abscissae are cell midpoints (so x
never hits an abscissa), and contributions from midpoints symmetric about x
are summed as pairs before accumulation; cells beyond the largest symmetric
whole-cell window, all on one side of x, are paired among themselves.

The two-well Bolza integral equation
u(x)/2 = int (u(X)-u(x))/(X-x)^2 [((u(X)-u(x))/(X-x))^2 - 1] dX is this
residual with the two-well density including the mass term; it needs no
separate entry point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import _residuals
from .grid import NodalFunction
from .integrands import Integrand

__all__ = ["ResidualReport", "residual", "residual_report"]


def residual(u: NodalFunction, integrand: Integrand, x: float) -> float:
    """Optimality residual R(x) at an interior grid node x."""
    g = u.grid
    # k = 0 rejects an x outside [0, 1], infinite or NaN, before round can fail
    k = int(round(x / g.h)) if 0.0 <= x <= 1.0 else 0
    if not 1 <= k <= g.n - 1 or abs(k * g.h - x) > 4 * np.finfo(float).eps:
        raise ValueError(f"x={x} is not an interior node of the n={g.n} grid")
    return float(_residuals(g, u.values, integrand, k, k + 1)[0])


@dataclass(frozen=True)
class ResidualReport:
    """Residual values at all interior nodes plus aggregate norms.

    The raw vector and norm_l2 = sqrt(h * sum R^2) cover every interior
    node. norm_sup drops the two boundary-adjacent nodes (x_1 and
    x_{n-1}), whose degenerate pairing window carries an O(1) one-sided
    quadrature bias; with at most two interior nodes (n <= 3) it covers
    them all. norm_l2_central covers the central band of nodes k with
    min(k, n-k) >= max(floor(n/4), 1), whose symmetric window spans about
    half the domain or more; it is the norm in which discrete stationarity
    is actually visible for minimizers with end-point layers.
    """

    x_points: np.ndarray
    residuals: np.ndarray
    norm_l2: float
    norm_sup: float
    norm_l2_central: float


def residual_report(u: NodalFunction, integrand: Integrand) -> ResidualReport:
    """Residual at every interior node plus l2 and sup norms."""
    g = u.grid
    n, h = g.n, g.h
    residuals = _residuals(g, u.values, integrand, 1, n)
    sup_set = residuals[1:-1] if residuals.size > 2 else residuals
    lo = max(n // 4, 1)
    return ResidualReport(
        x_points=g.nodes[1:-1],
        residuals=residuals,
        norm_l2=float(np.sqrt(h * np.sum(residuals**2))),
        norm_sup=float(np.max(np.abs(sup_set))),
        norm_l2_central=float(np.sqrt(h * np.sum(residuals[lo - 1:n - lo] ** 2))),
    )
