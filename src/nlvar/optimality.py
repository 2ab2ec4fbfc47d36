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
from itertools import zip_longest

import numpy as np

from .energy import _circulant_blocks, _require_finite
from .grid import NodalFunction
from .integrands import Integrand

__all__ = ["ResidualReport", "residual", "residual_report"]


def _residuals(u: NodalFunction, integrand: Integrand, lo: int, hi: int) -> np.ndarray:
    """R(x_k) at the interior nodes lo <= k < hi, from the energy's circulant
    layout with the nodes as origins: row r holds the cell (k + r) mod n in
    column k - lo, and its mirror row the cell (k - 1 - r) mod n. The two
    are the cells at distance (r + 1/2) h either side of x_k wherever both
    exist, so each row is added to its mirror row first; rows are then
    accumulated one at a time, which makes a node's value independent of its
    block."""
    n, x, ux = u.grid.n, u.grid.nodes[lo:hi], u.values[lo:hi]

    def terms(offset: int, step: int, rows: int):
        # phi'(D) / dX, where W_U(x_k, u_k, D) + W_U(m, u(m), D) = 2 phi'(D),
        # written over D: the generator keeps its block alive until the next
        for _, dX, D in _circulant_blocks(u, x, ux, offset, step, rows):
            yield np.divide(integrand.w_U(D), dX, out=D)

    total = np.zeros(hi - lo)
    # a non-finite term makes its residual non-finite, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        # for odd n the last right-hand row has no mirror
        for P, mirror in zip_longest(terms(lo, 1, (n + 1) // 2), terms(lo + n - 1, -1, n // 2)):
            if mirror is not None:
                P[:mirror.shape[0]] += mirror
            for row in P:
                total += row
        R = u.grid.h * (-2.0 * total) + integrand.w_u(ux)
    return _require_finite(R, f"residual of {integrand.name}", x)


def residual(u: NodalFunction, integrand: Integrand, x: float) -> float:
    """Optimality residual R(x) at an interior grid node x."""
    g = u.grid
    k = int(round(x / g.h))
    if not 1 <= k <= g.n - 1 or abs(k * g.h - x) > 4 * np.finfo(float).eps:
        raise ValueError(f"x={x} is not an interior node of the n={g.n} grid")
    return float(_residuals(u, integrand, k, k + 1)[0])


@dataclass(frozen=True)
class ResidualReport:
    """Residual values at all interior nodes plus aggregate norms.

    The raw vector and norm_l2 = sqrt(h * sum R^2) cover every interior
    node. norm_sup drops the two boundary-adjacent nodes (x_1 and
    x_{n-1}), whose degenerate pairing window carries an O(1) one-sided
    quadrature bias. norm_l2_central covers the central band of nodes whose
    symmetric window spans at least half the domain (min(k, n-k) >= n/4); it
    is the norm in which discrete stationarity is actually visible for
    minimizers with end-point layers.
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
    residuals = _residuals(u, integrand, 1, n)
    sup_set = residuals[1:-1] if residuals.size > 2 else residuals
    lo = max(n // 4, 1)
    return ResidualReport(
        x_points=g.nodes[1:-1],
        residuals=residuals,
        norm_l2=float(np.sqrt(h * np.sum(residuals**2))),
        norm_sup=float(np.max(np.abs(sup_set))) if sup_set.size else 0.0,
        norm_l2_central=float(np.sqrt(h * np.sum(residuals[lo - 1:n - lo] ** 2))),
    )
