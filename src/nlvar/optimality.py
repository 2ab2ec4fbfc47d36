"""Optimality residuals for the non-local variational integral equation.

A stationary u satisfies, for a.e. x in (0, 1),

    R(x) = int_0^1 [ -Ndiv W_U(x, u(x), D(x, X)) + W_u(x, u(x), D(x, X)) ] dX = 0,

where Ndiv F(x, X) = (F(x, X) + F(X, x)) / (X - x). The 1/(X - x)
singularity is handled in a principal-value sense: residuals are evaluated
at interior grid nodes while quadrature abscissae are cell midpoints (so x
never hits an abscissa), and contributions from midpoints symmetric about x
are summed as pairs before accumulation; cells beyond the largest symmetric
whole-cell window accumulate singly.

The two-well Bolza integral equation
u(x)/2 = int (u(X)-u(x))/(X-x)^2 [((u(X)-u(x))/(X-x))^2 - 1] dX is this
residual with the two-well density including the mass term; it needs no
separate entry point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import _block_rows, _require_finite
from .grid import NodalFunction
from .integrands import Integrand

__all__ = ["ResidualReport", "residual", "residual_report"]


def _paired_sum(terms: np.ndarray, k: int) -> float:
    """Accumulate per-cell terms with symmetric pairing around node k:
    midpoints m_{k-1-r} and m_{k+r} sit at equal distances (r + 1/2) h from
    x_k and are added pairwise first, realizing the principal value
    discretely; cells outside the symmetric window sum singly."""
    n = terms.size
    w = min(k, n - k)
    pairs = terms[k - w:k][::-1] + terms[k:k + w]
    singles = terms[:k - w] if k > n - k else terms[k + w:]
    return float(pairs.sum() + singles.sum())


def _residuals(u: NodalFunction, integrand: Integrand, lo: int, hi: int) -> np.ndarray:
    """R(x_k) at the interior nodes lo <= k < hi, from the per-cell terms of
    _block_rows(n) nodes at a time, one row per node."""
    g = u.grid
    m, um, h, b = g.midpoints, u.midpoint_values, g.h, _block_rows(g.n)
    out = np.empty(hi - lo)
    # a non-finite term makes its residual non-finite, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(lo, hi, b):
            k1 = min(k0 + b, hi)
            x, ux = g.nodes[k0:k1, None], u.values[k0:k1, None]
            dX = m - x
            D = (um - ux) / dX
            # W_U(x_k, u_k, D) + W_U(m, u(m), D) = 2 phi'(D): W is separable
            B = integrand.w_U(D)
            T = h * (-(B + B) / dX + integrand.w_u(ux))
            out[k0 - lo:k1 - lo] = [_paired_sum(t, k) for t, k in zip(T, range(k0, k1))]
    return _require_finite(out, f"residual of {integrand.name}", g.nodes[lo:hi])


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
    node. norm_sup by default drops the two boundary-adjacent nodes (x_1 and
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
    boundary_excluded: bool = True


def residual_report(
    u: NodalFunction, integrand: Integrand, exclude_boundary: bool = True
) -> ResidualReport:
    """Residual at every interior node plus l2 and sup norms."""
    g = u.grid
    n, h = g.n, g.h
    residuals = _residuals(u, integrand, 1, n)
    sup_set = residuals[1:-1] if exclude_boundary and residuals.size > 2 else residuals
    lo = max(n // 4, 1)
    return ResidualReport(
        x_points=g.nodes[1:-1],
        residuals=residuals,
        norm_l2=float(np.sqrt(h * np.sum(residuals**2))),
        norm_sup=float(np.max(np.abs(sup_set))) if sup_set.size else 0.0,
        norm_l2_central=float(np.sqrt(h * np.sum(residuals[lo - 1:n - lo] ** 2))),
        boundary_excluded=exclude_boundary,
    )
