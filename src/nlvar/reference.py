"""Closed-form reference profiles and constants used as oracles and overlays.

Covers the exponential solution of the local quadratic-plus-mass problem
and the second-order-ODE approximation of the homogeneous quadratic
optimality equation (derivative k x^{2x} (1-x)^{2(1-x)} with its
normalization).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Grid1D, NodalFunction

__all__ = [
    "ReferenceProfile",
    "local_exp_solution",
    "ode_approx_derivative",
    "normalize_k",
    "ode_approx_profile",
]


@dataclass(frozen=True)
class ReferenceProfile:
    u: NodalFunction
    params: dict


def local_exp_solution(x):
    """Solution sinh(4x) / sinh(4) = e^4/(e^8 - 1) (e^{4x} - e^{-4x}) of the
    local quadratic-plus-mass problem with u(0)=0, u(1)=1; both end values
    are exact."""
    out = np.sinh(4.0 * np.asarray(x, dtype=float)) / np.sinh(4.0)
    return float(out) if out.ndim == 0 else out


def _shape(x: np.ndarray) -> np.ndarray:
    """x^{2x} (1-x)^{2(1-x)} via exponentials, with limit value 1 at 0 and 1."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    out[inside] = np.exp(2.0 * xi * np.log(xi) + 2.0 * (1.0 - xi) * np.log(1.0 - xi))
    return out


# built on first use: numpy.polynomial, which gives the nodes, adds about
# 1 MiB and 8 ms to every process that imports nlvar
@lru_cache(maxsize=1)
def _half_rule() -> tuple[np.ndarray, np.ndarray]:
    """20-point Gauss-Legendre in t on [0, 1], moved to x = t^4/2 in [0, 1/2]
    so that the x log x singularities of _shape at 0 and 1 are smooth in t."""
    xi, w = np.polynomial.legendre.leggauss(20)
    return (xi + 1.0) ** 4 / 32.0, w * (xi + 1.0) ** 3 / 8.0  # w/2 times dx/dt = 2 t^3


def _cell_integrals(nodes: np.ndarray) -> np.ndarray:
    """Integral of _shape over every cell [a, b]: the half rule from a and from b."""
    half_x, half_w = _half_rule()
    a, b = nodes[:-1, None], nodes[1:, None]
    h = b - a
    return h[:, 0] * ((_shape(a + h * half_x) + _shape(b - h * half_x)) @ half_w)


def ode_approx_derivative(x, k: float):
    """Approximate optimal derivative k x^{2x} (1-x)^{2(1-x)}, extended
    continuously by the value k at the end points."""
    if not 0 < k < np.inf:  # NaN fails too
        raise ValueError(f"scale constant must be positive and finite, got {k}")
    x = np.asarray(x, dtype=float)
    out = k * _shape(np.atleast_1d(x))
    return float(out[0]) if x.ndim == 0 else out


def normalize_k() -> float:
    """Constant k with 1/k = int_0^1 x^{2x} (1-x)^{2(1-x)} dx, so that the
    approximate derivative integrates to 1."""
    return 1.0 / float(_cell_integrals(np.array([0.0, 1.0]))[0])


def ode_approx_profile(grid: Grid1D) -> ReferenceProfile:
    """Antiderivative of the approximate optimal derivative with the
    normalized k on the grid nodes.

    The profile runs from u(0)=0 to u(1)=1 (up to rounding) and respects the
    reflection identity u(x) + u(1-x) = 1. The profile's u is the
    NodalFunction of those values, defined on [0, 1] only; its derivative is
    ode_approx_derivative(x, params["k"]).
    """
    k = normalize_k()
    u = NodalFunction(grid, np.concatenate([[0.0], np.cumsum(k * _cell_integrals(grid.nodes))]))
    return ReferenceProfile(u=u, params={"k": k, "nodal": u.values})
