"""Tensor-midpoint quadrature of the double-integral energy and its gradient.

The energy of a nodal function u is

    h^2 * sum_{i,j} W(m_i, u(m_i), D(m_i, m_j)),

over all pairs of cell midpoints, with the diagonal pair evaluated at the
cell slope (the exact coincidence limit of the difference quotient for
piecewise-linear u). Midpoints never coincide with each other across cells,
so no quadrature point is singular. The gradient with respect to interior
nodal values is the exact derivative of this sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import Grid1D, NodalFunction
from .integrands import Integrand

__all__ = [
    "NonFiniteEnergyError",
    "EnergyReport",
    "energy",
    "energy_value",
    "energy_gradient",
    "value_and_grad",
    "refine_and_compare",
]


class NonFiniteEnergyError(ArithmeticError):
    """The density produced a non-finite value at a quadrature point."""


# elements per row block: 128 KiB per temporary, small enough to stay in
# cache, large enough to amortize the per-block overhead
BLOCK_ELEMS = 1 << 14


def _block_rows(n: int) -> int:
    return min(n, max(1, BLOCK_ELEMS // n))


def _diag(a: np.ndarray, i0: int) -> np.ndarray:
    """View of the entries (r, i0 + r) of a contiguous row block a."""
    return a.reshape(-1)[i0 :: a.shape[1] + 1]


def _quotient_blocks(u: NodalFunction):
    """Yield (rows, x, ux, dm, D) for consecutive blocks of rows of the
    pairwise fields: x, ux are the block's midpoints and midpoint values as
    columns, dm[r, j] = m_j - x_r and D the difference quotient, with the
    cell slope on the diagonal (where dm holds 1.0, never read as a
    distance). Every entry equals the one of the dense n x n matrices."""
    m = u.grid.midpoints
    um = u.midpoint_values
    slopes = u.slopes
    n = m.size
    b = _block_rows(n)
    for i0 in range(0, n, b):
        rows = slice(i0, min(i0 + b, n))
        x, ux = m[rows, None], um[rows, None]
        dm = m[None, :] - x
        _diag(dm, i0)[:] = 1.0
        D = (um[None, :] - ux) / dm
        _diag(D, i0)[:] = slopes[rows]
        yield rows, x, ux, dm, D


def _finite(P: np.ndarray, what: str, x, X) -> np.ndarray:
    """P itself, or NonFiniteEnergyError naming its first non-finite point."""
    if not np.all(np.isfinite(P)):
        i, j = np.argwhere(~np.isfinite(P))[0]
        raise NonFiniteEnergyError(
            f"{what} non-finite at quadrature point (x={x[i, 0]:.6g}, X={X[j]:.6g})"
        )
    return P


def _density_row_sums(integrand: Integrand, x, ux, D, X) -> np.ndarray:
    return _finite(integrand.evaluate(x, ux, D), f"W({integrand.name})", x, X).sum(axis=1)


def _total(per_row: np.ndarray, integrand: Integrand, m: np.ndarray) -> float:
    """Sum of the per-row energies h^2 * sum_j W. A row sum can overflow
    where every W is finite; finite rows never overflow the total (it is at
    most h times the largest float), so one check of the total finds it."""
    total = float(per_row.sum())
    if not np.isfinite(total):
        i = np.isfinite(per_row).argmin()
        raise NonFiniteEnergyError(
            f"sum of W({integrand.name}) over X overflows at x={m[i]:.6g}")
    return total


@dataclass(frozen=True)
class EnergyReport:
    """Energy value plus provenance; breakdown holds per-row partial sums."""

    value: float
    n: int
    integrand: str
    breakdown: Optional[np.ndarray] = None


def energy(u: NodalFunction, integrand: Integrand, breakdown: bool = False) -> EnergyReport:
    """Quadrature of the double integral of W over (0,1)^2."""
    h = u.grid.h
    m = u.grid.midpoints
    sums = np.empty(u.grid.n)
    # every non-finite W or sum raises, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, x, ux, _, D in _quotient_blocks(u):
            sums[rows] = _density_row_sums(integrand, x, ux, D, m)
        per_row = h * h * sums
        value = _total(per_row, integrand, m)
    return EnergyReport(
        value=value,
        n=u.grid.n,
        integrand=integrand.name,
        breakdown=per_row if breakdown else None,
    )


def energy_value(u: NodalFunction, integrand: Integrand) -> float:
    return energy(u, integrand).value


def value_and_grad(u: NodalFunction, integrand: Integrand) -> tuple[float, np.ndarray]:
    """Energy value and its exact partial derivatives w.r.t. interior nodes,
    from one pass over the row blocks; equal bit for bit to energy_value and
    to the dense formula for the gradient.

    Each midpoint value depends on its two adjacent nodes with weight 1/2;
    each off-diagonal quotient D_ij depends on midpoint values i and j; the
    diagonal D_ii is the cell slope with nodal weights -1/h, +1/h. End
    values are fixed, so the gradient has length n - 1. A non-finite value
    or gradient raises NonFiniteEnergyError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        value, grad = _value_and_grad(u, integrand)
    if not np.all(np.isfinite(grad)):
        x = u.grid.nodes[1 + np.isfinite(grad).argmin()]
        raise NonFiniteEnergyError(f"gradient of W({integrand.name}) non-finite at x={x:.6g}")
    return value, grad


def _value_and_grad(u: NodalFunction, integrand: Integrand) -> tuple[float, np.ndarray]:
    g = u.grid
    h, n, m = g.h, g.n, g.midpoints
    w_rows = np.empty(n)
    g_um = np.empty(n)
    Bd = np.empty(n)
    # C[i, j] = B_ij / dm_ij off the diagonal; its column sums must add rows
    # in row order, as a dense C.sum(axis=0) does, so each block is reduced
    # together with the running sum stacked in row 0 above it
    stack = np.empty((_block_rows(n) + 1, n))
    name = integrand.name
    for rows, x, ux, dm, D in _quotient_blocks(u):
        # one density field alive at a time: W and A are reduced before B
        w_rows[rows] = _density_row_sums(integrand, x, ux, D, m)
        g_um[rows] = _finite(integrand.w_u(x, ux, D), f"dW/du({name})", x, m).sum(axis=1)
        B = _finite(integrand.w_U(x, ux, D), f"dW/dU({name})", x, m)
        Bd[rows] = _diag(B, rows.start)
        # off-diagonal chain rule: dD_ij/dum_j = 1/dm_ij, dD_ij/dum_i = -1/dm_ij
        k = rows.stop - rows.start
        C = np.divide(B, dm, out=stack[1 : k + 1])
        del B
        _diag(C, rows.start)[:] = 0.0
        g_um[rows] -= C.sum(axis=1)
        stack[0] = C.sum(axis=0) if rows.start == 0 else stack[: k + 1].sum(axis=0)
    g_um += stack[0]

    grad_nodes = np.zeros(n + 1)
    # midpoint value -> two adjacent nodes, weight 1/2 each
    grad_nodes[:-1] += 0.5 * g_um
    grad_nodes[1:] += 0.5 * g_um
    # diagonal cells: slope sensitivity
    grad_nodes[1:] += Bd / h
    grad_nodes[:-1] -= Bd / h

    return _total(h * h * w_rows, integrand, m), h * h * grad_nodes[1:-1]


def energy_gradient(u: NodalFunction, integrand: Integrand) -> np.ndarray:
    """Exact partial derivatives of the quadrature sum w.r.t. interior nodes
    (see value_and_grad)."""
    return value_and_grad(u, integrand)[1]


def refine_and_compare(
    u_profile: Callable[[np.ndarray], np.ndarray],
    integrand: Integrand,
    n: int,
    factor: int = 2,
    left_bc: Optional[float] = None,
    right_bc: Optional[float] = None,
) -> tuple[float, float, float]:
    """Energy of the same continuum profile sampled at n and factor*n cells.

    Returns (E_coarse, E_fine, |E_fine - E_coarse|).
    """
    if not isinstance(factor, (int, np.integer)) or factor < 2:
        raise ValueError(f"refinement factor must be an integer >= 2, got {factor}")
    energies = []
    for cells in (n, factor * n):
        grid = Grid1D(cells)
        u = NodalFunction.from_callable(grid, u_profile, left_bc, right_bc)
        energies.append(energy_value(u, integrand))
    return energies[0], energies[1], abs(energies[1] - energies[0])
