"""Tensor-midpoint quadrature of the double-integral energy and its gradient.

The energy of a nodal function u is h^2 * sum_{i,j} W(m_i, u(m_i), D_ij)
over all pairs of cell midpoints, with the diagonal pair evaluated at the
cell slope s_i (the exact coincidence limit of the difference quotient for
piecewise-linear u). Midpoints never coincide with each other across cells,
so no quadrature point is singular. For a separable W = phi(U) + psi(u), and
as D_ij = D_ji, the sum is

    h^2 * (sum_i phi(s_i) + 2 sum_{i<j} phi(D_ij)) + h * sum_i psi(u(m_i)),

which evaluates phi once per unordered pair and psi once per midpoint. The
gradient with respect to interior nodal values is its exact derivative.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .grid import Grid1D, NodalFunction
from .integrands import Integrand

__all__ = [
    "NonFiniteEnergyError",
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


def _windows(a: np.ndarray, offset: int, step: int, shape: tuple[int, int]) -> np.ndarray:
    """View v[r, j] = a[offset + r * step + j] of the contiguous 1-D array a,
    checked by numpy to stay inside a; sliding_window_view costs more."""
    size = a.itemsize
    return np.ndarray(shape, a.dtype, a, offset * size, (step * size, size))


def _circulant_blocks(u: NodalFunction, x: np.ndarray, ux: np.ndarray, offset: int,
                      step: int, rows: int, slopes: Optional[np.ndarray] = None):
    """Yield (r0, dX, D) for consecutive row blocks of a circulant layout of
    the cells around the origins x, with values ux: column c of row r holds
    cell j = (offset + c + step * r) mod n, dX = m_j - x_c and D = (u(m_j) -
    ux_c) / dX. With the cell slopes given, x are the midpoints themselves
    and row 0, offset 0, is the diagonal: D holds the slopes, and dX is
    infinite as they do not depend on u(m)."""
    shape, b = (rows, x.size), _block_rows(u.grid.n)
    # row r of these views is m and u(m) rotated left by offset + step * r
    mm = _windows(np.concatenate([u.grid.midpoints] * 2), offset, step, shape)
    uu = _windows(np.concatenate([u.midpoint_values] * 2), offset, step, shape)
    for r0 in range(0, rows, b):
        r1 = min(r0 + b, rows)
        dX = mm[r0:r1] - x
        diagonal = r0 == 0 and slopes is not None
        if diagonal:
            dX[0] = np.inf
        D = np.subtract(uu[r0:r1], ux)
        D /= dX
        if diagonal:
            D[0] = slopes
        yield r0, dX, D


def _fold_blocks(u: NodalFunction):
    """Yield (d0, dm, D) for consecutive row blocks of the circulant fold:
    fold row d, 0 <= d <= n // 2, holds the pair (i, j = (i + d) mod n) in
    column i, with dm = m_j - m_i and D its difference quotient, from the
    operands of the full n x n matrices. Row 0 is the diagonal of cell
    slopes. For even n, row n // 2 lists each of its pairs twice, as (i, j)
    and (j, i)."""
    m = u.grid.midpoints
    return _circulant_blocks(u, m, u.midpoint_values, 0, 1, m.size // 2 + 1, u.slopes)


def _pair_weights(P: np.ndarray, d0: int, n: int) -> np.ndarray:
    """Halve, in place, the rows whose listed pairs stand for one entry of
    the full square (the diagonal, and row n // 2 for even n), not two."""
    if d0 == 0:
        P[0] *= 0.5
    if n % 2 == 0 and d0 + P.shape[0] - 1 == n // 2:
        P[-1] *= 0.5
    return P


def _column_sums(P: np.ndarray, what: str, d0: int, m: np.ndarray,
                 source: Optional[np.ndarray] = None) -> np.ndarray:
    """Column sums of the fold block P, or NonFiniteEnergyError naming both
    midpoints of the first non-finite pair in source, the values P is
    computed from (P by default). Only a non-finite sum starts the search; a
    sum that overflowed from finite values is returned as it is."""
    sums = P.sum(axis=0)
    if not np.isfinite(sums).all():
        bad = np.argwhere(~np.isfinite(P if source is None else source))
        if bad.size:
            r, i = bad[0]
            raise NonFiniteEnergyError(f"{what} non-finite at quadrature point "
                                       f"(x={m[i]:.6g}, X={m[(i + d0 + r) % m.size]:.6g})")
    return sums


def _require_finite(values: np.ndarray, what: str, x: np.ndarray) -> np.ndarray:
    """values, or NonFiniteEnergyError naming x at the first non-finite one."""
    if not np.isfinite(values).all():
        raise NonFiniteEnergyError(f"{what} non-finite at x={x[np.isfinite(values).argmin()]:.6g}")
    return values


def _total(per_row: np.ndarray, integrand: Integrand, m: np.ndarray) -> float:
    """Sum of the per-midpoint energies. A per-midpoint sum can overflow
    where every W is finite; finite ones never overflow the total (it is at
    most h times the largest float), so one check of the total finds it."""
    total = float(per_row.sum())
    if not np.isfinite(total):
        i = np.isfinite(per_row).argmin()
        raise NonFiniteEnergyError(
            f"sum of W({integrand.name}) over X overflows at x={m[i]:.6g}")
    return total


def energy_value(u: NodalFunction, integrand: Integrand) -> float:
    """Quadrature of the double integral of W over (0,1)^2."""
    return _quadrature(u, integrand, with_grad=False)[0]


def value_and_grad(u: NodalFunction, integrand: Integrand) -> tuple[float, np.ndarray]:
    """Energy value and its exact partial derivatives w.r.t. interior nodes,
    from one pass over the fold; the value is energy_value's, bit for bit.

    Each midpoint value depends on its two adjacent nodes with weight 1/2;
    each off-diagonal quotient D_ij depends on midpoint values i and j; the
    diagonal D_ii is the cell slope with nodal weights -1/h, +1/h. End
    values are fixed, so the gradient has length n - 1. A non-finite value
    or gradient raises NonFiniteEnergyError.
    """
    return _quadrature(u, integrand, with_grad=True)


def _quadrature(u: NodalFunction, integrand: Integrand, with_grad: bool):
    g = u.grid
    h, n, m, um = g.h, g.n, g.midpoints, u.midpoint_values
    name = integrand.name
    half_rows = np.zeros(n)  # per midpoint i: half the weighted phi of column i
    if with_grad:
        # per midpoint: sums of C = phi'(D) / dm over the pairs it comes
        # first in (col) and second in (skew, from a strided view of [C C])
        col, skew = np.zeros(n), np.zeros(n)
        pair = np.empty((_block_rows(n), 2 * n))
        flat = pair.reshape(-1)
    # every non-finite value raises below; numpy's warnings would repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for d0, dm, D in _fold_blocks(u):
            P = _pair_weights(integrand.w(D), d0, n)
            half_rows += _column_sums(P, f"W({name})", d0, m)
            if not with_grad:
                continue
            B = integrand.w_U(D)
            if d0 == 0:
                slope_B = B[0].copy()
            k = B.shape[0]
            C = _pair_weights(np.divide(B, dm, out=pair[:k, :n]), d0, n)
            col += _column_sums(C, f"dW/dU({name})", d0, m, source=B)
            pair[:k, n:] = C
            # row r of the view is C[r] rotated right by d0 + r
            skew += _windows(flat, n - d0, 2 * n - 1, (k, n)).sum(axis=0)
        psi = _require_finite(integrand.mass(um), f"W({name})", m)
        value = _total(h * h * 2.0 * half_rows + h * psi, integrand, m)
        if not with_grad:
            return value, None
        dpsi = _require_finite(integrand.w_u(um), f"dW/du({name})", m)
        # d(2 phi(D_ij)) / d u(m_j) = 2 C_ij = -d(2 phi(D_ij)) / d u(m_i)
        g_um = 2.0 * (skew - col) + n * dpsi
        grad = h * h * (0.5 * (g_um[:-1] + g_um[1:]) + (slope_B[:-1] - slope_B[1:]) / h)
    return value, _require_finite(grad, f"gradient of W({name})", g.nodes[1:-1])


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
