"""Tensor-midpoint quadrature of the double-integral energy and its gradient.

The energy of a nodal function u is h^2 * sum_{i,j} W(m_i, u(m_i), D_ij)
over all pairs of cell midpoints, with the diagonal pair evaluated at the
cell slope s_i (the exact coincidence limit of the difference quotient for
piecewise-linear u). Midpoints never coincide with each other across cells,
so no quadrature point is singular. For a separable W = phi(U) + psi(u), and
as D_ij = D_ji, the sum is

    h^2 * (sum_i phi(s_i) + 2 sum_{i<j} phi(D_ij)) + h * sum_i psi(u(m_i)),

which evaluates phi once per unordered pair and psi once per midpoint. The
gradient with respect to interior nodal values is its exact derivative, and
_hessian gives its exact second derivatives from phi'' and psi''. Only this
module knows the circulant layout of the pairs (_circulant_blocks), which
the fold and _residuals (the kernel of optimality.py) read, and LAPACK's
packed storage: _hessian gives the Newton steps' matrix and the
half-square Hessian P, and _packed_inverse factors both.

Six caches keep state between calls, read-only. Four hold what depends on
the size alone: per n the midpoints laid out twice (_midpoints_twice), the
fold's pair distances for n <= FOLD_PLAN_MAX_N (_fold_distances, whose
rows 0..near the near/far path reads too) and the factor of P
(_half_square_inverse), two sizes each for the last two, and per (n, FFT
length, pair range, degree) the far kernels' spectra (_far_kernels). Two
hold what the near/far path's calls in one solve share, as its end values
fix the slope beta: the size rule per (n, c) (_sizes_split, 64 entries of
two numbers) and one row's far weights per (n, FFT length, pair range,
bits of c') (_row_weights, 8 entries of 1.9 MiB for a quartic at n =
8192). Each fills on its first call; everything else computes its
distances, and the windows their weights, per call.

The fold sums n^2 / 2 pairs per call. A density that carries phi's
coefficients (a polynomial phi) may take the near/far path instead, above
NEAR_FAR_ABOVE_N cells and, from NEAR_FAR_FROM_N, at the sizes with a
fast FFT length where its near rows are few: _near_far gives the plan of
the path, _Plan(near, band, unsigned), which _plan builds from _split(n,
c) and, for an odd phi, _unsigned_cells, and _fold runs it. _far_terms
sums every pair beyond the rows 0..near in O(n log n) by one engine,
_far_pairs, whose kernels hold both orders of each pair: over the whole
grid beyond the band, and up to it on windows that overlap by the band
(_block_pairs). The far cells whose sign is unknown it sums directly
(_unsigned_pairs). _quadrature alone decides which path runs. Either
path checks only its total and gradient; where one is not finite, the
dense fold reruns with a check per block, which names the first
non-finite pair. The two paths agree to rounding
(tests/near_far_errors.py).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from math import comb
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .grid import Grid1D, NodalFunction
from .integrands import Integrand, _horner, _sign, half_square

__all__ = [
    "NonFiniteEnergyError",
    "energy_value",
    "energy_gradient",
    "value_and_grad",
]


class NonFiniteEnergyError(ArithmeticError):
    """The density produced a non-finite value at a quadrature point."""


# elements per row block: 128 KiB per temporary, small enough to stay in
# cache, large enough to amortize the per-block overhead
BLOCK_ELEMS = 1 << 14


# above this many cells, a density with phi coefficients takes the near/far
# path, which won or tied for every built-in polynomial density at every n
# from 512 on; from NEAR_FAR_FROM_N it takes it only at the sizes where it
# won for every density that _split gives at most n // 8 near rows: n with
# no prime factor above 5, so that the FFT length 2 n is fast. It lost
# where 2 n has a large prime factor, slow in numpy's FFT (two-well 1.6x at
# n = 257 and 263), and for power:3 and U^6, whose near rows are a quarter
# of the fold or more (tests/near_far_scan.py --sizes 130:600)
NEAR_FAR_ABOVE_N = 511
NEAR_FAR_FROM_N = 256

# a phi with an odd coefficient splits each far row into cells of SIGN_CELL
# consecutive first midpoints, whose sign one min and one max test
# (_unsigned_cells); its band is at least SIGN_CELL, as a row d < SIGN_CELL
# would test cells whose first and second midpoints overlap, which only a
# locally constant u passes. Cells of 32, 64 and 128 took the same time
SIGN_CELL = 64

# an even phi of degree >= 4 sums the pairs at band // 4 < d <= band in
# blocks (_block_pairs) where its band is at least this many rows, from
# n = 2048 for a quartic. The blocks took 0.57-1.01 of the time of the fold
# rows they replace at n = 1024-2048 (tests/near_far_scan.py --blocks, one
# BLAS thread), but a lower cut would change the bits below n = 2048
BLOCKS_FROM_BAND = 128


def _split(n: int, c: tuple[float, ...]) -> Optional[tuple[int, int]]:
    """(near, band) of the near/far path on n cells for phi's coefficients
    c, or None where the dense fold runs (band >= n // 2). The far sums
    lose accuracy like (n / b)^(k - 1) for phi of degree k, so the band is
    b = n 16^(-3 / (k - 1)), at least 1 and, for an odd phi, SIGN_CELL:
    n // 4096 for k = 2, n // 64 for k = 3, n // 16 for k = 4. The fold
    sums the rows up to near = b, or b // 4 (n // 64 for a quartic) for an
    even phi of degree >= 4 whose band is at least BLOCKS_FROM_BAND, as the
    blocks' windows of about 4 b values keep their powers small (U^6, whose
    windows span about 0.76 n, keeps 9.9e-14 of max|g| at b // 4 and would
    leave 2.9e-11 at n // 64, n = 2048-16384). The errors against the dense
    fold are printed by tests/near_far_errors.py."""
    k, odd = len(c) - 1, any(c[1::2])
    b = max(SIGN_CELL if odd else 1, int(n * 2.0 ** (-12 / (k - 1))) if k > 1 else 1)
    if b >= n // 2:
        return None
    return (b // 4 if k >= 4 and not odd and b >= BLOCKS_FROM_BAND else b), b


def _block_rows(n: int) -> int:
    return min(n, max(1, BLOCK_ELEMS // n))


def _windows(a: np.ndarray, offset: int, step: int, shape: tuple[int, int]) -> np.ndarray:
    """View v[r, j] = a[offset + r * step + j] of the contiguous 1-D array a,
    checked by numpy to stay inside a; sliding_window_view costs more."""
    size = a.itemsize
    return np.ndarray(shape, a.dtype, a, offset * size, (step * size, size))


@lru_cache(maxsize=8)
def _midpoints_twice(n: int) -> np.ndarray:
    """The midpoints of the n-cell grid laid out twice, read-only: rows of
    circulant windows of it are the midpoints rotated left."""
    m = np.concatenate([Grid1D(n).midpoints] * 2)
    m.setflags(write=False)
    return m


# the fold keeps its pair distances up to this many cells; above it the
# blocks compute theirs
FOLD_PLAN_MAX_N = 2048


# two sizes: the benchmark's figures alternate n = 128 and 64 (fig4), and
# its solves 256 (two-well's near rows) and 512 (power:3's fallback)
@lru_cache(maxsize=2)
def _fold_distances(n: int) -> np.ndarray:
    """The fold's dm = m_j - m_i, read-only, for n <= FOLD_PLAN_MAX_N
    cells: row d, 0 <= d <= n // 2, column i holds j = (i + d) mod n, and
    row 0, the diagonal of cell slopes, is infinite: 8 n (n // 2 + 1)
    bytes. The dense fold reads every row, the near/far path rows
    0..near."""
    m = Grid1D(n).midpoints
    dm = _windows(_midpoints_twice(n), 0, 1, (n // 2 + 1, n)) - m
    dm[0] = np.inf
    dm.setflags(write=False)
    return dm


def _circulant_blocks(um: np.ndarray, x: np.ndarray, ux: np.ndarray, offset: int, step: int,
                      rows: int, distances: Optional[np.ndarray] = None):
    """Yield (r0, dX, D) for consecutive row blocks of a circulant layout of
    the n = um.size cells, with midpoint values um, around the origins x,
    with values ux: column c of row r holds cell j = (offset + c + step * r)
    mod n, dX = m_j - x_c and D = (um_j - ux_c) / dX. Given distances, the
    layout's dX computed once, the blocks slice it instead."""
    shape, b = (rows, x.size), _block_rows(um.size)
    # row r of these views is m and um rotated left by offset + step * r
    mm = _windows(_midpoints_twice(um.size), offset, step, shape)
    uu = _windows(np.concatenate([um] * 2), offset, step, shape)
    for r0 in range(0, rows, b):
        dX = mm[r0:r0 + b] - x if distances is None else distances[r0:r0 + b]
        D = np.subtract(uu[r0:r0 + b], ux)
        D /= dX
        yield r0, dX, D


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
    return _quadrature(u.grid, u.values, integrand, with_grad=False)[0]


def value_and_grad(u: NodalFunction, integrand: Integrand) -> tuple[float, np.ndarray]:
    """Energy value and its exact partial derivatives w.r.t. interior nodes,
    from one pass over the fold; the value is energy_value's, bit for bit.

    Each midpoint value depends on its two adjacent nodes with weight 1/2;
    each off-diagonal quotient D_ij depends on midpoint values i and j; the
    diagonal D_ii is the cell slope with nodal weights -1/h, +1/h. End
    values are fixed, so the gradient has length n - 1. A non-finite value
    or gradient raises NonFiniteEnergyError.
    """
    return _quadrature(u.grid, u.values, integrand, with_grad=True)


class _Plan(NamedTuple):
    """The near/far path on n + 1 nodal values: the fold's rows 0..near,
    _split's band and, for an odd phi, _unsigned_cells (None otherwise)."""

    near: int
    band: int
    unsigned: Optional[np.ndarray]


def _plan(values: np.ndarray, c: tuple[float, ...],
          split: Optional[tuple[int, int]] = None) -> Optional[_Plan]:
    """The plan of the near/far path on the n + 1 nodal values for phi's
    coefficients c, at split's near rows and band (_split's by default),
    with _unsigned_cells for a phi with an odd coefficient; None where
    _split gives None."""
    split = split or _split(values.size - 1, c)
    if split is None:
        return None
    near, band = split
    return _Plan(near, band, _unsigned_cells(values, band) if any(c[1::2]) else None)


@lru_cache(maxsize=64)
def _sizes_split(n: int, c: tuple[float, ...]) -> Optional[tuple[int, int]]:
    """_split(n, c) where the size rule lets the near/far path run, None
    where it does not: n below NEAR_FAR_FROM_N, or n up to NEAR_FAR_ABOVE_N
    that is not 5-smooth or whose near rows exceed n // 8. It reads n and
    c's degree and odd coefficients only, so it is kept per (n, c)."""
    split = _split(n, c) if n >= NEAR_FAR_FROM_N else None
    if split is None or (n <= NEAR_FAR_ABOVE_N and (_five_smooth(n) != n or split[0] > n // 8)):
        return None
    return split


def _near_far(values: np.ndarray, c: Optional[tuple[float, ...]]) -> Optional[_Plan]:
    """_plan of the near/far path on the n + 1 nodal values for phi's
    coefficients c, or None where the dense fold runs: a density without
    coefficients, _split's None or the size rule's (_sizes_split), and for
    an odd phi too many unsigned cells (_direct_pays)."""
    n = values.size - 1
    split = None if c is None else _sizes_split(n, c)
    if split is None:
        return None
    plan = _plan(values, c, split)
    return plan if plan.unsigned is None or _direct_pays(plan.unsigned, n, plan.band) else None


def _quadrature(grid: Grid1D, values: np.ndarray, integrand: Integrand, with_grad: bool):
    """(energy, gradient or None) of the n + 1 nodal values on grid, which
    need not form a NodalFunction: _fold on _near_far's plan, the dense
    fold where it gives None. Where either gives a non-finite energy or
    gradient, the dense fold reruns with its checks: it raises
    NonFiniteEnergyError naming the first non-finite pair or point, or, where
    only the path's sums overflowed, returns its own finite result."""
    plan = _near_far(values, integrand.phi_coefficients)
    result = _fold(grid, values, integrand, with_grad, plan)
    return result if _finite(*result) else _fold(grid, values, integrand, with_grad, check=True)


def _finite(value: float, grad: Optional[np.ndarray]) -> bool:
    return np.isfinite(value) and (grad is None or np.isfinite(grad).all())


# a non-finite value is returned for _quadrature to check, or raised with
# check: numpy's warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def _fold(grid: Grid1D, values: np.ndarray, integrand: Integrand, with_grad: bool,
          plan: Optional[_Plan] = None, check: bool = False):
    """(energy, gradient or None) from every row of the fold, or, given a
    plan, the near/far path: first _far_terms' (f, gradient or None) of the
    plan's far pairs, then the fold's rows 0..near, the pairs at index
    distance d <= near and d >= n - near. Non-finite values are returned as
    they are; with check, the dense fold instead raises
    NonFiniteEnergyError at the first block whose sums are not finite,
    naming the pair, or at psi, psi' or the total, naming a midpoint, or at
    the gradient, naming a node."""
    # far terms first, so that the fold's blocks reuse the FFTs' heap
    far = None if plan is None else _far_terms(grid, values, integrand, with_grad, plan)
    h, n, m = grid.h, grid.n, grid.midpoints
    # midpoint values and NodalFunction.slopes, np.diff written out
    um = 0.5 * (values[:-1] + values[1:])
    slopes = (values[1:] - values[:-1]) / h
    name = integrand.name
    half_rows = np.zeros(n)  # per midpoint i: half the weighted phi of column i
    if far is not None:
        half_rows += far[0]
    # the fold: row d, 0 <= d <= n // 2, holds the pair (i, j = (i + d) mod n)
    # in column i, with dm = m_j - m_i. Row 0 is the diagonal of cell slopes,
    # dm infinite as they do not depend on um; for even n, row n // 2 lists
    # each of its pairs twice, as (i, j) and (j, i)
    rows = n // 2 + 1 if plan is None else plan.near + 1
    if with_grad:
        # per midpoint: sums of C = phi'(D) / dm over the pairs it comes
        # first in (col) and second in (skew, from a strided view of [C C])
        col, skew = np.zeros(n), np.zeros(n)
        pair = np.empty((min(rows, _block_rows(n)), 2 * n))
        flat = pair.reshape(-1)
    distances = None if n > FOLD_PLAN_MAX_N else _fold_distances(n)[:rows]
    column_sums = _column_sums if check else lambda P, *_, **__: P.sum(axis=0)
    require = _require_finite if check else lambda values, *_: values
    for d0, dm, D in _circulant_blocks(um, m, um, 0, 1, rows, distances):
        if d0 == 0:
            D[0] = slopes
            if distances is None:
                dm[0] = np.inf
        P = _pair_weights(integrand.w(D), d0, n)
        half_rows += column_sums(P, f"W({name})", d0, m)
        if not with_grad:
            continue
        B = integrand.w_U(D)
        if d0 == 0:
            slope_B = B[0].copy()
        k = B.shape[0]
        C = _pair_weights(np.divide(B, dm, out=pair[:k, :n]), d0, n)
        col += column_sums(C, f"dW/dU({name})", d0, m, source=B)
        pair[:k, n:] = C
        # row r of the view is C[r] rotated right by d0 + r
        skew += _windows(flat, n - d0, 2 * n - 1, (k, n)).sum(axis=0)
    psi = require(integrand.mass(um), f"W({name})", m)
    per_row = h * h * 2.0 * half_rows + h * psi
    value = _total(per_row, integrand, m) if check else float(per_row.sum())
    if not with_grad:
        return value, None
    dpsi = require(integrand.w_u(um), f"dW/du({name})", m)
    # d(2 phi(D_ij)) / d u(m_j) = 2 C_ij = -d(2 phi(D_ij)) / d u(m_i)
    g_um = 2.0 * (skew - col) + n * dpsi
    if far is not None:
        g_um += 2.0 * far[1]
    grad = h * h * (0.5 * (g_um[:-1] + g_um[1:]) + (slope_B[:-1] - slope_B[1:]) / h)
    return value, require(grad, f"gradient of W({name})", grid.nodes[1:-1])


@np.errstate(over="ignore", invalid="ignore")
def _far_terms(grid: Grid1D, values: np.ndarray, integrand: Integrand, with_grad: bool, plan: _Plan):
    """(f, gradient of sum(f) in the midpoint values, or None): sum(f) is
    the sum of phi(D_ij) over the pairs at the plan's near < d < n - near,
    each term held half at each end, or at its first midpoint in the
    unsigned cells. _far_pairs sums d > band around r, the midpoint values
    less the line through the end values, centred on its midrange (the
    smaller max |r|, the less its powers cancel), _block_pairs d <= band,
    and _unsigned_pairs corrects the plan's unsigned cells."""
    near, band, unsigned = plan
    n, um = grid.n, 0.5 * (values[:-1] + values[1:])
    beta = values[-1] - values[0]
    r = um - (values[0] + beta * grid.midpoints)
    r -= 0.5 * (r.max() + r.min())
    f, grad = _far_pairs(r, beta, integrand, n, band, n - near - 1, 2 * n, with_grad)
    parts = [_block_pairs(um, integrand, near, band, with_grad)] if near < band else []
    if unsigned is not None:
        parts.append(_unsigned_pairs(um, beta, integrand.phi_coefficients, band, unsigned, with_grad))
    for part, part_grad in parts:
        f += part
        if with_grad:
            grad += part_grad
    return f, grad


@lru_cache(maxsize=8)
def _far_kernels(n: int, size: int, lo: int, hi: int, degree: int) -> np.ndarray:
    """Spectra, read-only, of the length-size circulant embeddings of Z_k for
    k = 0..degree: the Toeplitz matrix with (Z_k)_ij = ((j - i) h)^-k, h =
    1 / n, where lo < |j - i| <= hi, zero elsewhere, which is symmetric for
    an even k and antisymmetric for an odd one. Z_k = U_k + (-1)^k U_k',
    with U_k its upper triangle, whose embedding's spectrum is conjugated by
    the transpose, so Z_k's is real or imaginary."""
    from numpy.fft import rfft  # here, so `import nlvar` loads no numpy.fft
    d = np.arange(lo + 1, hi + 1)
    column = np.zeros((degree + 1, size))
    column[:, size - d] = _powers(n / d, degree)
    spectra = rfft(column)
    spectra += spectra.conj() * (-1.0) ** np.arange(degree + 1)[:, None]
    spectra.setflags(write=False)
    return spectra


def _far_weights(K: np.ndarray, shifted: list) -> Iterator[np.ndarray]:
    """W[q] for q = 0..degree, whose row p <= degree - q is c'_(p+q) C(p+q,
    q) Z_(p+q): the weights of _far_pairs' products, from the spectra K of
    _far_kernels and c' = shifted, numbers for one row or columns for rows
    of windows. Each W[q] is written in place when it is asked for, so the
    windows' products read one q's weights at a time."""
    degree = len(shifted) - 1
    shape = np.broadcast_shapes(np.shape(shifted[0]), K.shape[1:])
    for q in range(degree + 1):
        w = np.empty((degree + 1 - q,) + shape, K.dtype)
        for p in range(degree + 1 - q):
            np.multiply(shifted[p + q] * comb(p + q, q), K[p + q], out=w[p])
        yield w


# eight entries, as _far_kernels: a solve's end values fix beta, and so c',
# for all its evaluations
@lru_cache(maxsize=8)
def _row_weights(n: int, size: int, lo: int, hi: int, shifted: bytes) -> tuple[np.ndarray, ...]:
    """_far_weights, read-only, of one row with a scalar slope, keyed on the
    bits of c' (float64 bytes): not on the density or beta, as two densities
    with the same coefficients may round phi(beta) differently, nor on c' as
    numbers, which would take -0.0 for 0.0. An entry holds (degree + 1)
    (degree + 2) / 2 spectra of size // 2 + 1 complex values: 1.9 MiB for a
    quartic at n = 8192 (size 2 n), where eight entries hold 15 MiB."""
    numbers = np.frombuffer(shifted).tolist()
    W = tuple(_far_weights(_far_kernels(n, size, lo, hi, len(numbers) - 1), numbers))
    for w in W:
        w.setflags(write=False)
    return W


def _far_pairs(r: np.ndarray, beta, integrand: Integrand, n: int, lo: int, hi: int,
               size: int, with_grad: bool, valid: Optional[np.ndarray] = None):
    """(f, gradient of sum(f) in r, or None), each shaped like r: the
    midpoint values a = line + r on a grid of n cells, either one row, a 1-D
    r whose line has the slope beta, or rows of windows of them, each with
    its own slope beta[t]. sum(f[t]) is the sum of P(s D_ij) over the row's
    pairs i < j = i + d, lo < d <= hi, and f holds half of each pair's term
    at each end. Given valid, a boolean mask shaped like r, a position
    outside it pairs with nothing, and f and the gradient are 0 there. Here
    P(D) = sum_k c_k D^k and s = _sign(beta[t]). For an even P, P(s D) =
    phi(D); otherwise only where s D >= 0 (_unsigned_pairs adds the rest).

    There D_ij = beta + (r_j - r_i) / ((j - i) h), and P(s (beta + R)) =
    sum_k c'_k R^k with c' the Taylor shift of (c_k s^k) to beta, which
    phi's closed forms give for k <= 2. By the binomial expansion of (r_j -
    r_i)^k, with w_pq = c'_(p+q) C(p+q, q) and Z_k of _far_kernels, which
    holds each pair in both orders,

        f = sum_p (-r)^p V_p / 2,   V_p = sum_q w_pq Z_(p+q) r^q,

    and the gradient is -sum_p p (-r)^(p-1) V_p, from the same products:
    one batched rfft of the powers of r, times valid, one product per q of
    the weights w_pq Z_(p+q) (_far_weights; kept per row by _row_weights)
    for all p, and one batched irfft of length size. The products are
    circular: position i also pairs with i + d +- size, so a row of at
    most size - hi positions sees no wrapped term, and a longer one sees
    them only within hi of its ends."""
    from numpy.fft import irfft, rfft  # here, so `import nlvar` loads no numpy.fft
    c, width, windows = integrand.phi_coefficients, r.shape[-1], r.ndim > 1
    degree = len(c) - 1
    # one row's sign as a number, which numpy multiplies into an array
    # faster; a column per row of windows
    s = _sign(beta) if windows else float(_sign(beta))
    # c'_k = phi^(k)(beta) / k!, from the closed forms for k <= 2: near a
    # root of phi the monomial sums cancel, and phi(beta) weighs every pair
    shifted = ([integrand.w(beta), integrand.w_U(beta), 0.5 * integrand.w_UU(beta)]
               + [sum(comb(j, k) * c[j] * s ** j * beta ** (j - k) for j in range(k, degree + 1))
                  for k in range(3, degree + 1)])[:degree + 1]
    if windows:
        W = _far_weights(_far_kernels(n, size, lo, hi, degree), [x[:, None] for x in shifted])
    else:
        W = _row_weights(n, size, lo, hi, np.array(shifted, float).tobytes())
    powers = _powers(r, degree)
    if valid is not None:
        powers *= valid
    R = rfft(powers, size)
    # V_p's spectrum sums q = 0, 1, ... in turn, one product per q for all p
    W = iter(W)
    spectra = np.multiply(next(W), R[0])
    for q, w in enumerate(W, 1):
        spectra[:degree + 1 - q] += w * R[q]
    V = irfft(spectra, size)[..., :width]
    x = -r
    f = _horner(V, x)
    f *= 0.5 if valid is None else 0.5 * valid
    if not with_grad:
        return f, None
    # -sum_p p (-r)^(p-1) V_p, the sign taken into the coefficients
    grad = _horner([-p * V[p] for p in range(1, degree + 1)], x)
    if valid is not None:
        grad *= valid
    return f, grad


def _block_pairs(a: np.ndarray, integrand: Integrand, near: int, band: int, with_grad: bool):
    """(f, gradient of sum(f) in a, or None): sum(f) is the sum of phi(D_ij)
    over the pairs i < j = i + d, near < d <= band, of the midpoint values a,
    for an even phi, with half of each pair's term at each end. Blocks of B
    = width - 2 band values, width the least 5-smooth number >= 4 band, each
    read the window of width values that holds them and band more on either
    side, zero past the ends of a and masked there; _far_pairs sums each
    window by circular products of length width, which wrap onto none of
    its B central values. A central value's partners all lie in its window,
    so its f and gradient are whole, and the blocks keep only those. Each
    window is its own line, of the slope through its first and last valid
    values, plus r centred on its midrange over them, far smaller than over
    the whole grid."""
    n, width = a.size, _five_smooth(4 * band)
    B = width - 2 * band
    blocks = -(-n // B)
    padded = np.zeros((blocks - 1) * B + width)
    padded[band:band + n] = a
    window = _windows(padded, 0, B, (blocks, width))
    k = np.arange(width)
    # a[start + k] at position k; the valid ones run from first to last, at
    # least band + 1 of them, as each window holds a central value of a
    start = B * np.arange(blocks) - band
    first, last = np.maximum(-start, 0), np.minimum(n - start, width) - 1
    valid = (k >= first[:, None]) & (k <= last[:, None])
    rows = np.arange(blocks)
    beta = (window[rows, last] - window[rows, first]) * n / (last - first)
    r = window - beta[:, None] * (k / n)
    r -= 0.5 * (np.where(valid, r, -np.inf).max(axis=1)
                + np.where(valid, r, np.inf).min(axis=1))[:, None]
    f, grad = _far_pairs(r, beta, integrand, n, near, band, width, with_grad, valid)
    f = f[:, band:band + B].reshape(-1)[:n]
    return f, None if grad is None else grad[:, band:band + B].reshape(-1)[:n]


def _five_smooth(b: int) -> int:
    """The least m >= b with no prime factor above 5, a length numpy's FFT
    takes fast."""
    m = b
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def _powers(x: np.ndarray, degree: int) -> np.ndarray:
    """Rows x^0..x^degree by repeated products: ** with an array of
    exponents calls pow once per element, about 100 times slower."""
    powers = np.empty((degree + 1,) + x.shape)
    powers[0] = 1.0
    for q in range(1, degree + 1):
        np.multiply(powers[q - 1], x, out=powers[q])
    return powers


@np.errstate(over="ignore", invalid="ignore")
def _unsigned_cells(values: np.ndarray, band: int) -> np.ndarray:
    """unsigned[c, t]: whether the sign test fails for cell c of the far row
    d = band + 1 + t, the pairs (i, i + d) with c L <= i < min(c L + L, n -
    d), L = SIGN_CELL, of the n = values.size - 1 midpoint values a. A cell
    passes where min s a_j >= max s a_i over its j and its i, s =
    _sign(beta): then every D_ij in it has the sign s, and phi(D) = P(s D).
    One min of s a over each window of L (by doubling) and one max over
    each cell's L values of i (past n - d too, which only makes a cell fail
    sooner) give all n^2 / (2 L) tests."""
    L, n = SIGN_CELL, values.size - 1
    a = 0.5 * (values[:-1] + values[1:])
    a *= _sign(values[-1] - values[0])
    cells = -(-n // L)
    high = np.full(cells * L, -np.inf)
    high[:n] = a
    high = high.reshape(cells, L).max(axis=1)
    # low[p] = min a[p:p + L]; a window past n holds fewer values, an empty
    # one (a cell that does not exist) is +inf and passes
    low = np.full(n + (cells + 1) * L, np.inf)
    low[:n] = a
    k = 1
    while k < L:
        low = np.minimum(low[:-k], low[k:])
        k *= 2
    # row c of the view is low from c L + band + 1 on
    rows = n - 2 * band - 1
    return _windows(low, band + 1, L, (cells, rows)) < high[:, None]


def _unsigned_share(unsigned: np.ndarray, n: int, band: int) -> float:
    """The share of the n (n - 2 b - 1) / 2 far pairs that the unsigned
    cells hold, each counted at its pairs: SIGN_CELL, less what the one cell
    of each far row d that runs past n - d lacks."""
    L, d = SIGN_CELL, np.arange(band + 1, n - band)
    last = (n - d - 1) // L
    lacking = unsigned[last, d - band - 1] @ (last * L + L + d - n)
    return 2 * (L * np.count_nonzero(unsigned) - lacking) / (n * (n - 2 * band - 1))


def _direct_pays(unsigned: np.ndarray, n: int, band: int) -> bool:
    """Whether the unsigned cells hold at most max(1/2, (n - 256) / 2048) of
    the far pairs (_unsigned_share); above that, the dense fold runs. The
    cut follows where power:3's path ties with the dense fold on the rough
    and hat profiles, at a share of 0.42 for n = 1024, 0.84 at 2048 and
    above 1 from 4096 on, less the rough profile at 2048 (share 1), whose
    path is 1.18x slower (tests/near_far_scan.py --densities power:3
    --profiles rough hat, one BLAS thread)."""
    return _unsigned_share(unsigned, n, band) <= max(0.5, (n - 256) / 2048)


def _unsigned_pairs(a: np.ndarray, beta: float, c: tuple[float, ...], band: int,
                    unsigned: np.ndarray, with_grad: bool):
    """(f, gradient of sum(f) in a, or None): sum(f) is the sum of phi(D_ij)
    - P(s D_ij) over the pairs (i, j) of the unsigned cells
    (_unsigned_cells) of the midpoint values a, where phi(D) = P(|D|) =
    sum_k c_k |D|^k and s = _sign(beta); f holds each pair's term at its
    first midpoint. Where s D >= 0 the difference is 0, and where s D < 0 it
    is -2 O(s D), with O P's odd part. A cell's runs of unsigned far rows
    are read BLOCK_ELEMS // L rows at a time from one window of a, as y[r,
    q] for the pairs (c L + q, c L + q + d0 + r): the first midpoints'
    gradient is a product with y's columns, the second ones' the sums along
    its anti-diagonals."""
    L, n, s = SIGN_CELL, a.size, _sign(beta)
    # s a, then +inf: a pair whose second midpoint lies past n gives y = 0.
    # A cell with a far pair is whole, as the band is at least L
    sa = np.concatenate([s * a, np.full(n + L, np.inf)])
    f = np.zeros(n)
    grad = np.zeros(2 * n + L) if with_grad else None
    step, skews = BLOCK_ELEMS // L, {}
    for cell in np.flatnonzero(unsigned.any(axis=1)):
        t = np.flatnonzero(unsigned[cell])
        gaps = np.flatnonzero(np.diff(t) > 1)
        i0 = cell * L
        first = sa[i0:i0 + L]
        for t_start, t_end in zip(t[np.r_[0, gaps + 1]], t[np.r_[gaps, -1]] + 1):
            for t0 in range(t_start, t_end, step):
                rows, d0 = min(step, t_end - t0), t0 + band + 1
                # y = min(s (a_j - a_i), 0); s D = y n / d where s D < 0
                y = _windows(sa, i0 + d0, 1, (rows, L)) - first
                np.minimum(y, 0.0, out=y)
                # (k, w_k (n / d)^k, y^(k - 1)) for the odd k with c_k != 0,
                # w_k = -2 c_k; y^0 is 0 where y = 0
                scale = _powers(n / np.arange(d0, d0 + rows), len(c) - 1)
                y2 = y * y
                even, terms = y < 0 if c[1] else None, []
                for k in range(1, len(c), 2):
                    if k > 1:
                        even = y2 if k == 3 else even * y2
                    if c[k]:
                        terms.append((k, -2.0 * c[k] * scale[k], even))
                f[i0:i0 + L] += sum(w @ (even * y) for _, w, even in terms)
                if not with_grad:
                    continue
                # d f / d a_j = s sum_k k w_k (n / d)^k y^(k - 1) = -d f /
                # d a_i, written transposed and skewed into the rows of B,
                # B[q, q + r], whose column sums are the anti-diagonal sums
                if rows not in skews:
                    skews[rows] = np.zeros((L, rows + L))
                B = skews[rows]
                skewed = _windows(B.reshape(-1), 0, rows + L + 1, (L, rows))
                for m, (k, w, even) in enumerate(terms):
                    slope = s * k * w
                    grad[i0:i0 + L] -= slope @ even
                    if m == 0:
                        np.multiply(even.T, slope, out=skewed)
                    else:
                        skewed += even.T * slope
                grad[i0 + d0:i0 + d0 + rows + L] += B.sum(axis=0)
    return f, None if grad is None else grad[:n]


@np.errstate(over="ignore", invalid="ignore")
def _residuals(grid: Grid1D, values: np.ndarray, integrand: Integrand, lo: int, hi: int) -> np.ndarray:
    """R(x_k) of optimality.py at the interior nodes lo <= k < hi, from the
    circulant layout with the nodes as origins: row r holds the cell (k + r)
    mod n in column k - lo, and its mirror row the cell (k - 1 - r) mod n.
    The two are the cells at distance (r + 1/2) h either side of x_k wherever
    both exist, so each row is added to its mirror row first; rows are then
    accumulated one at a time, which makes a node's value independent of its
    block. A non-finite residual raises NonFiniteEnergyError."""
    n, x, ux = grid.n, grid.nodes[lo:hi], values[lo:hi]
    um = 0.5 * (values[:-1] + values[1:])

    def terms(offset: int, step: int, rows: int):
        # phi'(D) / dX, where W_U(x_k, u_k, D) + W_U(m, u(m), D) = 2 phi'(D),
        # written over D: the generator keeps its block alive until the next
        for _, dX, D in _circulant_blocks(um, x, ux, offset, step, rows):
            yield np.divide(integrand.w_U(D), dX, out=D)

    total = np.zeros(hi - lo)
    # for odd n the last right-hand row has no mirror
    for P, mirror in zip_longest(terms(lo, 1, (n + 1) // 2), terms(lo + n - 1, -1, n // 2)):
        if mirror is not None:
            P[:mirror.shape[0]] += mirror
        for row in P:
            total += row
    R = grid.h * (-2.0 * total) + integrand.w_u(ux)
    return _require_finite(R, f"residual of {integrand.name}", x)


@np.errstate(all="ignore")
def _hessian(grid: Grid1D, values: np.ndarray, integrand: Integrand) -> np.ndarray:
    """Exact Hessian of the quadrature in the n - 1 interior nodal values,
    from integrand.w_UU and w_uu, in LAPACK's lower packed storage (column l
    holds rows l..n-2 of column l, one column after the other). Non-finite
    entries are returned as they are, without a warning.

    In the midpoint values a, the pair terms 2 h^2 phi(D_ij) give the
    weighted graph Laplacian 2 h^2 (diag(row sums of Wh) - Wh), with Wh_ij =
    phi''(D_ij) / dm_ij^2 off the diagonal, and the psi terms give h
    diag(psi''(a)); A' (...) A carries them to the nodes, with A the
    node-to-midpoint average. Each slope term h^2 phi(s_i) adds phi''(s_i)
    [[1, -1], [-1, 1]] on nodes i, i + 1. The packed columns are written
    BLOCK_ELEMS // n at a time from the midpoint rows they read, by
    elementwise numpy only: no BLAS call, so the bits do not depend on the
    BLAS thread count, and no n x n array.
    """
    h, n, m = grid.h, grid.n, grid.midpoints
    size = n - 1
    ap = np.empty(size * (size + 1) // 2)
    um = 0.5 * (values[:-1] + values[1:])
    # per midpoint row j, the sum of Wh_ji over the columns i left of the
    # current block, accumulated from the earlier blocks' rows (Wh = Wh')
    left_sums = np.zeros(n)
    b = _block_rows(n)
    slope_w = integrand.w_UU((values[1:] - values[:-1]) / h)
    psi_w = h * integrand.w_uu(um)
    start = 0
    for l0 in range(0, size, b):
        l1 = min(l0 + b, size)
        # midpoint rows j = l0..l1 and columns i >= l0 of Wh, then of
        # the midpoint Hessian; row l1 is the next block's first
        r = np.arange(l1 - l0 + 1)
        diag = (r, r)
        dm = m[l0:] - m[l0:l1 + 1, None]
        dm[diag] = 1.0  # D_jj = 0 / 1, overwritten below
        Hm = integrand.w_UU((um[l0:] - um[l0:l1 + 1, None]) / dm)
        Hm /= dm * dm
        Hm[diag] = 0.0
        row_sums = left_sums[l0:l1 + 1] + Hm.sum(axis=1)
        left_sums[l1:] += Hm[:-1, l1 - l0:].sum(axis=0)
        Hm *= -2.0 * h * h
        Hm[diag] = 2.0 * h * h * row_sums + psi_w[l0:l1 + 1]
        # A' Hm A for nodal columns l0..l1-1, rows l0.., then the slopes
        S = Hm[:-1] + Hm[1:]
        T = S[:, :-1] + S[:, 1:]
        T *= 0.25
        c, cols = r[:-1], l0 + r[:-1]
        T[c, c] += slope_w[cols] + slope_w[cols + 1]
        below = cols + 1 < size
        T[c[below], c[below] + 1] -= slope_w[cols[below] + 1]
        block = T[np.arange(size - l0) >= c[:, None]]
        ap[start:start + block.size] = block
        start += block.size
    return ap


def _packed_inverse(ap: np.ndarray, m: int) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """q -> M^-1 q for the m x m matrix M in packed storage ap, which it
    overwrites with the Cholesky factor; None where ap is not finite or M is
    not positive definite. The packed factor (dpptrf) gives the same bits
    for any BLAS thread count, where a full one (dpotrf) does not."""
    from scipy.linalg.lapack import dpptrf, dpptrs  # here, so `import nlvar` loads no scipy
    if not np.isfinite(ap).all():
        return None
    factor, info = dpptrf(m, ap, lower=1, overwrite_ap=1)
    if info != 0:
        return None
    factor.setflags(write=False)
    return lambda q: dpptrs(m, factor, q, lower=1)[0]


# two sizes, for solves that alternate two grids, such as n and 2n
@lru_cache(maxsize=2)
def _half_square_inverse(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """The solve of P, the Hessian of the half-square energy on n cells,
    kept per n with its factor of 4 n (n - 1) bytes. P is _hessian of
    half-square, which reads the values only through phi'' = 1 and psi'' =
    0, so the matrix does not depend on them: zeros give it bit for bit. A
    failed factor raises LinAlgError, which the cache does not keep, so the
    next call factors again."""
    solve = _packed_inverse(_hessian(Grid1D(n), np.zeros(n + 1), half_square()), n - 1)
    if solve is None:
        raise np.linalg.LinAlgError("half-square Hessian not positive definite")
    return solve


def energy_gradient(u: NodalFunction, integrand: Integrand) -> np.ndarray:
    """Exact partial derivatives of the quadrature sum w.r.t. interior nodes
    (see value_and_grad)."""
    return value_and_grad(u, integrand)[1]
