"""Reference computations that the benchmark checks nlvar against.

Nothing here imports nlvar: each oracle works from plain nodal-value arrays
on the uniform grid of [0, 1] with n cells, and its densities are written out
again below, so a fault in the program cannot hide in a shared helper.

- `energy`: the tensor-midpoint energy, summed in row blocks so that an
  n = 4096 check allocates O(n * block) floats, not O(n^2).
- `QuadraticProblem`: the exact discrete minimizer of the half-square and
  quad-mass energies from a dense linear solve of the assembled Hessian.
- `residual`: the Euler-Lagrange residual at every interior node with the
  symmetric principal-value pairing, vectorized over nodes.
- `pv_law`: the principal-value limit of the half-square residual of the
  linear profile, -2 log((1 - x) / x).
- `inverse_k`: 1/k = int_0^1 x^{2x} (1-x)^{2(1-x)} dx by tanh-sinh
  quadrature.
- `local_solution`: sinh(4x) / sinh(4), the closed form of the local
  quadratic-plus-mass problem e^4/(e^8-1) (e^{4x} - e^{-4x}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ROW_BLOCK = 128


def _power(p):
    return (lambda u, U: np.abs(U) ** p,
            lambda u, U: 0.0 * U,
            lambda u, U: p * np.sign(U) * np.abs(U) ** (p - 1.0))


# name -> (W(u, U), W_u(u, U), W_U(u, U)); every built-in density is x-free
DENSITIES = {
    "half-square": (lambda u, U: 0.5 * U * U,
                    lambda u, U: 0.0 * U,
                    lambda u, U: U),
    "quad-mass": (lambda u, U: 0.5 * U * U + 8.0 * u * u,
                  lambda u, U: 16.0 * u + 0.0 * U,
                  lambda u, U: U),
    "two-well": (lambda u, U: 0.25 * (U * U - 1.0) ** 2 + 0.5 * u * u,
                 lambda u, U: u + 0.0 * U,
                 lambda u, U: U * (U * U - 1.0)),
    "two-well-bare": (lambda u, U: 0.25 * (U * U - 1.0) ** 2,
                      lambda u, U: 0.0 * U,
                      lambda u, U: U * (U * U - 1.0)),
}


def density(name: str):
    """(W, W_u, W_U) for a density name, 'power:p' included."""
    if name.startswith("power:"):
        return _power(float(name.split(":", 1)[1]))
    return DENSITIES[name]


def nodes(n: int) -> np.ndarray:
    """The n + 1 node coordinates i / n."""
    return np.arange(n + 1) / n


def energy(values: np.ndarray, name: str, block: int = ROW_BLOCK) -> float:
    """h^2 sum_{i,j} W(u(m_i), D_ij) over all pairs of cell midpoints, with
    D_ij = (u(m_j) - u(m_i)) / (m_j - m_i) and D_ii the slope of cell i."""
    v = np.asarray(values, dtype=float)
    n = v.size - 1
    h = 1.0 / n
    w = density(name)[0]
    um = 0.5 * (v[:-1] + v[1:])
    slope = (v[1:] - v[:-1]) * n
    idx = np.arange(n)
    partial = []
    for lo in range(0, n, block):
        rows = idx[lo:lo + block]
        gap = (idx[None, :] - rows[:, None]) * h
        diag = gap == 0.0
        D = (um[None, :] - um[rows, None]) / np.where(diag, 1.0, gap)
        D[diag] = slope[rows]
        partial.append(float(w(um[rows, None], D).sum()))
    return math.fsum(partial) * h * h


def directional_derivative(values: np.ndarray, name: str, direction: np.ndarray,
                           eps: float = 1e-4) -> float:
    """Central difference of `energy` along a direction that vanishes at
    both end nodes."""
    v = np.asarray(values, dtype=float)
    d = np.asarray(direction, dtype=float)
    return (energy(v + eps * d, name) - energy(v - eps * d, name)) / (2.0 * eps)


def smooth_direction(n: int, mode: int) -> np.ndarray:
    """sin(mode * pi * x) at the nodes, scaled to unit Euclidean norm; it is
    zero at both end nodes, so it moves interior values only."""
    d = np.sin(mode * np.pi * nodes(n))
    d[0] = d[-1] = 0.0
    return d / np.linalg.norm(d)


@dataclass(frozen=True)
class QuadraticProblem:
    """Half-square (mass=False) or quad-mass (mass=True) energy as the exact
    quadratic form E(v) = 1/2 v^T M v in the nodal values v.

    With averaging A (nodes -> midpoints), slopes S, and the Laplacian L of
    the pair weights 1/(m_j - m_i)^2:
        M = 2 h^2 A^T L A + h^2 S^T S  (+ 16 h A^T A with the mass term).
    """

    n: int
    mass: bool
    M: np.ndarray

    @classmethod
    def assemble(cls, n: int, mass: bool) -> "QuadraticProblem":
        h = 1.0 / n
        idx = np.arange(n)
        gap = (idx[None, :] - idx[:, None]) * h
        K = np.zeros((n, n))
        off = gap != 0.0
        K[off] = 1.0 / gap[off] ** 2
        L = np.diag(K.sum(axis=1)) - K
        A = np.zeros((n, n + 1))
        A[idx, idx] = A[idx, idx + 1] = 0.5
        S = np.zeros((n, n + 1))
        S[idx, idx], S[idx, idx + 1] = -1.0 / h, 1.0 / h
        M = 2.0 * h * h * A.T @ L @ A + h * h * S.T @ S
        if mass:
            M += 16.0 * h * A.T @ A
        return cls(n=n, mass=mass, M=M)

    @property
    def hessian(self) -> np.ndarray:
        return self.M[1:-1, 1:-1]

    def _load(self, bc) -> np.ndarray:
        return self.M[1:-1, [0, self.n]] @ np.asarray(bc, dtype=float)

    def gradient(self, values: np.ndarray) -> np.ndarray:
        """Exact gradient with respect to the interior nodal values."""
        v = np.asarray(values, dtype=float)
        return self.hessian @ v[1:-1] + self._load((v[0], v[-1]))

    def minimizer(self, bc) -> np.ndarray:
        """Nodal values of the exact discrete minimizer."""
        z = np.linalg.solve(self.hessian, -self._load(bc))
        return np.concatenate([[bc[0]], z, [bc[1]]])

    def smallest_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.hessian)[0])


def residual(values: np.ndarray, name: str, block: int = ROW_BLOCK) -> np.ndarray:
    """Residual sum_j h (-(W_U(x_k) + W_U(m_j)) / (m_j - x_k) + W_u(x_k)) at
    each interior node x_k, in which the cells j and 2k-1-j at equal distance
    from x_k are summed as pairs within the widest symmetric window
    min(k, n-k) and the remaining cells singly."""
    v = np.asarray(values, dtype=float)
    n = v.size - 1
    h = 1.0 / n
    _, w_u, w_U = density(name)
    um = 0.5 * (v[:-1] + v[1:])
    cells = np.arange(n)
    out = np.empty(n - 1)
    for lo in range(1, n, block):
        k = np.arange(lo, min(lo + block, n))[:, None]
        dX = (cells[None, :] - k + 0.5) * h
        D = (um[None, :] - v[k]) / dX
        terms = h * (-(w_U(v[k], D) + w_U(um[None, :], D)) / dX + w_u(v[k], D))
        half = np.minimum(k, n - k)
        right = (cells >= k) & (cells < k + half)
        mirror = np.where(right, 2 * k - 1 - cells, 0)
        pairs = np.where(right, terms + np.take_along_axis(terms, mirror, axis=1), 0.0)
        single = (cells < k - half) | (cells >= k + half)
        out[lo - 1:lo - 1 + k.size] = pairs.sum(axis=1) + np.where(single, terms, 0.0).sum(axis=1)
    return out


def pv_law(x) -> np.ndarray:
    """-2 PV int_0^1 dX / (X - x): the continuum half-square residual of the
    linear profile u = x."""
    x = np.asarray(x, dtype=float)
    return -2.0 * np.log((1.0 - x) / x)


def shape(x) -> np.ndarray:
    """x^{2x} (1-x)^{2(1-x)}, equal to 1 at both end points."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.exp(2.0 * np.where(x > 0, x * np.log(x), 0.0)
                     + 2.0 * np.where(x < 1, (1.0 - x) * np.log1p(-x), 0.0))
    return out


def inverse_k(step: float = 1.0 / 64, t_max: float = 4.0) -> float:
    """int_0^1 x^{2x} (1-x)^{2(1-x)} dx by tanh-sinh quadrature.

    With x = 1 / (1 + exp(-pi sinh t)) both x and 1 - x are formed without
    cancellation, so the log-singular derivative at the end points costs
    nothing in accuracy.
    """
    t = np.arange(-t_max, t_max + step / 2, step)
    s = np.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-s))
    one_minus_x = 1.0 / (1.0 + np.exp(s))
    dx = np.pi * np.cosh(t) * x * one_minus_x
    f = np.exp(2.0 * x * np.log(x) + 2.0 * one_minus_x * np.log(one_minus_x))
    return float(step * math.fsum(f * dx))


def local_solution(x) -> np.ndarray:
    """sinh(4x) / sinh(4), i.e. e^4/(e^8 - 1) (e^{4x} - e^{-4x})."""
    return np.sinh(4.0 * np.asarray(x, dtype=float)) / np.sinh(4.0)
