"""Uniform 1-D grids and piecewise-linear nodal functions on (0, 1).

The domain is always the unit interval. Functions are represented by their
values at the n+1 nodes of a uniform partition and interpolated linearly in
between; the non-local difference quotient (u(X) - u(x)) / (X - x) is exact
for this representation and reduces to the cell slope on the diagonal X = x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["GridError", "Grid1D", "NodalFunction"]


class GridError(ValueError):
    """Invalid grid construction or out-of-domain evaluation."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform partition of (0, 1) into n cells.

    Attributes
    ----------
    n : int
        Number of cells (>= 2).
    h : float
        Cell width, 1/n.
    nodes : ndarray, shape (n+1,)
        Node coordinates i*h, i = 0..n.
    midpoints : ndarray, shape (n,)
        Cell midpoints (i + 1/2)*h, i = 0..n-1.
    """

    n: int
    h: float = field(init=False, compare=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    midpoints: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise GridError(f"cell count must be an integer >= 2, got {self.n!r}")
        h = 1.0 / self.n
        nodes = np.arange(self.n + 1) * h
        nodes[-1] = 1.0
        midpoints = (np.arange(self.n) + 0.5) * h
        nodes.setflags(write=False)
        midpoints.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "midpoints", midpoints)


@dataclass(frozen=True, eq=False)
class NodalFunction:
    """Piecewise-linear function given by values at the nodes of a Grid1D.

    Optional end-point constraints pin the first/last value; they are
    validated at construction and never touched by solvers afterwards.
    """

    grid: Grid1D
    values: np.ndarray
    left_bc: Optional[float] = None
    right_bc: Optional[float] = None

    def __post_init__(self):
        v = np.array(self.values, dtype=float)  # a private copy: no caller view can change it
        if v.shape != (self.grid.n + 1,):
            raise GridError(
                f"need {self.grid.n + 1} nodal values, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise GridError("nodal values must be finite")
        if self.left_bc is not None and v[0] != self.left_bc:
            raise GridError(f"v[0]={v[0]} violates left end condition {self.left_bc}")
        if self.right_bc is not None and v[-1] != self.right_bc:
            raise GridError(
                f"v[-1]={v[-1]} violates right end condition {self.right_bc}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    # -- constructors ------------------------------------------------------

    @classmethod
    def linear(cls, grid: Grid1D, left: float, right: float) -> "NodalFunction":
        """Linear interpolant between the two end values, which it hits exactly."""
        with np.errstate(over="ignore", invalid="ignore"):  # the constructor rejects inf, nan
            vals = left + (right - left) * grid.nodes
        vals[0], vals[-1] = left, right  # right can be an ulp off, and -0.0 + 0.0 is +0.0
        return cls(grid, vals, left_bc=left, right_bc=right)

    # -- evaluation --------------------------------------------------------

    def __call__(self, t):
        """Piecewise-linear evaluation; t may be a scalar or array in [0, 1]."""
        t_arr = np.asarray(t, dtype=float)
        # NaN fails both comparisons, so it is rejected too
        if not np.all((t_arr >= 0.0) & (t_arr <= 1.0)):
            raise GridError("evaluation point outside [0, 1]")
        out = np.interp(t_arr, self.grid.nodes, self.values)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    @property
    def slopes(self) -> np.ndarray:
        """Per-cell slopes, shape (n,)."""
        return np.diff(self.values) / self.grid.h
