"""Curve files (CSV) and self-contained SVG line plots.

A curve file has the header "x,u" followed by full-double-precision rows
(17 significant digits); the x column must increase strictly from 0 to 1.
SVG output is emitted directly as text so the figure pipeline stays
dependency-free and byte-deterministic.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .grid import Grid1D, NodalFunction

__all__ = ["write_curve", "read_curve", "read_nodal_function", "write_svg"]


class CurveFormatError(ValueError):
    """Malformed curve file."""


def write_curve(path, x: np.ndarray, u: np.ndarray) -> None:
    x = np.asarray(x, float)
    u = np.asarray(u, float)
    if x.shape != u.shape or x.ndim != 1:
        raise ValueError("x and u must be 1-D arrays of equal length")
    lines = ["x,u"]
    lines += [f"{xi:.17g},{ui:.17g}" for xi, ui in zip(x, u)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_curve(path) -> tuple[np.ndarray, np.ndarray]:
    text = Path(path).read_text().strip().splitlines()
    if not text or text[0].strip() != "x,u":
        raise CurveFormatError(f"{path}: expected header 'x,u'")
    rows = []
    for number, line in enumerate(text[1:], start=2):
        fields = line.split(",")
        if len(fields) != 2:
            raise CurveFormatError(f"{path}: line {number} needs 2 fields (x,u), has {len(fields)}")
        try:
            rows.append([float(c) for c in fields])
        except ValueError as exc:
            raise CurveFormatError(f"{path}: line {number}: non-numeric field ({exc})") from None
    if len(rows) < 3:
        raise CurveFormatError(f"{path}: need at least 3 rows of x,u pairs")
    x, u = np.array(rows).T
    # written so that a NaN abscissa fails the test, as it fails every comparison
    if x[0] != 0.0 or x[-1] != 1.0 or not np.all(np.diff(x) > 0):
        raise CurveFormatError(f"{path}: x must increase strictly from 0 to 1")
    return x, u


def read_nodal_function(path) -> NodalFunction:
    """Read a curve file sampled on a uniform grid back into a NodalFunction."""
    x, u = read_curve(path)
    n = x.size - 1
    grid = Grid1D(n)
    if not np.all(np.abs(x - grid.nodes) <= 4 * np.finfo(float).eps):
        raise CurveFormatError(f"{path}: x column is not a uniform grid on [0, 1]")
    return NodalFunction(grid, u)


_SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]


def write_svg(
    path,
    curves: Sequence[tuple[str, np.ndarray, np.ndarray]],
    title: str = "",
) -> None:
    """Plot labelled (x, y) curves as SVG polylines with a plain box axis."""
    width, height, margin = 640, 480, 50
    xs = np.concatenate([np.asarray(c[1], float) for c in curves])
    ys = np.concatenate([np.asarray(c[2], float) for c in curves])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width // 2}" y="{margin - 15}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    for tick in (x0, x1):
        parts.append(
            f'<text x="{sx(tick):.1f}" y="{height - margin + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{tick:.3g}</text>"
        )
    for tick in (y0, y1):
        parts.append(
            f'<text x="{margin - 6}" y="{sy(tick):.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:.3g}</text>'
        )
    for idx, (label, cx, cy) in enumerate(curves):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        pts = " ".join(
            f"{sx(px):.2f},{sy(py):.2f}" for px, py in zip(np.asarray(cx), np.asarray(cy))
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{pts}"/>'
        )
        parts.append(
            f'<text x="{width - margin - 5}" y="{margin + 16 + 16 * idx}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
