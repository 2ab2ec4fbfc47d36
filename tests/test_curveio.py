import numpy as np
import pytest

from nlvar.curveio import (
    CurveFormatError,
    read_curve,
    read_nodal_function,
    write_curve,
    write_svg,
)
from nlvar.grid import Grid1D


class TestCurveRoundTrip:
    def test_full_precision(self, tmp_path):
        g = Grid1D(64)
        rng = np.random.default_rng(3)
        u = rng.normal(size=65)
        path = tmp_path / "c.csv"
        write_curve(path, g.nodes, u)
        x2, u2 = read_curve(path)
        assert np.array_equal(x2, g.nodes)
        assert np.array_equal(u2, u)

    def test_read_nodal_function(self, tmp_path):
        g = Grid1D(16)
        path = tmp_path / "c.csv"
        write_curve(path, g.nodes, np.linspace(0, 1, 17))
        u = read_nodal_function(path)
        assert u.grid.n == 16

    def test_header_required(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("a,b\n0,0\n0.5,1\n1,0\n")
        with pytest.raises(CurveFormatError):
            read_curve(path)

    def test_monotone_x_required(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("x,u\n0,0\n0.7,1\n0.3,2\n1,0\n")
        with pytest.raises(CurveFormatError):
            read_curve(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("x,u\n0,0\nhalf,1\n1,0\n")
        with pytest.raises(CurveFormatError):
            read_curve(path)

    @pytest.mark.parametrize("text, message", [
        ("x,u\n0,0,1\n0.5,1,2\n1,0,3\n", "line 2 needs 2 fields .* has 3$"),
        ("x,u\n0,0\n0.5,1,2\n1,0\n", "line 3 needs 2 fields .* has 3$"),
        ("x,u\n0,0\n0.5\n1,0\n", "line 3 needs 2 fields .* has 1$"),
    ], ids=["three-columns", "ragged-row", "short-row"])
    def test_field_count_named_by_line(self, text, message, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(text)
        with pytest.raises(CurveFormatError, match=message):
            read_curve(path)

    @pytest.mark.parametrize("read, text, message", [
        (read_curve, "x,u\n0,0\n1,1\n", "need at least 3 rows"),
        (read_curve, "x,u\n0,0\nnan,0.5\n1,1\n", "x must increase strictly from 0 to 1"),
        (read_nodal_function, "x,u\n0,0\n0.4,1\n1,0\n", "x column is not a uniform grid"),
    ], ids=["two-rows", "nan-abscissa", "non-uniform"])
    def test_malformed_rejected(self, read, text, message, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(text)
        with pytest.raises(CurveFormatError, match=message):
            read(path)

    @pytest.mark.parametrize("x, u", [
        (np.zeros(3), np.zeros(4)),
        (np.zeros((2, 2)), np.zeros((2, 2))),
    ], ids=["unequal-lengths", "two-dimensional"])
    def test_write_needs_equal_1d_arrays(self, x, u, tmp_path):
        with pytest.raises(ValueError, match="1-D arrays of equal length"):
            write_curve(tmp_path / "c.csv", x, u)


class TestSvg:
    def test_emits_wellformed_polyline(self, tmp_path):
        path = tmp_path / "p.svg"
        x = np.linspace(0, 1, 11)
        write_svg(path, [("curve", x, x**2)], title="t")
        text = path.read_text()
        assert text.startswith("<svg")
        assert "<polyline" in text and text.rstrip().endswith("</svg>")

    def test_single_abscissa(self, tmp_path):
        # a zero-width x range is widened to 1, so no coordinate divides by 0
        path = tmp_path / "p.svg"
        write_svg(path, [("point", np.array([0.5]), np.array([2.0]))])
        assert "nan" not in path.read_text() and 'points="50.00,' in path.read_text()

    def test_deterministic(self, tmp_path):
        x = np.linspace(0, 1, 33)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        write_svg(a, [("u", x, np.sin(x))])
        write_svg(b, [("u", x, np.sin(x))])
        assert a.read_bytes() == b.read_bytes()
