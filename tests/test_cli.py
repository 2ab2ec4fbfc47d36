import numpy as np
import pytest

from nlvar.cli import (
    EXIT_NOCONV,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_SPEC,
    SpecError,
    main,
    parse_config,
    sup_distance_between_levels,
)
from nlvar.curveio import read_curve
from nlvar.grid import Grid1D, NodalFunction
from nlvar.integrands import half_square
from nlvar.optimality import residual_report


class TestConfigParsing:
    def test_key_value_with_comments(self, tmp_path):
        cfg = tmp_path / "e.cfg"
        cfg.write_text("# experiment\nintegrand = half-square\nn = 32\nbc = 0,1\n")
        values = parse_config(cfg)
        assert values == {"integrand": "half-square", "n": 32, "bc": (0.0, 1.0)}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "e.cfg"
        cfg.write_text("wavelength = 7\n")
        with pytest.raises(SpecError):
            parse_config(cfg)

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "e.cfg"
        cfg.write_text("n = lots\n")
        with pytest.raises(SpecError):
            parse_config(cfg)

    def test_config_drives_command(self, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        cfg.write_text("integrand = half-square\nu = linear\nn = 64\nbc = 0,1\n")
        assert main(["energy", "--config", str(cfg)]) == EXIT_OK
        assert "energy: 0.5" in capsys.readouterr().out


class TestEnergyCommand:
    def test_linear_half_square(self, capsys):
        code = main(["energy", "--integrand", "half-square", "--u", "linear",
                     "--n", "64", "--bc", "0,1"])
        assert code == EXIT_OK
        assert "energy: 0.5" in capsys.readouterr().out

    def test_zero_two_well_bare(self, capsys):
        code = main(["energy", "--integrand", "two-well-bare", "--u", "zero",
                     "--n", "64", "--bc", "0,0"])
        assert code == EXIT_OK
        assert "energy: 0.25" in capsys.readouterr().out

    def test_unknown_integrand(self, capsys):
        code = main(["energy", "--integrand", "nope", "--u", "linear", "--n", "16"])
        assert code == EXIT_SPEC

    def test_missing_curve_file(self, tmp_path):
        code = main(["energy", "--integrand", "half-square",
                     "--u", str(tmp_path / "absent.csv")])
        assert code == EXIT_SPEC


class TestMinimizeCommand:
    def test_problem1_writes_feasible_curve(self, tmp_path, capsys):
        code = main(["minimize", "--problem", "problem1", "--n", "64",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        x, u = read_curve(tmp_path / "problem1_n64.csv")
        assert u[0] == 0.0 and u[-1] == 1.0
        assert "iters:" in capsys.readouterr().out

    def test_round_trip_energy(self, tmp_path, capsys):
        assert main(["minimize", "--problem", "problem1", "--n", "32",
                     "--out", str(tmp_path)]) == EXIT_OK
        reported = _reported_energy(capsys.readouterr().out)
        assert main(["energy", "--integrand", "half-square",
                     "--u", str(tmp_path / "problem1_n32.csv")]) == EXIT_OK
        reread = _reported_energy(capsys.readouterr().out)
        assert abs(reread - reported) <= 1e-12 * abs(reported)

    def test_quad_mass_writes_overlay(self, tmp_path):
        assert main(["minimize", "--problem", "quad-mass", "--n", "32",
                     "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "quad-mass_n32_local_exp.csv").exists()

    def test_bolza_bare_warns(self, tmp_path, capsys):
        code = main(["minimize", "--problem", "bolza-bare", "--n", "32",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert "extreme caution" in capsys.readouterr().out

    def test_nonconvergence_exit_code(self, tmp_path):
        code = main(["minimize", "--problem", "problem1", "--n", "32",
                     "--grad-tol", "1e-15", "--max-iters", "2",
                     "--out", str(tmp_path)])
        assert code == EXIT_NOCONV

    def test_svg_emitted(self, tmp_path):
        assert main(["minimize", "--problem", "problem1", "--n", "16",
                     "--out", str(tmp_path), "--svg"]) == EXIT_OK
        assert (tmp_path / "problem1_n16.svg").exists()


class TestResidualCommand:
    def test_linear_half_square(self, tmp_path, capsys):
        code = main(["residual", "--integrand", "half-square", "--u", "linear",
                     "--n", "128", "--bc", "0,1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        sup = float(out.split("norm_sup:")[1].strip().split()[0])
        assert sup >= 2 * np.log(3.0) - 0.05
        u = NodalFunction.linear(Grid1D(128), 0.0, 1.0)
        central = residual_report(u, half_square()).norm_l2_central
        assert out.splitlines()[-2].startswith("norm_sup: ")
        assert out.splitlines()[-1] == f"norm_l2_central: {central:.6g}"

    def test_zero_two_well(self, capsys):
        code = main(["residual", "--integrand", "two-well", "--u", "zero",
                     "--n", "64", "--bc", "0,0"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        sup = float(out.split("norm_sup:")[1].strip().split()[0])
        assert sup <= 1e-10


class TestReproduceCommand:
    def test_unknown_figure(self):
        # argparse rejects unknown positional choices with its own exit(2)
        with pytest.raises(SystemExit) as excinfo:
            main(["reproduce", "fig9-unknown"])
        assert excinfo.value.code == EXIT_SPEC

    def test_fig1_both_scales(self, tmp_path, capsys):
        code = main(["reproduce", "fig1-ode-approx", "--out", str(tmp_path)])
        assert code == EXIT_OK
        x, y = read_curve(tmp_path / "fig1_k-normalized.csv")
        assert x.size == 512
        x2, y2 = read_curve(tmp_path / "fig1_k2.csv")
        assert y2[0] == pytest.approx(2.0)
        assert "k_normalized: 2.516208882" in capsys.readouterr().out

    def test_level_distance_respects_sign_symmetry(self):
        coarse = NodalFunction(Grid1D(4), np.array([0.0, 0.2, 0.3, 0.1, 0.0]))
        prolonged = np.interp(Grid1D(8).nodes, Grid1D(4).nodes, coarse.values)
        bump = np.zeros(9)
        bump[3] = 0.01
        for sign in (1.0, -1.0):
            fine = NodalFunction(Grid1D(8), sign * prolonged + bump)
            assert sup_distance_between_levels(coarse, fine) == pytest.approx(0.01)

    def test_fig4_two_levels_and_idempotent(self, tmp_path, capsys):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["reproduce", "fig4-bolza", "--n", "64", "--seed", "1",
                     "--out", str(out1)]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["reproduce", "fig4-bolza", "--n", "64", "--seed", "1",
                     "--out", str(out2)]) == EXIT_OK
        second = capsys.readouterr().out
        assert "sup_distance_between_levels" in first
        for name in ("fig4_bolza_bare_n32.csv", "fig4_bolza_bare_n64.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert first == second


def _reported_energy(out: str) -> float:
    for line in out.splitlines():
        if line.startswith("energy:"):
            return float(line.split(":", 1)[1])
    raise AssertionError(f"no energy line in {out!r}")
