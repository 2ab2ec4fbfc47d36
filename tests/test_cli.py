import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlvar
from nlvar.cli import (
    EXIT_NOCONV,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_SPEC,
    SpecError,
    main,
    make_parser,
    parse_config,
    sup_distance_between_levels,
)
from nlvar.curveio import read_curve
from nlvar.energy import energy_value
from nlvar.grid import Grid1D, NodalFunction
from nlvar.integrands import half_square
from nlvar.optimality import residual_report
from nlvar.solver import make_initial_guess


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

    @pytest.mark.parametrize("text, value", [
        ("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False),
    ])
    def test_bool_spellings(self, tmp_path, text, value):
        cfg = tmp_path / "e.cfg"
        cfg.write_text(f"svg = {text}\n")
        assert parse_config(cfg) == {"svg": value}

    def test_every_field_parses_to_its_type(self, tmp_path):
        cfg = tmp_path / "e.cfg"
        cfg.write_text("problem = problem1\nintegrand = half-square\nn = 16\nbc = 0,1\n"
                       "u = hat\ninit = zero\nseed = 3\ngrad_tol = 1e-7\nmax_iters = 50\n"
                       "out = results\nsvg = yes\nfigure = fig2-problem1\n")
        assert parse_config(cfg) == {
            "problem": "problem1", "integrand": "half-square", "n": 16, "bc": (0.0, 1.0),
            "u": "hat", "init": "zero", "seed": 3, "grad_tol": 1e-7, "max_iters": 50,
            "out": "results", "svg": True, "figure": "fig2-problem1",
        }

    def test_config_drives_command(self, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        cfg.write_text("integrand = half-square\nu = linear\nn = 64\nbc = 0,1\n")
        assert main(["energy", "--config", str(cfg)]) == EXIT_OK
        assert "energy: 0.5" in capsys.readouterr().out

    def test_key_the_command_does_not_read_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        cfg.write_text("integrand = half-square\nu = linear\nsvg = 1\n")
        assert main(["energy", "--config", str(cfg)]) == EXIT_SPEC
        assert capsys.readouterr().err == f"error: {cfg}: energy does not read svg\n"


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

    def test_random_start_is_seeded(self, capsys):
        code = main(["energy", "--integrand", "half-square", "--u", "random",
                     "--seed", "3", "--n", "16"])
        assert code == EXIT_OK
        start = make_initial_guess(Grid1D(16), (0.0, 1.0), "random", seed=3)
        assert f"energy: {energy_value(start, half_square()):.17g}\n" in capsys.readouterr().out

    def test_unknown_integrand(self, capsys):
        code = main(["energy", "--integrand", "nope", "--u", "linear", "--n", "16"])
        assert code == EXIT_SPEC
        assert capsys.readouterr().err == "error: unknown integrand 'nope'\n"

    def test_missing_curve_file(self, tmp_path):
        code = main(["energy", "--integrand", "half-square",
                     "--u", str(tmp_path / "absent.csv")])
        assert code == EXIT_SPEC


class TestBadInput:
    @pytest.mark.parametrize("argv, message", [
        (["energy", "--integrand", "power:1", "--u", "linear"],
         "growth exponent must be finite and exceed 1, got 1.0"),
        (["energy", "--integrand", "power:nan", "--u", "linear", "--n", "8"],
         "growth exponent must be finite and exceed 1, got nan"),
        (["residual", "--integrand", "power:x", "--u", "linear"],
         "bad exponent in integrand name 'power:x'"),
        (["minimize", "--problem", "problem1", "--integrand", "bogus"],
         "unknown integrand 'bogus'"),
        (["minimize", "--problem", "problem1", "--init", "bogus"],
         "unknown initial-guess policy 'bogus'"),
        (["minimize", "--problem", "problem1", "--max-iters", "0"],
         "max_iters must be an integer >= 1, got 0"),
        (["minimize", "--problem", "problem1", "--n", "16", "--grad-tol", "nan"],
         "grad_tol must be finite and positive, got nan"),
        (["minimize", "--problem", "quad-mass", "--grad-tol", "inf"],
         "grad_tol must be finite and positive, got inf"),
        (["reproduce", "fig4-bolza", "--n", "3"],
         "fig4-bolza also solves at n // 2, so it needs n >= 4, got 3"),
        (["minimize", "--integrand", "half-square", "--bc", "1"],
         "end conditions must be 'a,b', got '1'"),
        (["minimize", "--integrand", "half-square", "--bc", "a,b"],
         "non-numeric end conditions 'a,b'"),
        (["energy", "--integrand", "half-square", "--u", "linear", "--n", "8", "--bc", "0,inf"],
         "non-finite end conditions '0,inf'"),
        (["energy", "--integrand", "half-square", "--u", "linear", "--n", "8", "--bc", "nan,1"],
         "non-finite end conditions 'nan,1'"),
        (["energy", "--integrand", "half-square", "--u", "linear", "--n", "8",
          "--bc", "1e308,-1e308"], "nodal values must be finite"),
        (["energy", "--integrand", "half-square", "--u", "linear", "--n", "0"],
         "cell count must be an integer >= 2, got 0"),
        (["reproduce", "fig1-ode-approx", "--n", "3", "--max-iters", "0", "--grad-tol", "-1"],
         "fig1-ode-approx does not read n, grad_tol, max_iters"),
        (["reproduce", "fig2-problem1", "--seed", "3"], "fig2-problem1 does not read seed"),
        (["reproduce", "fig3-quad-mass", "--seed", "3"], "fig3-quad-mass does not read seed"),
        (["minimize", "--problem", "problem1", "--seed", "5"],
         "seed is read only by the random start, not by 'linear'"),
        (["minimize", "--problem", "bolza", "--init", "hat", "--seed", "5"],
         "seed is read only by the random start, not by 'hat'"),
        (["energy", "--integrand", "half-square", "--u", "linear", "--seed", "5"],
         "seed is read only by the random start, not by 'linear'"),
        (["energy", "--u", "linear"], "energy needs an integrand name"),
        (["energy", "--integrand", "half-square"],
         "an input curve is required (u=linear|zero|hat|random|<file.csv>)"),
    ], ids=["power-1", "power-nan", "bad-exponent",
            "problem-with-unknown-integrand", "unknown-init", "zero-max-iters",
            "nan-grad-tol", "inf-grad-tol", "fig4-coarse-level-too-small",
            "one-end-condition", "non-numeric-end-conditions", "infinite-end-condition",
            "nan-end-condition", "overflowing-end-conditions", "zero-cells",
            "fig1-solver-fields", "fig2-seed", "fig3-seed", "minimize-seed-linear-start",
            "minimize-seed-hat-start", "energy-seed-linear-curve", "energy-no-integrand",
            "energy-no-curve"])
    def test_spec_error_exits_2(self, argv, message, tmp_path, capsys):
        out = [] if argv[0] in ("energy", "residual") else ["--out", str(tmp_path)]
        assert main(argv + out) == EXIT_SPEC
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("options, message", [
        (["--n", "64"], "curve file {!r} fixes n and the end values; drop n and bc"),
        (["--bc", "5,5"], "curve file {!r} fixes n and the end values; drop n and bc"),
        (["--seed", "5"], "seed is read only by the random start, not by {!r}"),
    ], ids=["n", "bc", "seed"])
    def test_curve_file_fixes_n_and_end_values(self, options, message, tmp_path, capsys):
        assert main(["minimize", "--problem", "problem1", "--n", "16",
                     "--out", str(tmp_path)]) == EXIT_OK
        curve = tmp_path / "problem1_n16.csv"
        capsys.readouterr()
        argv = ["energy", "--integrand", "half-square", "--u", str(curve)]
        assert main(argv + options) == EXIT_SPEC
        assert capsys.readouterr().err == f"error: {message.format(str(curve))}\n"
        assert main(argv) == EXIT_OK

    def test_config_key_the_figure_does_not_read_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        cfg.write_text(f"n = 8\nseed = 3\nout = {tmp_path}\n")
        assert main(["reproduce", "fig2-problem1", "--config", str(cfg)]) == EXIT_SPEC
        assert capsys.readouterr().err == "error: fig2-problem1 does not read seed\n"
        assert main(["reproduce", "fig4-bolza", "--config", str(cfg)]) == EXIT_OK

    def test_seed_of_random_start_is_read(self, tmp_path, capsys):
        runs = [main(["minimize", "--problem", "bolza", "--init", "random", "--n", "16",
                      "--seed", seed, "--out", str(tmp_path / seed)]) for seed in ("0", "5")]
        assert runs == [EXIT_OK, EXIT_OK]
        default = ["minimize", "--problem", "bolza", "--init", "random", "--n", "16",
                   "--out", str(tmp_path / "default")]
        assert main(default) == EXIT_OK
        curves = [(tmp_path / d / "bolza_n16.csv").read_bytes() for d in ("0", "5", "default")]
        assert curves[0] == curves[2] != curves[1]

    @pytest.mark.parametrize("text, message", [
        ("n 16\n", "{}:1: expected key=value, got 'n 16'"),
        ("problem = nope\n",
         "unknown problem 'nope'; choose from ['bolza', 'bolza-bare', 'problem1', 'quad-mass']"),
    ], ids=["no-equals-sign", "unknown-problem"])
    def test_config_spec_error_exits_2(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        cfg.write_text(text)
        assert main(["minimize", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_SPEC
        assert capsys.readouterr().err == f"error: {message.format(cfg)}\n"

    @pytest.mark.parametrize("command", ["energy", "residual"])
    def test_nan_abscissa_exits_2(self, command, tmp_path, capsys):
        curve = tmp_path / "c.csv"
        curve.write_text("x,u\n0,0\nnan,0.5\n1,1\n")
        assert main([command, "--integrand", "half-square", "--u", str(curve)]) == EXIT_SPEC
        assert capsys.readouterr().err == (
            f"error: {curve}: x must increase strictly from 0 to 1\n")

    def test_misspelt_config_bool_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        cfg.write_text(f"problem = problem1\nn = 8\nout = {tmp_path}\nsvg = ture\n")
        assert main(["minimize", "--config", str(cfg)]) == EXIT_SPEC
        assert capsys.readouterr().err == f"error: {cfg}:4: bad value 'ture' for 'svg'\n"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", [["energy", "--u", "linear"], ["minimize"]],
                             ids=["energy", "minimize"])
    def test_row_sum_overflow_exits_3(self, command, tmp_path, capsys):
        argv = command + ["--integrand", "power:40", "--bc", "0,4.73e7", "--n", "64"]
        if command[0] == "minimize":
            argv += ["--out", str(tmp_path)]
        with np.errstate(over="ignore"):
            assert main(argv) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err == "numeric error: sum of W(power:40) over X overflows at x=0.0078125\n"

    @pytest.mark.parametrize("argv, message", [
        (["--integrand", "power:40", "--bc", "0,4.73e8", "--n", "64"],
         "residual of power:40 non-finite at x=0.015625"),
        (["--integrand", "power:200", "--bc", "0,1e3", "--n", "16"],
         "residual of power:200 non-finite at x=0.0625"),
    ], ids=["power-40", "power-200"])
    def test_non_finite_residual_exits_3(self, argv, message, capsys):
        assert main(["residual", "--u", "linear"] + argv) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.err == f"numeric error: {message}\n"
        assert "nan" not in captured.out

    def test_failed_factor_of_p_exits_3(self, tmp_path, capsys, monkeypatch, cold_p_factor):
        # LinAlgError is a ValueError, yet a failed factor is numeric, not a bad spec
        monkeypatch.setattr("scipy.linalg.lapack.dpptrf", lambda m, ap, **kw: (ap, 1))
        argv = ["minimize", "--problem", "problem1", "--n", "16", "--out", str(tmp_path)]
        assert main(argv) == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "numeric error: half-square Hessian not positive definite\n")

    def test_overflow_prints_one_line_and_no_numpy_warning(self):
        # numpy's RuntimeWarning reaches stderr only outside pytest's
        # warning capture, so the command runs in a child process
        src = str(Path(nlvar.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "nlvar.cli", "energy", "--integrand", "power:40",
             "--bc", "0,4.73e7", "--n", "64", "--u", "linear"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == EXIT_NUMERIC
        assert proc.stderr == (
            "numeric error: sum of W(power:40) over X overflows at x=0.0078125\n")


class TestMinimizeCommand:
    def test_problem1_writes_feasible_curve(self, tmp_path, capsys):
        code = main(["minimize", "--problem", "problem1", "--n", "64",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        x, u = read_curve(tmp_path / "problem1_n64.csv")
        assert u[0] == 0.0 and u[-1] == 1.0
        assert "iters:" in capsys.readouterr().out

    def test_end_values_off_the_linear_grid(self, tmp_path):
        # the linear start once missed 0.829 by an ulp and was rejected
        assert main(["minimize", "--integrand", "half-square", "--bc", "7.264,0.829",
                     "--n", "16", "--out", str(tmp_path)]) == EXIT_OK
        x, u = read_curve(tmp_path / "half-square_n16.csv")
        assert u[0] == 7.264 and u[-1] == 0.829

    def test_end_values_replace_the_problems(self, tmp_path, capsys):
        assert main(["minimize", "--problem", "problem1", "--bc", "0,2", "--n", "16",
                     "--out", str(tmp_path)]) == EXIT_OK
        x, u = read_curve(tmp_path / "problem1_n16.csv")
        assert u[0] == 0.0 and u[-1] == 2.0
        assert "integrand: half-square\n" in capsys.readouterr().out

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

    def test_quad_mass_overlay_follows_end_values(self, tmp_path):
        assert main(["minimize", "--integrand", "quad-mass", "--bc", "0,2", "--n", "32",
                     "--out", str(tmp_path)]) == EXIT_OK
        x, overlay = read_curve(tmp_path / "quad-mass_n32_local_exp.csv")
        np.testing.assert_allclose(overlay, 2.0 * np.sinh(4.0 * x) / np.sinh(4.0),
                                   rtol=0, atol=1e-14)
        assert overlay[0] == 0.0 and overlay[-1] == 2.0

    def test_bolza_bare_warns(self, tmp_path, capsys):
        code = main(["minimize", "--problem", "bolza-bare", "--n", "32",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert "extreme caution" in capsys.readouterr().out

    @pytest.mark.parametrize("init, warned", [([], True), (["--init", "random"], False)],
                             ids=["zero", "random"])
    def test_critical_start_warns_on_stderr_only(self, init, warned, tmp_path, capsys):
        # bolza's default start, zero, is an exact critical point: the solve
        # returns it after 0 iterations, with the same stdout and exit code
        code = main(["minimize", "--problem", "bolza", "--n", "32",
                     "--out", str(tmp_path)] + init)
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert ("iters: 0\n" in captured.out) == warned
        assert ("warning" in captured.err) == warned
        if warned:
            assert captured.err.count("\n") == 1 and "--init random" in captured.err
            assert "energy: 0.25\n" in captured.out

    def test_nonconvergence_exit_code(self, tmp_path):
        # problem1 converges in one preconditioned step; power:3 needs more
        code = main(["minimize", "--integrand", "power:3", "--n", "32",
                     "--grad-tol", "1e-15", "--max-iters", "2",
                     "--out", str(tmp_path)])
        assert code == EXIT_NOCONV

    def test_power_names_keep_every_digit(self, tmp_path, capsys):
        # power:2.0000001 must not print or write as power:2
        for name, stem in (("power:2", "power2_n16"), ("power:2.0000001", "power2.0000001_n16")):
            assert main(["minimize", "--integrand", name, "--n", "16",
                         "--out", str(tmp_path)]) == EXIT_OK
            out = capsys.readouterr().out
            assert f"integrand: {name}\n" in out
            assert f"curve: {tmp_path / stem}.csv\n" in out
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
            "power2.0000001_n16.csv", "power2_n16.csv"]

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

    # the bare two-well energy with end values (0, 0) is invariant under
    # u -> -u and x -> 1 - x, so a level may land on any of four images
    def test_level_distance_respects_sign_symmetry(self):
        coarse = NodalFunction(Grid1D(4), np.array([0.0, 0.2, 0.3, 0.1, 0.0]))
        prolonged = np.interp(Grid1D(8).nodes, Grid1D(4).nodes, coarse.values)
        bump = np.zeros(9)
        bump[3] = 0.01
        for image in (prolonged, prolonged[::-1]):
            for sign in (1.0, -1.0):
                fine = NodalFunction(Grid1D(8), sign * image + bump)
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


class TestCommandTable:
    """Each subcommand takes a flag for each field it reads, and no other."""

    @pytest.mark.parametrize("command, flags", [
        ("energy", {"--integrand", "--u", "--n", "--bc", "--seed"}),
        ("residual", {"--integrand", "--u", "--n", "--bc", "--seed"}),
        ("reproduce", {"--n", "--seed", "--grad-tol", "--max-iters", "--out", "--svg"}),
        ("minimize", {"--problem", "--integrand", "--bc", "--init", "--n", "--seed",
                      "--grad-tol", "--max-iters", "--out", "--svg"}),
    ])
    def test_flags_are_the_fields_read(self, command, flags):
        sub = next(a for a in make_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        actions = sub.choices[command]._actions
        accepted = {s for a in actions for s in a.option_strings} - {"-h", "--help"}
        assert accepted == {"--config"} | flags
        positional = [a.dest for a in actions if not a.option_strings]
        assert positional == (["figure"] if command == "reproduce" else [])

    @pytest.mark.parametrize("argv", [
        ["energy", "--integrand", "half-square", "--u", "linear", "--grad-tol", "1e-3"],
        ["residual", "--integrand", "half-square", "--u", "linear", "--svg"],
        ["reproduce", "fig2-problem1", "--integrand", "two-well"],
        ["reproduce", "fig2-problem1", "--bc", "5,5"],
    ], ids=["energy-grad-tol", "residual-svg", "reproduce-integrand", "reproduce-bc"])
    def test_flag_the_command_does_not_read_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_SPEC
        assert "unrecognized arguments" in capsys.readouterr().err


class TestOutputLayout:
    """The files each command writes and the keys of its stdout lines, at a
    small n; `main` dispatches through tables, so a lost or renamed entry
    shows up here."""

    @pytest.mark.parametrize("argv, files, keys", [
        (["reproduce", "fig1-ode-approx"],  # fig1 solves nothing and reads no --n
         {"fig1.svg", "fig1_k-normalized.csv", "fig1_k2.csv"},
         ["k_normalized", "k_display"]),
        (["reproduce", "fig2-problem1"],
         {"fig2.svg", "fig2_minimizer_n16.csv", "fig2_derivative_n16.csv"},
         ["energy"]),
        (["reproduce", "fig3-quad-mass"],
         {"fig3.svg", "fig3_minimizer_n16.csv", "fig3_local_exp_n16.csv"},
         ["energy", "sup_distance_to_local_solution"]),
        (["reproduce", "fig4-bolza"],
         {"fig4.svg", "fig4_bolza_bare_n8.csv", "fig4_bolza_bare_n16.csv"},
         ["n=8 energy", "n=16 energy", "sup_distance_between_levels", "warning"]),
        (["minimize", "--problem", "problem1"],
         {"problem1_n16.csv", "problem1_n16.svg"},
         ["integrand", "n", "energy", "grad_norm", "iters", "curve"]),
        (["minimize", "--problem", "quad-mass"],
         {"quad-mass_n16.csv", "quad-mass_n16_local_exp.csv", "quad-mass_n16.svg"},
         ["integrand", "n", "energy", "grad_norm", "iters", "curve"]),
        (["minimize", "--problem", "bolza"],
         {"bolza_n16.csv", "bolza_n16.svg"},
         ["warning", "integrand", "n", "energy", "grad_norm", "iters", "curve"]),
    ], ids=["fig1", "fig2", "fig3", "fig4", "problem1", "quad-mass", "bolza"])
    def test_files_and_stdout_keys(self, argv, files, keys, tmp_path, capsys):
        cells = [] if argv[1] == "fig1-ode-approx" else ["--n", "16"]
        assert main(argv + cells + ["--svg", "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert {p.name for p in tmp_path.iterdir()} == files
        assert [line.split(":", 1)[0] for line in out.splitlines()] == keys


def _reported_energy(out: str) -> float:
    for line in out.splitlines():
        if line.startswith("energy:"):
            return float(line.split(":", 1)[1])
    raise AssertionError(f"no energy line in {out!r}")
