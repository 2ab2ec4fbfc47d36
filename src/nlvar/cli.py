"""Command-line surface: energies, minimizations, residual checks, figures.

Subcommands: energy, minimize, residual, reproduce. Options may come from a
flat key=value config file (# comments allowed, unknown keys rejected) with
command-line flags taking precedence. Exit codes: 0 success, 2 spec error,
3 numeric error, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .curveio import read_nodal_function, write_curve, write_svg
from .energy import energy_value
from .grid import Grid1D, NodalFunction
from .integrands import Integrand, integrand_by_name
from .optimality import residual_report
from .reference import local_exp_solution, normalize_k, ode_approx_derivative
from .solver import LineSearchError, SolverConfig, make_initial_guess, minimize

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_NUMERIC = 3
EXIT_NOCONV = 4

NONCONVEX_WARNING = (
    "warning: non-convex two-well problem; the reported curve is a critical "
    "point reached by descent and has to be taken with extreme caution"
)

# problem shorthand -> (integrand name, end conditions, default init)
PROBLEMS = {
    "problem1": ("half-square", (0.0, 1.0), "linear"),
    "quad-mass": ("quad-mass", (0.0, 1.0), "linear"),
    "bolza": ("two-well", (0.0, 0.0), "zero"),
    "bolza-bare": ("two-well-bare", (0.0, 0.0), "zero"),
}

class SpecError(ValueError):
    """Unusable experiment specification."""


@dataclass(frozen=True)
class ExperimentSpec:
    problem: Optional[str] = None
    integrand: Optional[str] = None
    n: int = 128
    bc: tuple[float, float] = (0.0, 1.0)
    u: Optional[str] = None        # named profile or curve-file path
    init: Optional[str] = None
    seed: int = 0
    grad_tol: Optional[float] = None
    max_iters: int = 20000
    out: str = "."
    svg: bool = False
    figure: Optional[str] = None


_SPEC_KEYS = {
    "problem": str,
    "integrand": str,
    "n": int,
    "bc": "bc",
    "u": str,
    "init": str,
    "seed": int,
    "grad_tol": float,
    "max_iters": int,
    "out": str,
    "svg": "bool",
    "figure": str,
}

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bc(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise SpecError(f"end conditions must be 'a,b', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise SpecError(f"non-numeric end conditions {text!r}") from None


def parse_config(path) -> dict:
    """Read a flat key=value file; '#' starts a comment; unknown keys reject."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SPEC_KEYS:
            raise SpecError(f"{path}:{lineno}: unknown key {key!r}")
        kind = _SPEC_KEYS[key]
        try:
            if kind == "bc":
                values[key] = _parse_bc(val)
            elif kind == "bool":
                values[key] = _BOOLS[val.lower()]
            else:
                values[key] = kind(val)
        except (TypeError, ValueError, KeyError):
            raise SpecError(f"{path}:{lineno}: bad value {val!r} for {key!r}") from None
    return values


def build_spec(args: argparse.Namespace) -> ExperimentSpec:
    spec = ExperimentSpec()
    if getattr(args, "config", None):
        spec = replace(spec, **parse_config(args.config))
    overrides = {}
    for key in _SPEC_KEYS:
        val = getattr(args, key, None)
        if val is not None and not (key == "svg" and val is False):
            overrides[key] = _parse_bc(val) if key == "bc" else val
    return replace(spec, **overrides)


def _integrand(name: Optional[str], what: str) -> Integrand:
    """The density called name; SpecError if it is missing or unknown."""
    if name is None:
        raise SpecError(f"{what} needs an integrand name")
    try:
        return integrand_by_name(name)
    except KeyError as exc:
        raise SpecError(exc.args[0]) from None


def _resolve_problem(spec: ExperimentSpec) -> tuple[Integrand, tuple[float, float], str]:
    if spec.problem is None:
        integrand = _integrand(spec.integrand, "minimize without a problem")
        return integrand, spec.bc, spec.init or "linear"
    if spec.problem not in PROBLEMS:
        raise SpecError(f"unknown problem {spec.problem!r}; choose from {sorted(PROBLEMS)}")
    name, bc, init = PROBLEMS[spec.problem]
    return _integrand(spec.integrand or name, spec.problem), bc, spec.init or init


def _load_input_curve(spec: ExperimentSpec) -> NodalFunction:
    if spec.u is None:
        raise SpecError("an input curve is required (u=linear|zero|hat|<file.csv>)")
    if spec.u in ("linear", "zero", "hat"):
        grid = Grid1D(spec.n)
        return make_initial_guess(grid, spec.bc, spec.u, seed=spec.seed)
    path = Path(spec.u)
    if not path.exists():
        raise SpecError(f"curve file {spec.u!r} does not exist")
    return read_nodal_function(path)


def _solve(spec: ExperimentSpec, init: Optional[NodalFunction] = None):
    """(integrand, MinimizeResult) of spec's problem on spec.n cells, from
    init if given, else from the problem's initial guess."""
    integrand, bc, default_init = _resolve_problem(spec)
    cfg = SolverConfig(max_iters=spec.max_iters, grad_tol=spec.grad_tol, seed=spec.seed)
    init = default_init if init is None else init
    return integrand, minimize(integrand, Grid1D(spec.n), bc, init=init, cfg=cfg)


def _outdir(spec: ExperimentSpec) -> Path:
    out = Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def sup_distance_between_levels(coarse: NodalFunction, fine: NodalFunction) -> float:
    """Sup-norm distance from fine to the prolonged coarse solution or to its
    mirror image: the bare two-well energy is invariant under u -> -u, so
    the two levels may land on either of a pair of critical points."""
    prolonged = np.interp(fine.grid.nodes, coarse.grid.nodes, coarse.values)
    return float(min(np.max(np.abs(fine.values - s * prolonged)) for s in (1.0, -1.0)))


# -- subcommands -----------------------------------------------------------


def cmd_energy(spec: ExperimentSpec) -> int:
    integrand = _integrand(spec.integrand, "energy")
    u = _load_input_curve(spec)
    value = energy_value(u, integrand)
    print(f"integrand: {integrand.name}")
    print(f"n: {u.grid.n}")
    print(f"energy: {value:.17g}")
    return EXIT_OK


def cmd_minimize(spec: ExperimentSpec) -> int:
    integrand, result = _solve(spec)
    grid = result.u.grid

    out = _outdir(spec)
    tag = spec.problem or integrand.name.replace(":", "")
    curve_path = out / f"{tag}_n{spec.n}.csv"
    write_curve(curve_path, grid.nodes, result.u.values)
    curves = [("minimizer", grid.nodes, result.u.values)]

    if integrand.name == "quad-mass":
        overlay = local_exp_solution(grid.nodes)
        write_curve(out / f"{tag}_n{spec.n}_local_exp.csv", grid.nodes, overlay)
        curves.append(("local solution", grid.nodes, overlay))
    if not integrand.convex:
        print(NONCONVEX_WARNING)

    if spec.svg:
        write_svg(out / f"{tag}_n{spec.n}.svg", curves, title=tag)

    print(f"integrand: {integrand.name}")
    print(f"n: {spec.n}")
    print(f"energy: {result.energy:.17g}")
    print(f"grad_norm: {result.grad_norm:.6g}")
    print(f"iters: {result.iters}")
    print(f"curve: {curve_path}")
    return EXIT_OK if result.converged else EXIT_NOCONV


def cmd_residual(spec: ExperimentSpec) -> int:
    integrand = _integrand(spec.integrand, "residual")
    u = _load_input_curve(spec)
    report = residual_report(u, integrand)
    print("x,residual")
    for x, r in zip(report.x_points, report.residuals):
        print(f"{x:.17g},{r:.17g}")
    print(f"norm_l2: {report.norm_l2:.6g}")
    print(f"norm_sup: {report.norm_sup:.6g}")
    print(f"norm_l2_central: {report.norm_l2_central:.6g}")
    return EXIT_OK


def cmd_reproduce(spec: ExperimentSpec) -> int:
    if spec.figure not in FIGURES:
        raise SpecError(f"unknown figure {spec.figure!r}; choose from {tuple(FIGURES)}")
    # each figure fixes its own density and initial guess
    return FIGURES[spec.figure](replace(spec, integrand=None, init=None), _outdir(spec))


# -- figures ---------------------------------------------------------------


def fig1_ode_approx(spec: ExperimentSpec, out: Path) -> int:
    xs = np.linspace(0.0, 1.0, 512)
    k_norm = normalize_k()
    curves = []
    for label, k in (("k-normalized", k_norm), ("k2", 2.0)):
        ys = ode_approx_derivative(xs, k)
        write_curve(out / f"fig1_{label}.csv", xs, ys)
        curves.append((f"{label} (k={k:.6g})", xs, ys))
    print(f"k_normalized: {k_norm:.10g}")
    print("k_display: 2  # scale used by the original drawing")
    if spec.svg:
        write_svg(out / "fig1.svg", curves, title="approximate optimal derivative")
    return EXIT_OK


def fig2_problem1(spec: ExperimentSpec, out: Path) -> int:
    n = spec.n
    _, result = _solve(replace(spec, problem="problem1"))
    grid = result.u.grid
    write_curve(out / f"fig2_minimizer_n{n}.csv", grid.nodes, result.u.values)
    deriv = np.diff(result.u.values) / grid.h
    write_curve(out / f"fig2_derivative_n{n}.csv", grid.midpoints, deriv)
    print(f"energy: {result.energy:.17g}")
    if spec.svg:
        write_svg(out / "fig2.svg",
                  [("minimizer", grid.nodes, result.u.values),
                   ("derivative", grid.midpoints, deriv)],
                  title="homogeneous quadratic case")
    return EXIT_OK if result.converged else EXIT_NOCONV


def fig3_quad_mass(spec: ExperimentSpec, out: Path) -> int:
    n = spec.n
    _, result = _solve(replace(spec, problem="quad-mass"))
    grid = result.u.grid
    overlay = local_exp_solution(grid.nodes)
    write_curve(out / f"fig3_minimizer_n{n}.csv", grid.nodes, result.u.values)
    write_curve(out / f"fig3_local_exp_n{n}.csv", grid.nodes, overlay)
    sup = float(np.max(np.abs(result.u.values - overlay)))
    print(f"energy: {result.energy:.17g}")
    print(f"sup_distance_to_local_solution: {sup:.6g}")
    if spec.svg:
        write_svg(out / "fig3.svg",
                  [("non-local minimizer", grid.nodes, result.u.values),
                   ("local solution", grid.nodes, overlay)],
                  title="quadratic case with mass term")
    return EXIT_OK if result.converged else EXIT_NOCONV


def fig4_bolza(spec: ExperimentSpec, out: Path) -> int:
    # two discretization levels of the bare two-well problem, descending
    # from the trivial map (plus a tiny seeded kick: the exact zero function
    # is itself a critical point and descent would not move)
    if spec.n < 4:
        raise SpecError(f"fig4-bolza also solves at n // 2, so it needs n >= 4, got {spec.n}")
    results = []
    curves = []
    for n in (spec.n // 2, spec.n):
        kick = make_initial_guess(Grid1D(n), (0.0, 0.0), "random", spec.seed, noise=1e-2)
        _, result = _solve(replace(spec, problem="bolza-bare", n=n), init=kick)
        results.append(result)
        nodes = result.u.grid.nodes
        write_curve(out / f"fig4_bolza_bare_n{n}.csv", nodes, result.u.values)
        curves.append((f"n={n}", nodes, result.u.values))
        print(f"n={n} energy: {result.energy:.17g} grad_norm: {result.grad_norm:.3g}")
    sup = sup_distance_between_levels(results[0].u, results[1].u)
    print(f"sup_distance_between_levels: {sup:.6g}")
    print(NONCONVEX_WARNING)
    if spec.svg:
        write_svg(out / "fig4.svg", curves, title="non-convex two-well case")
    return EXIT_OK if all(r.converged for r in results) else EXIT_NOCONV


FIGURES = {
    "fig1-ode-approx": fig1_ode_approx,
    "fig2-problem1": fig2_problem1,
    "fig3-quad-mass": fig3_quad_mass,
    "fig4-bolza": fig4_bolza,
}

COMMANDS = {
    "energy": cmd_energy,
    "minimize": cmd_minimize,
    "residual": cmd_residual,
    "reproduce": cmd_reproduce,
}


# -- entry point -----------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value experiment file")
    parser.add_argument("--n", type=int, help="number of grid cells")
    parser.add_argument("--integrand",
                        help="power:p | half-square | quad-mass | two-well | two-well-bare")
    parser.add_argument("--bc", help="end conditions 'a,b'")
    parser.add_argument("--seed", type=int, help="seed for randomized inits")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--svg", action="store_true", default=None,
                        help="also emit SVG plots")
    parser.add_argument("--grad-tol", dest="grad_tol", type=float,
                        help="solver gradient tolerance")
    parser.add_argument("--max-iters", dest="max_iters", type=int,
                        help="solver iteration cap")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlvar",
        description="Non-local 1-D variational problems: energies, minimizers, "
        "optimality residuals, figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("energy", help="evaluate the double-integral energy")
    p.add_argument("--u", help="input curve: linear|zero|hat or a CSV path")
    _add_common(p)

    p = sub.add_parser("minimize", help="minimize the discrete energy")
    p.add_argument("--problem", choices=sorted(PROBLEMS),
                   help="named problem (sets integrand, end conditions, init)")
    p.add_argument("--init", help="linear|zero|hat|random")
    _add_common(p)

    p = sub.add_parser("residual", help="optimality residual of a curve")
    p.add_argument("--u", help="input curve: linear|zero|hat or a CSV path")
    _add_common(p)

    p = sub.add_parser("reproduce", help="recompute one of the published figures")
    p.add_argument("figure", choices=FIGURES)
    _add_common(p)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](build_spec(args))
    except (ValueError, OSError) as exc:  # SpecError, GridError, CurveFormatError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except (ArithmeticError, LineSearchError) as exc:  # NonFiniteEnergyError too
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
