"""Command-line surface: energies, minimizations, residual checks, figures.

Subcommands: energy, minimize, residual, reproduce. Options may come from a
flat key=value config file (# comments allowed, unknown keys rejected) with
command-line flags taking precedence. Exit codes: 0 success, 2 spec error,
3 numeric error, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .curveio import read_nodal_function, write_curve, write_svg
from .energy import energy_value
from .grid import Grid1D, NodalFunction
from .integrands import _FACTORIES, Integrand, integrand_by_name
from .optimality import residual_report
from .reference import local_exp_solution, normalize_k, ode_approx_derivative
from .solver import INITIAL_GUESSES, LineSearchError, SolverConfig, make_initial_guess, minimize

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_NUMERIC = 3
EXIT_NOCONV = 4

NONCONVEX_WARNING = (
    "warning: non-convex two-well problem; the reported curve is a critical "
    "point reached by descent and has to be taken with extreme caution"
)

CRITICAL_START_WARNING = (
    "warning: the initial guess is already a critical point (gradient exactly 0), "
    "so the solver returned it unchanged; try --init random"
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
    n: Optional[int] = None        # None: 128 cells, or a curve file's own
    bc: Optional[tuple[float, float]] = None  # None: the problem's, else (0, 1)
    u: Optional[str] = None        # named profile or curve-file path
    init: Optional[str] = None
    seed: Optional[int] = None     # None: 0, where a random start reads it
    grad_tol: Optional[float] = None
    max_iters: int = 20000
    out: str = "."
    svg: bool = False
    figure: Optional[str] = None


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bc(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise SpecError(f"end conditions must be 'a,b', got {text!r}")
    try:
        bc = float(parts[0]), float(parts[1])
    except ValueError:
        raise SpecError(f"non-numeric end conditions {text!r}") from None
    if not np.all(np.isfinite(bc)):
        raise SpecError(f"non-finite end conditions {text!r}")
    return bc


# the config keys are the ExperimentSpec fields; these parse their text,
# every other field is read as a string
_SPEC_FIELDS = tuple(f.name for f in fields(ExperimentSpec))
_PARSERS = {"n": int, "seed": int, "max_iters": int, "grad_tol": float,
            "bc": _parse_bc, "svg": lambda text: _BOOLS[text.lower()]}
_START_NAMES = "|".join(INITIAL_GUESSES)


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
        if key not in _SPEC_FIELDS:
            raise SpecError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _PARSERS.get(key, str)(val)
        except (ValueError, KeyError):
            raise SpecError(f"{path}:{lineno}: bad value {val!r} for {key!r}") from None
    return values


def build_spec(args: argparse.Namespace) -> ExperimentSpec:
    """The spec from args.config and the flags, which take precedence; only
    the fields args.command reads may be set, and for reproduce only those
    its figure reads."""
    keys = COMMANDS[args.command][2]
    values = parse_config(args.config) if args.config else {}
    unread = [key for key in values if key not in keys]
    if unread:
        raise SpecError(f"{args.config}: {args.command} does not read {', '.join(unread)}")
    for key in keys:
        val = getattr(args, key)
        if val is not None:  # also for --svg: store_true with default None
            values[key] = _parse_bc(val) if key == "bc" else val
    if args.command == "reproduce":
        unread = [key for key in values if key not in ("figure",) + FIGURES[args.figure][1]]
        if unread:
            raise SpecError(f"{args.figure} does not read {', '.join(unread)}")
    return ExperimentSpec(**values)


def _given(value, default):
    return default if value is None else value


def _integrand(name: Optional[str], what: str) -> Integrand:
    """The density called name; SpecError if it is missing or unknown."""
    if name is None:
        raise SpecError(f"{what} needs an integrand name")
    try:
        return integrand_by_name(name)
    except KeyError as exc:
        raise SpecError(exc.args[0]) from None


def _cells(spec: ExperimentSpec) -> int:
    return _given(spec.n, 128)


def _seed(spec: ExperimentSpec, start: str) -> int:
    """The seed of a random start; SpecError for a seed that start does not
    read."""
    if start == "random":
        return _given(spec.seed, 0)
    if spec.seed is not None:
        raise SpecError(f"seed is read only by the random start, not by {start!r}")
    return 0


def _resolve_problem(spec: ExperimentSpec) -> tuple[Integrand, tuple[float, float], str]:
    """Density, end values and start of spec's problem; the integrand, bc
    and init given replace the problem's."""
    if spec.problem is None:
        what, (name, bc, init) = "minimize without a problem", (None, (0.0, 1.0), "linear")
    elif spec.problem in PROBLEMS:
        what, (name, bc, init) = spec.problem, PROBLEMS[spec.problem]
    else:
        raise SpecError(f"unknown problem {spec.problem!r}; choose from {sorted(PROBLEMS)}")
    return (_integrand(_given(spec.integrand, name), what),
            _given(spec.bc, bc), _given(spec.init, init))


def _load_input_curve(spec: ExperimentSpec) -> NodalFunction:
    if spec.u is None:
        raise SpecError(f"an input curve is required (u={_START_NAMES}|<file.csv>)")
    seed = _seed(spec, spec.u)
    if spec.u in INITIAL_GUESSES:
        return make_initial_guess(Grid1D(_cells(spec)), _given(spec.bc, (0.0, 1.0)),
                                  spec.u, seed=seed)
    path = Path(spec.u)
    if not path.exists():
        raise SpecError(f"curve file {spec.u!r} does not exist")
    if spec.n is not None or spec.bc is not None:
        raise SpecError(f"curve file {spec.u!r} fixes n and the end values; drop n and bc")
    return read_nodal_function(path)


def _solve(spec: ExperimentSpec, init: Optional[NodalFunction] = None):
    """(integrand, MinimizeResult) of spec's problem on _cells(spec) cells,
    from init if given, else from the problem's initial guess, which reads
    spec.seed if it is the random one."""
    integrand, bc, start = _resolve_problem(spec)
    seed = 0 if init is not None else _seed(spec, start)
    cfg = SolverConfig(max_iters=spec.max_iters, grad_tol=spec.grad_tol)
    grid = Grid1D(_cells(spec))
    init = make_initial_guess(grid, bc, start, seed=seed) if init is None else init
    return integrand, minimize(integrand, grid, bc, init=init, cfg=cfg)


def _outdir(spec: ExperimentSpec) -> Path:
    out = Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(spec: ExperimentSpec, out: Path, svg_name: str, title: str, curves) -> None:
    """Write each (file name, label, x, y) curve as CSV into out and, with
    spec.svg, all of them into one plot."""
    for name, _, x, y in curves:
        write_curve(out / name, x, y)
    if spec.svg:
        write_svg(out / svg_name, [(label, x, y) for _, label, x, y in curves], title=title)


def _local_solution(u: NodalFunction) -> np.ndarray:
    """Solution of the local quad-mass equation u'' = 16 u with u's end
    values, at u's nodes."""
    x = u.grid.nodes
    return u.values[0] * local_exp_solution(1.0 - x) + u.values[-1] * local_exp_solution(x)


def sup_distance_between_levels(coarse: NodalFunction, fine: NodalFunction) -> float:
    """Sup-norm distance from fine to the nearest image of the prolonged
    coarse solution under u -> -u and x -> 1 - x: the bare two-well energy
    with end values (0, 0) is invariant under both, so the two levels may
    land on any of four critical points that the maps exchange."""
    prolonged = coarse(fine.grid.nodes)
    return float(min(np.max(np.abs(fine.values - s * image))
                     for image in (prolonged, prolonged[::-1]) for s in (1.0, -1.0)))


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
    if result.iters == 0 and result.grad_norm == 0.0:
        print(CRITICAL_START_WARNING, file=sys.stderr)
    grid = result.u.grid
    tag = spec.problem or integrand.name.replace(":", "")
    stem = f"{tag}_n{grid.n}"
    curves = [(f"{stem}.csv", "minimizer", grid.nodes, result.u.values)]
    if integrand.name == "quad-mass":
        curves.append((f"{stem}_local_exp.csv", "local solution",
                       grid.nodes, _local_solution(result.u)))
    out = _outdir(spec)
    _write(spec, out, f"{stem}.svg", tag, curves)
    if not integrand.convex:
        print(NONCONVEX_WARNING)

    print(f"integrand: {integrand.name}")
    print(f"n: {grid.n}")
    print(f"energy: {result.energy:.17g}")
    print(f"grad_norm: {result.grad_norm:.6g}")
    print(f"iters: {result.iters}")
    print(f"curve: {out / curves[0][0]}")
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
    return FIGURES[spec.figure][0](spec, _outdir(spec))


# -- figures ---------------------------------------------------------------


def fig1_ode_approx(spec: ExperimentSpec, out: Path) -> int:
    xs = np.linspace(0.0, 1.0, 512)
    k_norm = normalize_k()
    _write(spec, out, "fig1.svg", "approximate optimal derivative",
           [(f"fig1_{label}.csv", f"{label} (k={k:.6g})", xs, ode_approx_derivative(xs, k))
            for label, k in (("k-normalized", k_norm), ("k2", 2.0))])
    print(f"k_normalized: {k_norm:.10g}")
    print("k_display: 2  # scale used by the original drawing")
    return EXIT_OK


def fig2_problem1(spec: ExperimentSpec, out: Path) -> int:
    _, result = _solve(replace(spec, problem="problem1"))
    grid = result.u.grid
    _write(spec, out, "fig2.svg", "homogeneous quadratic case",
           [(f"fig2_minimizer_n{grid.n}.csv", "minimizer", grid.nodes, result.u.values),
            (f"fig2_derivative_n{grid.n}.csv", "derivative",
             grid.midpoints, result.u.slopes)])
    print(f"energy: {result.energy:.17g}")
    return EXIT_OK if result.converged else EXIT_NOCONV


def fig3_quad_mass(spec: ExperimentSpec, out: Path) -> int:
    _, result = _solve(replace(spec, problem="quad-mass"))
    grid = result.u.grid
    overlay = _local_solution(result.u)
    _write(spec, out, "fig3.svg", "quadratic case with mass term",
           [(f"fig3_minimizer_n{grid.n}.csv", "non-local minimizer", grid.nodes, result.u.values),
            (f"fig3_local_exp_n{grid.n}.csv", "local solution", grid.nodes, overlay)])
    sup = float(np.max(np.abs(result.u.values - overlay)))
    print(f"energy: {result.energy:.17g}")
    print(f"sup_distance_to_local_solution: {sup:.6g}")
    return EXIT_OK if result.converged else EXIT_NOCONV


def fig4_bolza(spec: ExperimentSpec, out: Path) -> int:
    # two discretization levels of the bare two-well problem, descending
    # from the trivial map (plus a tiny seeded kick: the exact zero function
    # is itself a critical point and descent would not move)
    fine = _cells(spec)
    if fine < 4:
        raise SpecError(f"fig4-bolza also solves at n // 2, so it needs n >= 4, got {fine}")
    results = []
    for n in (fine // 2, fine):
        kick = make_initial_guess(Grid1D(n), (0.0, 0.0), "random", _given(spec.seed, 0),
                                  noise=1e-2)
        _, result = _solve(replace(spec, problem="bolza-bare", n=n), init=kick)
        results.append(result)
        print(f"n={n} energy: {result.energy:.17g} grad_norm: {result.grad_norm:.3g}")
    _write(spec, out, "fig4.svg", "non-convex two-well case",
           [(f"fig4_bolza_bare_n{r.u.grid.n}.csv", f"n={r.u.grid.n}",
             r.u.grid.nodes, r.u.values) for r in results])
    sup = sup_distance_between_levels(results[0].u, results[1].u)
    print(f"sup_distance_between_levels: {sup:.6g}")
    print(NONCONVEX_WARNING)
    return EXIT_OK if all(r.converged for r in results) else EXIT_NOCONV


# the fields each command reads; it takes a flag and a config key for each
_OUT = ("out", "svg")
_FIXED_START = ("n", "grad_tol", "max_iters") + _OUT  # a solve that reads no seed
_SOLVE = ("n", "seed", "grad_tol", "max_iters") + _OUT
_CURVE = ("integrand", "u", "n", "bc", "seed")

# each figure's function and the reproduce fields it reads besides figure
FIGURES = {
    "fig1-ode-approx": (fig1_ode_approx, _OUT),
    "fig2-problem1": (fig2_problem1, _FIXED_START),
    "fig3-quad-mass": (fig3_quad_mass, _FIXED_START),
    "fig4-bolza": (fig4_bolza, _SOLVE),
}


# -- entry point -----------------------------------------------------------


COMMANDS = {
    "energy": (cmd_energy, "evaluate the double-integral energy", _CURVE),
    "minimize": (cmd_minimize, "minimize the discrete energy",
                 ("problem", "integrand", "bc", "init") + _SOLVE),
    "residual": (cmd_residual, "optimality residual of a curve", _CURVE),
    "reproduce": (cmd_reproduce, "recompute one of the published figures", ("figure",) + _SOLVE),
}

# argparse settings of each field; figure is positional, the others are --flags
_OPTIONS = {
    "problem": dict(choices=sorted(PROBLEMS),
                    help="named problem (default integrand, end conditions, init)"),
    "integrand": dict(help=" | ".join(["power:p", *_FACTORIES])),
    "n": dict(type=int, help="number of grid cells (default 128)"),
    "bc": dict(help="end conditions 'a,b'"),
    "u": dict(help=f"input curve: {_START_NAMES} or a CSV path"),
    "init": dict(help=_START_NAMES),
    "seed": dict(type=int, help="seed for randomized inits"),
    "grad_tol": dict(type=float, help="solver gradient tolerance"),
    "max_iters": dict(type=int, help="solver iteration cap"),
    "out": dict(help="output directory"),
    "svg": dict(action="store_true", default=None, help="also emit SVG plots"),
    "figure": dict(choices=FIGURES),
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlvar",
        description="Non-local 1-D variational problems: energies, minimizers, "
        "optimality residuals, figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value experiment file")
        for key in keys:
            flags = [key] if key == "figure" else ["--" + key.replace("_", "-")]
            p.add_argument(*flags, **_OPTIONS[key])
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](build_spec(args))
    # NonFiniteEnergyError too; first, as LinAlgError is also a ValueError
    except (ArithmeticError, LineSearchError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # SpecError, GridError, CurveFormatError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
