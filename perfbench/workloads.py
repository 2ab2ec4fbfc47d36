"""The benchmark's four workloads.

Each workload builds its inputs from the run's seed in `setup`, runs a fixed
list of operations (calls into nlvar's public API) per round, and checks the
first round's outputs against `oracles` and against properties the method
must have; later rounds must reproduce the first bit for bit. The
operations look nlvar's functions up on the package at call time, so a
traced run (see tracer.py) reaches them through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

import oracles

EPS = np.finfo(float).eps


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _seeded_sines(n: int, rng, modes: int, amplitude: float) -> np.ndarray:
    """sum_k a_k sin(k pi x) with seeded a_k in [-amplitude, amplitude]; zero
    at both ends, so adding it keeps the end values."""
    x = oracles.nodes(n)
    a = rng.uniform(-amplitude, amplitude, modes)
    out = sum(ak * np.sin((k + 1) * np.pi * x) for k, ak in enumerate(a))
    out[0] = out[-1] = 0.0
    return out


def _stationary(values, name, tol, problems, label, modes=(1, 2, 3)):
    """Central differences of the oracle energy along smooth unit directions
    must vanish to tol."""
    n = len(values) - 1
    for mode in modes:
        dd = oracles.directional_derivative(values, name, oracles.smooth_direction(n, mode))
        if abs(dd) > tol:
            problems.append(f"{label}: oracle directional derivative {dd:.3g} "
                            f"along mode {mode} exceeds {tol:.3g}")


def _near_quadratic_minimizer(values, q: oracles.QuadraticProblem, bc, tol, problems, label):
    """Distance to the exact minimizer of the assembled quadratic form."""
    err = float(np.linalg.norm(values - q.minimizer(bc)))
    if err > tol:
        problems.append(f"{label}: |u - u*| = {err:.3g} above {tol:.3g} (dense solve)")


class Workload:
    ops: list  # [(label, callable(round) -> output)]

    def __init__(self, nlvar, seed: int, workdir: Path):
        self.nlvar, self.seed, self.workdir = nlvar, seed, workdir
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def order(self) -> list:
        """Order in which one round calls the operations."""
        return range(len(self.ops))

    def run_round(self, r: int) -> list:
        out = [None] * len(self.ops)
        for i in self.order():
            try:
                out[i] = self.ops[i][1](r)
            except Exception as exc:  # a raising operation is a failed one
                out[i] = exc
        return out

    def fingerprint(self, i: int, output, r: int):
        """What later rounds must reproduce exactly."""
        raise NotImplementedError

    def fingerprints(self, outputs: list, r: int) -> list:
        return [repr(out) if isinstance(out, Exception) else self.fingerprint(i, out, r)
                for i, out in enumerate(outputs)]

    def check(self, outputs: list) -> list[list[str]]:
        """Problems per operation of the first round; [] means it passed."""
        raise NotImplementedError

    def cleanup(self) -> None:
        pass


class Solve(Workload):
    """minimize on the four canonical problems with grad_tol = 1e-6."""

    GRAD_TOL = 1e-6
    PROBLEMS = (  # label, density, end values, n
        ("problem1", "half-square", (0.0, 1.0), 512),
        ("quad-mass", "quad-mass", (0.0, 1.0), 512),
        ("power:3", "power:3", (0.0, 1.0), 512),
        ("bolza", "two-well", (0.0, 0.0), 256),
    )

    def setup(self):
        nl = self.nlvar
        cfg = nl.SolverConfig(grad_tol=self.GRAD_TOL)
        self.ops = []
        for label, name, bc, n in self.PROBLEMS:
            grid = nl.Grid1D(n)
            init = "linear" if label != "bolza" else self._bolza_start(grid)
            W = nl.integrand_by_name(name)
            self.ops.append((label, lambda r, W=W, grid=grid, bc=bc, init=init:
                             nl.minimize(W, grid, bc, init=init, cfg=cfg)))

    def _bolza_start(self, grid):
        """One fixed draw (uniform noise of size 0.05, seed 0) mapped by the
        run seed to one of its four images under u -> -u and x -> 1 - x.
        Both leave the two-well energy invariant, so every seed gets a
        different input with the same descent up to rounding; a fresh draw
        per seed moves the iteration count between 346 and 701."""
        noise = 0.05 * np.random.default_rng(0).uniform(-1.0, 1.0, grid.n - 1)
        image = self.seed % 4
        if image & 1:
            noise = -noise
        if image & 2:
            noise = noise[::-1]
        vals = np.concatenate([[0.0], noise, [0.0]])
        return self.nlvar.NodalFunction(grid, vals, left_bc=0.0, right_bc=0.0)

    def fingerprint(self, i, res, r):
        return (res.energy, res.iters, res.u.values.tobytes())

    def check(self, outputs):
        quadratic = {}
        report = []
        for (label, name, bc, n), res in zip(self.PROBLEMS, outputs):
            problems = []
            report.append(problems)
            if isinstance(res, Exception):
                problems.append(f"{label}: raised {res!r}")
                continue
            v = res.u.values
            if not (res.converged and res.grad_norm <= self.GRAD_TOL):
                problems.append(f"{label}: not converged (|g| = {res.grad_norm:.3g})")
            if v[0] != bc[0] or v[-1] != bc[1]:
                problems.append(f"{label}: end values {v[0]!r}, {v[-1]!r} are not {bc}")
            energies = [f for f, _ in res.trace]
            if any(b > a for a, b in zip(energies, energies[1:])):
                problems.append(f"{label}: energy trace increases")
            if energies[-1] != res.energy:
                problems.append(f"{label}: reported energy is not the last traced one")
            e_oracle = oracles.energy(v, name)
            if _rel(res.energy, e_oracle) > 1e-11:
                problems.append(f"{label}: energy {res.energy!r} vs oracle {e_oracle!r}")
            _stationary(v, name, 2 * self.GRAD_TOL, problems, label)
            if name in ("half-square", "quad-mass"):
                q = quadratic.setdefault(name, oracles.QuadraticProblem.assemble(n, name == "quad-mass"))
                g = float(np.linalg.norm(q.gradient(v)))
                if g > self.GRAD_TOL * (1 + 1e-6):
                    problems.append(f"{label}: oracle gradient norm {g:.3g} above grad_tol")
                bound = g / q.smallest_eigenvalue() * (1 + 1e-6) + 1e-12
                _near_quadratic_minimizer(v, q, bc, bound, problems, label)
            if name in ("half-square", "power:3"):
                asym = float(np.max(np.abs(v + v[::-1] - 1.0)))
                if asym > 1e-6:
                    problems.append(f"{label}: u(x) + u(1-x) - 1 reaches {asym:.3g}")
        return report


class Figures(Workload):
    """nlvar reproduce fig1..fig4 --svg at the default n = 128 and seed 0,
    in-process through cli.main, each round into its own directory. The run
    seed only shuffles the order of the four figures within a round."""

    FIGS = ("fig1-ode-approx", "fig2-problem1", "fig3-quad-mass", "fig4-bolza")
    N = 128
    ACCURACY = 1e-5  # required distance to the exact discrete minimizer

    def setup(self):
        self.ops = [(fig, lambda r, fig=fig: self._reproduce(fig, r)) for fig in self.FIGS]

    def _dir(self, r):
        return self.workdir / f"r{r}"

    def _reproduce(self, fig, r):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.nlvar.cli.main(["reproduce", fig, "--out", str(self._dir(r)), "--svg"])
        return rc, buf.getvalue()

    def order(self):
        return self.rng.permutation(len(self.ops))

    def fingerprint(self, i, output, r):
        files = sorted(self._dir(r).glob(self.FIGS[i][:4] + "*"))
        return output, [(f.name, f.read_bytes()) for f in files]

    def fingerprints(self, outputs, r):
        fps = super().fingerprints(outputs, r)
        if r > 0:  # the first round's files stay for the checks
            shutil.rmtree(self._dir(r), ignore_errors=True)
        return fps

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def check(self, outputs):
        n, d = self.N, self._dir(0)
        report = []
        for fig, out in zip(self.FIGS, outputs):
            problems = []
            report.append(problems)
            if isinstance(out, Exception):
                problems.append(f"{fig}: raised {out!r}")
                continue
            rc, text = out
            if rc != 0:
                problems.append(f"{fig}: exit code {rc}")
                continue
            printed = _printed_numbers(text)
            try:
                getattr(self, "_check_" + fig[:4])(d, n, printed, text, problems)
            except (OSError, ValueError, KeyError, ET.ParseError) as exc:
                problems.append(f"{fig}: {type(exc).__name__}: {exc}")
        return report

    def _check_fig1(self, d, n, printed, text, problems):
        k = 1.0 / oracles.inverse_k()
        if _rel(printed["k_normalized"], k) > 3e-9:
            problems.append(f"fig1: k_normalized {printed['k_normalized']!r} vs oracle {k!r}")
        for name, scale, rtol in (("k-normalized", k, 1e-10), ("k2", 2.0, 1e-13)):
            x, y = _read_curve(d / f"fig1_{name}.csv", problems)
            err = float(np.max(np.abs(y - scale * oracles.shape(x)) / (scale * oracles.shape(x))))
            if err > rtol:
                problems.append(f"fig1: {name} derivative off the oracle by {err:.3g}")
        _check_svg(d / "fig1.svg", 2, problems)

    def _check_fig2(self, d, n, printed, text, problems):
        x, u = _read_curve(d / f"fig2_minimizer_n{n}.csv", problems)
        _check_grid(x, n, problems, "fig2")
        _check_energy(printed["energy"], u, "half-square", problems, "fig2")
        q = oracles.QuadraticProblem.assemble(n, mass=False)
        _near_quadratic_minimizer(u, q, (0.0, 1.0), self.ACCURACY, problems, "fig2")
        asym = float(np.max(np.abs(u + u[::-1] - 1.0)))
        if asym > 1e-6:
            problems.append(f"fig2: u(x) + u(1-x) - 1 reaches {asym:.3g}")
        xm, du = _read_curve(d / f"fig2_derivative_n{n}.csv", problems)
        if np.max(np.abs(xm - (np.arange(n) + 0.5) / n)) > 4 * EPS \
                or not np.allclose(du, np.diff(u) * n, rtol=1e-12, atol=1e-12):
            problems.append("fig2: derivative file is not the cell slope of the minimizer")
        _check_svg(d / "fig2.svg", 2, problems)

    def _check_fig3(self, d, n, printed, text, problems):
        x, u = _read_curve(d / f"fig3_minimizer_n{n}.csv", problems)
        _check_grid(x, n, problems, "fig3")
        _check_energy(printed["energy"], u, "quad-mass", problems, "fig3")
        q = oracles.QuadraticProblem.assemble(n, mass=True)
        _near_quadratic_minimizer(u, q, (0.0, 1.0), self.ACCURACY, problems, "fig3")
        xl, local = _read_curve(d / f"fig3_local_exp_n{n}.csv", problems)
        exact = oracles.local_solution(xl)
        if np.max(np.abs(local - exact)) > 1e-14:
            problems.append("fig3: local solution off sinh(4x)/sinh(4)")
        sup = float(np.max(np.abs(u - exact)))
        if _rel(printed["sup_distance_to_local_solution"], sup) > 1e-5:
            problems.append(f"fig3: printed sup distance vs {sup:.6g}")
        _check_svg(d / "fig3.svg", 2, problems)

    def _check_fig4(self, d, n, printed, text, problems):
        if "non-convex" not in text:
            problems.append("fig4: the non-convexity warning is missing")
        for level in (n // 2, n):
            x, u = _read_curve(d / f"fig4_bolza_bare_n{level}.csv", problems)
            _check_grid(x, level, problems, "fig4")
            if u[0] != 0.0 or u[-1] != 0.0:
                problems.append(f"fig4: n={level} end values are not exactly 0")
            _check_energy(printed[f"n={level} energy"], u, "two-well-bare", problems, "fig4")
            _stationary(u, "two-well-bare", 1e-6, problems, f"fig4 n={level}")
        _check_svg(d / "fig4.svg", 2, problems)


def _printed_numbers(text: str) -> dict:
    """'key: number' pairs of the CLI output; 'n=64 energy: e grad_norm: g'
    lines give 'n=64 energy' and 'n=64 grad_norm'."""
    out = {}
    for line in text.splitlines():
        if line.startswith("n=") and " grad_norm: " in line:
            head, energy, gnorm = line.split(": ")
            level = head.split()[0]
            out[f"{level} energy"] = float(energy.split()[0])
            out[f"{level} grad_norm"] = float(gnorm)
        elif ": " in line:
            key, _, val = line.partition(": ")
            with contextlib.suppress(ValueError):
                out[key] = float(val.split()[0])
    return out


def _read_curve(path: Path, problems: list):
    """x, u columns of a curve file, which must survive a round trip through
    17 significant digits byte for byte."""
    text = path.read_text()
    lines = text.splitlines()
    if lines[0] != "x,u":
        raise ValueError(f"{path.name}: header {lines[0]!r}")
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    again = "x,u\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in rows)
    if again != text:
        problems.append(f"{path.name}: not a full-precision round trip")
    return rows[:, 0], rows[:, 1]


def _check_grid(x, n, problems, label):
    if x.size != n + 1 or np.max(np.abs(x - oracles.nodes(n))) > 4 * EPS:
        problems.append(f"{label}: x column is not the uniform grid with {n} cells")


def _check_energy(printed, u, name, problems, label):
    e = oracles.energy(u, name)
    if _rel(printed, e) > 1e-12:
        problems.append(f"{label}: printed energy {printed!r} vs oracle {e!r}")


def _check_svg(path: Path, curves: int, problems: list):
    root = ET.fromstring(path.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    if root.tag != ns + "svg":
        problems.append(f"{path.name}: root element {root.tag}")
        return
    w, h = float(root.get("width")), float(root.get("height"))
    lines = root.findall(ns + "polyline")
    if len(lines) != curves:
        problems.append(f"{path.name}: {len(lines)} curves, expected {curves}")
    for line in lines:
        pts = np.array([[float(c) for c in p.split(",")] for p in line.get("points").split()])
        if not (np.all(np.isfinite(pts)) and np.all(pts >= 0)
                and np.all(pts[:, 0] <= w) and np.all(pts[:, 1] <= h)):
            problems.append(f"{path.name}: polyline point outside the canvas")


class Residual(Workload):
    """residual_report on fixed profiles at n = 1024 and 2048; no solver."""

    SIZES = (1024, 2048)
    CASES = (  # density, profile
        ("half-square", "linear"),
        ("half-square", "ode-approx"),
        ("power:3", "x^2"),
        ("power:3", "seeded"),
        ("two-well", "hat"),
    )

    def setup(self):
        nl = self.nlvar
        self.ops, self.values = [], []
        for n in self.SIZES:
            grid = nl.Grid1D(n)
            x = oracles.nodes(n)
            profiles = {
                "linear": x,
                "ode-approx": nl.ode_approx_profile(grid).params["nodal"],
                "x^2": x * x,
                "seeded": x + _seeded_sines(n, self.rng, 3, 0.1),
                "hat": 0.5 * (1.0 - np.abs(2.0 * x - 1.0)),
            }
            for name, profile in self.CASES:
                u = nl.NodalFunction(grid, profiles[profile])
                W = nl.integrand_by_name(name)
                self.values.append(u.values)
                self.ops.append((f"{name}/{profile}/n={n}",
                                 lambda r, u=u, W=W: nl.residual_report(u, W)))

    def fingerprint(self, i, rep, r):
        return (rep.residuals.tobytes(), rep.norm_l2, rep.norm_sup, rep.norm_l2_central)

    def check(self, outputs):
        report, pv_err = [], {}
        for (label, _), (name, profile), v, rep in zip(
                self.ops, self.CASES * len(self.SIZES), self.values, outputs):
            problems = []
            report.append(problems)
            if isinstance(rep, Exception):
                problems.append(f"{label}: raised {rep!r}")
                continue
            n = v.size - 1
            h = 1.0 / n
            if np.max(np.abs(rep.x_points - oracles.nodes(n)[1:-1])) > 4 * EPS:
                problems.append(f"{label}: residual abscissae are not the interior nodes")
            ref = oracles.residual(v, name)
            err = float(np.max(np.abs(rep.residuals - ref) / (1.0 + np.abs(ref))))
            if err > 1e-10:
                problems.append(f"{label}: residual off the paired-sum oracle by {err:.3g}")
            lo = max(n // 4, 1)
            norms = (("norm_l2", math.sqrt(h * float(np.sum(ref**2)))),
                     ("norm_sup", float(np.max(np.abs(ref[1:-1])))),
                     ("norm_l2_central", math.sqrt(h * float(np.sum(ref[lo - 1:n - lo] ** 2)))))
            for key, want in norms:
                if _rel(getattr(rep, key), want) > 1e-10:
                    problems.append(f"{label}: {key} {getattr(rep, key)!r} vs {want!r}")
            if (name, profile) == ("half-square", "linear"):
                # principal-value law: mean error over interior nodes is O(h)
                pv_err[n] = float(np.mean(np.abs(rep.residuals - oracles.pv_law(rep.x_points))))
                if pv_err[n] > 0.5 * h:
                    problems.append(f"{label}: mean error {pv_err[n]:.3g} to -2 log((1-x)/x)")
                if len(pv_err) == 2 and not 0.45 < pv_err[n] / pv_err[n // 2] < 0.55:
                    problems.append(f"{label}: principal-value error ratio "
                                    f"{pv_err[n] / pv_err[n // 2]:.3g}, not 1/2")
        return report


class LargeN(Workload):
    """energy_value and energy_gradient at n = 4096 on seeded non-affine
    profiles, the only workload whose memory per evaluation dominates."""

    N = 4096
    CASES = (  # density, end values, base profile
        ("half-square", (0.0, 1.0), lambda x: x),
        ("power:3", (0.0, 1.0), lambda x: x * x),
        ("two-well", (0.0, 0.0), lambda x: 0.5 * np.sin(np.pi * x)),
    )

    def setup(self):
        nl = self.nlvar
        grid = nl.Grid1D(self.N)
        x = oracles.nodes(self.N)
        self.ops, self.values = [], []
        for name, _, base in self.CASES:
            vals = base(x) + _seeded_sines(self.N, self.rng, 4, 0.1)
            vals[0], vals[-1] = base(x[[0, -1]])
            u = nl.NodalFunction(grid, vals)
            W = nl.integrand_by_name(name)
            self.values += [u.values, u.values]
            self.ops.append((f"{name}/value", lambda r, u=u, W=W: nl.energy_value(u, W)))
            self.ops.append((f"{name}/gradient", lambda r, u=u, W=W: nl.energy_gradient(u, W)))

    def fingerprint(self, i, output, r):
        return output if i % 2 == 0 else output.tobytes()

    def check(self, outputs):
        nl, n = self.nlvar, self.N
        h = 1.0 / n
        report = []
        for i, ((label, _), v, out) in enumerate(zip(self.ops, self.values, outputs)):
            problems = []
            report.append(problems)
            if isinstance(out, Exception):
                problems.append(f"{label}: raised {out!r}")
                continue
            name = self.CASES[i // 2][0]
            if i % 2 == 0:
                e = oracles.energy(v, name)
                if _rel(out, e) > 1e-11:
                    problems.append(f"{label}: {out!r} vs row-blocked oracle {e!r}")
                # affine exactness: the quadrature is exact in the quotient;
                # the two-well mass term is the midpoint sum of u^2
                a, b = 0.25, 0.75
                affine = nl.NodalFunction(nl.Grid1D(n), a + b * oracles.nodes(n))
                exact = {"half-square": 0.5 * b * b, "power:3": b ** 3,
                         "two-well": 0.25 * (b * b - 1) ** 2
                         + 0.5 * (a * a + a * b + b * b * (1.0 / 3.0 - h * h / 12.0))}[name]
                got = nl.energy_value(affine, nl.integrand_by_name(name))
                if _rel(got, exact) > 1e-12:
                    problems.append(f"{label}: affine energy {got!r}, exact {exact!r}")
            else:
                if out.shape != (n - 1,) or not np.all(np.isfinite(out)):
                    problems.append(f"{label}: gradient shape {out.shape} or non-finite")
                    continue
                d = oracles.smooth_direction(n, 2)
                fd = oracles.directional_derivative(v, name, d)
                if abs(out @ d[1:-1] - fd) > 1e-6 * max(abs(fd), 1e-3):
                    problems.append(f"{label}: g.d = {float(out @ d[1:-1])!r}, oracle difference {fd!r}")
        return report


WORKLOADS = {"solve": Solve, "figures": Figures, "residual": Residual, "large-n": LargeN}
