"""Tests of the benchmark's reference computations, independent of nlvar.

Run from the repository root with `python -m pytest perfbench`.
"""

import math

import numpy as np
import pytest

import oracles


def _profile(n, seed=0):
    rng = np.random.default_rng(seed)
    x = oracles.nodes(n)
    return x + 0.2 * np.sin(np.pi * x) * rng.uniform(-1, 1) + 0.05 * np.sin(3 * np.pi * x)


@pytest.mark.parametrize("n", [4, 33, 256])
@pytest.mark.parametrize("b", [0.0, 1.0, -2.5])
def test_energy_is_exact_on_affine_functions(n, b):
    v = 0.3 + b * oracles.nodes(n)
    assert oracles.energy(v, "half-square") == pytest.approx(0.5 * b * b, rel=1e-13, abs=1e-15)
    assert oracles.energy(v, "power:3") == pytest.approx(abs(b) ** 3, rel=1e-13, abs=1e-15)
    assert oracles.energy(v, "two-well-bare") == pytest.approx(0.25 * (b * b - 1) ** 2,
                                                               rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("name", ["half-square", "quad-mass", "power:3", "two-well"])
def test_energy_does_not_depend_on_the_row_block(name):
    v = _profile(300)
    whole = oracles.energy(v, name, block=300)
    for block in (1, 7, 128):
        assert oracles.energy(v, name, block=block) == pytest.approx(whole, rel=1e-13)


def test_energy_matches_a_pairwise_loop():
    n = 12
    v = _profile(n, seed=3)
    h = 1.0 / n
    m = (np.arange(n) + 0.5) * h
    um = 0.5 * (v[:-1] + v[1:])
    total = 0.0
    for i in range(n):
        for j in range(n):
            D = (v[i + 1] - v[i]) / h if i == j else (um[j] - um[i]) / (m[j] - m[i])
            total += 0.25 * (D * D - 1) ** 2 + 0.5 * um[i] ** 2
    assert oracles.energy(v, "two-well") == pytest.approx(total * h * h, rel=1e-13)


@pytest.mark.parametrize("mass", [False, True])
def test_quadratic_form_is_the_energy(mass):
    n = 40
    q = oracles.QuadraticProblem.assemble(n, mass)
    name = "quad-mass" if mass else "half-square"
    v = _profile(n, seed=1)
    assert 0.5 * v @ q.M @ v == pytest.approx(oracles.energy(v, name), rel=1e-12)
    d = oracles.smooth_direction(n, 2)
    fd = oracles.directional_derivative(v, name, d)
    assert q.gradient(v) @ d[1:-1] == pytest.approx(fd, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("mass", [False, True])
def test_quadratic_minimizer_is_stationary(mass):
    n = 64
    q = oracles.QuadraticProblem.assemble(n, mass)
    u = q.minimizer((0.0, 1.0))
    assert u[0] == 0.0 and u[-1] == 1.0
    assert np.linalg.norm(q.gradient(u)) < 1e-13
    assert q.smallest_eigenvalue() > 0
    if not mass:
        assert np.max(np.abs(u + u[::-1] - 1.0)) < 1e-12


def _residual_loop(v, name):
    n = v.size - 1
    h = 1.0 / n
    _, w_u, w_U = oracles.density(name)
    um = 0.5 * (v[:-1] + v[1:])
    m = (np.arange(n) + 0.5) * h
    out = []
    for k in range(1, n):
        x, ux = k * h, v[k]
        terms = []
        for j in range(n):
            D = (um[j] - ux) / (m[j] - x)
            terms.append(h * (-(w_U(ux, D) + w_U(um[j], D)) / (m[j] - x) + w_u(ux, D)))
        w = min(k, n - k)
        total = sum(terms[k - 1 - r] + terms[k + r] for r in range(w))
        total += sum(terms[j] for j in range(n) if j < k - w or j >= k + w)
        out.append(total)
    return np.array(out)


@pytest.mark.parametrize("name", ["half-square", "power:3", "two-well"])
@pytest.mark.parametrize("block", [1, 5, 128])
def test_residual_matches_a_node_by_node_loop(name, block):
    v = _profile(17, seed=2)
    np.testing.assert_allclose(oracles.residual(v, name, block=block),
                               _residual_loop(v, name), rtol=1e-12, atol=1e-12)


def test_linear_profile_residual_follows_the_principal_value_law():
    errs = []
    for n in (256, 512, 1024):
        x = oracles.nodes(n)
        r = oracles.residual(x, "half-square")
        errs.append(np.mean(np.abs(r - oracles.pv_law(x[1:-1]))))
    assert errs[1] / errs[0] == pytest.approx(0.5, abs=0.05)
    assert errs[2] / errs[1] == pytest.approx(0.5, abs=0.05)


def test_inverse_k_agrees_with_graded_gauss_legendre():
    gx, gw = np.polynomial.legendre.leggauss(20)
    # panels graded geometrically towards both end points
    edges = np.concatenate([[0.0], 0.5 * 0.5 ** np.arange(40, 0, -1), [0.5]])
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        t = 0.5 * (b - a) * gx + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(gw @ oracles.shape(t))
    # the integrand is symmetric about 1/2
    assert oracles.inverse_k() == pytest.approx(2.0 * total, rel=1e-13)
    assert oracles.inverse_k(step=1.0 / 16) == pytest.approx(oracles.inverse_k(), rel=1e-14)


def test_local_solution_solves_the_local_problem():
    assert oracles.local_solution(0.0) == 0.0
    assert oracles.local_solution(1.0) == pytest.approx(1.0, rel=1e-15)
    x = np.linspace(0.1, 0.9, 9)
    e = math.e
    np.testing.assert_allclose(oracles.local_solution(x),
                               e**4 / (e**8 - 1) * (np.exp(4 * x) - np.exp(-4 * x)), rtol=1e-14)
    h = 1e-4
    second = (oracles.local_solution(x + h) - 2 * oracles.local_solution(x)
              + oracles.local_solution(x - h)) / h**2
    np.testing.assert_allclose(second, 16.0 * oracles.local_solution(x), rtol=1e-6)
