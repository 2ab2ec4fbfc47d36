"""Separable energy densities W(x, u, U) = phi(U) + psi(u) with analytic
derivatives.

The paper's class is a general W(x, u, U); every density shipped here is
x-independent and separable, which lets the energy kernel evaluate phi once
per unordered pair of midpoints and psi once per midpoint. Derivatives are
supplied in closed form so that residual evaluation never stacks numerical
differentiation on top of singular-kernel quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Integrand",
    "power_p",
    "half_square",
    "quadratic_mass",
    "two_well_full",
    "two_well_bare",
    "integrand_by_name",
]

ArrayFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Integrand:
    """Density W(x, u, U) = w(U) + mass(u): w is phi, w_U = phi', w_UU =
    phi'', mass is psi, w_u = psi' and w_uu = psi''. Densities without a
    zero-order term use zeros for psi and its derivatives. w returns a new
    array: the energy kernel weights rows of it in place.

    p is the growth exponent of W in U. No code in the package reads it; it
    describes the density to callers, such as the tests' coercivity and
    derivative checks. convex states that W is convex in (u, U); the solver preconditions only such
    densities, so a density that does not state it keeps the unpreconditioned
    solver. The solver's Newton steps read w_UU and w_uu.

    phi_coefficients, where set, are phi's coefficients in ascending order,
    read in |U|: phi(U) = sum_k c_k |U|^k, which w evaluates in its own
    closed form. With no odd coefficient that is the polynomial sum_k c_k
    U^k. Above a crossover size the energy kernel sums the distant pairs of
    such a density by Toeplitz products instead of evaluating w on each of
    them; with an odd coefficient it does so where the pairs' sign is known.
    Those sums take phi, phi' and phi'' from w, w_U and w_UU at one point
    and the rest from the coefficients, so a density whose closed forms
    disagree with its coefficients at COEFFICIENT_PROBES raises ValueError
    naming the part. phi'(0) must be c_1, the slope from the right, which
    the sums take at a zero slope of the end values. The sums read phi's
    degree as len(c) - 1, so an empty tuple, or a last coefficient of 0
    after others, raises ValueError too.
    """

    w: ArrayFn
    w_U: ArrayFn
    w_UU: ArrayFn
    mass: ArrayFn
    w_u: ArrayFn
    w_uu: ArrayFn
    p: float
    name: str
    convex: bool = False
    phi_coefficients: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        c = self.phi_coefficients
        if c is None:
            return
        if not c:
            raise ValueError(f"{self.name}: phi_coefficients is empty")
        if len(c) > 1 and c[-1] == 0:
            raise ValueError(f"{self.name}: phi_coefficients end in 0")
        U = COEFFICIENT_PROBES
        a, first = np.abs(U), _derivative(c)
        # phi(U) = P(|U|), phi'(U) = _sign(U) P'(|U|) and phi''(U) = P''(|U|),
        # each to rounding; a coefficient that overflows them, or is not
        # finite, fails the comparison, so numpy's warnings would only
        # repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            for part, closed, want in (("w", self.w, _horner(c, a)),
                                       ("w_U", self.w_U, _sign(U) * _horner(first, a)),
                                       ("w_UU", self.w_UU, _horner(_derivative(first), a))):
                got = np.asarray(closed(U.copy()), float)
                wrong = ~(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
                if wrong.any():
                    k = int(wrong.argmax())
                    raise ValueError(f"{self.name}: phi_coefficients give {part} = "
                                     f"{float(want[k])!r} at U = {U[k]:g}, the closed form "
                                     f"{float(got[k])!r}")


def _derivative(c) -> list:
    """The coefficients of the derivative of sum_k c_k x^k."""
    return [k * c[k] for k in range(1, len(c))]


def _horner(c, x: np.ndarray) -> np.ndarray:
    """sum_k c_k x^k, for numbers or arrays c_k shaped like x, in one new
    array. numpy.polynomial's polyval would add about 6 ms to `import
    nlvar`."""
    y = np.zeros_like(x)
    for ck in reversed(c):
        y *= x
        y += ck
    return y


def _sign(x):
    """sign(x) with +1 at 0, as phi'(0) is the slope from the right: the
    coefficient check and the energy's far sums both take it."""
    return np.where(x < 0, -1.0, 1.0)


# the points where Integrand compares phi's closed forms with its
# coefficients: both signs, and 0, where an odd phi has a kink
COEFFICIENT_PROBES = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
COEFFICIENT_PROBES.setflags(write=False)


def _integer_exponent(p: float) -> bool:
    """Whether |U|^p is a product of |U|s, and so smooth at U = 0."""
    return float(p).is_integer()


def _abs_power(U, k: int):
    """|U|^k for an integer k >= 0 by repeated squaring, as a new array.
    numpy's ** has a fast path for the exponent 2 only and otherwise calls
    pow once per element, which costs about three products."""
    power, result = np.abs(U), None
    while k:
        if k & 1:
            if result is None:
                result = power
            else:
                result *= power  # power was rebound after result took it
        k >>= 1
        if k:
            power = power * power
    return np.ones_like(power) if result is None else result


def power_p(p: float) -> Integrand:
    """W = |U|^p (homogeneous problem with end conditions u(0)=0, u(1)=1).

    For an integer p, phi, phi' = p U |U|^(p-2) and phi'' are products of
    |U| (`_abs_power`); otherwise they are numpy powers of |U|. p = 2, 3
    and 4 carry phi's coefficients, |U|^p: p = 3 is a polynomial in |U|, not
    in U, and the Toeplitz sums of a higher degree lose more to
    cancellation.
    """
    if not (np.isfinite(p) and p > 1):
        raise ValueError(f"growth exponent must be finite and exceed 1, got {p}")
    if _integer_exponent(p):
        k = int(p)
        w = lambda U: _abs_power(U, k)
        w_U = lambda U: p * (U * _abs_power(U, k - 2))
        w_UU = lambda U: p * (p - 1) * _abs_power(U, k - 2)
    else:
        w = lambda U: np.abs(U) ** p
        w_U = lambda U: p * np.sign(U) * np.abs(U) ** (p - 1)
        w_UU = lambda U: p * (p - 1) * np.abs(U) ** (p - 2)
    short = f"{p:g}" if float(f"{p:g}") == p else repr(float(p))  # a name that reads back as p
    coefficients = (0.0,) * int(p) + (1.0,) if p in (2, 3, 4) else None
    return Integrand(w=w, w_U=w_U, w_UU=w_UU, mass=np.zeros_like, w_u=np.zeros_like,
                     w_uu=np.zeros_like, p=p, name=f"power:{short}", convex=True,
                     phi_coefficients=coefficients)


def half_square() -> Integrand:
    """W = U^2 / 2, the quadratic special case used for p = 2 experiments."""
    return Integrand(
        w=lambda U: 0.5 * U**2, w_U=lambda U: U, mass=np.zeros_like, w_u=np.zeros_like,
        p=2.0, name="half-square", convex=True, w_UU=np.ones_like, w_uu=np.zeros_like,
        phi_coefficients=(0.0, 0.0, 0.5),
    )


def quadratic_mass() -> Integrand:
    """W = U^2 / 2 + 8 u^2, quadratic plus a zero-order mass term."""
    return replace(half_square(), mass=lambda u: 8.0 * u**2, w_u=lambda u: 16.0 * u,
                   w_uu=lambda u: np.full_like(u, 16.0), name="quad-mass")


def two_well_full() -> Integrand:
    """W = (U^2 - 1)^2 / 4 + u^2 / 2, the non-convex Bolza density."""
    return replace(two_well_bare(), mass=lambda u: 0.5 * u**2, w_u=lambda u: u,
                   w_uu=np.ones_like, name="two-well")


def two_well_bare() -> Integrand:
    """W = (U^2 - 1)^2 / 4, the two-well density without the mass term."""
    return Integrand(
        w=lambda U: 0.25 * (U**2 - 1.0) ** 2, w_U=lambda U: U * (U**2 - 1.0),
        mass=np.zeros_like, w_u=np.zeros_like, p=4.0, name="two-well-bare",
        w_UU=lambda U: 3.0 * U**2 - 1.0, w_uu=np.zeros_like,
        phi_coefficients=(0.25, 0.0, -0.5, 0.0, 0.25),
    )


_FACTORIES = {
    "half-square": half_square,
    "quad-mass": quadratic_mass,
    "two-well": two_well_full,
    "two-well-bare": two_well_bare,
}


def integrand_by_name(name: str) -> Integrand:
    """Resolve a CLI name: 'power:p', 'half-square', 'quad-mass', 'two-well',
    'two-well-bare'."""
    name = name.strip()
    if name.startswith("power:"):
        try:
            p = float(name.split(":", 1)[1])
        except ValueError:
            raise KeyError(f"bad exponent in integrand name {name!r}") from None
        return power_p(p)
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise KeyError(f"unknown integrand {name!r}") from None
