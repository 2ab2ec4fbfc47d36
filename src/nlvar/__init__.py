"""Scalar 1-D non-local variational problems: discretization, minimization,
and optimality verification via the variational integral equation."""

from .energy import NonFiniteEnergyError, energy_gradient, energy_value, value_and_grad
from .grid import Grid1D, GridError, NodalFunction
from .integrands import Integrand, half_square, integrand_by_name, power_p, \
    quadratic_mass, two_well_bare, two_well_full
from .optimality import ResidualReport, residual, residual_report
from .reference import ReferenceProfile, local_exp_solution, normalize_k, \
    ode_approx_derivative, ode_approx_profile
from .solver import LineSearchError, MinimizeResult, SolverConfig, default_grad_tol, \
    make_initial_guess, minimize

__version__ = "0.1.0"
