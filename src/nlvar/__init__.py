"""Scalar 1-D non-local variational problems: discretization, minimization,
and optimality verification via the variational integral equation."""

from .energy import EnergyReport, NonFiniteEnergyError, energy, energy_gradient, \
    energy_value, refine_and_compare, value_and_grad
from .grid import Grid1D, GridError, NodalFunction, difference_quotient, \
    make_uniform_grid
from .integrands import Integrand, check_derivatives, half_square, \
    integrand_by_name, power_p, quadratic_mass, two_well_bare, two_well_full
from .optimality import ResidualReport, check_inteqo, kernel_K, ndiv, pv_log, \
    residual, residual_report
from .reference import ReferenceProfile, holder_exponent, local_exp_solution, \
    normalize_k, ode_approx_derivative, ode_approx_profile
from .solver import ContinuationResult, LineSearchError, MinimizeResult, \
    SolverConfig, continuation_refine, default_grad_tol, make_initial_guess, \
    minimize

__version__ = "0.1.0"
