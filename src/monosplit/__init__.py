"""Inertial under-relaxed splitting solvers for monotone inclusions.

Solves ``0 in T(z)`` (and structured ``0 in F(z) + B(z)``) with inexact
proximal iterations certified by a relative-error criterion, and exposes
closed-form complexity bounds that every run is checked against.
"""

from .bounds import (BoundInputs, Check, assert_bounds, audit,
                     ergodic_bounds, iteration_budget, pointwise_bounds)
from .ergodic import ErgodicState
from .errors import (CertificationError, ConfigError, DimensionMismatch,
                     MonosplitError, OracleError, ParameterError,
                     TheoremViolation)
from .hpe_core import (Certificate, IterationTrace, SolverState, StoppingRule,
                       run)
from .instances import (INSTANCE_KINDS, InstanceConfig, fb_step,
                        make_inner_solver, ppm_step, solve, tseng_step)
from .operators import (AffineOperator, AffineResolvent, BoxResolvent,
                        ForwardMap, L1Resolvent, TestProblem, ZeroResolvent,
                        make_problem)
from .params import (HpeParams, beta_prime, beta_prime_lower_bound, eta_of,
                     q_value, tau_of)

__version__ = "0.1.0"

__all__ = [
    "AffineOperator", "AffineResolvent", "BoundInputs",
    "BoxResolvent", "Certificate", "CertificationError", "Check",
    "ConfigError",
    "DimensionMismatch", "ErgodicState", "ForwardMap", "HpeParams",
    "INSTANCE_KINDS", "InstanceConfig", "IterationTrace", "L1Resolvent",
    "MonosplitError", "OracleError", "ParameterError", "SolverState",
    "StoppingRule", "TestProblem", "TheoremViolation", "ZeroResolvent",
    "assert_bounds", "audit", "beta_prime", "beta_prime_lower_bound",
    "ergodic_bounds", "eta_of", "fb_step", "iteration_budget",
    "make_inner_solver", "make_problem", "pointwise_bounds", "ppm_step",
    "q_value", "run", "solve", "tau_of", "tseng_step",
]
