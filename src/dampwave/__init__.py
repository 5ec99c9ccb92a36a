"""Finite-difference solvers for the 1D inhomogeneous damped wave equation.

The semigroup family approximates the propagator of the first-order system
dV/dt = MV + F with rational (S, T) approximants of the exponential
(explicit fd01, implicit fd11, general fdST), alongside the ordinary
explicit/implicit two-level baselines, stability analysis, convergence
studies and CSV benchmark tables.
"""

from .harness import (
    ConvergenceReport,
    ErrorProfile,
    Table,
    error_profile,
    max_error_series,
    observed_order,
    reproduce_table1,
    reproduce_table2,
    solution_profile,
    write_csv,
)
from .linalg import (
    BandedFactorization,
    BandedMatrix,
    SingularMatrixError,
    lu_factor_banded,
    matrix_exponential,
    solve_banded,
    spectral_radius,
)
from .operators import (
    BlockOperator,
    SpatialGrid,
    assemble_system,
    build_grid,
    forcing_vector,
)
from .pade import RationalApproximant, apply_poly, eval_scalar, pade_coefficients
from .problems import (
    DampedWaveProblem,
    EvaluationError,
    ExpressionError,
    ExpressionSyntaxError,
    ProblemConfigError,
    UnknownIdentifierError,
    eval_expression,
    format_expression,
    load_problem_config,
    parse_expression,
    sample_problem,
)
from .schemes import (
    SchemeConfig,
    StateVector,
    Trajectory,
    config_for,
    make_stepper,
    solve_evolution,
    step_semigroup,
)
from .stability import (
    AmplificationSpectrum,
    QuadraticCoeffs,
    StabilityVerdict,
    check_explicit_stability,
    explicit_char_poly,
    implicit_amplification,
    jury_stable,
)

__version__ = "0.1.0"

__all__ = [
    "AmplificationSpectrum",
    "BandedFactorization",
    "BandedMatrix",
    "BlockOperator",
    "ConvergenceReport",
    "DampedWaveProblem",
    "ErrorProfile",
    "EvaluationError",
    "ExpressionError",
    "ExpressionSyntaxError",
    "ProblemConfigError",
    "QuadraticCoeffs",
    "RationalApproximant",
    "SchemeConfig",
    "SingularMatrixError",
    "SpatialGrid",
    "StabilityVerdict",
    "StateVector",
    "Table",
    "Trajectory",
    "UnknownIdentifierError",
    "apply_poly",
    "assemble_system",
    "build_grid",
    "check_explicit_stability",
    "config_for",
    "error_profile",
    "eval_expression",
    "eval_scalar",
    "explicit_char_poly",
    "forcing_vector",
    "format_expression",
    "implicit_amplification",
    "jury_stable",
    "load_problem_config",
    "lu_factor_banded",
    "make_stepper",
    "matrix_exponential",
    "max_error_series",
    "observed_order",
    "pade_coefficients",
    "parse_expression",
    "reproduce_table1",
    "reproduce_table2",
    "sample_problem",
    "solution_profile",
    "solve_banded",
    "solve_evolution",
    "spectral_radius",
    "step_semigroup",
    "write_csv",
]
