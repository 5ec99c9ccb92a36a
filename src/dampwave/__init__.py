"""Finite-difference solvers for the 1D inhomogeneous damped wave equation.

The semigroup family approximates the propagator of the first-order system
dV/dt = MV + F with rational (S, T) approximants of the exponential
(explicit fd01, implicit fd11, general fdST), alongside the ordinary
explicit/implicit two-level baselines, stability analysis, convergence
studies and CSV benchmark tables.

The command line (`dampwave.cli`) reaches every result. From Python, import
the entry points from their submodules: `dampwave.schemes.solve_evolution`
runs a scheme, `dampwave.harness.reproduce_table1` and `reproduce_table2`
build the paper's tables, `dampwave.harness.observed_order` runs a
convergence study and `dampwave.stability.check_explicit_stability` checks
the explicit stability conditions. The package root carries the names the
benchmark sets a solve up with.
"""

from .operators import assemble_system, build_grid
from .problems import DampedWaveProblem, load_problem_config, sample_problem
from .schemes import config_for, make_stepper

__version__ = "0.1.0"

__all__ = [
    "DampedWaveProblem",
    "assemble_system",
    "build_grid",
    "config_for",
    "load_problem_config",
    "make_stepper",
    "sample_problem",
]
