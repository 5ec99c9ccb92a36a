"""Dense reference implementations the tests compare the solvers against.

None of these runs in a solve: the package applies M blockwise, keeps its
matrices in band storage and evaluates approximants only as matrix
polynomials. These densify, exponentiate and evaluate scalars so that small
cases can be checked directly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.linalg import expm

from dampwave.linalg import BandedMatrix
from dampwave.operators import BlockOperator, second_difference
from dampwave.pade import RationalApproximant

ORACLE_MAX_SIZE = 200


def banded_to_dense(matrix: BandedMatrix) -> np.ndarray:
    """The square matrix a band-storage BandedMatrix holds."""
    m = np.zeros((matrix.n, matrix.n))
    for d in range(-matrix.kl, matrix.ku + 1):
        m += np.diag(matrix.ab[matrix.ku - d, max(d, 0) : matrix.n + min(d, 0)], d)
    return m


def operator_to_dense(op: BlockOperator) -> np.ndarray:
    """Densified M = [[0, I], [A/h^2, -Gamma]]."""
    n = op.n_interior
    m = np.zeros((2 * n, 2 * n))
    m[:n, n:] = np.eye(n)
    m[n:, :n] = op.inv_h2 * second_difference(np.eye(n))
    m[n:, n:] = -np.diag(op.damping)
    return m


def matrix_exponential(op: BlockOperator, k: float) -> np.ndarray:
    """e^{M k} as a dense matrix; for small systems only."""
    if op.size > ORACLE_MAX_SIZE:
        raise ValueError(
            f"oracle limited to systems of size {ORACLE_MAX_SIZE}, got {op.size}"
        )
    return expm(k * operator_to_dense(op))


def _poly_scalar(coeffs: Sequence[float], theta: float) -> float:
    acc = 0.0
    for c in reversed([float(c) for c in coeffs]):
        acc = acc * theta + c
    return acc


def eval_scalar(approx: RationalApproximant, theta: float) -> float:
    """P_T(theta) / Q_S(theta); signals a pole when |Q_S(theta)| < 1e-14."""
    denom = _poly_scalar(approx.q_floats, theta)
    if abs(denom) < 1e-14:
        raise ZeroDivisionError(
            f"({approx.S},{approx.T}) approximant has a pole near theta = {theta}"
        )
    return _poly_scalar(approx.p_floats, theta) / denom
