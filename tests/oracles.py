"""Reference implementations the tests compare the package against.

None of these runs in a solve: the package applies M blockwise, keeps its
matrices in band storage and evaluates approximants only as matrix
polynomials. These densify, exponentiate and evaluate scalars so that small
cases can be checked directly. `tokenize` is the expression scanner as a
character loop, the reference for the package's one-pattern scanner, and
`solve_checking_every_level` is the time loop that looks for a non-finite
entry at every level, the reference for `solve_evolution`'s spaced checks.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from dampwave import schemes
from dampwave.linalg import BandedMatrix
from dampwave.operators import BlockOperator, assemble_system, second_difference
from dampwave.pade import RationalApproximant
from dampwave.problems import ExpressionSyntaxError

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


_OPERATORS = "+-*/^()"


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, offset) triples; kinds: num, ident, op, end."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            # optional exponent part: 1e-3, 2.5E+4
            if j < n and text[j] in "eE":
                p = j + 1
                if p < n and text[p] in "+-":
                    p += 1
                if p < n and text[p].isdigit():
                    j = p
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExpressionSyntaxError(f"malformed number {text[i:j]!r}", i) from None
            if not math.isfinite(value):
                raise ExpressionSyntaxError(f"number {text[i:j]!r} is not finite", i)
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ExpressionSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


def solve_checking_every_level(problem, grid, config, t_final, every_level=True):
    """`schemes.solve_evolution` with a blow-up check at every level after the first."""
    n_steps = schemes.num_steps(t_final, config.k)
    stepper = schemes.make_stepper(config, assemble_system(grid, problem), grid, problem)
    step = {"semigroup": schemes.step_semigroup, "oefd": schemes.step_oefd,
            "oifd": schemes.step_oifd}[config.kind]
    start = stepper.start
    states = np.empty((n_steps + 1 if every_level else 2, start[0].values.size))
    kept = 0
    blow_up_index = None
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(n_steps + 1):
            state = start[level] if level < len(start) else step(stepper, state)
            bad = level > 0 and not np.isfinite(state.values).all()
            if every_level or level == 0 or level == n_steps or bad:
                states[kept] = state.values
                kept += 1
            if bad:
                blow_up_index = level
                break
    levels = np.arange(kept) if every_level else np.array([0, level])
    return schemes.Trajectory(grid=grid, times=levels * config.k, states=states[:kept],
                              blow_up_index=blow_up_index)
