"""Reference implementations the tests compare the package against.

None of these runs in a solve: the package applies M blockwise, keeps its
matrices in band storage and evaluates approximants only as matrix
polynomials. These densify, exponentiate and evaluate scalars so that small
cases can be checked directly. `tokenize` is the expression scanner as a
character loop, the reference for the package's one-pattern scanner, and
`solve_checking_every_level` is the time loop that steps `make_stepper`'s
one-member lane and looks for a non-finite entry at every level, the
reference for `solve_evolution`'s spaced checks; `solve_group_every_level`
gathers the levels `solve_evolution` hands to its `on_block` into one
trajectory per config. `max_error_per_level` samples the exact
solution once per level of the reference loop, the reference for
`harness.max_error_series`. `spectral_radius` takes the eigenvalues of a
map's dense matrix, the reference for the per-mode
`stability.spectral_radius`, and `jury_stable` with `explicit_char_poly`
places the explicit scheme's per-mode eigenvalues by a coefficient test.
`dense_amplification` and `dense_oifd_step` take one step by a refined dense
`numpy.linalg.solve`, the reference for the banded and tridiagonal solves.
`replay_interchanges` replays gbtrf's row interchanges one step at a time, as
dense getrf applies them to its finished columns: the unit lower factor L' with
P A = L' U, the reference that `linalg.lu_factor_banded` factors its matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from dampwave import schemes
from dampwave.linalg import BandedMatrix
from dampwave.harness import Table
from dampwave.operators import BlockOperator, assemble_system, build_grid, sample, second_difference
from dampwave.pade import RationalApproximant
from dampwave.problems import ExpressionSyntaxError

ORACLE_MAX_SIZE = 200
SPECTRAL_MAX_SIZE = 2000


def banded_to_dense(matrix: BandedMatrix) -> np.ndarray:
    """The square matrix a band-storage BandedMatrix holds."""
    m = np.zeros((matrix.n, matrix.n))
    for d in range(-matrix.kl, matrix.ku + 1):
        m += np.diag(matrix.ab[matrix.ku - d, max(d, 0) : matrix.n + min(d, 0)], d)
    return m


def replay_interchanges(lu: np.ndarray, ipiv: np.ndarray, kl: int, ku: int):
    """(perm, lower) with A[perm] = L' U for gbtrf's (lu, ipiv): step j swaps the rows
    j and ipiv[j] of perm and of L' so far, then sets column j's multipliers. lower is
    L' in band storage, lower[i - j, j] = L'[i, j], as wide as its farthest entry."""
    n = lu.shape[1]
    perm = list(range(n))
    rows = [{} for _ in range(n)]  # rows[i][j] = L'[i, j], for the columns j done so far
    for j in range(n):
        p = int(ipiv[j])
        perm[j], perm[p] = perm[p], perm[j]
        rows[j], rows[p] = rows[p], rows[j]
        for t in range(1, min(kl, n - 1 - j) + 1):
            rows[j + t][j] = lu[kl + ku + t, j]
    lower = np.zeros((max((i - j for i, row in enumerate(rows) for j in row), default=0) + 1, n))
    for i, row in enumerate(rows):
        for j, value in row.items():
            lower[i - j, j] = value
    return np.array(perm), lower


def operator_to_dense(op: BlockOperator) -> np.ndarray:
    """Densified M = [[0, I], [A/h^2, -Gamma]]."""
    n = op.n_interior
    m = np.zeros((2 * n, 2 * n))
    m[:n, n:] = np.eye(n)
    m[n:, :n] = op.inv_h2 * second_difference(np.eye(n))
    m[n:, n:] = -np.diag(op.damping)
    return m


def dense_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """numpy.linalg.solve with two steps of iterative refinement: LU with partial pivoting
    of Q_S(kM) in block order grows its rounding to 1e-11 of the solution at N = 300,
    which the refinement takes down to the matrix's conditioning."""
    x = np.linalg.solve(matrix, rhs)
    for _ in range(2):
        x += np.linalg.solve(matrix, rhs - matrix @ x)
    return x


def dense_amplification(approx: RationalApproximant, op: BlockOperator, k: float,
                        v: np.ndarray) -> np.ndarray:
    """Q_S(kM)^{-1} P_T(kM) v by `dense_solve`, with Q_S(kM) formed densely by Horner's
    rule and P_T(kM) v by matrix-vector products."""
    km = k * operator_to_dense(op)
    q, p_v = np.zeros_like(km), np.zeros(len(v))
    for c in reversed(approx.q_floats):
        q = q @ km
        q[np.diag_indices_from(q)] += c
    for c in reversed(approx.p_floats):
        p_v = km @ p_v + c * v
    return dense_solve(q, p_v)


def dense_oifd_step(op: BlockOperator, k: float, h: float, u: np.ndarray,
                    prev: np.ndarray) -> np.ndarray:
    """An unforced oifd level from u and the level before it, prev, by `dense_solve` of
    [(1 + gamma k/2) I - (r^2/2) A] u' = [2I + (r^2/2) A] u + (gamma k/2 - 1) prev."""
    half_r2, a = 0.5 * (k / h) ** 2, second_difference(np.eye(op.n_interior))
    lhs = np.diag(1.0 + op.damping * k / 2.0) - half_r2 * a
    return dense_solve(lhs, 2.0 * u + half_r2 * (a @ u) + (op.damping * k / 2.0 - 1.0) * prev)


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
    states = np.empty((n_steps + 1 if every_level else 2, len(start[0].values)))
    kept = 0
    blow_up_index = None
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(n_steps + 1):
            state = start[level] if level < len(start) else step(stepper, state)
            bad = level > 0 and not np.isfinite(state.values).all()
            if every_level or level == 0 or level == n_steps or bad:
                states[kept] = state.values[:, 0]
                kept += 1
            if bad:
                blow_up_index = level
                break
    levels = np.arange(kept) if every_level else np.array([0, level])
    return schemes.Trajectory(grid=grid, times=levels * config.k, states=states[:kept],
                              blow_up_index=blow_up_index)


def solve_group_every_level(problem, grid, configs, t_final):
    """`schemes.solve_evolution` of a tuple of configs, with every level its on_block hands
    each member, as a tuple of one trajectory per member; asserts that a member's rows come
    in order from level 0, each level once, and end in the levels the solve returns."""
    runs = [[] for _ in configs]

    def keep(first, blocks):
        assert len(blocks) == len(configs)
        for rows, states in zip(runs, blocks):
            assert len(states) <= schemes.CHECK_EVERY + 1
            if len(states):
                assert first == sum(map(len, rows))
                rows.append(states.copy())

    ends = schemes.solve_evolution(problem, grid, configs, t_final, keep)
    trajs = []
    for rows, end, config in zip(runs, ends, configs):
        states = np.concatenate(rows)
        assert np.array_equal(states[[0, -1]], end.states, equal_nan=True)
        trajs.append(schemes.Trajectory(grid=grid, times=np.arange(len(states)) * config.k,
                                        states=states, blow_up_index=end.blow_up_index))
    return tuple(trajs)


def max_error_per_level(problem, scheme, N, k, t_final):
    """`harness.max_error_series` with the exact solution sampled one level at a time."""
    grid = build_grid(*problem.domain, N)
    traj = solve_checking_every_level(problem, grid, schemes.config_for(scheme, k), t_final)
    errors = [np.max(np.abs(u - sample(problem.exact, grid.interior_nodes, t)))
              for t, u in zip(traj.times, traj.displacements)]
    return Table.from_columns(("t", "max_error"), traj.times, np.array(errors))


def spectral_radius(apply, n: int) -> float:
    """Dominant eigenvalue magnitude of a linear map on R^n, given only its action.

    The map is applied to the n unit vectors to form its dense matrix, whose
    eigenvalues LAPACK computes directly, so complex pairs, defective and
    tied dominant moduli need no special handling. Limited to n <=
    SPECTRAL_MAX_SIZE, where the dense eigenvalue problem stays within
    seconds.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > SPECTRAL_MAX_SIZE:
        raise ValueError(
            f"dense spectral radius limited to maps of size {SPECTRAL_MAX_SIZE}, got {n}"
        )
    matrix = np.column_stack([np.asarray(apply(e), dtype=float) for e in np.eye(n)])
    return float(np.abs(np.linalg.eigvals(matrix)).max())


@dataclass(frozen=True)
class QuadraticCoeffs:
    """p(x) = a x^2 + b x + c with a > 0."""

    a: float
    b: float
    c: float


def jury_stable(q: QuadraticCoeffs) -> bool:
    """True iff both roots of p lie strictly inside the unit disk.

    Coefficient form of the criterion: |c| < a, p(1) > 0 and p(-1) > 0.
    """
    if not q.a > 0:
        raise ValueError(f"leading coefficient must be positive, got a={q.a}")
    p1 = q.a + q.b + q.c
    pm1 = q.a - q.b + q.c
    return abs(q.c) < q.a and p1 > 0 and pm1 > 0


def explicit_char_poly(n: int, N: int, k: float, h: float, gamma_n: float) -> QuadraticCoeffs:
    """Quadratic whose roots are mode n's amplification eigenvalues of I + kM.

    lambda^2 + (-2 + gamma k) lambda + 1 - k gamma + 4 r^2 sin^2(n pi / 2N),
    r = k/h.
    """
    if not 1 <= n <= N - 1:
        raise ValueError(f"mode index must satisfy 1 <= n <= N-1, got n={n}, N={N}")
    r = k / h
    s = math.sin(n * math.pi / (2 * N)) ** 2
    return QuadraticCoeffs(a=1.0, b=-2.0 + gamma_n * k, c=1.0 - k * gamma_n + 4.0 * r**2 * s)
