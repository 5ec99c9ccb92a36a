"""Time-stepping engines.

Two families are provided:

* the semigroup family: one-step recurrences obtained by replacing the
  exact propagator e^{Mk} of dV/dt = MV + F with a rational (S, T)
  approximant R = P_T/Q_S and the Duhamel integral with the trapezoidal rule,

      Q_S(Mk) V^{n+1} = P_T(Mk) V^n + (k/2) [P_T(Mk) F(t_n) + Q_S(Mk) F(t_{n+1})],

  explicit for S = 0 (fd01 is (0,1)), implicit otherwise (fd11 is (1,1)).
  A step computes the same recurrence as

      V^{n+1} = R(Mk) [V^n + (k/2) F(t_n)] + (k/2) F(t_{n+1}),

  one polynomial pass and one solve; an all-zero F(t) adds nothing, so an
  unforced step is R(Mk) V^n exactly;

* the ordinary two-level baselines on the displacement vector alone:
  explicit (oefd)

      (1 + gamma_i k/2) u^{n+1} = [(2I + r^2 A) u^n]_i + (gamma_i k/2 - 1) u^{n-1}_i
                                  + r^2 B(t_n)_i + k^2 g(x_i, t_n),

  and implicit (oifd), with the Laplacian averaged over levels n and n+1,

      [(1 + gamma k/2) I - (r^2/2) A] u^{n+1} = [2I + (r^2/2) A] u^n
          + (gamma k/2 - 1) u^{n-1} + (r^2/2)(B(t_{n+1}) + B(t_n)) + k^2 g(., t_n),

  where r = k/h. Both baselines use a second-order one-step start: oefd the
  Taylor start `startup_u1` (identical to eliminating the ghost level in its
  own stencil), oifd the ghost elimination applied to its own stencil.

  oifd is first order in time whenever u_xxt != 0. Its averaged Laplacian
  is centred at t_{n+1/2} while the time differences are centred at t_n,
  which leaves a truncation term (k/2) u_xxt. On u = cos t sin x with
  gamma = 1 + x at r = 0.25 the observed orders fall from 1.15 toward 1,
  where oefd and fd11 give 2; with u_xx = 0 oifd is second order too.

Every scheme runs behind one stepper protocol:

* `make_stepper` precomputes what a step needs (coefficients and
  factorizations) and binds the stepper's one forcing source, a function
  of t: it is evaluated at every level, or once when the problem is
  `steady` (g, u_a and u_b all `time_free`), with the same bits either way;
* `stepper.start` is the tuple of levels known before any step, which
  `make_stepper` builds from phi and psi sampled once at the interior
  nodes: (V^0,) for the semigroup family, (u^0, u^1) for the baselines;
* `step_semigroup`, `step_oefd` and `step_oifd` each map (stepper, state)
  to the next level's StateVector, a baseline state carrying u^{n-1} in
  `prev`. So that each level's forcing is evaluated once, `carry` holds
  W_n = V^n + (k/2) F(t_n) for the semigroup family and B(t_n) for oifd,
  whose u^1 level carries the B(k) of its ghost start; it is None on V^0,
  u^0 and every oefd level. A source returns None for an all-zero term (so
  an unforced semigroup step is one bare R(Mk) W_n), which adds nothing;
* `solve_evolution` owns the only time loop and its blow-up bookkeeping. It
  returns the start and last levels (a blown-up run ends at its first
  non-finite one), and hands every level to `on_block` in checked runs of
  one reused buffer. It checks every CHECK_EVERY levels and the last:
  a non-finite entry persists at every later level, as every coefficient and
  pivot is finite and NaN and inf spread through +, * and the banded solve.
  A failed check, or a step that raises, rewinds to the last level that
  passed and steps on checking every level. The rewind reuses that level's
  arrays, so no step writes into the arrays of the state it is given.

Q_S(Mk) is built once per stepper straight in band storage, in the
interleaved ordering (u_1, w_1, u_2, w_2, ...): Horner's rule over kM's four
diagonals (offsets -3, -1, 0, 1) gives (kl, ku) = (3, 1), (3, 2), (5, 3),
(5, 4) for S = 1..4. It is LU-factored once and solved in O(N) per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import linalg
from .operators import (
    BlockOperator,
    SpatialGrid,
    assemble_system,
    boundary_vector,
    forcing_vector,
    sample,
    second_difference,
)
from .pade import apply_poly, pade_coefficients, validate_orders
from .problems import DampedWaveProblem

MAX_STEPS = 10_000_000

#: levels between blow-up checks in solve_evolution (every level after a failed one)
CHECK_EVERY = 64
LEVEL_BLOCK = 4 * CHECK_EVERY  # most levels in a run handed to solve_evolution's on_block

KINDS = ("semigroup", "oefd", "oifd")

#: CLI-facing scheme names
SCHEME_NAMES = ("fd01", "fd11", "fdST", "oefd", "oifd")


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selection: kind, time step, and (for semigroup) the (S, T) orders."""

    kind: str
    k: float
    orders: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}; expected one of {KINDS}")
        if not 0 < self.k < math.inf:
            raise ValueError(f"time step must be positive and finite, got k={self.k}")
        if self.kind == "semigroup":
            if self.orders is None:
                raise ValueError("semigroup scheme needs (S, T) orders")
            validate_orders(*self.orders)

    @property
    def label(self) -> str:
        if self.kind == "semigroup":
            s, t = self.orders
            return f"fd{s}{t}"
        return self.kind


def config_for(name: str, k: float, pade_orders: Optional[tuple[int, int]] = None) -> SchemeConfig:
    """Map a scheme name (fd01, fd11, fdST, oefd, oifd) to a config."""
    if name == "fd01":
        return SchemeConfig("semigroup", k, orders=(0, 1))
    if name == "fd11":
        return SchemeConfig("semigroup", k, orders=(1, 1))
    if name == "fdST":
        if pade_orders is None:
            raise ValueError("scheme fdST needs explicit (S, T) orders")
        return SchemeConfig("semigroup", k, orders=tuple(pade_orders))
    if name in ("oefd", "oifd"):
        return SchemeConfig(name, k)
    raise ValueError(f"unknown scheme name {name!r}; expected one of {SCHEME_NAMES}")


@dataclass(slots=True)
class StateVector:
    """One time level: [u(x_i); u_t(x_i)] for the semigroup family, u(x_i) and the
    previous level in prev for the two-level baselines; carry as in `schemes`."""

    t: float
    values: np.ndarray
    prev: Optional[np.ndarray] = None
    carry: Optional[np.ndarray] = None


def num_steps(t_final: float, k: float) -> int:
    """Steps to the last level with t <= t_final, tolerant of k not dividing t_final
    exactly; raises ValueError unless that is between 1 and MAX_STEPS."""
    if not 0 < t_final < math.inf:
        raise ValueError(f"t_final must be positive and finite, got {t_final}")
    steps = t_final / k
    if steps > MAX_STEPS:  # before int(): t_final/k may overflow to inf
        raise ValueError(f"run would need {steps:.6g} steps (cap {MAX_STEPS})")
    n = int(math.floor(steps * (1.0 + 1e-12) + 1e-12))
    if n == 0:
        raise ValueError(f"t_final={t_final!r} is shorter than one time step k={k!r}")
    return n


def _rows(size: int, d: int) -> slice:
    """The rows i of a size x size matrix whose column i + d exists."""
    return slice(max(0, -d), max(0, -d, min(size, size - d)))


def _interleaved_kM(op: BlockOperator, k: float) -> dict[int, np.ndarray]:
    """k*M with unknowns ordered (u_1, w_1, u_2, w_2, ...) as its diagonals: offset
    d maps to the entries (i, i + d) indexed by row i, zero where absent."""
    c = k * op.inv_h2
    diags = {d: np.zeros(op.size) for d in (-3, -1, 0, 1)}
    diags[1][0::2] = k  # u_i -> w_i
    diags[1][1:-1:2] = c  # w_i -> u_{i+1}
    diags[-1][1::2] = -2.0 * c  # w_i -> u_i
    diags[-3][3::2] = c  # w_i -> u_{i-1}
    diags[0][1::2] = -k * op.damping  # w_i -> w_i
    return diags


def _banded_poly(coeffs, op: BlockOperator, k: float) -> linalg.BandedMatrix:
    """sum_j coeffs[j] (kM)^j in interleaved band storage by Horner's rule over diagonals.
    Each product entry sums its terms from zero in ascending column order, as a CSR
    product does; kl and ku are trimmed to the outermost nonzero diagonals."""
    x, size = _interleaved_kM(op, k), op.size
    acc = {0: np.full(size, float(coeffs[-1]))}
    for c in reversed(coeffs[:-1]):
        prod = {d: np.zeros(size) for d in range(min(acc) - 3, max(acc) + 2)}
        for d1 in sorted(acc):
            rows, cols = _rows(size, d1), _rows(size, -d1)
            for d2, diag in x.items():
                prod[d1 + d2][rows] += acc[d1][rows] * diag[cols]
        prod[0] += float(c)
        acc = prod
    offsets = [d for d, diag in acc.items() if diag.any()]
    kl, ku = -min(min(offsets), 0), max(max(offsets), 0)
    ab = np.zeros((kl + ku + 1, size))
    for d in offsets:
        ab[ku - d, _rows(size, -d)] = acc[d][_rows(size, d)]
    return linalg.BandedMatrix(n=size, kl=kl, ku=ku, ab=ab)


@dataclass(frozen=True)
class SemigroupStepper:
    config: SchemeConfig
    op: BlockOperator
    start: tuple[StateVector, ...]  # (V^0,)
    p: tuple[float, ...]
    q_fact: Optional[linalg.BandedFactorization]  # None when Q is the identity
    perm: Optional[np.ndarray]
    inv_perm: Optional[np.ndarray]
    source: Callable  # t -> (k/2) F(t), None when F(t) is all zero


@dataclass(frozen=True)
class BaselineStepper:
    config: SchemeConfig
    start: tuple[StateVector, ...]  # (u^0, u^1)
    prev_coeff: np.ndarray  # gamma k/2 - 1, the factor on u^{n-1}
    lap_coeff: float  # r^2 (oefd) or r^2/2 (oifd), the factor on A u^n and B
    # oefd: t -> (lap_coeff B(t), k^2 g(., t)); oifd: (t, B(t) or None) -> (lap_coeff
    # (B(t + k) + B(t)), k^2 g(., t), B(t + k)); an all-zero B or g term is None
    source: Callable
    lhs_denom: Optional[np.ndarray] = None  # oefd: 1 + gamma k/2
    lhs_fact: Optional[linalg.BandedFactorization] = None  # oifd


Stepper = Union[SemigroupStepper, BaselineStepper]


def _square(v: float) -> float:
    """v**2 (not v*v, whose bits differ), or inf where the Python float overflows."""
    try:
        return v**2
    except OverflowError:
        return math.inf


def startup_u1(
    problem: DampedWaveProblem, grid: SpatialGrid, k: float, gamma: np.ndarray, u0: np.ndarray,
    psi: np.ndarray,
) -> np.ndarray:
    """Second-order Taylor start for two-level schemes:

    u^1_i = phi(x_i) + k psi(x_i)
            + (k^2/2) [Lap_h phi(x_i) - gamma(x_i) psi(x_i) + g(x_i, 0)]

    with Lap_h the second-difference Laplacian using phi's endpoint values,
    gamma the damping at the interior nodes (`BlockOperator.damping`), and u0
    and psi phi and psi at the interior nodes.
    """
    g0 = sample(problem.g, grid.interior_nodes, 0.0)
    phi_ext = np.concatenate(([problem.phi(grid.a)], u0, [problem.phi(grid.b)]))
    lap = (phi_ext[:-2] - 2.0 * phi_ext[1:-1] + phi_ext[2:]) / grid.h**2
    return u0 + k * psi + 0.5 * _square(k) * (lap - gamma * psi + g0)


def _oifd_factor(d: np.ndarray, half_r2: float) -> linalg.BandedFactorization:
    """LU of diag(d) - (r^2/2) A, the tridiagonal left-hand side of every oifd level."""
    off = np.full(len(d) - 1, -half_r2)
    return linalg.lu_factor_banded(
        linalg.BandedMatrix.from_tridiagonal(lower=off, diag=d + 2.0 * half_r2, upper=off)
    )


def _oifd_ghost_start(
    u0: np.ndarray, psi: np.ndarray, gamma: np.ndarray, k: float, half_r2: float, source: Callable
) -> tuple[np.ndarray, np.ndarray]:
    """Ghost-level elimination of the implicit stencil at the first step:

    (2I - (r^2/2) A) u^1 = (2I + (r^2/2) A) u^0 - 2k (gamma k/2 - 1) psi
                           + (r^2/2)(B(k) + B(0)) + k^2 g(., 0),

    with half_r2 = r^2/2 and the last two terms from the oifd forcing source at
    t = 0; returns u^1 and B(k), which the first step reuses.
    """
    b_term, g_term, b_k = source(0.0)
    rhs = 2.0 * u0 + half_r2 * second_difference(u0) - 2.0 * k * (gamma * k / 2.0 - 1.0) * psi
    u1 = linalg.solve_banded(_oifd_factor(np.full(len(u0), 2.0), half_r2),
                             _add_terms(rhs, b_term, g_term))
    return u1, b_k


def _nonzero(term: np.ndarray) -> Optional[np.ndarray]:
    """term, or None when it is all zero (count_nonzero is the cheapest any() numpy has)."""
    return term if np.count_nonzero(term) else None


def _add_terms(rhs: np.ndarray, *terms: Optional[np.ndarray]) -> np.ndarray:
    """rhs += each term in turn, None adding nothing; returns rhs."""
    for term in terms:
        if term is not None:
            rhs += term
    return rhs


def _bind(problem: DampedWaveProblem, terms: Callable) -> Callable:
    """A forcing source: terms itself unless the problem is `steady`; else terms(0.0),
    evaluated once here and returned at every level."""
    if not problem.steady:
        return terms
    fixed = terms(0.0)
    return lambda *_: fixed


def make_stepper(
    config: SchemeConfig, op: BlockOperator, grid: SpatialGrid, problem: DampedWaveProblem
) -> Stepper:
    """Precompute what a step needs: coefficients, factorizations, start levels and
    the forcing source."""
    k, x = config.k, grid.interior_nodes
    phi, psi = sample(problem.phi, x), sample(problem.psi, x)
    if config.kind == "semigroup":
        approx = pade_coefficients(*config.orders)
        q_fact = perm = inv_perm = None
        if approx.S > 0:
            q_fact = linalg.lu_factor_banded(_banded_poly(approx.q_floats, op, k))
            perm = np.arange(op.size).reshape(2, -1).T.ravel()
            inv_perm = np.arange(op.size).reshape(-1, 2).T.ravel()
        return SemigroupStepper(
            config=config, op=op, start=(StateVector(0.0, np.concatenate([phi, psi])),),
            p=approx.p_floats, q_fact=q_fact, perm=perm, inv_perm=inv_perm,
            source=_bind(problem, lambda t: _nonzero(k / 2.0 * forcing_vector(problem, grid, t))),
        )

    gamma, k2 = op.damping, _square(k)
    lhs = 1.0 + gamma * k / 2.0
    if config.kind == "oefd":
        lap_coeff = _square(k / grid.h)
        source = _bind(problem, lambda t: (_nonzero(lap_coeff * boundary_vector(problem, grid, t)),
                                           _nonzero(k2 * sample(problem.g, x, t))))
        u1, b_k = startup_u1(problem, grid, k, gamma, phi, psi), None
        fields = dict(lhs_denom=lhs)
    else:
        lap_coeff = 0.5 * _square(k / grid.h)
        b_at = _bind(problem, lambda t: boundary_vector(problem, grid, t))  # steady: one B

        def terms(t, b_n=None):
            b_next = b_at(t + k)
            b_sum = b_next + (b_at(t) if b_n is None else b_n)
            return _nonzero(lap_coeff * b_sum), _nonzero(k2 * sample(problem.g, x, t)), b_next

        source = _bind(problem, terms)
        u1, b_k = _oifd_ghost_start(phi, psi, gamma, k, lap_coeff, source)
        fields = dict(lhs_fact=_oifd_factor(lhs, lap_coeff))
    start = (StateVector(0.0, phi), StateVector(k, u1, prev=phi, carry=b_k))
    return BaselineStepper(config=config, start=start, prev_coeff=gamma * k / 2.0 - 1.0,
                           lap_coeff=lap_coeff, source=source, **fields)


def amplify(stepper: SemigroupStepper, v: np.ndarray) -> np.ndarray:
    """R(kM) v = Q_S(kM)^{-1} P_T(kM) v; `stability.spectral_radius` applies it to the
    sine-mode planes to measure its radius for `stability --empirical`."""
    rhs = apply_poly(stepper.p, stepper.op, stepper.config.k, v)
    if stepper.q_fact is None:
        return rhs
    return linalg.solve_banded(stepper.q_fact, rhs[stepper.perm])[stepper.inv_perm]


def _plus(v: np.ndarray, half_kf: Optional[np.ndarray]) -> np.ndarray:
    return v if half_kf is None else v + half_kf


def step_semigroup(stepper: SemigroupStepper, state: StateVector) -> StateVector:
    """One (S, T) step, V_{n+1} = R(kM) W_n + (k/2)F_{n+1} with W_n = V_n + (k/2)F_n
    from state.carry (made here when None); the result carries W_{n+1}."""
    t_next = state.t + stepper.config.k
    w = state.carry if state.carry is not None else _plus(state.values, stepper.source(state.t))
    values = amplify(stepper, w)
    half_kf = stepper.source(t_next)
    if half_kf is not None:
        values += half_kf
    return StateVector(t=t_next, values=values, carry=_plus(values, half_kf))


def _baseline_rhs(stepper: BaselineStepper, state: StateVector, *terms) -> np.ndarray:
    """2u + lap_coeff A u + prev_coeff u^{n-1} + terms, summed in that order in one new
    array that starts as lap_coeff A u (IEEE addition commutes: the bits are the same)."""
    u = state.values
    rhs = second_difference(u)
    rhs *= stepper.lap_coeff
    rhs += 2.0 * u
    rhs += stepper.prev_coeff * state.prev
    return _add_terms(rhs, *terms)


def step_oefd(stepper: BaselineStepper, state: StateVector) -> StateVector:
    """One explicit baseline step: level n (with level n-1 in prev) -> level n+1."""
    rhs = _baseline_rhs(stepper, state, *stepper.source(state.t))
    rhs /= stepper.lhs_denom
    return StateVector(t=state.t + stepper.config.k, values=rhs, prev=state.values)


def step_oifd(stepper: BaselineStepper, state: StateVector) -> StateVector:
    """One implicit baseline step (banded solve): level n (with n-1 in prev) -> n+1;
    B(t_n) comes from state.carry when set, B(t_{n+1}) goes in the result's."""
    b_term, g_term, b_next = stepper.source(state.t, state.carry)
    values = linalg.solve_banded(stepper.lhs_fact, _baseline_rhs(stepper, state, b_term, g_term))
    return StateVector(t=state.t + stepper.config.k, values=values, prev=state.values, carry=b_next)


@dataclass
class Trajectory:
    """The start and last levels of a solve: times, states and blow-up bookkeeping.

    For semigroup schemes a state row is the full [u; u_t] vector; for the
    two-level baselines it is the displacement vector alone. The last row is
    the last level computed: the last step with t <= t_final, or the level
    that halted a blown-up run.
    """

    grid: SpatialGrid
    times: np.ndarray
    states: np.ndarray
    blow_up_index: Optional[int] = None  # the level that halted the run

    @property
    def blow_up(self) -> bool:
        return self.blow_up_index is not None

    @property
    def displacements(self) -> np.ndarray:
        return self.states[:, : self.grid.n_interior]


def solve_evolution(
    problem: DampedWaveProblem,
    grid: SpatialGrid,
    config: SchemeConfig,
    t_final: float,
    on_block: Optional[Callable[[int, np.ndarray], None]] = None,
) -> Trajectory:
    """Run the configured scheme from the initial data to the last step with t <= t_final, or
    to the first non-finite level after the initial one, which halts and flags the run. The
    start and last levels are returned; on_block(first_level, states) gets every level once,
    in order, in runs that end at multiples of LEVEL_BLOCK or the last level, each a view of
    one buffer handed over under the caller's np.geterr() once it has passed a check."""
    n_steps = num_steps(t_final, config.k)
    caller_err = np.geterr()

    # set-up too, so that an overflow there is a non-finite start level, a blow-up at
    # level 1; a diverging run overflows before its first non-finite level is caught
    with np.errstate(over="ignore", invalid="ignore"):
        stepper = make_stepper(config, assemble_system(grid, problem), grid, problem)
        # chosen per call, so that a rebinding of these module names takes effect
        step = {"semigroup": step_semigroup, "oefd": step_oefd, "oifd": step_oifd}[config.kind]
        start = stepper.start

        if on_block is not None:
            rows = min(LEVEL_BLOCK, n_steps) + 1
            try:
                block = np.empty((rows, start[0].values.size))
            except MemoryError as exc:
                raise ValueError(f"cannot hold {rows} snapshots ({exc})") from None
            block[0] = start[0].values
        level, first, state = 0, 0, start[0]  # first: the next level to hand over, in row 0
        checked = (level, state)  # the last level that passed a check; level 0 is never checked
        spacing = CHECK_EVERY
        while level < n_steps:
            level += 1
            try:
                state = start[level] if level < len(start) else step(stepper, state)
            except Exception:
                if spacing == 1:
                    raise
                # whatever it is, it may come from a level past an unchecked blow-up
                (level, state), spacing = checked, 1
                continue
            if on_block is not None:
                block[level - first] = state.values
            if level % spacing and level < n_steps:
                continue
            finite = np.isfinite(state.values).all()
            if not finite and spacing > 1:
                (level, state), spacing = checked, 1
                continue
            checked = (level, state)
            if on_block is not None and (not finite or not level % LEVEL_BLOCK or level == n_steps):
                with np.errstate(**caller_err):
                    on_block(first, block[: level - first + 1])
                first = level + 1
            if not finite:
                break

    # the loop ends on a check: the last level passed it, or the run blew up there
    states = np.stack((start[0].values, state.values))
    return Trajectory(grid, np.array([0, level]) * config.k, states, None if finite else level)
