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

Every scheme runs behind one stepper protocol, as a member of a lane (below):

* `make_stepper` precomputes what a step needs (coefficients and
  factorizations), binds the one forcing source, a function of t, and
  returns the one-member lane. The source is evaluated at every level, or
  once when the problem is `steady` (g, u_a and u_b all `time_free`), with
  the same bits either way;
* `stepper.start` is the tuple of levels known before any step, built from
  phi and psi sampled once at the interior nodes: (V^0,) for the semigroup
  family, (u^0, u^1) for the baselines;
* `step_semigroup` and `step_baseline` (bound as `step_oefd` and `step_oifd`
  too) each map (stepper, state) to the next level's StateVector, a baseline
  state carrying u^{n-1} in `prev`. So that each level's forcing is evaluated
  once, `carry` holds W_n = V^n + (k/2) F(t_n) for the semigroup family, None
  on V^0, and for a baseline lane an entry per member: B(t_n) for oifd, whose
  u^1 level carries the B(k) of its ghost start, None on u^0 and for oefd.
  A source returns None for an all-zero term, which adds nothing;
* `solve_evolution` owns the only time loop and its blow-up bookkeeping. It
  maps a tuple of configs to a tuple of trajectories with the start and last
  levels (a blown-up run ends at its first non-finite one), and hands every
  level to `on_block` in checked runs of one reused buffer per lane. It
  checks every CHECK_EVERY levels and the last, and steps lane by lane from
  one check to the next: a non-finite entry persists at every later level, as
  every coefficient and pivot is finite and NaN and inf spread through +, *
  and the banded solve. A failed check, or a span of steps that raises, rewinds
  to the last level that passed and checks every level up to the end of that
  span, after which the checks are spaced again. The rewind reuses that level's
  arrays, so no step writes into the arrays of the state it is given.

The schemes of one solve run in lockstep: `solve_evolution` steps its configs,
at one k, as lanes of members that share array ops, semigroup members whose
numerators have one length (fd01 and fd11) and the baselines (oefd and oifd).
A lane stacks its members' states along a trailing member axis, node-major and
member-minor, (2n, m) or (n, m), so that one numpy call serves every member;
`second_difference` keeps its first-axis form. Coefficients that differ
between members are pre-expanded to the full array shape, as a broadcast
(m,) or (n, 1) operand costs about three contiguous ones. A lane's `members`
holds a `Member` record per column: its finish (a Q_S solve in the lane's
interleaved order, oifd's solve, oefd's divide) and a baseline's forcing
source. A lane binds once, on its first step, what every level would
otherwise re-decide, in its `bound`: P_T with its exact ones resolved, a
steady source's value (an all-zero one dropped) and each live member's finish
as a (column, finish) entry, by kind. Each member keeps its own blow-up:
a failed check rewinds every lane and checks every member at each level up to
that check, so that each halts at the level, and with the state, of its solo
run. A halt rebinds its lane, with that member's record None: its column
rides along unread, with no finish or forcing, and a lane of halted members
is no longer stepped. A solo run is the one-member lane `make_stepper` makes.

Q_S(Mk) is built once per stepper straight in band storage, in the
interleaved ordering (u_1, w_1, u_2, w_2, ...): Horner's rule over kM's four
diagonals (offsets -3, -1, 0, 1) gives (kl, ku) = (3, 1), (3, 2), (5, 3),
(5, 4) for S = 1..4. It is LU-factored once (gbtrf) and solved once a step in
O(N), with gbtrs or, at `linalg.SWEEP_MIN_N` unknowns and more, by two BLAS
band sweeps with gbtrs's bits (`linalg`), which gather the right-hand side
once in the interleaved and the factor's row order together. oifd's
tridiagonal left-hand side is solved the same way.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence, Union

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

#: levels between solve_evolution's blow-up checks and on_block hand-overs (one level at a
#: time after a failed check, up to that check)
CHECK_EVERY = 64

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
    """One time level of a lane, a column per member: [u(x_i); u_t(x_i)] for the semigroup
    family, u(x_i) and the previous level in prev for the baselines; carry as in `schemes`."""

    t: float
    values: np.ndarray
    prev: Optional[np.ndarray] = None
    carry: Union[np.ndarray, tuple, None] = None


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


class Member(NamedTuple):
    # a baseline's (t, B(t) or None) -> (lap_coeff B(t) for oefd, lap_coeff (B(t + k) + B(t))
    # for oifd; k^2 g(., t); B(t + k) for oifd, None for oefd), an all-zero B or g term None
    source: Optional[Callable]  # None in a semigroup lane, whose members share its source
    # Q_S's factor (None when Q is the identity), oifd's left-hand side's, or oefd's divisor
    finish: Union[linalg.BandedFactorization, np.ndarray, None]


@dataclass(frozen=True)
class SemigroupStepper:
    config: SchemeConfig
    op: BlockOperator  # a lane's damping is pre-expanded to (n, m)
    start: tuple[StateVector, ...]  # (V^0,)
    p: tuple  # P_T's coefficients
    perm: np.ndarray  # the interleaved order of the unknowns a Q_S factor solves for
    source: Callable  # t -> (k/2) F(t), None when F(t) is all zero
    steady: bool  # the problem's: source returns one value, made once
    members: Sequence[Optional[Member]]

    @cached_property
    def bound(self) -> tuple:
        """P_T with its exact ones None, the source (None when steady), a steady (k/2) F and
        (column, Q_S factor) per live member: what a step reads, bound once a lane."""
        poly = self.p if len(self.p) == 1 else tuple(
            None if isinstance(c, float) and c == 1.0 else c for c in self.p)
        return (poly, None if self.steady else self.source,
                self.source(0.0) if self.steady else None,
                tuple((j, m.finish) for j, m in enumerate(self.members) if m and m.finish))


@dataclass(frozen=True)
class BaselineStepper:
    config: SchemeConfig
    start: tuple[StateVector, ...]  # (u^0, u^1)
    prev_coeff: np.ndarray  # gamma k/2 - 1, the factor on u^{n-1}
    lap_coeff: Union[float, np.ndarray]  # r^2 (oefd) or r^2/2 (oifd), the factor on A u^n and B
    steady: bool  # the problem's: each source returns one value, made once
    members: Sequence[Optional[Member]]

    @cached_property
    def bound(self) -> tuple:
        """(column, source, terms) per live member with forcing (a steady one's source None, its
        terms its B and g), and (column, finish) per live oefd (a divisor) and oifd (a factor)."""
        live = [(j, m) for j, m in enumerate(self.members) if m is not None]
        adds = [(j, None, m.source(0.0)[:2]) if self.steady else (j, m.source, ()) for j, m in live]
        return (tuple(a for a in adds if a[1] or any(x is not None for x in a[2])),
                tuple((j, m.finish) for j, m in live if isinstance(m.finish, np.ndarray)),
                tuple((j, m.finish) for j, m in live if not isinstance(m.finish, np.ndarray)))


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
    """The one-member lane of config, its states (size, 1) columns: what a step needs
    (coefficients, factorizations, start levels, forcing source, member record) precomputed."""
    k, x = config.k, grid.interior_nodes
    phi, psi = sample(problem.phi, x), sample(problem.psi, x)
    if config.kind == "semigroup":
        approx = pade_coefficients(*config.orders)
        q_fact = None if approx.S == 0 else linalg.lu_factor_banded(
            _banded_poly(approx.q_floats, op, k))
        return SemigroupStepper(
            config, BlockOperator(op.n_interior, op.damping[:, None], op.inv_h2),
            (StateVector(0.0, np.concatenate([phi, psi])[:, None]),), approx.p_floats,
            np.arange(op.size).reshape(2, -1).T.ravel(), _bind(
                problem, lambda t: _nonzero(k / 2.0 * forcing_vector(problem, grid, t)[:, None])),
            problem.steady, (Member(None, q_fact),))

    gamma, k2 = op.damping, _square(k)
    lhs = 1.0 + gamma * k / 2.0
    if config.kind == "oefd":
        lap_coeff = _square(k / grid.h)
        source = _bind(problem, lambda t, _=None: (
            _nonzero(lap_coeff * boundary_vector(problem, grid, t)),
            _nonzero(k2 * sample(problem.g, x, t)), None))
        u1, b_k, finish = startup_u1(problem, grid, k, gamma, phi, psi), None, lhs
    else:
        lap_coeff = 0.5 * _square(k / grid.h)
        b_at = _bind(problem, lambda t: boundary_vector(problem, grid, t))  # steady: one B

        def terms(t, b_n=None):
            b_next = b_at(t + k)
            b_sum = b_next + (b_at(t) if b_n is None else b_n)
            return _nonzero(lap_coeff * b_sum), _nonzero(k2 * sample(problem.g, x, t)), b_next

        source = _bind(problem, terms)
        u1, b_k = _oifd_ghost_start(phi, psi, gamma, k, lap_coeff, source)
        finish = _oifd_factor(lhs, lap_coeff)
    u0 = phi[:, None]
    start = (StateVector(0.0, u0, carry=(None,)), StateVector(k, u1[:, None], u0, carry=(b_k,)))
    return BaselineStepper(config, start, (gamma * k / 2.0 - 1.0)[:, None], lap_coeff,
                           problem.steady, (Member(source, finish),))


def amplify(stepper: SemigroupStepper, v: np.ndarray) -> np.ndarray:
    """R(kM) v = Q_S(kM)^{-1} P_T(kM) v, each live member's finish (its Q_S solve) on its own
    column of v (ValueError unless v has a column per member); `stability --empirical`
    applies a one-member lane to the sine-mode planes to measure its radius."""
    poly, _, _, finishes = stepper.bound
    rhs = apply_poly(poly, stepper.op, stepper.config.k, v)
    rhs.reshape(len(v), len(stepper.members))  # raises unless v has a column per member
    for j, fact in finishes:  # solved for (u_1, w_1, u_2, w_2, ...)
        col = rhs[:, j]
        x = linalg.solve_banded(fact, col, stepper.perm)
        if len(x) < linalg.SWEEP_MIN_N:  # one scatter by perm; two strided copies from there
            col[stepper.perm] = x
        else:
            col.reshape(2, -1)[...] = x.reshape(-1, 2).T
    return rhs


def step_semigroup(stepper: SemigroupStepper, state: StateVector) -> StateVector:
    """One (S, T) step, V_{n+1} = R(kM) W_n + (k/2)F_{n+1} with W_n = V_n + (k/2)F_n
    from state.carry (made here when None); the result carries W_{n+1}."""
    _, source, half_kf, _ = stepper.bound
    t_next, w = state.t + stepper.config.k, state.carry
    if w is None:  # V^0
        w = _add_terms(state.values.copy(), half_kf if source is None else source(state.t))
    values = amplify(stepper, w)
    if source is not None:
        half_kf = source(t_next)
    if half_kf is not None:
        values += half_kf
    return StateVector(t_next, values, None, values if half_kf is None else values + half_kf)


def step_baseline(stepper: BaselineStepper, state: StateVector) -> StateVector:
    """One baseline step, level n (with level n-1 in prev) -> n+1: the shared right-hand
    side, each live member's forcing terms on its column (ValueError unless state has one per
    member), then a divide for each oefd and a banded solve for each oifd. oifd takes
    B(t_n) from its carry entry when set; its result's entry carries B(t_{n+1})."""
    adds, divides, solves = stepper.bound
    u = state.values
    # 2u + lap_coeff A u + prev_coeff u^{n-1}, summed in that order in one new array that
    # starts as lap_coeff A u (IEEE addition commutes: the bits are the same)
    rhs = second_difference(u)
    rhs.reshape(len(u), len(stepper.members))  # raises unless u has a column per member
    rhs *= stepper.lap_coeff
    rhs += 2.0 * u
    rhs += stepper.prev_coeff * state.prev
    carry = list(state.carry) if adds else state.carry
    for j, source, terms in adds:
        if source is not None:
            *terms, carry[j] = source(state.t, carry[j])
        _add_terms(rhs[:, j], *terms)
    for j, d in divides:
        col = rhs[:, j]
        col /= d
    for j, fact in solves:
        rhs[:, j] = linalg.solve_banded(fact, rhs[:, j])
    return StateVector(state.t + stepper.config.k, rhs, u, tuple(carry))


# the names solve_evolution steps each kind by (the benchmark's tracer patches all three)
step_oefd = step_oifd = step_baseline


def _advance(step: Callable, lane: Stepper, state: StateVector, levels: range,
             buf: Optional[np.ndarray], first: int) -> StateVector:
    """state moved through levels by step (a start level taken as it is), into buf's rows."""
    begin = len(lane.start)
    for level in levels:
        state = step(lane, state) if level >= begin else lane.start[level]
        if buf is not None:
            buf[level - first] = state.values
    return state


def _lockstep(lanes: Sequence[Stepper]) -> Stepper:
    """One lane of the members of one-member lanes of a kind, their columns side by side (a
    lone lane is itself); the semigroup members share the first one's forcing source, as
    F(t) is theirs alike."""
    first = lanes[0]
    if len(lanes) == 1:
        return first

    def join(arrays):
        return None if arrays[0] is None else np.concatenate(arrays, axis=-1)

    def per_member(values, like):  # a float where all agree, else pre-expanded
        if all(isinstance(v, float) and v == values[0] for v in values):
            return values[0]
        return join([np.full(like.shape, v) if isinstance(v, float) else v for v in values])

    baseline, u0 = first.config.kind != "semigroup", first.start[0].values
    start = tuple(StateVector(level[0].t, join([s.values for s in level]),
                              join([s.prev for s in level]),  # V^0 has no carry:
                              sum((s.carry for s in level), ()) if baseline else None)
                  for level in zip(*(s.start for s in lanes)))
    if baseline:
        coeffs = dict(prev_coeff=per_member([s.prev_coeff for s in lanes], u0),
                      lap_coeff=per_member([s.lap_coeff for s in lanes], u0))
    else:
        damping = per_member([s.op.damping for s in lanes], first.op.damping)
        coeffs = dict(op=dataclasses.replace(first.op, damping=damping),
                      p=tuple(per_member(c, u0) for c in zip(*(s.p for s in lanes))))
    return dataclasses.replace(first, start=start, members=tuple(s.members[0] for s in lanes),
                               **coeffs)


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
    configs: tuple[SchemeConfig, ...],
    t_final: float,
    on_block: Optional[Callable] = None,
) -> tuple[Trajectory, ...]:
    """Run each of m configs, at one k, from the initial data to the last step with t <=
    t_final, or to its first non-finite level after the initial one, which halts and flags
    its run; the configs run in lockstep (see `schemes`) from lanes built once, and the run
    raises if any member's step does. Returns a Trajectory per config, its solo run bit for
    bit, of the start and last levels.

    on_block(first_level, blocks) gets every level once, in order, in runs that end at
    multiples of CHECK_EVERY, the last level or a blow-up level, each handed over under the
    caller's np.geterr() once it has passed a check: blocks has each config's rows, none
    past its blow-up, each a view of its lane's one (CHECK_EVERY + 1, size, m) buffer."""
    if len({c.k for c in configs}) != 1:
        raise ValueError(f"a lockstep run needs one time step, got k = {[c.k for c in configs]}")
    k = configs[0].k
    n_steps = num_steps(t_final, k)
    caller_err = np.geterr()

    # set-up too, so that an overflow there is a non-finite start level, a blow-up at
    # level 1; a diverging run overflows before its first non-finite level is caught
    with np.errstate(over="ignore", invalid="ignore"):
        op = assemble_system(grid, problem)
        solo = [make_stepper(c, op, grid, problem) for c in configs]  # one-member lanes
        # chosen per call, so that a rebinding of these module names takes effect
        step = {"semigroup": step_semigroup, "oefd": step_oefd, "oifd": step_oifd}
        # the lanes: the semigroup members with numerators of one length, and the baselines
        key = [len(s.p) if s.config.kind == "semigroup" else 0 for s in solo]
        ids = [[i for i, ki in enumerate(key) if ki == kj] for kj in dict.fromkeys(key)]
        place = sorted((i, lane, j) for lane, members in enumerate(ids)
                       for j, i in enumerate(members))  # member i is column j of its lane
        lanes = [_lockstep([solo[i] for i in members]) for members in ids]
        rows = min(CHECK_EVERY, n_steps) + 1
        try:
            bufs = [None if on_block is None else np.empty((rows,) + s.start[0].values.shape)
                    for s in lanes]
        except MemoryError as exc:
            raise ValueError(f"cannot hold {rows} snapshots ({exc})") from None
        # level 0, a start level of every lane, in row 0
        states = [_advance(None, s, None, range(1), buf, 0) for s, buf in zip(lanes, bufs)]
        level, first, halts, recheck = 0, 0, {}, 0  # first: the next level to hand over, in row 0
        while level < n_steps and len(halts) < len(solo):  # level is 0 or has passed a check
            # lane by lane to the next check: the next level up to recheck, else the next
            # multiple of CHECK_EVERY or the last; a lane of halted members is not stepped
            stop = level + 1 if level < recheck else min(
                n_steps, (level // CHECK_EVERY + 1) * CHECK_EVERY)
            try:
                ahead = [_advance(step[s.config.kind], s, state, range(level + 1, stop + 1),
                                  buf, first) if any(s.members) else state
                         for s, state, buf in zip(lanes, states, bufs)]
            except Exception:
                if stop == level + 1:  # stepped from a level that passed its check
                    raise
                failed = place  # whatever it is, it may come from an unchecked blow-up
            else:
                finite = [np.isfinite(state.values).all(axis=0) for state in ahead]
                failed = [(i, lane, j) for i, lane, j in place
                          if lanes[lane].members[j] is not None and not finite[lane][j]]
            if failed and stop > level + 1:  # rewind; each member halts as it does solo
                recheck = stop
                continue
            level, states = stop, ahead
            if on_block is not None and (failed or not level % CHECK_EVERY or level == n_steps):
                blocks = tuple(bufs[lane][: 0 if i in halts else level - first + 1, :, j]
                               for i, lane, j in place)
                with np.errstate(**caller_err):
                    on_block(first, blocks)
                first = level + 1
            # a halted member rides along in its lane with its finish skipped
            for i, lane, j in failed:  # rebinds the lane
                halts[i] = (level, states[lane].values[:, j])
                members = lanes[lane].members
                lanes[lane] = dataclasses.replace(
                    lanes[lane], members=members[:j] + (None,) + members[j + 1:])

    # the loop ends on a check: the last level passed it, or the run blew up there
    ends = [halts.get(i) or (level, states[lane].values[:, j]) for i, lane, j in place]
    return tuple(Trajectory(grid, np.array([0, last]) * k,
                            np.stack((s.start[0].values[:, 0], values)),
                            last if i in halts else None)
                 for i, (s, (last, values)) in enumerate(zip(solo, ends)))
