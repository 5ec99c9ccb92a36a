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
* `step_semigroup`, `step_oefd` and `step_oifd`, one function, map (stepper,
  state) to the next level's StateVector, a baseline state carrying u^{n-1}
  in `prev`. So that each level's forcing is evaluated once, `carry` holds
  W_n = V^n + (k/2) F(t_n) for the semigroup family, None on V^0, and for a
  baseline lane an entry per member: B(t_n) for oifd, whose u^1 level
  carries the B(k) of its ghost start, None on u^0 and for oefd.
  A source returns None for an all-zero term, which adds nothing. No step
  writes into the state it is given, and a state that a step returns lives in
  a ring slot of its lane's plan (below): it stays intact for exactly one
  further step of its lane, after which a caller that keeps it must have
  copied it;
* `solve_evolution` owns the only time loop and its blow-up bookkeeping. It
  maps a tuple of configs to a tuple of trajectories with the start and last
  levels (a blown-up run ends at its first non-finite one), and hands every
  level to `on_block` in checked runs of one reused buffer per lane. It
  checks every CHECK_EVERY levels and the last, and steps lane by lane from
  one check to the next: a non-finite entry persists at every later level, as
  every coefficient and pivot is finite and NaN and inf spread through +, *
  and the solves. Before each lane's span it copies the lane's checked level
  aside, once. A lane whose check fails, or whose span raises, is rewound
  alone: it restarts from exactly the bits of that copy and is checked at
  every level up to the end of its span, while the other lanes wait at the
  check with their checked levels. The checks are then spaced again.

The schemes of one solve run in lockstep: `solve_evolution` steps its configs,
at one k, as lanes of members that share array ops, semigroup members whose
shared passes (below) have one length, such as fd01 and fd11 on small grids,
and the baselines (oefd and oifd). A lane stacks its members' states along a
trailing member axis, node-major and member-minor, (2n, m) or (n, m), so that
one numpy call serves every member; `second_difference` keeps its first-axis
form. Coefficients that differ between members are pre-expanded to the full
array shape, as a broadcast operand costs more than a contiguous one. A
lane's `members` holds a `Member` record per column: its finish, bound to its
factor, which binds the function that finishes its column in place (below),
and a baseline's forcing source.

A lane binds its step plan on its first step, so that `make_stepper`'s set-up
does not grow. The plan is all that a step reads: what every level would
otherwise re-decide (the shared pass with its exact ones resolved, a steady
source's value, an all-zero one dropped, and a (column, finish) entry per live
member), and a ring of 3 (V, W) slots for the semigroup family (W being V
itself in an unforced lane) or of 4 arrays for the baselines, whose state
takes 2. A step from the plan's last result runs the level bound to that
result's slot, which writes the next slot; any other state is first copied
into the slots just after it, so that the last result stays intact. Each
slot's level, `pade.apply_poly`'s Horner pass and each live member's finish
with every view they read or write cut once, is bound once, a `partial` of a
module function running `out=` ufuncs. The plan holds no reference to its
lane, so that no reference cycle outlives a solve. Each member keeps its own
blow-up: its lane's rewind checks every member at each level up to that
check, so that each halts at the level, and with the state, of its solo run.
A halt rebinds its lane, with that member's record None: its column rides
along unread, with no finish or forcing, and a lane of halted members is no
longer stepped. A solo run is the one-member lane `make_stepper` makes.

A member leaves its lane in the same way for the dense path, after the first
CHECK_EVERY levels, when its lane is unforced, its run has DENSE_MIN_LEVELS
levels or more, and its one-step map G, on [u; u_t] or a baseline's
[u^n; u^{n-1}] and built by stepping unit columns through a copy of its solo
lane, has at most DENSE_MAX_ROWS rows and, with entries below FLUSH times its
largest flushed, a spectral radius of at most 1 by numpy's eigvals. Every
later level is then G^DENSE_SPAN (flushed squares) times the level
DENSE_SPAN before it, one product a block of DENSE_SPAN levels, and is
checked. In lockstep such a member is still its solo run bit for bit, and
its first CHECK_EVERY + 1 levels are its stepped ones; its later levels are
not, and end within 1e-10 of them on the `figures` lanes at r = 0.016.
A growing map (every pinned blow-up), a forced lane, a larger grid or a
shorter run keeps stepping.

An implicit step is one shared pass and one solve a member, factored once per
stepper in one of two forms (`linalg`), each bound by `make_stepper` with its
factor into the member's finish, which solves through `linalg.solve_banded`:

* from TRIDIAGONAL_MIN_N interior nodes, S = 1 splits exactly as
  R = D + rho/Q_1 (`pade`): the shared pass is D(kM) v and the finish adds
  rho (I - cM)^{-1} v to it, c = k/(T + 1), acting on v, not on P_T(kM) v.
  Its Schur complement divided by c,

      (I/c + Gamma - (c/h^2) A) x_w = v_w/c + A v_u/h^2,   x_u = v_u + c x_w,

  is SPD for gamma >= 0: one LDL^T per stepper, one solve of N - 1 unknowns a
  step, and c^2/h^2, which overflows at large r, never formed. oifd's
  left-hand sides take the same factor;
* otherwise Q_S(kM) is built in band storage in the interleaved ordering
  (u_1, w_1, u_2, w_2, ...), by Horner's rule over kM's four diagonals, and
  solved by gbtrf and gbtrs on the column gathered into that order. S >= 2
  stays here as partial fractions over Q_S's roots lose digits as r grows;
  so do smaller grids, oifd's too, as Table 1 and Table 2 (N <= 50) are
  pinned byte for byte under `bench/ref/` until ROADMAP item 6's re-capture.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np
from numpy import add, divide, multiply  # a bound level's ufuncs, one lookup a call

from . import linalg
from .operators import (
    BlockOperator,
    SpatialGrid,
    assemble_system,
    boundary_vector,
    difference_pass,
    forcing_vector,
    sample,
    scalar,
    second_difference,
)
from .pade import apply_poly, pade_coefficients, validate_orders
from .problems import DampedWaveProblem

MAX_STEPS = 10_000_000

#: interior nodes from which S = 1 members and oifd solve one SPD tridiagonal system
TRIDIAGONAL_MIN_N = 128

#: levels between solve_evolution's blow-up checks and on_block hand-overs (one level at a
#: time after a failed check, up to that check)
CHECK_EVERY = 64

#: a member advances by a power of its one-step map (see `schemes`) from this many levels and up
#: to this many rows of that map, in blocks of DENSE_SPAN levels
DENSE_MIN_LEVELS = 1024
DENSE_MAX_ROWS = 128
DENSE_SPAN = 16

#: a dense map's entries below this times its largest are flushed to zero, so that its
#: products meet no subnormal entry (fd11's map at N = 50 and r = 0.001 holds 26)
FLUSH = 1e-200

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
    # bound to its factor by make_stepper; the lane's step plan calls it once a ring slot, on
    # that slot's views, (col, v, scratch) for the semigroup family, scratch a flat array of at
    # least 2n, col for a baseline, for the function of no arguments that finishes the
    # member's column in place; None for an explicit member
    finish: Optional[Callable]


@dataclass(frozen=True)
class SemigroupStepper:
    config: SchemeConfig
    op: BlockOperator  # a lane's damping is pre-expanded to (n, m)
    start: tuple[StateVector, ...]  # (V^0,)
    p: tuple  # the shared pass's coefficients: P_T's, or D's for a Schur finish
    source: Callable  # t -> (k/2) F(t), None when F(t) is all zero
    steady: bool  # the problem's: source returns one value, made once
    members: Sequence[Optional[Member]]

    @cached_property
    def plan(self) -> "_SemigroupPlan":  # bound on the lane's first step
        return _SemigroupPlan(self)


@dataclass(frozen=True)
class BaselineStepper:
    config: SchemeConfig
    start: tuple[StateVector, ...]  # (u^0, u^1)
    prev_coeff: np.ndarray  # gamma k/2 - 1, the factor on u^{n-1}
    lap_coeff: Union[float, np.ndarray]  # r^2 (oefd) or r^2/2 (oifd), the factor on A u^n and B
    steady: bool  # the problem's: each source returns one value, made once
    members: Sequence[Optional[Member]]

    @cached_property
    def plan(self) -> "_BaselinePlan":  # bound on the lane's first step
        return _BaselinePlan(self)


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


def _tridiagonal_factor(d: np.ndarray, a: float) -> linalg.Factorization:
    """diag(d) - a A factored, SPD for d > 0 and a >= 0 (oifd's left-hand sides, a Schur
    finish's complement): LDL^T from TRIDIAGONAL_MIN_N nodes, banded LU below."""
    off, diag = np.full(len(d) - 1, -a), d + 2.0 * a
    if len(d) >= TRIDIAGONAL_MIN_N:
        return linalg.factor_spd_tridiagonal(diag, off)
    return linalg.lu_factor_banded(linalg.BandedMatrix.from_tridiagonal(off, diag, off))


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
    for term in (b_term, g_term):  # None, an all-zero term, adds nothing
        if term is not None:
            rhs += term
    return linalg.solve_banded(_tridiagonal_factor(np.full(len(u0), 2.0), half_r2), rhs), b_k


def _nonzero(term: np.ndarray) -> Optional[np.ndarray]:
    """term, or None when it is all zero (count_nonzero is the cheapest any() numpy has)."""
    return term if np.count_nonzero(term) else None


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
        approx, n = pade_coefficients(*config.orders), op.n_interior
        p, finish = approx.p_floats, None
        if approx.S == 1 and n >= TRIDIAGONAL_MIN_N:
            d, rho = approx.split
            p, c, rho = tuple(map(float, d)), k / (approx.T + 1), float(rho)
            schur = _tridiagonal_factor(1.0 / c + op.damping, c * op.inv_h2)
            c, rho, inv_h2 = scalar(c), scalar(rho), scalar(op.inv_h2)

            def resolvent(v_u, v_w, col_u, col_w, b, x_u, difference):
                difference()  # col += rho x, x = (I - cM)^{-1} v, its w half first
                multiply(b, inv_h2, b)
                divide(v_w, c, x_u)
                add(b, x_u, b)
                x_w = linalg.solve_banded(schur, b)
                multiply(c, x_w, x_u)
                add(x_u, v_u, x_u)
                multiply(x_u, rho, x_u)
                add(col_u, x_u, col_u)
                multiply(x_w, rho, x_w)
                add(col_w, x_w, col_w)

            def finish(col, v, scratch):
                b, x_u = scratch[:n], scratch[n:op.size]  # x_u holds v_w/c until b takes it
                return partial(resolvent, v[:n], v[n:], col[:n], col[n:], b, x_u,
                               difference_pass(v[:n], b))
        elif approx.S:
            q = linalg.lu_factor_banded(_banded_poly(approx.q_floats, op, k))
            perm = np.arange(op.size).reshape(2, -1).T.ravel()  # (u_1, w_1, u_2, w_2, ...)

            def interleaved(col, gathered, into_u, into_w, col_u, col_w):
                into_u[...] = col_u  # gathered = col[perm]
                into_w[...] = col_w
                col[perm] = linalg.solve_banded(q, gathered)

            def finish(col, _, scratch):
                gathered = scratch[:op.size]
                return partial(interleaved, col, gathered, *gathered.reshape(n, 2).T, col[:n],
                               col[n:])
        return SemigroupStepper(
            config, BlockOperator(n, op.damping[:, None], op.inv_h2),
            (StateVector(0.0, np.concatenate([phi, psi])[:, None]),), p, _bind(
                problem, lambda t: _nonzero(k / 2.0 * forcing_vector(problem, grid, t)[:, None])),
            problem.steady, (Member(None, finish),))

    gamma, k2 = op.damping, _square(k)
    lhs = 1.0 + gamma * k / 2.0
    if config.kind == "oefd":
        lap_coeff = _square(k / grid.h)
        source = _bind(problem, lambda t, _=None: (
            _nonzero(lap_coeff * boundary_vector(problem, grid, t)),
            _nonzero(k2 * sample(problem.g, x, t)), None))
        u1, b_k = startup_u1(problem, grid, k, gamma, phi, psi), None

        def finish(col):
            return partial(divide, col, lhs, col)
    else:
        lap_coeff = 0.5 * _square(k / grid.h)
        b_at = _bind(problem, lambda t: boundary_vector(problem, grid, t))  # steady: one B

        def terms(t, b_n=None):
            b_next = b_at(t + k)
            b_sum = b_next + (b_at(t) if b_n is None else b_n)
            return _nonzero(lap_coeff * b_sum), _nonzero(k2 * sample(problem.g, x, t)), b_next

        source = _bind(problem, terms)
        u1, b_k = _oifd_ghost_start(phi, psi, gamma, k, lap_coeff, source)
        fact = _tridiagonal_factor(lhs, lap_coeff)

        def tridiagonal(col):
            col[...] = linalg.solve_banded(fact, col)

        def finish(col):
            return partial(tridiagonal, col)
    u0 = phi[:, None]
    start = (StateVector(0.0, u0, carry=(None,)), StateVector(k, u1[:, None], u0, carry=(b_k,)))
    return BaselineStepper(config, start, (gamma * k / 2.0 - 1.0)[:, None], lap_coeff,
                           problem.steady, (Member(source, finish),))


class _Plan:
    """A lane's step plan (see `schemes`): a ring of level arrays, the scratch its passes
    share, and per ring slot the level that reads it and writes the next, bound on the first
    step from that slot."""

    def __init__(self, ring: list):
        # no reference to the lane, which holds the plan: no cycle keeps either alive
        self.ring, self.levels, self.head, self.at = ring, [None] * len(ring), None, -1

    def step(self, lane: Stepper, state: StateVector) -> StateVector:
        at = self.at  # the head's slot
        if state is not self.head:  # into the slots after the head's, which stays intact
            at = self._stage(state, at)
        level = self.levels[at] or self._bind(lane, at)
        self.head, self.at = level(state), (at + 1) % len(self.ring)
        return self.head


def _copy(state: StateVector) -> StateVector:
    """state with copies of its arrays, which no step of its lane overwrites."""
    def copied(a):
        return a.copy() if isinstance(a, np.ndarray) else a
    return StateVector(state.t, copied(state.values), copied(state.prev), copied(state.carry))


class _SemigroupPlan(_Plan):
    """Three (V, W) ring slots, W being V itself when the lane has no forcing; a state takes
    one, and W_n is all that a level reads of it (V_n too when its carry is None)."""

    def __init__(self, lane: SemigroupStepper):
        # the shared pass with its exact ones None, the source (None when steady), a steady
        # source's one (k/2) F, made by `_bind`, and (column, finish) per live implicit member
        self.poly = lane.p if len(lane.p) == 1 else tuple(
            None if isinstance(c, float) and c == 1.0 else c for c in lane.p)
        self.source, self.half_kf = (None, lane.source(0.0)) if lane.steady else (lane.source, None)
        self.finishes = tuple((j, m.finish) for j, m in enumerate(lane.members) if m and m.finish)
        shape = lane.start[0].values.shape
        self.forced = self.source is not None or self.half_kf is not None

        def slot():
            v = np.empty(shape)
            return v, np.empty(shape) if self.forced else v
        super().__init__([slot() for _ in range(3)])
        self.work = []

    def _stage(self, state: StateVector, at: int) -> int:
        """The slot after at, state copied into it; ValueError unless state has a column per
        member."""
        at = (at + 1) % 3
        v, w = self.ring[at]
        v[...] = state.values.reshape(v.shape)
        if state.carry is not None:
            w[...] = state.carry
        return at

    def _bind(self, lane: SemigroupStepper, at: int) -> Callable:
        (v, w), (v_next, w_next) = self.ring[at], self.ring[(at + 1) % 3]
        # a forced level writes W_{n+1} last: until then it is the passes' first scratch, and
        # the finishes' scratch is the first array of apply_poly's work
        work = [w_next] + self.work if self.forced else self.work
        passes = [apply_poly(self.poly, lane.op, lane.config.k, w, v_next, work)]
        if self.finishes and not work:
            work.append(np.empty(w.shape))
        passes += [finish(v_next[:, j], w[:, j], work[0].reshape(-1))
                   for j, finish in self.finishes]
        self.work = work[self.forced:]
        self.levels[at] = partial(_semigroup_level, self.source, self.half_kf, self.forced, v, w,
                                  v_next, w_next, tuple(passes), lane.config.k)
        return self.levels[at]


def _semigroup_level(source, half_kf, forced, v, w, v_next, w_next, passes, k,
                     state: StateVector) -> StateVector:
    """A semigroup level, bound by `_SemigroupPlan`: W_n made from V_n when the carry is None,
    the passes from W_n into V_{n+1}, then (k/2) F_{n+1} added and W_{n+1} made."""
    if forced and state.carry is None:  # V^0
        _sum_into(w, v, half_kf if source is None else source(state.t))
    for run in passes:
        run()
    t_next = state.t + k
    if not forced:
        return StateVector(t_next, v_next, None, v_next)
    half = half_kf if source is None else source(t_next)
    if half is not None:
        add(v_next, half, v_next)
    _sum_into(w_next, v_next, half)
    return StateVector(t_next, v_next, None, w_next)


def _sum_into(out: np.ndarray, a: np.ndarray, b: Optional[np.ndarray]) -> None:
    """out = a + b, or a copy of a when b is None (an all-zero term)."""
    if b is None:
        out[...] = a
    else:
        add(a, b, out)


class _BaselinePlan(_Plan):
    """Four ring arrays, a state taking two, u^{n-1} in the slot before its u, and a scratch
    array."""

    def __init__(self, lane: BaselineStepper):
        # (column, source, terms) per live member with forcing, a steady one's source None and
        # its terms its B and g
        live = [(j, m) for j, m in enumerate(lane.members) if m is not None]
        adds = [(j, None, m.source(0.0)[:2]) if lane.steady else (j, m.source, ()) for j, m in live]
        self.adds = tuple(a for a in adds if a[1] or any(x is not None for x in a[2]))
        self.forced = bool(self.adds)
        self.finishes = tuple((j, m.finish) for j, m in live)
        shape = lane.start[0].values.shape
        super().__init__([np.empty(shape) for _ in range(4)])
        self.work = np.empty(shape)

    def _stage(self, state: StateVector, at: int) -> int:
        """The second slot after at, state's u copied into it and its u^{n-1} into the first;
        ValueError unless state has a column per member."""
        prev, u = self.ring[(at + 1) % 4], self.ring[(at + 2) % 4]
        values = state.values.reshape(u.shape)
        prev[...] = state.prev
        u[...] = values
        return (at + 2) % 4

    def _bind(self, lane: BaselineStepper, at: int) -> Callable:
        prev, u, out = (self.ring[i % 4] for i in (at - 1, at, at + 1))
        self.levels[at] = partial(
            _baseline_level, difference_pass(u, out), u, prev, out, self.work,
            scalar(lane.lap_coeff), lane.prev_coeff,
            tuple((j, out[:, j], source, terms) for j, source, terms in self.adds),
            tuple(finish(out[:, j]) for j, finish in self.finishes), lane.config.k)
        return self.levels[at]


_TWO = scalar(2.0)


def _baseline_level(difference, u, prev, out, temp, lap_coeff, prev_coeff, forcing, passes, k,
                    state: StateVector) -> StateVector:
    """A baseline level, bound by `_BaselinePlan`: 2u + lap_coeff A u + prev_coeff u^{n-1},
    summed in that order into out, which starts as lap_coeff A u (IEEE addition commutes: the
    bits are the same), each member's forcing terms on its column, then the finishes."""
    difference()
    multiply(out, lap_coeff, out)
    multiply(_TWO, u, temp)
    add(out, temp, out)
    multiply(prev_coeff, prev, temp)
    add(out, temp, out)
    carry = list(state.carry) if forcing else state.carry
    for j, col, source, terms in forcing:
        if source is not None:
            *terms, carry[j] = source(state.t, carry[j])
        for term in terms:
            if term is not None:
                add(col, term, col)
    for run in passes:
        run()
    return StateVector(state.t + k, out, state.values, tuple(carry))


def _step(stepper: Stepper, state: StateVector) -> StateVector:
    """One step of a lane, state (ValueError unless it has a column per member) to the next
    level. (S, T): V_{n+1} = R(kM) W_n + (k/2)F_{n+1}, W_n = V_n + (k/2)F_n from state.carry
    (made here when None), the result carrying W_{n+1}. Baselines: level n (level n-1 in
    prev) to n+1, the shared right-hand side, each live member's forcing terms on its column,
    then each live member's finish (oefd's divide, oifd's tridiagonal solve); oifd takes
    B(t_n) from its carry entry when set, its result's entry carrying B(t_{n+1}). The level it
    returns lies in ring slots of the lane's plan, intact for exactly one further step of it."""
    return stepper.plan.step(stepper, state)


# the names solve_evolution steps each kind by (the benchmark's tracer patches all three)
step_semigroup = step_oefd = step_oifd = _step


def _advance(step: Callable, lane: Stepper, state: StateVector, levels: range,
             rows: Optional[list], first: int) -> StateVector:
    """state moved through levels by step (a start level taken as it is), each copied into
    its row of a buffer, rows its row views from `first` on."""
    begin = len(lane.start)
    for level in levels:
        state = step(lane, state) if level >= begin else lane.start[level]
        if rows is not None:
            rows[level - first][...] = state.values
    return state


def _flushed(a: np.ndarray) -> np.ndarray:
    """a with its entries below FLUSH times its largest set to zero, in place."""
    a[np.abs(a) < FLUSH * np.abs(a).max()] = 0.0
    return a


def _one_step_map(step: Callable, lane: Stepper) -> np.ndarray:
    """The flushed one-step map G of an unforced one-member lane, V^{n+1} = G V^n, or
    [u^{n+1}; u^n] = G [u^n; u^{n-1}] for a baseline, its columns stepped from unit columns
    through a copy of the lane, whose plan is its own."""
    lane, n = dataclasses.replace(lane), lane.start[0].values.shape[0]
    baseline = lane.config.kind != "semigroup"
    size = 2 * n if baseline else n
    g, unit = np.zeros((size, size)), np.zeros((size, 1))
    g[n:, :size - n] = np.eye(size - n)  # a baseline's u^n
    for j in range(size):
        unit[j] = 1.0
        state = StateVector(0.0, unit[:n], *((unit[n:], (None,)) if baseline else ()))
        g[:n, j] = step(lane, state).values[:, 0]
        unit[j] = 0.0
    return _flushed(g)


def _power(step: Callable, lane: Stepper) -> Optional[np.ndarray]:
    """G^DENSE_SPAN of an unforced one-member lane by flushed squaring, or None when its
    flushed one-step map G is not finite or grows, rho(G) > 1 by eigvals."""
    g = _one_step_map(step, lane)
    if not np.isfinite(g).all() or np.abs(np.linalg.eigvals(g)).max() > 1.0:
        return None
    for _ in range(DENSE_SPAN.bit_length() - 1):  # DENSE_SPAN a power of 2
        g = _flushed(g @ g)
    return g


class _Dense:
    """A member that advances by a power of its one-step map (see `schemes`): `levels` holds,
    as rows of the map's state, the DENSE_SPAN levels before a span and then the span's."""

    def __init__(self, power: np.ndarray, checked: np.ndarray):
        # checked: the member's rows of the first span, (CHECK_EVERY + 1, width)
        s, n = DENSE_SPAN, checked.shape[1]
        # contiguous: a product with a transposed view takes about twice as long
        self.power_t, self.width, self.last = np.ascontiguousarray(power.T), n, 0
        self.levels = np.empty((s + CHECK_EVERY, len(power)))
        self.levels[:s, :n] = checked[-s:]
        self.levels[:s, n:] = checked[-s - 1:-1, :len(power) - n]  # a baseline's u^{n-1}

    def advance(self, count: int) -> np.ndarray:
        """The next count levels' rows (each row's level values), one gemm a DENSE_SPAN of them,
        each level from the one DENSE_SPAN before it; intact until the next advance."""
        s, levels = DENSE_SPAN, self.levels
        levels[:s] = levels[self.last:self.last + s]
        for at in range(0, count, s):
            stop = min(at + s, count)
            np.dot(levels[at:stop], self.power_t, out=levels[s + at:s + stop])
        self.last = count
        return levels[s:s + count, :self.width]

    @property
    def values(self) -> np.ndarray:
        """The last level's values."""
        return self.levels[DENSE_SPAN + self.last - 1, :self.width]


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
    multiples of CHECK_EVERY or the last level, each handed over under the caller's
    np.geterr() once it has passed a check: blocks has each config's rows, which end at its
    blow-up level, none past it, each a view of its lane's one (CHECK_EVERY + 1, size, m)
    buffer."""
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
        depth = min(CHECK_EVERY, n_steps) + 1
        # the cheap conditions of the dense path, which reads the first span's rows
        dense_ok = problem.steady and n_steps >= DENSE_MIN_LEVELS and op.size <= DENSE_MAX_ROWS
        try:
            bufs = [np.empty((depth,) + s.start[0].values.shape)
                    if on_block is not None or dense_ok else None for s in lanes]
        except MemoryError as exc:
            raise ValueError(f"cannot hold {depth} snapshots ({exc})") from None
        rows = [None if buf is None else list(buf) for buf in bufs]  # each row's view, cut once
        # level 0, a start level of every lane, in row 0
        states = [_advance(None, s, None, range(1), r, 0) for s, r in zip(lanes, rows)]
        config = {(lane, j): i for i, lane, j in place}
        level, first, halts = 0, 0, {}  # first: the next level to hand over, in row 0
        dense = {}  # (lane, column): _Dense of each member that left its lane for the dense path

        def advance(lane, state, levels):
            s = lanes[lane]
            return _advance(step[s.config.kind], s, state, levels, rows[lane], first)

        def failing(lane, state):  # the live members of a lane whose column is not finite
            finite = np.isfinite(state.values).all(axis=0)
            return [j for j, m in enumerate(lanes[lane].members) if m and not finite[j]]

        def leave(lane, j):  # member j's column rides along, unread; rebinds its lane
            members = lanes[lane].members
            lanes[lane] = dataclasses.replace(
                lanes[lane], members=members[:j] + (None,) + members[j + 1:])

        def halt(lane, state, at):  # each failing member halts there
            for j in failing(lane, state):
                halts[config[lane, j]] = (at, state.values[:, j].copy())
                leave(lane, j)

        def go_dense(lane):  # each live member of an unforced lane whose map does not grow
            s = lanes[lane]
            for j, m in enumerate(s.members if any(s.members) and not s.plan.forced else ()):
                power = m and _power(step[s.config.kind], solo[config[lane, j]])
                if power is not None:
                    dense[lane, j] = _Dense(power, bufs[lane][..., j])
                    leave(lane, j)

        while level < n_steps and len(halts) < len(solo):  # every lane has passed level's check
            if level == CHECK_EVERY and dense_ok:  # the first dense span
                for lane in range(len(lanes)):
                    go_dense(lane)
            # lane by lane to the next multiple of CHECK_EVERY or the last level, each lane's
            # checked level copied first; a lane of halted members is not stepped
            stop = min(n_steps, (level // CHECK_EVERY + 1) * CHECK_EVERY)
            span = range(level + 1, stop + 1)
            for lane, state in enumerate(states):
                if not any(lanes[lane].members):
                    continue
                kept = _copy(state)
                try:
                    state = advance(lane, state, span)
                except Exception:
                    if len(span) == 1:  # stepped from a level that passed its check
                        raise
                    state = None  # whatever it is, it may come from an unchecked blow-up
                if state is None or len(span) > 1 and failing(lane, state):
                    state = kept  # rewind this lane alone, and check it at every level
                    for at in span:
                        state = advance(lane, state, range(at, at + 1))
                        halt(lane, state, at)
                        if not any(lanes[lane].members):
                            break
                elif len(span) == 1:
                    halt(lane, state, stop)
                states[lane] = state
            for (lane, j), d in dense.items():  # checked at every level, all in hand
                if config[lane, j] not in halts:
                    spanned = d.advance(len(span))
                    if not np.isfinite(spanned).all():  # it halts at its first non-finite level
                        at = int(np.isfinite(spanned).all(axis=1).argmin())
                        halts[config[lane, j]] = (level + 1 + at, spanned[at].copy())
                    if on_block is not None:
                        bufs[lane][:len(span), :, j] = spanned
            level = stop
            if on_block is not None:  # each member's rows up to level or its blow-up
                blocks = tuple(bufs[lane][: max(0, (halts[i][0] if i in halts else level)
                                                - first + 1), :, j] for i, lane, j in place)
                with np.errstate(**caller_err):
                    on_block(first, blocks)
            first = level + 1

    # the loop ends on a check: the last level passed it, or the run blew up there
    ends = [halts.get(i) or (level, dense[lane, j].values if (lane, j) in dense
                             else states[lane].values[:, j]) for i, lane, j in place]
    return tuple(Trajectory(grid, np.array([0, last]) * k,
                            np.stack((s.start[0].values[:, 0], values)),
                            last if i in halts else None)
                 for i, (s, (last, values)) in enumerate(zip(solo, ends)))
