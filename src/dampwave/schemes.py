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
* a state is one column of 2n entries a member: V = [u; u_t] for the
  semigroup family, [u^n; u^{n-1}] for the baselines, whose level copies u^n
  into its lower half. `stepper.start` is the tuple of levels known before
  any step, built from phi and psi sampled once at the interior nodes: (V^0,)
  for the semigroup family, ([u^0; 0], [u^1; u^0]) for the baselines;
* `step_semigroup`, `step_oefd` and `step_oifd`, one function, map (stepper,
  state) to the next level's StateVector. So that each level's forcing is
  evaluated once, `carry` holds W_n = V^n + (k/2) F(t_n) for the semigroup
  family, None on V^0, and for a baseline lane an entry per member: B(t_n)
  for oifd, whose u^1 level carries the B(k) of its ghost start, None on u^0
  and for oefd.
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
trailing member axis, node-major and member-minor, (2n, m), so that one numpy
call serves every member; `second_difference` keeps its first-axis form.
Coefficients that differ between members are pre-expanded to the full array
shape, as a broadcast operand costs more than a contiguous one. A lane's
`members` holds a `Member` record per column: its finish, bound to its factor,
which binds the function that finishes its column in place (below), and a
baseline's forcing source.

A lane binds its step plan on its first step, so that `make_stepper`'s set-up
does not grow. The plan is all that a step reads: what every level would
otherwise re-decide (the shared pass with its exact ones resolved, a steady
source's value, an all-zero one dropped, and a (column, finish) entry per live
member), and a ring of 3 (V, W) slots, W being V itself unless the lane is a
forced semigroup one. A step from the plan's last result runs the level bound
to that result's slot, which writes the next slot; any other state is first
copied into the slot just after it, so that the last result stays intact. Each
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
levels or more, and its one-step map G on its state, built by stepping unit
columns through a copy of its solo lane, has at most DENSE_MAX_ROWS rows and,
with entries below FLUSH times its largest flushed, does not grow: a flushed
square G^(2^b) from G^DENSE_SPAN up to G^(2^CERTIFY_BITS) has an infinity norm
of at most 1, which bounds rho(G)^(2^b), or else numpy's eigvals gives
rho(G) <= 1. Every later level is then G^DENSE_SPAN (flushed squares) times
the level DENSE_SPAN before it, one product a block of DENSE_SPAN levels, and
is checked. In lockstep such a member is still its solo run bit for bit, and
its first CHECK_EVERY + 1 levels are its stepped ones; its later levels are
not, and end within 1e-10 of them on the `figures` lanes at r = 0.016. A
growing map (every pinned blow-up), a forced lane, a larger grid or a shorter
run keeps stepping.

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

#: a dense map's squares are tried up to G^(2^CERTIFY_BITS) before eigvals; at N = 50 and
#: r = 0.016 the first with an infinity norm of at most 1 is fd11's 2^13th, the others' 2^14th
CERTIFY_BITS = 14

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
    family, [u^n(x_i); u^{n-1}(x_i)] for the baselines; carry as in `schemes`."""

    t: float
    values: np.ndarray
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
    # least 2n, col (its u^{n+1} half) for a baseline, for the function of no arguments that
    # finishes the member's column in place; None for an explicit member
    finish: Optional[Callable]


@dataclass(frozen=True)
class Stepper:
    config: SchemeConfig
    op: BlockOperator  # a lane's damping is pre-expanded to (n, m)
    start: tuple[StateVector, ...]  # (V^0,), or a baseline's ([u^0; 0], [u^1; u^0])
    # the shared pass's coefficients: P_T's, or D's for a Schur finish; a baseline's
    # (lap_coeff, prev_coeff), r^2 (oefd) or r^2/2 (oifd) on A u^n and B, gamma k/2 - 1 on u^{n-1}
    p: tuple
    # t -> (k/2) F(t), None when F(t) is all zero; None for a baseline, whose members keep theirs
    source: Optional[Callable]
    steady: bool  # the problem's: a source returns one value, made once
    members: Sequence[Optional[Member]]

    @cached_property
    def plan(self) -> "_Plan":  # bound on the lane's first step
        return _Plan(self)


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
    """The one-member lane of config, its states (op.size, 1) columns: what a step needs
    (coefficients, factorizations, start levels, forcing source, member record) precomputed."""
    k, x, n = config.k, grid.interior_nodes, op.n_interior
    phi, psi = sample(problem.phi, x), sample(problem.psi, x)
    lane_op = BlockOperator(n, op.damping[:, None], op.inv_h2)
    if config.kind == "semigroup":
        approx = pade_coefficients(*config.orders)
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
        return Stepper(
            config, lane_op, (StateVector(0.0, np.concatenate([phi, psi])[:, None]),), p, _bind(
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
    start = (StateVector(0.0, np.concatenate([phi, np.zeros(n)])[:, None], (None,)),
             StateVector(k, np.concatenate([u1, phi])[:, None], (b_k,)))
    return Stepper(config, lane_op, start, (lap_coeff, (gamma * k / 2.0 - 1.0)[:, None]), None,
                   problem.steady, (Member(source, finish),))


class _Plan:
    """A lane's step plan (see `schemes`): a ring of three (V, W) slots, a state taking one,
    the scratch its passes share, and per slot the level that reads it and writes the next,
    bound on the first step from that slot. W_n is all that a semigroup level reads of its
    slot (V_n too when its carry is None); W is V itself unless that lane is forced."""

    def __init__(self, lane: Stepper):
        # no reference to the lane, which holds the plan: no cycle keeps either alive; a
        # (column, finish) entry per live member that has a finish
        live = [(j, m) for j, m in enumerate(lane.members) if m is not None]
        self.finishes = tuple((j, m.finish) for j, m in live if m.finish)
        semigroup = lane.config.kind == "semigroup"
        if semigroup:
            # the shared pass with its exact ones None, the source (None when steady), and a
            # steady source's one (k/2) F, made by `_bind`
            self.poly = lane.p if len(lane.p) == 1 else tuple(
                None if isinstance(c, float) and c == 1.0 else c for c in lane.p)
            self.source, self.half_kf = ((None, lane.source(0.0)) if lane.steady
                                         else (lane.source, None))
            self.forced = self.source is not None or self.half_kf is not None
        else:
            # (column, source, terms) per live member with forcing, a steady one's source None
            # and its terms its B and g
            adds = [(j, None, m.source(0.0)[:2]) if lane.steady else (j, m.source, ())
                    for j, m in live]
            self.adds = tuple(a for a in adds if a[1] or any(x is not None for x in a[2]))
            self.forced = bool(self.adds)
        shape = lane.start[0].values.shape

        def slot():
            v = np.empty(shape)
            return v, np.empty(shape) if semigroup and self.forced else v
        self.ring, self.levels = [slot() for _ in range(3)], [None] * 3
        self.head, self.at, self.work = None, -1, []

    def step(self, lane: Stepper, state: StateVector) -> StateVector:
        at = self.at  # the head's slot
        if state is not self.head:  # into the slot after the head's, which stays intact
            at = (at + 1) % 3
            v, w = self.ring[at]
            v[...] = state.values.reshape(v.shape)  # ValueError unless a column per member
            if w is not v and state.carry is not None:
                w[...] = state.carry
        level = self.levels[at] or self._bind(lane, at)
        self.head, self.at = level(state), (at + 1) % 3
        return self.head

    def _bind(self, lane: Stepper, at: int) -> Callable:
        (v, w), (v_next, w_next) = self.ring[at], self.ring[(at + 1) % 3]
        k, n = lane.config.k, lane.op.n_interior
        if lane.config.kind != "semigroup":  # [u^n; u^{n-1}] into [u^{n+1}; u^n]
            self.work = self.work or [np.empty(v[:n].shape)]
            lap_coeff, prev_coeff = (c if isinstance(c, float) else c[:n] for c in lane.p)
            u, out = v[:n], v_next[:n]
            self.levels[at] = partial(
                _baseline_level, difference_pass(u, out), u, v[n:], v_next, out, v_next[n:],
                self.work[0], scalar(lap_coeff), prev_coeff,
                tuple((j, out[:, j], source, terms) for j, source, terms in self.adds),
                tuple(finish(out[:, j]) for j, finish in self.finishes), k)
            return self.levels[at]
        # a forced level writes W_{n+1} last: until then it is the passes' first scratch, and
        # the finishes' scratch is the first array of apply_poly's work
        work = [w_next] + self.work if self.forced else self.work
        passes = [apply_poly(self.poly, lane.op, k, w, v_next, work)]
        if self.finishes and not work:
            work.append(np.empty(w.shape))
        passes += [finish(v_next[:, j], w[:, j], work[0].reshape(-1))
                   for j, finish in self.finishes]
        self.work = work[self.forced:]
        self.levels[at] = partial(_semigroup_level, self.source, self.half_kf, self.forced, v, w,
                                  v_next, w_next, tuple(passes), k)
        return self.levels[at]


def _copy(state: StateVector) -> StateVector:
    """state with copies of its arrays, which no step of its lane overwrites."""
    carry = state.carry.copy() if isinstance(state.carry, np.ndarray) else state.carry
    return StateVector(state.t, state.values.copy(), carry)


def _semigroup_level(source, half_kf, forced, v, w, v_next, w_next, passes, k,
                     state: StateVector) -> StateVector:
    """A semigroup level, bound by `_Plan`: W_n made from V_n when the carry is None, the
    passes from W_n into V_{n+1}, then (k/2) F_{n+1} added and W_{n+1} made."""
    if forced and state.carry is None:  # V^0
        _sum_into(w, v, half_kf if source is None else source(state.t))
    for run in passes:
        run()
    t_next = state.t + k
    if not forced:
        return StateVector(t_next, v_next, v_next)
    half = half_kf if source is None else source(t_next)
    if half is not None:
        add(v_next, half, v_next)
    _sum_into(w_next, v_next, half)
    return StateVector(t_next, v_next, w_next)


def _sum_into(out: np.ndarray, a: np.ndarray, b: Optional[np.ndarray]) -> None:
    """out = a + b, or a copy of a when b is None (an all-zero term)."""
    if b is None:
        out[...] = a
    else:
        add(a, b, out)


_TWO = scalar(2.0)


def _baseline_level(difference, u, prev, v_next, out, out_prev, temp, lap_coeff, prev_coeff,
                    forcing, passes, k, state: StateVector) -> StateVector:
    """A baseline level, bound by `_Plan`: 2u + lap_coeff A u + prev_coeff u^{n-1}, summed in
    that order into out, u^{n+1}'s half of v_next, which starts as lap_coeff A u (IEEE
    addition commutes: the bits are the same), each member's forcing terms on its column, the
    finishes, and then u copied into v_next's u^n half."""
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
    out_prev[...] = u
    return StateVector(state.t + k, v_next, tuple(carry))


def _step(stepper: Stepper, state: StateVector) -> StateVector:
    """One step of a lane, state (ValueError unless it has a column per member) to the next
    level. (S, T): V_{n+1} = R(kM) W_n + (k/2)F_{n+1}, W_n = V_n + (k/2)F_n from state.carry
    (made here when None), the result carrying W_{n+1}. Baselines: [u^n; u^{n-1}] to
    [u^{n+1}; u^n], the shared right-hand side, each live member's forcing terms on its
    column, then each live member's finish (oefd's divide, oifd's tridiagonal solve); oifd
    takes B(t_n) from its carry entry when set, its result's entry carrying B(t_{n+1}). The
    level it returns lies in a ring slot of the lane's plan, intact for exactly one further
    step of it."""
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
    """The flushed one-step map G of an unforced one-member lane, V^{n+1} = G V^n on its
    state, its columns stepped from unit columns through a copy of the lane, whose plan is its
    own."""
    lane, size = dataclasses.replace(lane), lane.op.size
    g, unit = np.empty((size, size)), np.zeros((size, 1))
    for j in range(size):
        unit[j] = 1.0
        g[:, j] = step(lane, StateVector(0.0, unit, lane.start[0].carry)).values[:, 0]
        unit[j] = 0.0
    return _flushed(g)


def _power(step: Callable, lane: Stepper) -> Optional[np.ndarray]:
    """G^DENSE_SPAN of an unforced one-member lane by flushed squaring, or None when its
    flushed one-step map G is not finite or may grow: G is admitted when a flushed square
    G^(2^b), DENSE_SPAN <= 2^b <= 2^CERTIFY_BITS, has an infinity norm of at most 1, a bound
    on rho(G)^(2^b), and otherwise only when rho(G) <= 1 by eigvals."""
    g = _one_step_map(step, lane)
    if not np.isfinite(g).all():
        return None
    power, bits = g, DENSE_SPAN.bit_length() - 1  # DENSE_SPAN a power of 2
    for _ in range(bits):
        power = _flushed(power @ power)
    square = power  # G^(2^bits); no square of a norm that could overflow
    while 1.0 < (norm := np.abs(square).sum(axis=1).max()) <= 1e100 and bits < CERTIFY_BITS:
        square, bits = _flushed(square @ square), bits + 1
    return power if norm <= 1.0 or np.abs(np.linalg.eigvals(g)).max() <= 1.0 else None


class _Dense:
    """A member that advances by a power of its one-step map (see `schemes`): `levels` holds,
    as rows, the DENSE_SPAN levels before a span and then the span's."""

    def __init__(self, power: np.ndarray, checked: np.ndarray):
        # checked: the member's rows of the first span, (CHECK_EVERY + 1, 2n)
        # contiguous: a product with a transposed view takes about twice as long
        self.power_t, self.last = np.ascontiguousarray(power.T), 0
        self.levels = np.empty((DENSE_SPAN + CHECK_EVERY, len(power)))
        self.levels[:DENSE_SPAN] = checked[-DENSE_SPAN:]

    def advance(self, count: int) -> np.ndarray:
        """The next count levels' rows, one gemm a DENSE_SPAN of them, each level from the one
        DENSE_SPAN before it; intact until the next advance."""
        s, levels = DENSE_SPAN, self.levels
        levels[:s] = levels[self.last:self.last + s]
        for at in range(0, count, s):
            stop = min(at + s, count)
            np.dot(levels[at:stop], self.power_t, out=levels[s + at:s + stop])
        self.last = count
        return levels[s:s + count]

    @property
    def values(self) -> np.ndarray:
        """The last level's values."""
        return self.levels[DENSE_SPAN + self.last - 1]


def _lockstep(lanes: Sequence[Stepper]) -> Stepper:
    """One lane of the members of one-member lanes of a kind, their columns side by side (a
    lone lane is itself); the semigroup members share the first one's forcing source, as
    F(t) is theirs alike."""
    first = lanes[0]
    if len(lanes) == 1:
        return first

    def per_member(values, like):  # a float where all agree, else pre-expanded
        if all(isinstance(v, float) and v == values[0] for v in values):
            return values[0]
        return np.concatenate(
            [np.full(like.shape, v) if isinstance(v, float) else v for v in values], axis=-1)

    start = tuple(StateVector(level[0].t, np.concatenate([s.values for s in level], axis=-1),
                              None if level[0].carry is None else sum((s.carry for s in level), ()))
                  for level in zip(*(s.start for s in lanes)))
    damping = per_member([s.op.damping for s in lanes], first.op.damping)
    return dataclasses.replace(
        first, op=dataclasses.replace(first.op, damping=damping), start=start,
        p=tuple(per_member(c, first.start[0].values) for c in zip(*(s.p for s in lanes))),
        members=tuple(s.members[0] for s in lanes))


@dataclass
class Trajectory:
    """The start and last levels of a solve: times, states and blow-up bookkeeping.

    A state row is the full state, [u; u_t] for semigroup schemes and
    [u^n; u^{n-1}] for the two-level baselines. The last row is the last level
    computed: the last step with t <= t_final, or the level that halted a
    blown-up run.
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
    blow-up level, none past it, each a view of its lane's one (CHECK_EVERY + 1, 2n, m)
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
