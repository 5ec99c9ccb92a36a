"""Time-stepping engines.

Two families are provided:

* the semigroup family: one-step recurrences obtained by replacing the
  exact propagator e^{Mk} of dV/dt = MV + F with a rational (S, T)
  approximant and the Duhamel integral with the trapezoidal rule,

      Q_S(Mk) V^{n+1} = P_T(Mk) V^n + (k/2) [P_T(Mk) F(t_n) + Q_S(Mk) F(t_{n+1})],

  explicit for S = 0 (fd01 is (0,1)), implicit otherwise (fd11 is (1,1));

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

Implicit systems are assembled once per stepper in an interleaved unknown
ordering (u_1, w_1, u_2, w_2, ...) that keeps Q_S(Mk) banded with bandwidth
<= 2S+1, LU-factored once, and solved in O(N) per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import scipy.sparse

from . import linalg
from .operators import (
    BlockOperator,
    SpatialGrid,
    assemble_system,
    boundary_vector,
    forcing_vector,
    laplacian_stencil,
    sample,
)
from .pade import apply_poly, pade_coefficients, validate_orders
from .problems import DampedWaveProblem

MAX_STEPS = 10_000_000

KINDS = ("semigroup", "oefd", "oifd")
START_UPS = ("taylor2",)

#: CLI-facing scheme names
SCHEME_NAMES = ("fd01", "fd11", "fdST", "oefd", "oifd")


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selection: kind, time step, and (for semigroup) the (S, T) orders."""

    kind: str
    k: float
    orders: Optional[tuple[int, int]] = None
    start_up: str = "taylor2"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}; expected one of {KINDS}")
        if not self.k > 0:
            raise ValueError(f"time step must be positive, got k={self.k}")
        if self.kind == "semigroup":
            if self.orders is None:
                raise ValueError("semigroup scheme needs (S, T) orders")
            validate_orders(*self.orders)
        if self.start_up not in START_UPS:
            raise ValueError(f"unknown start-up {self.start_up!r}; expected one of {START_UPS}")

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


@dataclass(frozen=True)
class StateVector:
    """State of the first-order system at one time: [u(x_i); u_t(x_i)]."""

    t: float
    values: np.ndarray


def _num_steps(t_final: float, k: float) -> int:
    # last step with t <= t_final; tolerant of k not dividing t_final exactly
    return int(math.floor(t_final / k * (1.0 + 1e-12) + 1e-12))


def _interleave_perm(n: int) -> tuple[np.ndarray, np.ndarray]:
    perm = np.empty(2 * n, dtype=np.intp)
    perm[0::2] = np.arange(n)
    perm[1::2] = n + np.arange(n)
    return perm, np.argsort(perm)


def _interleaved_kM(op: BlockOperator, k: float) -> scipy.sparse.csr_matrix:
    """k*M with unknowns ordered (u_1, w_1, u_2, w_2, ...)."""
    n = op.n_interior
    lap = op.laplacian
    c = k * op.inv_h2
    u = 2 * np.arange(n)  # row/column of u_i; w_i sits at u + 1
    w = u + 1
    rows = np.concatenate([u, w, w[1:], w[:-1], w])
    cols = np.concatenate([w, u, u[:-1], u[1:], w])
    vals = np.concatenate(
        [np.full(n, k), c * lap.diag, c * lap.lower, c * lap.upper, -k * op.damping]
    )
    coo = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(2 * n, 2 * n))
    return coo.tocsr()


def _banded_matrix_poly(coeffs, op: BlockOperator, k: float) -> linalg.BandedMatrix:
    """sum_j coeffs[j] (kM)^j as a banded matrix in interleaved ordering."""
    x = _interleaved_kM(op, k)
    eye = scipy.sparse.identity(x.shape[0], format="csr")
    acc = float(coeffs[-1]) * eye
    for c in reversed(coeffs[:-1]):
        acc = acc @ x + float(c) * eye
    acc = acc.tocsr()
    acc.eliminate_zeros()
    return linalg.BandedMatrix.from_sparse(acc)


@dataclass(frozen=True)
class SemigroupStepper:
    config: SchemeConfig
    op: BlockOperator
    grid: SpatialGrid
    problem: DampedWaveProblem
    p: tuple[float, ...]
    q: tuple[float, ...]
    q_fact: Optional[linalg.BandedFactorization]  # None when Q is the identity
    perm: Optional[np.ndarray]
    inv_perm: Optional[np.ndarray]

    # One-entry cache {t: F(t)}: step n's F(t_{n+1}) is step n+1's F(t_n).
    # Per stepper, because concurrent solves each build their own.
    forcing_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def initial_state(self) -> StateVector:
        x = self.grid.interior_nodes
        values = np.concatenate([sample(self.problem.phi, x), sample(self.problem.psi, x)])
        return StateVector(t=0.0, values=values)


@dataclass(frozen=True)
class BaselineStepper:
    config: SchemeConfig
    grid: SpatialGrid
    problem: DampedWaveProblem
    gamma: np.ndarray
    r: float
    u0: np.ndarray
    u1: np.ndarray
    lhs_denom: Optional[np.ndarray] = None  # oefd: 1 + gamma k/2
    lhs_fact: Optional[linalg.BandedFactorization] = None  # oifd
    _stencil: object = field(default=None, repr=False)


Stepper = Union[SemigroupStepper, BaselineStepper]


def startup_u1(problem: DampedWaveProblem, grid: SpatialGrid, k: float) -> np.ndarray:
    """Second-order Taylor start for two-level schemes:

    u^1_i = phi(x_i) + k psi(x_i)
            + (k^2/2) [Lap_h phi(x_i) - gamma(x_i) psi(x_i) + g(x_i, 0)]

    with Lap_h the second-difference Laplacian using phi's endpoint values.
    """
    x = grid.interior_nodes
    a, b = grid.a, grid.b
    phi = sample(problem.phi, x)
    psi = sample(problem.psi, x)
    g0 = sample(problem.g, x, 0.0)
    gamma = sample(problem.gamma, x)
    phi_ext = np.concatenate(([problem.phi(a)], phi, [problem.phi(b)]))
    lap = (phi_ext[:-2] - 2.0 * phi_ext[1:-1] + phi_ext[2:]) / grid.h**2
    return phi + k * psi + 0.5 * k**2 * (lap - gamma * psi + g0)


def _oifd_ghost_start(
    problem: DampedWaveProblem, grid: SpatialGrid, gamma: np.ndarray, k: float
) -> np.ndarray:
    """Ghost-level elimination of the implicit stencil at the first step:

    (2I - (r^2/2) A) u^1 = (2I + (r^2/2) A) u^0 - 2k (gamma k/2 - 1) psi
                           + (r^2/2)(B(k) + B(0)) + k^2 g(., 0).
    """
    n = grid.n_interior
    r = k / grid.h
    x = grid.interior_nodes
    stencil = laplacian_stencil(n)
    phi = sample(problem.phi, x)
    psi = sample(problem.psi, x)
    g0 = sample(problem.g, x, 0.0)
    half_r2 = 0.5 * r**2
    lhs = linalg.BandedMatrix.from_tridiagonal(
        lower=-half_r2 * stencil.lower,
        diag=2.0 - half_r2 * stencil.diag,
        upper=-half_r2 * stencil.upper,
    )
    rhs = (
        2.0 * phi
        + half_r2 * stencil.matvec(phi)
        - 2.0 * k * (gamma * k / 2.0 - 1.0) * psi
        + half_r2 * (boundary_vector(problem, grid, k) + boundary_vector(problem, grid, 0.0))
        + k**2 * g0
    )
    return linalg.solve_banded(linalg.lu_factor_banded(lhs), rhs)


def make_stepper(
    config: SchemeConfig,
    op: BlockOperator,
    grid: SpatialGrid,
    problem: DampedWaveProblem,
) -> Stepper:
    """Precompute everything a step needs (coefficients, factorizations, start levels)."""
    k = config.k
    if config.kind == "semigroup":
        approx = pade_coefficients(*config.orders)
        if approx.S == 0:
            q_fact, perm, inv_perm = None, None, None
        else:
            banded = _banded_matrix_poly(approx.q_floats, op, k)
            q_fact = linalg.lu_factor_banded(banded)
            perm, inv_perm = _interleave_perm(op.n_interior)
        return SemigroupStepper(
            config=config,
            op=op,
            grid=grid,
            problem=problem,
            p=approx.p_floats,
            q=approx.q_floats,
            q_fact=q_fact,
            perm=perm,
            inv_perm=inv_perm,
        )

    gamma = op.damping
    r = k / grid.h
    u0 = sample(problem.phi, grid.interior_nodes)
    if config.kind == "oefd":
        return BaselineStepper(
            config=config,
            grid=grid,
            problem=problem,
            gamma=gamma,
            r=r,
            u0=u0,
            u1=startup_u1(problem, grid, k),
            lhs_denom=1.0 + gamma * k / 2.0,
            _stencil=laplacian_stencil(grid.n_interior),
        )
    # oifd: factor [(1 + gamma k/2) I - (r^2/2) A] once
    stencil = laplacian_stencil(grid.n_interior)
    half_r2 = 0.5 * r**2
    lhs = linalg.BandedMatrix.from_tridiagonal(
        lower=-half_r2 * stencil.lower,
        diag=(1.0 + gamma * k / 2.0) - half_r2 * stencil.diag,
        upper=-half_r2 * stencil.upper,
    )
    return BaselineStepper(
        config=config,
        grid=grid,
        problem=problem,
        gamma=gamma,
        r=r,
        u0=u0,
        u1=_oifd_ghost_start(problem, grid, gamma, k),
        lhs_fact=linalg.lu_factor_banded(lhs),
        _stencil=stencil,
    )


def step_semigroup(stepper: SemigroupStepper, state: StateVector) -> StateVector:
    """Advance the first-order system by one step of the (S, T) scheme."""
    k = stepper.config.k
    op = stepper.op
    rhs = apply_poly(stepper.p, op, k, state.values)
    cache = stepper.forcing_cache
    f_n = cache.get(state.t)
    if f_n is None:
        f_n = forcing_vector(stepper.problem, stepper.grid, state.t).values
    if f_n.any():
        rhs = rhs + (k / 2.0) * apply_poly(stepper.p, op, k, f_n)
    f_next = forcing_vector(stepper.problem, stepper.grid, state.t + k).values
    cache.clear()
    cache[state.t + k] = f_next
    if f_next.any():
        rhs = rhs + (k / 2.0) * apply_poly(stepper.q, op, k, f_next)
    if stepper.q_fact is None:
        new_values = rhs
    else:
        new_values = linalg.solve_banded(stepper.q_fact, rhs[stepper.perm])[stepper.inv_perm]
    return StateVector(t=state.t + k, values=new_values)


def step_oefd(
    stepper: BaselineStepper, u_curr: np.ndarray, u_prev: np.ndarray, t: float
) -> np.ndarray:
    """One explicit baseline step: levels (n, n-1) at time t_n -> level n+1."""
    grid, problem = stepper.grid, stepper.problem
    k, r, gamma = stepper.config.k, stepper.r, stepper.gamma
    g_n = sample(problem.g, grid.interior_nodes, t)
    rhs = (
        2.0 * u_curr
        + r**2 * stepper._stencil.matvec(u_curr)
        + (gamma * k / 2.0 - 1.0) * u_prev
        + r**2 * boundary_vector(problem, grid, t)
        + k**2 * g_n
    )
    return rhs / stepper.lhs_denom


def step_oifd(
    stepper: BaselineStepper, u_curr: np.ndarray, u_prev: np.ndarray, t: float
) -> np.ndarray:
    """One implicit baseline step (banded solve): levels (n, n-1) at t_n -> n+1."""
    grid, problem = stepper.grid, stepper.problem
    k, r, gamma = stepper.config.k, stepper.r, stepper.gamma
    half_r2 = 0.5 * r**2
    g_n = sample(problem.g, grid.interior_nodes, t)
    rhs = (
        2.0 * u_curr
        + half_r2 * stepper._stencil.matvec(u_curr)
        + (gamma * k / 2.0 - 1.0) * u_prev
        + half_r2 * (boundary_vector(problem, grid, t + k) + boundary_vector(problem, grid, t))
        + k**2 * g_n
    )
    return linalg.solve_banded(stepper.lhs_fact, rhs)


@dataclass
class Trajectory:
    """Snapshots of a solve: times and states, plus blow-up bookkeeping.

    For semigroup schemes a state row is the full [u; u_t] vector; for the
    two-level baselines it is the displacement vector alone. Snapshots are
    retained every `stride` steps; the initial and final levels are always
    kept.
    """

    grid: SpatialGrid
    config: SchemeConfig
    times: np.ndarray
    states: np.ndarray
    n_interior: int
    stride: int
    blow_up: bool = False
    blow_up_index: Optional[int] = None

    @property
    def displacements(self) -> np.ndarray:
        return self.states[:, : self.n_interior]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def nearest_index(self, t: float) -> int:
        return int(np.argmin(np.abs(self.times - t)))


def solve_evolution(
    problem: DampedWaveProblem,
    grid: SpatialGrid,
    config: SchemeConfig,
    t_final: float,
    stride: int = 1,
) -> Trajectory:
    """Run the configured scheme from the initial data to the last step with t <= t_final.

    A non-finite entry in any new level halts the run and flags the
    trajectory (the offending level is retained as data).
    """
    if not t_final > 0:
        raise ValueError(f"t_final must be positive, got {t_final}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    n_steps = _num_steps(t_final, config.k)
    if n_steps > MAX_STEPS:
        raise ValueError(f"run would need {n_steps} steps (cap {MAX_STEPS})")

    op = assemble_system(grid, problem)
    stepper = make_stepper(config, op, grid, problem)
    k = config.k

    times: list[float] = []
    rows: list[np.ndarray] = []
    blow_up = False
    blow_up_index: Optional[int] = None

    def keep(level: int) -> bool:
        return level % stride == 0 or level == n_steps

    if isinstance(stepper, SemigroupStepper):
        state = stepper.initial_state
        times.append(state.t)
        rows.append(state.values)
        for level in range(1, n_steps + 1):
            state = step_semigroup(stepper, state)
            bad = not np.isfinite(state.values).all()
            if keep(level) or bad:
                times.append(level * k)
                rows.append(state.values)
            if bad:
                blow_up, blow_up_index = True, level
                break
    else:
        step = step_oefd if config.kind == "oefd" else step_oifd
        u_prev, u = stepper.u0, stepper.u1
        times.append(0.0)
        rows.append(u_prev)
        if n_steps >= 1:
            bad = not np.isfinite(u).all()
            if keep(1) or bad:
                times.append(k)
                rows.append(u)
            if bad:
                blow_up, blow_up_index = True, 1
        if not blow_up:
            for level in range(2, n_steps + 1):
                u_next = step(stepper, u, u_prev, (level - 1) * k)
                u_prev, u = u, u_next
                bad = not np.isfinite(u).all()
                if keep(level) or bad:
                    times.append(level * k)
                    rows.append(u)
                if bad:
                    blow_up, blow_up_index = True, level
                    break

    return Trajectory(
        grid=grid,
        config=config,
        times=np.array(times),
        states=np.array(rows),
        n_interior=grid.n_interior,
        stride=stride,
        blow_up=blow_up,
        blow_up_index=blow_up_index,
    )
