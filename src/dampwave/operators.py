"""Spatial discretization: grid, block operator and forcing assembly.

Discretizing u_tt = u_xx - gamma(x) u_t + g(x,t) in space on the interior
nodes of a uniform grid yields the first-order system

    dV/dt = M V + F(t),    M = [[0, I], [A/h^2, -Gamma]],

with V the interior displacements stacked over interior velocities,
A = tridiag(1, -2, 1), Gamma = diag(gamma(x_i)) and
F(t) = [0; G(t) + B(t)/h^2] carrying the interior forcing G and the
Dirichlet boundary contribution B(t) = [u_a(t), 0, ..., 0, u_b(t)].

M is kept in block form (tridiagonal + diagonal): `pade.apply_poly` takes
its products block by block, and no solve densifies it.

Problem callables meet node arrays only in `sample`: a callable receives the
whole node array when it accepts it, and is called once per node otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from numpy import add, multiply  # a bound pass's ufuncs, by bare name: one lookup a call

from .problems import DampedWaveProblem, ExpressionError

#: largest subinterval count build_grid accepts (the bound on grid size, as
#: schemes.MAX_STEPS bounds the step count)
MAX_SUBINTERVALS = 1_000_000


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform mesh of [a, b] with N subintervals; interior nodes x_i = a + i h."""

    a: float
    b: float
    N: int
    h: float
    interior_nodes: np.ndarray

    @property
    def n_interior(self) -> int:
        return self.N - 1

    def all_nodes(self) -> np.ndarray:
        """Nodes including both endpoints (length N+1)."""
        return np.concatenate(([self.a], self.interior_nodes, [self.b]))


def build_grid(a: float, b: float, N: int) -> SpatialGrid:
    """Mesh [a, b] into N subintervals, h = (b-a)/N.

    Requires b > a, 2 <= N <= MAX_SUBINTERVALS (at least one interior node),
    finite a and b, and an h whose 1/h^2 is a positive finite float.
    """
    if not b > a:
        raise ValueError(f"need b > a, got a={a}, b={b}")
    if N < 2:
        raise ValueError(f"need N >= 2 for interior nodes, got N={N}")
    if N > MAX_SUBINTERVALS:
        raise ValueError(f"grid of N={N} subintervals exceeds the bound {MAX_SUBINTERVALS}")
    h = (b - a) / N
    try:
        inv_h2 = 1.0 / h**2
    except ArithmeticError:  # h**2 overflows, or underflows to zero
        inv_h2 = math.nan
    if not (math.isfinite(a) and math.isfinite(b) and 0 < inv_h2 < math.inf):
        raise ValueError(f"grid needs finite a, b and h = (b-a)/N with 1/h^2 a positive finite "
                         f"float, got a={a}, b={b}, h={h}")
    nodes = a + h * np.arange(1, N)
    return SpatialGrid(a=float(a), b=float(b), N=int(N), h=h, interior_nodes=_readonly(nodes))


def sample(fn: Callable, nodes: np.ndarray, *t: float) -> np.ndarray:
    """fn(x, *t) at every node x, as a new float array shaped like nodes.

    fn is called once with the whole node array; a scalar result is broadcast
    to every node. When fn rejects the array (math.sin, a lambda branching on
    x, an expression whose numpy pass raised FloatingPointError), it is called
    once per node, the package's only node-by-node loop, which stops at the
    first node that raises. An ExpressionError is not a rejection: it propagates.
    """
    values = np.empty_like(nodes, dtype=float)
    try:
        values[...] = fn(nodes, *t)
    except ExpressionError:
        raise
    except Exception:
        # whatever the array made fn raise, the per-node calls below behave,
        # and raise, exactly as per-node evaluation always did
        return np.array([fn(x, *t) for x in nodes], dtype=float)
    return values


def second_difference(v: np.ndarray) -> np.ndarray:
    """A v, a new array, for the second-difference matrix A = tridiag(1, -2, 1) (no 1/h^2
    factor). Works along the first axis, so second_difference(np.eye(n)) is A itself."""
    return difference_pass(v, np.empty(v.shape))()


def scalar(c):
    """c as an operand of a bound pass: a float as a read-only 0-d array, which a ufunc takes
    with less work per call than a Python float and with the same bits; anything else as it
    is."""
    return _readonly(np.array(c)) if isinstance(c, float) else c


_MINUS_TWO = scalar(-2.0)


def difference_pass(v: np.ndarray, out: np.ndarray) -> Callable[[], np.ndarray]:
    """The pass of `second_difference` from v into out, its views cut here once: a function
    of no arguments that writes A v into out and returns out. Like every bound pass, it is a
    partial of a module function, which makes two objects for the collector to track where a
    closure makes one per variable it reads."""
    return partial(_difference, v, out, out[:-1], out[1:], v[:-1], v[1:])


def _difference(v, out, out_head, out_tail, v_head, v_tail) -> np.ndarray:
    multiply(_MINUS_TWO, v, out)
    add(out_head, v_tail, out_head)
    add(out_tail, v_head, out_tail)
    return out


@dataclass(frozen=True)
class BlockOperator:
    """The 2(N-1) x 2(N-1) operator M = [[0, I], [A/h^2, -Gamma]] in block form."""

    n_interior: int
    damping: np.ndarray  # gamma(x_i), the diagonal of Gamma
    inv_h2: float

    @property
    def size(self) -> int:
        return 2 * self.n_interior


def assemble_system(grid: SpatialGrid, problem: DampedWaveProblem) -> BlockOperator:
    """Sample gamma at the interior nodes and assemble M.

    Rejects negative damping values (the model assumes gamma >= 0).
    """
    n = grid.n_interior
    gamma = sample(problem.gamma, grid.interior_nodes)
    if np.any(gamma < 0):
        i = int(np.argmin(gamma))
        raise ValueError(
            f"damping must be nonnegative; gamma({grid.interior_nodes[i]}) = {gamma[i]}"
        )
    return BlockOperator(
        n_interior=n,
        damping=_readonly(gamma),
        inv_h2=1.0 / grid.h**2,
    )


def boundary_vector(problem: DampedWaveProblem, grid: SpatialGrid, t: float) -> np.ndarray:
    """B(t): zeros except u_a(t) at the first and u_b(t) at the last interior slot."""
    b = np.zeros(grid.n_interior)
    b[0] += problem.u_a(t)
    b[-1] += problem.u_b(t)
    return b


def forcing_vector(problem: DampedWaveProblem, grid: SpatialGrid, t: float) -> np.ndarray:
    """F(t) for the first-order system at time t, as a read-only array."""
    n = grid.n_interior
    g_vals = sample(problem.g, grid.interior_nodes, t)
    values = np.zeros(2 * n)
    values[n:] = g_vals + boundary_vector(problem, grid, t) / grid.h**2
    return _readonly(values)
