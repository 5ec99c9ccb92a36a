"""Rational (Pade) approximants of the exponential and their application.

The (S, T) approximant is R(theta) = P_T(theta) / Q_S(theta) with the Taylor
series of R matching e^theta through order S+T and leading defect
c_{S+T+1} theta^{S+T+1}.  Coefficients come from the classical closed form

    p_j = (S+T-j)! T! / ((S+T)! j! (T-j)!),
    q_j = (-1)^j (S+T-j)! S! / ((S+T)! j! (S-j)!),
    c_{S+T+1} = (-1)^S S! T! / ((S+T)! (S+T+1)!),

held as exact rationals; floats enter only when a polynomial is applied.
Each (S, T) approximant, and its float coefficients, is built once per process.
For S = 1 the exact split P_T = D Q_1 + rho, rho = P_T(T+1), gives R = D + rho/Q_1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from math import factorial
from typing import Callable, Optional, Sequence

import numpy as np
from numpy import add, multiply, subtract  # the pass's ufuncs, one lookup a call

from .operators import BlockOperator, difference_pass, scalar

MAX_ORDER = 4  # supported range for the scheme family


@dataclass(frozen=True)
class RationalApproximant:
    """Exact-rational (S, T) approximant of e^theta."""

    S: int
    T: int
    p_coeffs: tuple[Fraction, ...]  # a_0..a_T, a_0 = 1
    q_coeffs: tuple[Fraction, ...]  # b_0..b_S, b_0 = 1
    leading_error: Fraction

    @cached_property
    def p_floats(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self.p_coeffs)

    @cached_property
    def q_floats(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self.q_coeffs)

    @cached_property
    def split(self) -> tuple[tuple[Fraction, ...], Fraction]:
        """(D, rho), P_T = D Q_1 + rho for S = 1 (D = 0 for T = 0), D's coefficients ascending."""
        if self.S != 1:
            raise ValueError(f"only S = 1 splits over a single root, got S = {self.S}")
        root, quotient = self.T + 1, [Fraction(0)]  # P_T / (theta - root), highest first
        for c in reversed(self.p_coeffs[1:]):
            quotient.append(c + root * quotient[-1])
        d = tuple(-root * c for c in reversed(quotient[1:])) or (Fraction(0),)
        return d, self.p_coeffs[0] + root * quotient[-1]


def validate_orders(S: int, T: int) -> None:
    if not (0 <= S <= MAX_ORDER and 0 <= T <= MAX_ORDER):
        raise ValueError(f"orders must lie in [0, {MAX_ORDER}], got (S, T) = ({S}, {T})")
    if S + T < 1:
        raise ValueError("need S + T >= 1")


@cache
def pade_coefficients(S: int, T: int) -> RationalApproximant:
    """Exact coefficients of the (S, T) approximant of the exponential."""
    validate_orders(S, T)
    denom = factorial(S + T)
    p = tuple(
        Fraction(factorial(S + T - j) * factorial(T), denom * factorial(j) * factorial(T - j))
        for j in range(T + 1)
    )
    q = tuple(
        (-1) ** j
        * Fraction(factorial(S + T - j) * factorial(S), denom * factorial(j) * factorial(S - j))
        for j in range(S + 1)
    )
    lead = (-1) ** S * Fraction(factorial(S) * factorial(T), denom * factorial(S + T + 1))
    return RationalApproximant(S=S, T=T, p_coeffs=p, q_coeffs=q, leading_error=lead)


def apply_poly(coeffs: Sequence, op: BlockOperator, k: float, v: np.ndarray,
               out: Optional[np.ndarray] = None, work: Optional[list] = None
               ) -> Callable[[], np.ndarray]:
    """The Horner pass of sum_j coeffs[j] (k M)^j v, each M-product taken in block form,
    M [u; w] = [w; A u / h^2 - Gamma w]: O(N) work, no densification. Returns a function of
    no arguments that writes the sum into out (a new array shaped like v when None) and
    returns out. Every view the pass reads or writes is cut here, once, so that a lane's step
    plan (`schemes`) runs it at every level with no slicing and no allocation. Its scratch
    arrays come from work, a list of arrays shaped like v that the pass extends to the (at
    most two) it needs, so that passes over different arrays can share them. A coefficient
    of None is exactly 1 (a lane's resolved ones, `schemes`) and adds v itself, unmultiplied,
    as 1.0 * x == x. The pass never writes v, which shares no memory with out or work;
    ValueError unless v has op.size rows.

    v carries a trailing member axis, (2n, m) for the m members of a lane (see `schemes`);
    op's damping is then (n, m), and a coefficient is a float or an array shaped like v."""
    if len(v) != op.size:
        raise ValueError(f"expected {op.size} rows, got an array of shape {v.shape}")
    n, degree, first = op.n_interior, len(coeffs) - 1, scalar(coeffs[-1])
    out, work = np.empty(v.shape) if out is None else out, [] if work is None else work
    work.extend(np.empty(v.shape) for _ in range(min(degree, 2) - len(work)))
    # acc[j] = sum_{i >= j} coeffs[i] (kM)^(i - j) v: out, then two accumulators in turn,
    # the last v itself when its coefficient is None; a stage's products go into the
    # accumulator it reads, once read, or into the other one when it reads v
    acc = [out] + [work[(j - 1) % 2] for j in range(1, degree + 1)]
    if degree and first is None:
        acc[degree] = v
    stages = []
    for c, src, dst in zip(coeffs[-2::-1], acc[:0:-1], acc[-2::-1]):
        temp = work[(degree - 1) % 2] if src is v else src
        stages.append((src[n:], dst, dst[:n], dst[n:], difference_pass(src[:n], dst[n:]),
                       temp, temp[n:], scalar(c)))
    return partial(_horner, v, out, acc[degree], first, tuple(stages), op.damping,
                   scalar(op.inv_h2), scalar(k))


def _horner(v, out, top, first, stages, damping, inv_h2, k) -> np.ndarray:
    if first is not None:
        multiply(first, v, top)
    elif top is out:  # coeffs is (None,)
        out[...] = v
    for src_w, dst, dst_u, dst_w, difference, temp, damped, c in stages:
        dst_u[...] = src_w
        difference()
        multiply(dst_w, inv_h2, dst_w)
        multiply(damping, src_w, damped)
        subtract(dst_w, damped, dst_w)
        multiply(dst, k, dst)
        if c is None:
            add(dst, v, dst)
        else:
            multiply(c, v, temp)
            add(dst, temp, dst)
    return out
