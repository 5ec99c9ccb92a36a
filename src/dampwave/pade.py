"""Rational (Pade) approximants of the exponential and their application.

The (S, T) approximant is R(theta) = P_T(theta) / Q_S(theta) with the Taylor
series of R matching e^theta through order S+T and leading defect
c_{S+T+1} theta^{S+T+1}.  Coefficients come from the classical closed form

    p_j = (S+T-j)! T! / ((S+T)! j! (T-j)!),
    q_j = (-1)^j (S+T-j)! S! / ((S+T)! j! (S-j)!),
    c_{S+T+1} = (-1)^S S! T! / ((S+T)! (S+T+1)!),

held as exact rationals; floats enter only when a polynomial is applied.
Each (S, T) approximant, and its float coefficients, is built once per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import factorial
from typing import Sequence

import numpy as np

from .operators import BlockOperator, second_difference

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


def apply_poly(coeffs: Sequence, op: BlockOperator, k: float, v: np.ndarray) -> np.ndarray:
    """Evaluate sum_j coeffs[j] (k M)^j v by Horner's rule, each M-product taken in block
    form, M [u; w] = [w; A u / h^2 - Gamma w]: O(N) work, no densification. A coefficient
    of None is exactly 1 (a lane's resolved ones, `schemes`) and adds v itself, unmultiplied,
    as 1.0 * x == x. v is never written; the result is a new array unless coeffs is (None,).

    v carries a trailing member axis, (2n, m) for the m members of a lane (see `schemes`);
    op's damping is then (n, m), and a coefficient is a float or an array shaped like v."""
    n = op.n_interior
    acc = v if coeffs[-1] is None else coeffs[-1] * v
    for c in reversed(coeffs[:-1]):
        out = np.empty(acc.shape)
        out[:n] = acc[n:]
        lap = second_difference(acc[:n], out=out[n:])
        lap *= op.inv_h2
        lap -= op.damping * acc[n:]
        out *= k
        out += v if c is None else c * v
        acc = out
    return acc
