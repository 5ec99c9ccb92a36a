"""Stability analysis of the explicit and implicit schemes.

The explicit (0,1) scheme's per-mode amplification eigenvalues are the roots
of a real quadratic; a Jury-type coefficient test places both roots inside
the unit disk. The scheme is stable when

    k < 2 / gamma*        and        sqrt(k) / h < sqrt(gamma*) / 2,

with gamma* the maximum damping over the domain; with zero damping the
second condition is unsatisfiable and the scheme has no stability region.
The implicit (1,1) scheme maps the operator eigenvalues

    lambda_n^{+-} = -gamma/2 +- (1/2) sqrt(gamma^2 - (16/h^2) sin^2(n pi / 2N))

through the Cayley transform mu = (1 + k lambda/2) / (1 - k lambda/2);
Re(lambda) <= 0 gives |mu| <= 1 for every (h, k): unconditional stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import MAX_SUBINTERVALS


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


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    value: float
    bound: float
    passed: bool

    @property
    def margin(self) -> float:
        return self.bound - self.value


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    conditions: tuple[ConditionCheck, ...]


def _require_finite(k: float, h: float, gamma: float) -> None:
    if not all(math.isfinite(v) for v in (k, h, gamma)):
        raise ValueError(f"need finite k, h and gamma*, got k={k}, h={h}, gamma*={gamma}")


def check_explicit_stability(k: float, h: float, gamma_star: float) -> StabilityVerdict:
    """Evaluate the two explicit-scheme stability conditions with margins.

    Both conditions are sufficient, taken as stated; the verdict reports the
    computed value and bound of each so near-boundary cases can be inspected.
    """
    if not (k > 0 and h > 0):
        raise ValueError(f"need k > 0 and h > 0, got k={k}, h={h}")
    if gamma_star < 0:
        raise ValueError(f"gamma_star must be nonnegative, got {gamma_star}")
    _require_finite(k, h, gamma_star)
    bound1 = math.inf if gamma_star == 0 else 2.0 / gamma_star
    cond1 = ConditionCheck("k < 2/gamma*", value=k, bound=bound1, passed=k < bound1)
    value2 = math.sqrt(k) / h
    bound2 = math.sqrt(gamma_star) / 2.0
    cond2 = ConditionCheck("sqrt(k)/h < sqrt(gamma*)/2", value=value2, bound=bound2, passed=value2 < bound2)
    return StabilityVerdict(stable=cond1.passed and cond2.passed, conditions=(cond1, cond2))


@dataclass(frozen=True)
class AmplificationSpectrum:
    """Eigenvalues lambda_n^{+-} of M and amplification factors mu_n^{+-} of
    the implicit (1,1) one-step map, constant damping."""

    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    mu_plus: np.ndarray
    mu_minus: np.ndarray
    max_modulus: float


def implicit_amplification(N: int, h: float, k: float, gamma_const: float) -> AmplificationSpectrum:
    """Closed-form amplification spectrum of the implicit (1,1) scheme."""
    if not 2 <= N <= MAX_SUBINTERVALS:
        raise ValueError(f"need 2 <= N <= {MAX_SUBINTERVALS}, got N={N}")
    _require_finite(k, h, gamma_const)
    try:
        scale = 16.0 / h**2
    except ArithmeticError:  # h**2 overflows, or underflows to zero
        scale = math.nan
    if not 0 < scale < math.inf:
        raise ValueError(f"mesh width h={h} leaves 16/h^2 outside the positive finite floats")
    n = np.arange(1, N)
    inner = gamma_const**2 - scale * np.sin(n * np.pi / (2 * N)) ** 2
    root = np.sqrt(inner.astype(complex))
    lam_p = -gamma_const / 2.0 + root / 2.0
    lam_m = -gamma_const / 2.0 - root / 2.0
    mu_p = (1.0 + k * lam_p / 2.0) / (1.0 - k * lam_p / 2.0)
    mu_m = (1.0 + k * lam_m / 2.0) / (1.0 - k * lam_m / 2.0)
    max_mod = float(max(np.abs(mu_p).max(), np.abs(mu_m).max()))
    return AmplificationSpectrum(
        lambda_plus=lam_p,
        lambda_minus=lam_m,
        mu_plus=mu_p,
        mu_minus=mu_m,
        max_modulus=max_mod,
    )
