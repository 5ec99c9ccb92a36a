"""Stability analysis of the explicit and implicit schemes.

The explicit (0,1) scheme is stable when

    k < 2 / gamma*        and        sqrt(k) / h < sqrt(gamma*) / 2,

with gamma* the maximum damping over the domain; with zero damping the
second condition is unsatisfiable and the scheme has no stability region.
The implicit (1,1) scheme maps the operator eigenvalues

    lambda_n^{+-} = -gamma/2 +- (1/2) sqrt(gamma^2 - (16/h^2) sin^2(n pi / 2N))

through the Cayley transform mu = (1 + k lambda/2) / (1 - k lambda/2);
Re(lambda) <= 0 gives |mu| <= 1 for every (h, k): unconditional stability.
With constant damping, M and so every one-step map R(kM) keep each plane
{[s_n; 0], [0; s_n]} of an orthonormal sine mode s_n invariant: `spectral_radius`
measures a map's radius from its 2x2 block per plane, a check of the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .operators import MAX_SUBINTERVALS


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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves max_mod non-finite
        inner = np.float64(gamma_const) ** 2 - scale * np.sin(n * np.pi / (2 * N)) ** 2
        root = np.sqrt(inner.astype(complex))
        lam_p = -gamma_const / 2.0 + root / 2.0
        lam_m = -gamma_const / 2.0 - root / 2.0
        mu_p = (1.0 + k * lam_p / 2.0) / (1.0 - k * lam_p / 2.0)
        mu_m = (1.0 + k * lam_m / 2.0) / (1.0 - k * lam_m / 2.0)
        max_mod = float(max(np.abs(mu_p).max(), np.abs(mu_m).max()))
    if not math.isfinite(max_mod):
        raise ValueError(f"k={k}, h={h} and gamma*={gamma_const} put the implicit spectrum "
                         f"outside the finite floats")
    return AmplificationSpectrum(
        lambda_plus=lam_p,
        lambda_minus=lam_m,
        mu_plus=mu_p,
        mu_minus=mu_m,
        max_modulus=max_mod,
    )


#: the largest one-step map, 2(N-1) unknowns, that `spectral_radius` takes (32 MB of images)
MAX_MAP_SIZE = 2000
#: the largest relative off-plane part of a mode plane's image that counts as rounding
PLANE_RESIDUAL_TOL = 1e-8


class ModeCouplingError(ValueError):
    """A one-step map moves a sine-mode plane off itself: its damping is not constant."""


def spectral_radius(apply: Callable[[np.ndarray], np.ndarray], N: int) -> tuple[float, float]:
    """(spectral radius, off-plane residual) of a one-step map of [u; u_t] on N - 1 interior
    nodes with constant damping. apply runs once on each of the 2(N-1) vectors [s_n; 0] and
    [0; s_n]; their images projected onto s_n form mode n's 2x2 block, whose eigenvalues are
    taken in closed form. The residual, the largest entry of an image off its plane over the
    largest entry of any image, raises ModeCouplingError past PLANE_RESIDUAL_TOL."""
    n = N - 1
    if not 1 <= n <= MAX_MAP_SIZE // 2:
        raise ValueError(f"per-mode spectral radius needs a map of size 2 up to size "
                         f"{MAX_MAP_SIZE}, got {2 * n}")
    nodes = np.arange(1, N)
    modes = math.sqrt(2.0 / N) * np.sin(np.outer(nodes, nodes) * (math.pi / N))  # row n: s_n
    zero = np.zeros(n)
    # images[n, c, r]: half r (u, then u_t) of the image of the plane's c-th basis vector
    images = np.array([[apply(np.concatenate(v)) for v in ((s, zero), (zero, s))]
                       for s in modes]).reshape(n, 2, 2, n)
    blocks = np.einsum("ncrj,nj->nrc", images, modes)
    off_plane = images - np.einsum("nrc,nj->ncrj", blocks, modes)
    residual = float(np.abs(off_plane).max() / np.abs(images).max())
    if not residual <= PLANE_RESIDUAL_TOL:
        raise ModeCouplingError(f"the one-step map couples sine modes: off-plane residual "
                                f"{residual:.3e} exceeds {PLANE_RESIDUAL_TOL:.0e}")
    (a, b), (c, d) = blocks.transpose(1, 2, 0)
    half_trace, root = (a + d) / 2.0, np.sqrt((((a - d) / 2.0) ** 2 + b * c).astype(complex))
    return float(np.abs([half_trace + root, half_trace - root]).max()), residual
