"""Banded LU (LAPACK gbtrf/gbtrs), which factors the implicit-step matrices
once per (grid, k, scheme) and solves with them once per step."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

PIVOT_RTOL = 1e-14


#: the float64 LAPACK banded LU routines, looked up once
_GBTRF, _GBTRS = get_lapack_funcs(("gbtrf", "gbtrs"), dtype=np.float64)


class SingularMatrixError(RuntimeError):
    """Factorization hit a (numerically) zero pivot."""


@dataclass(frozen=True)
class BandedMatrix:
    """Band storage: ab[ku + i - j, j] = A[i, j] for -kl <= j - i <= ku."""

    n: int
    kl: int
    ku: int
    ab: np.ndarray  # shape (kl + ku + 1, n)

    @classmethod
    def from_tridiagonal(cls, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> "BandedMatrix":
        n = len(diag)
        ab = np.zeros((3, n))
        ab[0, 1:] = upper
        ab[1, :] = diag
        ab[2, :-1] = lower
        return cls(n=n, kl=1, ku=1, ab=ab)


@dataclass(frozen=True)
class BandedFactorization:
    """Packed LU with partial pivoting of a banded matrix; reusable for solves."""

    n: int
    kl: int
    ku: int
    lu: np.ndarray
    ipiv: np.ndarray


def lu_factor_banded(matrix: BandedMatrix) -> BandedFactorization:
    """Factor a banded matrix; raises SingularMatrixError on tiny pivots.

    A pivot counts as singular when its magnitude falls below
    PIVOT_RTOL x (largest entry magnitude of the input).
    """
    n, kl, ku = matrix.n, matrix.kl, matrix.ku
    scale = float(np.abs(matrix.ab).max()) if matrix.ab.size else 0.0
    full = np.zeros((2 * kl + ku + 1, n))
    full[kl:, :] = matrix.ab
    lu, ipiv, info = _GBTRF(full, kl, ku)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to banded factorization")
    if info > 0:
        raise SingularMatrixError(f"exactly singular: zero pivot at position {info - 1}")
    pivots = np.abs(lu[kl + ku, :])
    worst = int(np.argmin(pivots))
    if pivots[worst] < PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"numerically singular: pivot {lu[kl + ku, worst]:.3e} at position {worst} "
            f"(threshold {PIVOT_RTOL * scale:.3e})"
        )
    return BandedFactorization(n=n, kl=kl, ku=ku, lu=lu, ipiv=ipiv)


def solve_banded(fact: BandedFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve (original matrix) x = rhs using the stored factorization."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (fact.n,):
        raise ValueError(f"expected rhs of length {fact.n}, got shape {rhs.shape}")
    x, info = _GBTRS(fact.lu, fact.kl, fact.ku, rhs, fact.ipiv)
    if info != 0:
        raise ValueError(f"banded solve failed with info={info}")
    return x
