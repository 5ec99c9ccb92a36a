"""The implicit-step solves, factored once per (grid, k, scheme) and solved once a step.

`solve_banded` solves with either of two factorizations, by LAPACK in O(n):

* banded LU with partial pivoting (gbtrf, gbtrs), for Q_S(kM) in the
  interleaved ordering: every S >= 2, which partial fractions would solve less
  accurately, and every implicit system below `schemes.TRIDIAGONAL_MIN_N`
  interior nodes, where Table 1's bytes, pinned under `bench/ref/`, came from;
* LDL^T of a symmetric positive definite tridiagonal matrix (pttrf, pttrs),
  for a (1, T) member's resolvent, through its Schur complement divided by c
  (`schemes`), and for oifd, on larger grids: n - 1 unknowns, unpivoted, where
  Q_1 interleaves 2(n - 1), several times faster than gbtrs.

Both reject a pivot below PIVOT_RTOL times the largest entry of the matrix
with SingularMatrixError. A NaN pivot passes, so a system with non-finite
entries solves to a non-finite state, which the time loop reports as a blow-up.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.linalg import get_lapack_funcs

PIVOT_RTOL = 1e-14

#: the float64 LAPACK routines, looked up once
_GBTRF, _GBTRS, _PTTRF, _PTTRS = get_lapack_funcs(("gbtrf", "gbtrs", "pttrf", "pttrs"),
                                                  dtype=np.float64)


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
    lu: np.ndarray  # gbtrf's Fortran-ordered array: U in rows :kl + ku + 1, multipliers below
    ipiv: np.ndarray  # 0-based: step j swapped rows j and ipiv[j]


@dataclass(frozen=True)
class TridiagonalFactorization:
    """LDL^T of a symmetric positive definite tridiagonal matrix, as pttrf stores it."""

    n: int
    d: np.ndarray  # the diagonal of D, the pivots
    e: np.ndarray  # the subdiagonal of the unit lower L


Factorization = Union[BandedFactorization, TridiagonalFactorization]


def _check_pivots(pivots: np.ndarray, matrix: np.ndarray) -> None:
    """SingularMatrixError unless every |pivot| reaches PIVOT_RTOL max|matrix|; NaN passes."""
    scale = float(np.abs(matrix).max()) if matrix.size else 0.0
    magnitudes = np.abs(pivots)
    worst = int(np.argmin(magnitudes))
    if magnitudes[worst] < PIVOT_RTOL * scale:
        raise SingularMatrixError(f"numerically singular: pivot {pivots[worst]:.3e} at position "
                                  f"{worst} (threshold {PIVOT_RTOL * scale:.3e})")


def lu_factor_banded(matrix: BandedMatrix) -> BandedFactorization:
    """Factor a banded matrix; raises SingularMatrixError on tiny pivots."""
    n, kl, ku = matrix.n, matrix.kl, matrix.ku
    full = np.zeros((2 * kl + ku + 1, n), order="F")
    full[kl:, :] = matrix.ab
    lu, ipiv, info = _GBTRF(full, kl, ku, overwrite_ab=1)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to banded factorization")
    if info > 0:
        raise SingularMatrixError(f"exactly singular: zero pivot at position {info - 1}")
    _check_pivots(lu[kl + ku, :], matrix.ab)
    return BandedFactorization(n=n, kl=kl, ku=ku, lu=lu, ipiv=ipiv)


def factor_spd_tridiagonal(diag: np.ndarray, off: np.ndarray) -> TridiagonalFactorization:
    """LDL^T of tridiag(off, diag, off); SingularMatrixError unless numerically SPD."""
    d, e, info = _PTTRF(diag, off)
    if info > 0:
        raise SingularMatrixError(f"not positive definite: pivot {d[info - 1]:.3e} at "
                                  f"position {info - 1}")
    _check_pivots(d, np.concatenate((diag, off)))
    return TridiagonalFactorization(n=len(d), d=d, e=e)


def solve_banded(fact: Factorization, rhs: np.ndarray) -> np.ndarray:
    """Solve (original matrix) x = rhs using either stored factorization."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (fact.n,):
        raise ValueError(f"expected rhs of length {fact.n}, got shape {rhs.shape}")
    if isinstance(fact, TridiagonalFactorization):
        x, info = _PTTRS(fact.d, fact.e, rhs)
    else:
        x, info = _GBTRS(fact.lu, fact.kl, fact.ku, rhs, fact.ipiv)
    if info != 0:
        raise ValueError(f"banded solve failed with info={info}")
    return x


def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy.linalg calls, found by name
    (a numpy 2 or numpy 1 wheel's, or a system one), or None for any other BLAS."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)  # dlsym searches what it links
    except OSError:
        return None
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads"):
        get, set_ = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
        if get is not None and set_ is not None:
            get.restype, set_.argtypes = ctypes.c_int, (ctypes.c_int,)
            return get, set_
    return None


_OPENBLAS_THREADS = _openblas_threads()  # looked up once, at import


def single_thread_blas() -> None:
    """Runs numpy's OpenBLAS on one thread from here on; any other BLAS is left as it is.
    The dense spans' eigvals and products are at most 128 square, where a BLAS worker that
    one wakes spins for about 0.1 s after it, taking the CPU that a fan-out child needs. Call
    it before forking: a set after a fork restarts the pool that the fork stopped."""
    if _OPENBLAS_THREADS is not None and _OPENBLAS_THREADS[0]() != 1:
        _OPENBLAS_THREADS[1](1)
