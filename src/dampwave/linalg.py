"""Banded LU, which factors the implicit-step matrices once per (grid, k, scheme)
and solves with them once per step.

`lu_factor_banded` runs LAPACK gbtrf in place on a Fortran-ordered work array.
`solve_banded` has two forms, which give the same bits:

* LAPACK gbtrs, below SWEEP_MIN_N unknowns and at a factor's first solve. It
  interleaves the row interchanges with the elimination: one BLAS `dger` per
  unknown and a `dswap` per interchange, about 9,600 BLAS calls at n = 6398;
* from the second solve on, at SWEEP_MIN_N or more, one gather and two BLAS
  band sweeps: x = b[perm], a unit-lower `dtbsv` with `lower` and gbtrs's own
  upper `dtbsv` with U. `replay_interchanges` builds (perm, lower), P A = L' U
  with L' the multipliers moved by every later interchange, as dense getrf
  stores L. L' is wider than gbtrf's band (6 for fd11's kl = 3) and holds
  zeros in the extra slots.

The bits agree because OpenBLAS's one-column `dger` and `dtbsv` both update
through its `daxpy` kernel, with the same multipliers in the same column
order. That holds while every update is shorter than daxpy's 16-entry vector
block, whose bits differ from its scalar loop on some kernels (on Haswell's, at
N = 300, each of the 13 fdST factors whose L' is 16 to 50 wide, all at r = 3
or 9), so a factor whose L' is wider than SWEEP_MAX_WIDTH stays on gbtrs. A
zero slot adds (-b_j) * 0, which changes nothing but the sign of an exact
zero. Once a non-finite entry meets a zero slot it becomes NaN where gbtrs may
keep an inf or a finite value, so a non-finite sweep result is solved again
with gbtrs: the bytes of a diverging run do not depend on the form.

Per solve, gbtrs against the sweeps (fd11 at r = 0.5, timeit minimum on a
2-vCPU Xeon): 3.4 against 3.3 µs at n = 98, 6.4 against 4.9 µs at n = 198,
49 against 28.5 µs at n = 1598 and 175 against 97 µs at n = 6398. The replay
costs about 0.55 ms at n = 6398, as much as seven solves save; SWEEP_MIN_N
sits above the crossover (n ≈ 100-150) so that it pays off within a few dozen
steps. The replay is built by the second solve, not in `lu_factor_banded`:
set-up is timed apart from the steps, and a factor solved once (oifd's ghost
start, inside `make_stepper`) never pays for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

PIVOT_RTOL = 1e-14

#: the order from which `solve_banded` sweeps; every paper-repro system stays on gbtrs
SWEEP_MIN_N = 256
#: the widest L' swept, below OpenBLAS daxpy's 16-entry vector block
SWEEP_MAX_WIDTH = 15

#: the float64 LAPACK banded LU routines and the BLAS band sweep, looked up once
_GBTRF, _GBTRS = get_lapack_funcs(("gbtrf", "gbtrs"), dtype=np.float64)
_TBSV = get_blas_funcs("tbsv", dtype=np.float64)


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
    # solve_banded's: [None] after the first solve at n >= SWEEP_MIN_N, then [(perm, lower)],
    # or [()] where L' is wider than SWEEP_MAX_WIDTH; then (order, order[perm]) for its order
    sweeps: list = field(default_factory=list, init=False, repr=False, compare=False)


def lu_factor_banded(matrix: BandedMatrix) -> BandedFactorization:
    """Factor a banded matrix; raises SingularMatrixError on tiny pivots.

    A pivot counts as singular when its magnitude falls below
    PIVOT_RTOL x (largest entry magnitude of the input).
    """
    n, kl, ku = matrix.n, matrix.kl, matrix.ku
    scale = float(np.abs(matrix.ab).max()) if matrix.ab.size else 0.0
    full = np.zeros((2 * kl + ku + 1, n), order="F")
    full[kl:, :] = matrix.ab
    lu, ipiv, info = _GBTRF(full, kl, ku, overwrite_ab=1)
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


def _final_offsets(reach: np.ndarray, base: int, length: int, t: int) -> np.ndarray:
    """How far below step j_i the row that stands t below it after gbtrf's step j_i ends
    up, for i < length, where reach[base + i] is step j_i's reach: how far below it its
    interchange goes, 0 outside the steps. s steps after j_i, the rows at offsets s and
    s + reach[base + i + s] swap places. Every array made is `length` long."""
    off = np.full(length, t, dtype=reach.dtype)
    s = 0
    while off.max() > s:  # a row at offset <= s is past every step that could move it
        s += 1
        down = reach[base + s : base + s + length] + s
        off = np.where(off == s, down, np.where(off == down, s, off))
    return off


def replay_interchanges(fact: BandedFactorization) -> tuple[np.ndarray, np.ndarray]:
    """(perm, lower) with A[perm] = L' U: gbtrf's interchanges replayed onto its
    multipliers. L' is unit lower triangular in Fortran-ordered band storage,
    lower[i - j, j] = L'[i, j] (row 0 unread), as wide as the farthest a multiplier moved."""
    n, kl, pad = fact.n, fact.kl, fact.kl + 1
    reach = np.zeros(2 * n + pad, dtype=np.int32)  # step j's at pad + j, zeros past n
    reach[pad : pad + n] = fact.ipiv - np.arange(n)
    offsets = [_final_offsets(reach, pad, n - t, t) for t in range(1, min(kl, n - 1) + 1)]
    lower = np.zeros((max([0] + [int(off.max()) for off in offsets]) + 1, n), order="F")
    cols = np.arange(n)
    for t, off in enumerate(offsets, start=1):
        lower[off, cols[: n - t]] = fact.lu[kl + fact.ku + t, : n - t]
    perm = np.empty(n, dtype=np.intp)  # no step before r - pad reaches row r of A
    perm[_final_offsets(reach, 0, n, pad) + cols - pad] = cols
    return perm, lower


def _sweep_form(fact: BandedFactorization) -> Optional[tuple]:
    """fact's replay, built by the second call: None at the first, whose solve is gbtrs's,
    and () when L' is too wide to sweep."""
    if not fact.sweeps:
        fact.sweeps.append(None)
    elif fact.sweeps[0] is None:
        perm, lower = replay_interchanges(fact)
        fact.sweeps[0] = (perm, lower) if len(lower) <= SWEEP_MAX_WIDTH + 1 else ()
    return fact.sweeps[0]


def solve_banded(fact: BandedFactorization, rhs: np.ndarray, order=None) -> np.ndarray:
    """Solve (original matrix) x = rhs using the stored factorization, or x = rhs[order] for
    an index array order, which the sweeps gather in one pass with their own."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (fact.n,):
        raise ValueError(f"expected rhs of length {fact.n}, got shape {rhs.shape}")
    form = _sweep_form(fact) if fact.n >= SWEEP_MIN_N else None
    if form:
        perm, lower = form
        if order is not None:  # rhs[order][perm] is rhs[order[perm]], composed once an order
            if fact.sweeps[-1][0] is not order:
                fact.sweeps[1:] = [(order, order[perm])]
            perm = fact.sweeps[1][1]
        x = rhs[perm]
        _TBSV(len(lower) - 1, lower, x, lower=1, diag=1, overwrite_x=1)
        _TBSV(fact.kl + fact.ku, fact.lu, x, overwrite_x=1)
        if np.isfinite(x).all():  # else gbtrs gives a diverging run's bytes
            return x
    x, info = _GBTRS(fact.lu, fact.kl, fact.ku, rhs if order is None else rhs[order], fact.ipiv)
    if info != 0:
        raise ValueError(f"banded solve failed with info={info}")
    return x
