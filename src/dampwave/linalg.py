"""Small linear-algebra kernels backing the time steppers and their validation.

Banded LU (LAPACK gbtrf/gbtrs) factors the implicit-step matrices once per
(grid, k, scheme); the dense exponential scipy.linalg.expm serves as the
one-step oracle at validation scale; spectral_radius estimates the dominant
eigenvalue magnitude of a linear map given only its action.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.linalg import expm, get_lapack_funcs

from .operators import BlockOperator

PIVOT_RTOL = 1e-14
ORACLE_MAX_SIZE = 200


class SingularMatrixError(RuntimeError):
    """Factorization hit a (numerically) zero pivot."""

    def __init__(self, message: str, pivot: float = 0.0, index: int = -1):
        super().__init__(message)
        self.pivot = pivot
        self.index = index


@dataclass(frozen=True)
class BandedMatrix:
    """Band storage: ab[ku + i - j, j] = A[i, j] for -kl <= j - i <= ku."""

    n: int
    kl: int
    ku: int
    ab: np.ndarray  # shape (kl + ku + 1, n)

    @classmethod
    def from_sparse(cls, mat: scipy.sparse.spmatrix) -> "BandedMatrix":
        coo = mat.tocoo()
        n = coo.shape[0]
        if coo.shape != (n, n):
            raise ValueError("matrix must be square")
        if coo.nnz == 0:
            return cls(n=n, kl=0, ku=0, ab=np.zeros((1, n)))
        kl = int(max(0, (coo.row - coo.col).max()))
        ku = int(max(0, (coo.col - coo.row).max()))
        ab = np.zeros((kl + ku + 1, n))
        np.add.at(ab, (ku + coo.row - coo.col, coo.col), coo.data)
        return cls(n=n, kl=kl, ku=ku, ab=ab)

    @classmethod
    def from_tridiagonal(cls, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> "BandedMatrix":
        n = len(diag)
        ab = np.zeros((3, n))
        ab[0, 1:] = upper
        ab[1, :] = diag
        ab[2, :-1] = lower
        return cls(n=n, kl=1, ku=1, ab=ab)

    def to_dense(self) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        for d in range(-self.kl, self.ku + 1):
            if d >= 0:
                m += np.diag(self.ab[self.ku - d, d:], d)
            else:
                m += np.diag(self.ab[self.ku - d, : self.n + d], d)
        return m


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
    (gbtrf,) = get_lapack_funcs(("gbtrf",), (full,))
    lu, ipiv, info = gbtrf(full, kl, ku)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to banded factorization")
    if info > 0:
        raise SingularMatrixError(
            f"exactly singular: zero pivot at position {info - 1}", 0.0, info - 1
        )
    pivots = np.abs(lu[kl + ku, :])
    worst = int(np.argmin(pivots))
    if pivots[worst] < PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"numerically singular: pivot {lu[kl + ku, worst]:.3e} at position {worst} "
            f"(threshold {PIVOT_RTOL * scale:.3e})",
            float(lu[kl + ku, worst]),
            worst,
        )
    return BandedFactorization(n=n, kl=kl, ku=ku, lu=lu, ipiv=ipiv)


def solve_banded(fact: BandedFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve (original matrix) x = rhs using the stored factorization."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (fact.n,):
        raise ValueError(f"expected rhs of length {fact.n}, got shape {rhs.shape}")
    (gbtrs,) = get_lapack_funcs(("gbtrs",), (fact.lu, rhs))
    x, info = gbtrs(fact.lu, fact.kl, fact.ku, rhs, fact.ipiv)
    if info != 0:
        raise ValueError(f"banded solve failed with info={info}")
    return x


def matrix_exponential(op: BlockOperator, k: float) -> np.ndarray:
    """e^{M k} as a dense matrix; validation oracle for small systems only."""
    if op.size > ORACLE_MAX_SIZE:
        raise ValueError(
            f"oracle limited to systems of size {ORACLE_MAX_SIZE}, got {op.size}"
        )
    return expm(k * op.to_dense())


def spectral_radius(
    apply,
    n: int,
    seed: int | None = 0,
    tol: float = 1e-6,
    max_iter: int = 10000,
) -> float:
    """Dominant eigenvalue magnitude of a linear map on R^n.

    Power iteration with a random start. Each step least-squares fits the
    two-term recurrence x_{k+1} = alpha x_k + beta x_{k-1}, resolving a
    dominant complex pair (or a defective double eigenvalue) as the root
    modulus of mu^2 - alpha mu - beta; the fit counts as converged only
    while its residual is negligible. If the fit never settles (three or
    more eigenvalue clusters of nearly equal modulus), the run completes
    max_iter steps, reports non-convergence as a RuntimeWarning (not an
    error) and returns the geometric-mean growth rate of the late iterates,
    which the warning makes explicit.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    v = np.asarray(apply(u), dtype=float)
    a = np.linalg.norm(v)
    if a == 0.0:
        return 0.0
    v_hat = v / a
    log_growth = [np.log(a)]
    estimate = a
    stable = 0
    for _ in range(max_iter):
        w = np.asarray(apply(v_hat), dtype=float)
        b = np.linalg.norm(w)
        if b == 0.0:
            return 0.0
        log_growth.append(np.log(b))
        w_hat = w / b
        # least squares for x2 = alpha x1 + beta x0 with
        # x0 = u, x1 = a v_hat, x2 = a b w_hat  (||x2|| = a b)
        cols = np.stack([a * v_hat, u], axis=1)
        target = a * b * w_hat
        sol, _, _, _ = np.linalg.lstsq(cols, target, rcond=None)
        resid = np.linalg.norm(target - cols @ sol) / (a * b)
        roots = np.roots([1.0, -sol[0], -sol[1]])
        rho = float(np.max(np.abs(roots)))
        if resid <= 1e-8 and abs(rho - estimate) <= tol * max(rho, np.finfo(float).tiny):
            stable += 1
            if stable >= 3:
                return rho
        else:
            stable = 0
        estimate = rho
        u, v_hat, a = v_hat, w_hat, b
    tail = log_growth[len(log_growth) // 2 :]
    geo = float(np.exp(np.mean(tail)))
    warnings.warn(
        f"power iteration did not converge to rtol={tol} within {max_iter} "
        f"iterations (near-tied dominant moduli); returning the late-window "
        f"geometric growth rate {geo:.9e}",
        RuntimeWarning,
        stacklevel=2,
    )
    return geo
