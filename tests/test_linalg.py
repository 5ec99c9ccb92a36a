import math

import numpy as np
import pytest
import scipy.linalg

from dampwave.linalg import BandedMatrix, SingularMatrixError, lu_factor_banded, solve_banded
from dampwave.operators import assemble_system, build_grid
from dampwave.problems import sample_problem
from dampwave.schemes import amplify, config_for, make_stepper
from dampwave.stability import implicit_amplification

from oracles import (
    SPECTRAL_MAX_SIZE,
    banded_to_dense,
    matrix_exponential,
    operator_to_dense,
    spectral_radius,
)


def random_banded(rng, n, kl, ku):
    dense = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - kl), min(n, i + ku + 1)):
            dense[i, j] = rng.standard_normal()
    dense[np.arange(n), np.arange(n)] = np.abs(dense).sum(axis=1) + 1.0
    return dense


def banded(dense):
    """Band storage of a square dense matrix, kl and ku trimmed to its nonzero diagonals."""
    n = len(dense)
    offsets = [d for d in range(1 - n, n) if np.diagonal(dense, d).any()] or [0]
    kl, ku = max(0, -min(offsets)), max(0, max(offsets))
    ab = np.zeros((kl + ku + 1, n))
    for d in range(-kl, ku + 1):
        ab[ku - d, max(d, 0) : n + min(d, 0)] = np.diagonal(dense, d)
    return BandedMatrix(n=n, kl=kl, ku=ku, ab=ab)


class TestBandedMatrix:
    def test_from_dense_detects_bandwidth(self):
        rng = np.random.default_rng(1)
        dense = random_banded(rng, 9, 3, 2)
        assert (banded(dense).kl, banded(dense).ku) == (3, 2)
        assert banded_to_dense(banded(dense)) == pytest.approx(dense, abs=0)
        assert (banded(np.eye(4)).kl, banded(np.eye(4)).ku) == (0, 0)

    def test_from_tridiagonal(self):
        banded = BandedMatrix.from_tridiagonal(
            lower=np.array([1.0, 2.0]), diag=np.array([5.0, 6.0, 7.0]), upper=np.array([3.0, 4.0])
        )
        expected = np.array([[5.0, 3.0, 0.0], [1.0, 6.0, 4.0], [0.0, 2.0, 7.0]])
        assert banded_to_dense(banded) == pytest.approx(expected, abs=0)


class TestBandedLU:
    def test_identity(self):
        fact = lu_factor_banded(banded(np.eye(5)))
        rhs = np.arange(5.0)
        assert solve_banded(fact, rhs) == pytest.approx(rhs, abs=0)

    def test_tridiagonal_round_trip(self):
        n = 4
        dense = np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        rhs = dense @ x
        fact = lu_factor_banded(banded(dense))
        assert solve_banded(fact, rhs) == pytest.approx(x, abs=1e-12)

    def test_singular_matrix(self):
        with pytest.raises(SingularMatrixError):
            lu_factor_banded(banded(np.array([[1.0, 1.0], [1.0, 1.0]])))

    def test_size_one(self):
        fact = lu_factor_banded(banded(np.array([[2.0]])))
        assert solve_banded(fact, np.array([6.0])) == pytest.approx([3.0], abs=0)

    def test_zero_rhs(self):
        rng = np.random.default_rng(3)
        dense = random_banded(rng, 6, 1, 1)
        fact = lu_factor_banded(banded(dense))
        assert solve_banded(fact, np.zeros(6)) == pytest.approx(np.zeros(6), abs=0)

    def test_random_tridiagonal_residual(self):
        rng = np.random.default_rng(4)
        dense = random_banded(rng, 50, 1, 1)
        fact = lu_factor_banded(banded(dense))
        rhs = rng.standard_normal(50)
        x = solve_banded(fact, rhs)
        assert np.linalg.norm(dense @ x - rhs) < 1e-11 * np.linalg.norm(rhs)

    def test_factor_solve_sweep(self):
        # diagonally dominant banded systems up to n=100, bandwidth <= 5
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 101))
            kl = int(rng.integers(0, min(6, n)))
            ku = int(rng.integers(0, min(6, n)))
            dense = random_banded(rng, n, kl, ku)
            fact = lu_factor_banded(banded(dense))
            b = rng.standard_normal(n)
            x = solve_banded(fact, b)
            assert np.linalg.norm(dense @ x - b) < 1e-10 * np.linalg.norm(b)

    def test_dimension_mismatch(self):
        fact = lu_factor_banded(banded(np.eye(4)))
        with pytest.raises(ValueError):
            solve_banded(fact, np.zeros(5))


class TestMatrixExponential:
    def test_zero_step_is_identity(self):
        op = assemble_system(build_grid(0.0, math.pi, 6), sample_problem())
        assert matrix_exponential(op, 0.0) == pytest.approx(np.eye(op.size), abs=0)

    def test_semigroup_law(self):
        op = assemble_system(build_grid(0.0, math.pi, 6), sample_problem())
        t, k = 0.3, 0.2
        left = matrix_exponential(op, t + k)
        right = matrix_exponential(op, t) @ matrix_exponential(op, k)
        assert np.linalg.norm(left - right) < 1e-10

    def test_semigroup_law_sweep(self):
        op = assemble_system(build_grid(0.0, math.pi, 5), sample_problem())
        norm_m = np.linalg.norm(operator_to_dense(op), 1)
        rng = np.random.default_rng(6)
        for _ in range(10):
            t, k = rng.uniform(0.01, 5.0 / norm_m, size=2)
            left = matrix_exponential(op, t + k)
            right = matrix_exponential(op, t) @ matrix_exponential(op, k)
            assert np.linalg.norm(left - right) < 1e-9

    def test_against_scipy(self):
        op = assemble_system(build_grid(0.0, math.pi, 8), sample_problem())
        for k in (0.05, 0.3, 1.0):
            ours = matrix_exponential(op, k)
            ref = scipy.linalg.expm(k * operator_to_dense(op))
            scale = np.linalg.norm(ref)
            assert np.linalg.norm(ours - ref) <= 1e-12 * scale

    def test_rejects_oversize(self):
        op = assemble_system(build_grid(0.0, math.pi, 200), sample_problem())
        with pytest.raises(ValueError, match="oracle"):
            matrix_exponential(op, 0.1)


class TestSpectralRadius:
    def test_identity_map(self):
        assert spectral_radius(lambda v: v, 5) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal_map(self):
        d = np.array([0.5, -0.9])
        rho = spectral_radius(lambda v: d * v, 2)
        assert rho == pytest.approx(0.9, rel=1e-12)

    def test_nilpotent_map(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert spectral_radius(lambda v: a @ v, 2) == 0.0

    def test_known_spectrum_conjugated(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = int(rng.integers(3, 9))
            eigs = rng.uniform(-2.0, 2.0, size=n)
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            a = q @ np.diag(eigs) @ q.T
            rho = spectral_radius(lambda v: a @ v, n)
            assert rho == pytest.approx(np.abs(eigs).max(), rel=1e-12)

    def test_complex_pair(self):
        # rotation scaled by 0.8: eigenvalues 0.8 e^{+-i}
        c, s = math.cos(1.0), math.sin(1.0)
        a = 0.8 * np.array([[c, -s], [s, c]])
        rho = spectral_radius(lambda v: a @ v, 2)
        assert rho == pytest.approx(0.8, rel=1e-12)

    def test_defective_double_eigenvalue(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        rho = spectral_radius(lambda v: a @ v, 2)
        assert rho == pytest.approx(1.0, rel=1e-12)

    def test_skewed_equal_modulus_pairs(self):
        # four eigenvalues of equal modulus at distinct angles under a skewed
        # similarity, which a power iteration cannot resolve
        rng = np.random.default_rng(0)
        q = scipy.linalg.block_diag(
            [[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]],
            [[math.cos(2.1), -math.sin(2.1)], [math.sin(2.1), math.cos(2.1)]],
        )
        s = np.eye(4) + 0.9 * rng.standard_normal((4, 4))
        a = s @ q @ np.linalg.inv(s)
        rho = spectral_radius(lambda v: a @ v, 4)
        assert rho == pytest.approx(1.0, rel=1e-12)

    def test_equal_modulus_families(self):
        # three angle families, all on the unit circle
        q3 = scipy.linalg.block_diag(
            *[
                [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
                for t in (0.5, 1.3, 2.6)
            ]
        )
        rho = spectral_radius(lambda v: q3 @ v, 6)
        assert rho == pytest.approx(1.0, rel=1e-12)

    def test_one_application_per_unknown(self):
        calls = []
        spectral_radius(lambda v: calls.append(v) or 2.0 * v, 7)
        assert len(calls) == 7

    def test_size_bound(self):
        with pytest.raises(ValueError, match=f"{SPECTRAL_MAX_SIZE}, got {SPECTRAL_MAX_SIZE + 1}"):
            spectral_radius(lambda v: v, SPECTRAL_MAX_SIZE + 1)

    def test_implicit_amplification_map(self):
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 10)
        op = assemble_system(grid, problem)
        stepper = make_stepper(config_for("fd11", 0.05), op, grid, problem)
        rho = spectral_radius(lambda v: amplify(stepper, v[:, None])[:, 0], op.size)
        assert rho <= 1.0 + 1e-8
        analytic = implicit_amplification(10, math.pi / 10, 0.05, 2.0).max_modulus
        assert rho == pytest.approx(analytic, rel=1e-10)
