import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from dampwave import linalg, schemes
from dampwave.linalg import (
    BandedFactorization,
    BandedMatrix,
    SingularMatrixError,
    TridiagonalFactorization,
    factor_spd_tridiagonal,
    lu_factor_banded,
    solve_banded,
)
from dampwave.operators import assemble_system, build_grid
from dampwave.pade import apply_poly, pade_coefficients
from dampwave.problems import sample_problem
from dampwave.schemes import (
    TRIDIAGONAL_MIN_N, StateVector, config_for, make_stepper, step_semigroup,
)
from dampwave.stability import implicit_amplification

from oracles import (
    SPECTRAL_MAX_SIZE,
    banded_to_dense,
    matrix_exponential,
    operator_to_dense,
    spectral_radius,
)
from oracles import replay_interchanges as replay_oracle

GBTRF, GBTRS, PTTRS = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs", "pttrs"), dtype=np.float64)


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


class TestTridiagonalLDL:
    @staticmethod
    def dense(diag, off):
        return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)

    def test_solves_an_spd_system(self):
        rng = np.random.default_rng(8)
        n = 300
        off = rng.uniform(-1.0, 1.0, n - 1)
        diag = rng.uniform(0.0, 0.1, n) + 2.0 * np.abs(np.concatenate(([0.0], off)))
        diag += 2.0 * np.abs(np.concatenate((off, [0.0])))
        inputs = diag.copy(), off.copy()
        fact = factor_spd_tridiagonal(diag, off)
        rhs = rng.standard_normal(n)
        x = solve_banded(fact, rhs)
        assert np.linalg.norm(self.dense(diag, off) @ x - rhs) < 1e-12 * np.linalg.norm(rhs)
        assert np.array_equal(diag, inputs[0]) and np.array_equal(off, inputs[1])

    def test_an_indefinite_matrix_raises(self):
        # [[1, 2, 0], [2, 1, 1], [0, 1, 3]]: the second pivot is 1 - 4 = -3
        with pytest.raises(SingularMatrixError, match="not positive definite"):
            factor_spd_tridiagonal(np.array([1.0, 1.0, 3.0]), np.array([2.0, 1.0]))

    def test_a_tiny_pivot_raises(self):
        # the second pivot, (1 + 1e-15) - 1, is below PIVOT_RTOL times the largest entry
        with pytest.raises(SingularMatrixError, match="numerically singular"):
            factor_spd_tridiagonal(np.array([1.0, 1.0 + 1e-15, 1.0]), np.array([1.0, 0.0]))

    def test_non_finite_entries_solve_to_a_non_finite_state(self):
        # an overflowed system is a blow-up for the time loop, not a singular matrix
        fact = factor_spd_tridiagonal(np.full(4, math.inf), np.full(3, -math.inf))
        assert not np.isfinite(solve_banded(fact, np.ones(4))).any()

    def test_dimension_mismatch(self):
        fact = factor_spd_tridiagonal(np.full(4, 2.0), np.full(3, -1.0))
        with pytest.raises(ValueError):
            solve_banded(fact, np.zeros(5))


def sample_factors(name, orders, N, r):
    """(matrix, factor) for each system a solve of the sample problem at k = r h factors, as
    make_stepper factors it: Q_S's band or a Schur finish's complement (diag, off) for
    fdST, and for oifd its ghost start's left-hand side, then its step's."""
    grid = build_grid(0.0, math.pi, N)
    problem = sample_problem()
    config = config_for(name, r * grid.h, orders)
    made, band, tri = [], linalg.lu_factor_banded, linalg.factor_spd_tridiagonal
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "lu_factor_banded",
                      lambda m: made.append((m, band(m))) or made[-1][1])
        patch.setattr(linalg, "factor_spd_tridiagonal",
                      lambda d, e: made.append(((d.copy(), e.copy()), tri(d, e))) or made[-1][1])
        make_stepper(config, assemble_system(grid, problem), grid, problem)
    assert len(made) == (2 if name == "oifd" else 1)
    return made


def tridiagonal_to_dense(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


# every implicit scheme: each (S, T) with S >= 1, and oifd (its step and its ghost start)
IMPLICIT = [("fdST", (S, T)) for S in range(1, 5) for T in range(5)] + [("oifd", None)]


def gbtrs_bytes(fact, rhs):
    return GBTRS(fact.lu, fact.kl, fact.ku, rhs, fact.ipiv)[0].tobytes()


def pttrs_bytes(fact, rhs):
    return PTTRS(fact.d, fact.e, rhs)[0].tobytes()


def check_solves_against_gbtrs(name, orders, solves=50):
    """Each factor of a sample solve at N = 40 and 300 and r = 0.016, 0.5, 3 and 9 solves
    random right-hand sides, every fifth with exact zeros of either sign. A banded one, S >= 2
    or below TRIDIAGONAL_MIN_N interior nodes, gives gbtrs's bytes; from TRIDIAGONAL_MIN_N
    nodes a (1, T) or oifd one is LDL^T and leaves a residual within 1e-12 |T| |x|."""
    rng = np.random.default_rng(17)
    for N, r in [(N, r) for N in (40, 300) for r in (0.016, 0.5, 3.0, 9.0)]:
        stays = N - 1 < TRIDIAGONAL_MIN_N or (name == "fdST" and orders[0] >= 2)
        for matrix, fact in sample_factors(name, orders, N, r):
            assert isinstance(fact, BandedFactorization if stays else TridiagonalFactorization)
            dense = None if stays else tridiagonal_to_dense(*matrix)
            for i in range(solves):
                rhs = rng.standard_normal(fact.n)
                if i % 5 == 0:
                    rhs[rng.integers(0, fact.n, 8)] = rng.choice([0.0, -0.0], 8)
                x = solve_banded(fact, rhs)
                if stays:
                    assert x.tobytes() == gbtrs_bytes(fact, rhs), (N, r)
                else:
                    bound = 1e-12 * np.abs(dense).sum(axis=1).max() * np.abs(x).max()
                    assert np.abs(dense @ x - rhs).max() <= bound, (N, r)


# the OpenBLAS core types whose kernels differ, with the CPU flags each needs
CORE_TYPE_FLAGS = {"Prescott": {"pni"}, "Nehalem": {"sse4_2"}, "SandyBridge": {"avx"},
                   "Haswell": {"avx2", "fma"}, "SkylakeX": {"avx512f", "avx512bw", "avx512vl"}}


def cpu_flags():
    try:
        with open("/proc/cpuinfo") as fh:
            return next(set(line.split(":", 1)[1].split()) for line in fh
                        if line.startswith("flags"))
    except (OSError, StopIteration):
        return set()


class TestSweepSolve:
    """The solves of the implicit steps on small and large grids, which band sweeps once
    served from 256 unknowns: S >= 2, and every system below TRIDIAGONAL_MIN_N interior
    nodes, solve Q_S's band by gbtrs, byte for byte; from TRIDIAGONAL_MIN_N nodes a (1, T)
    member's resolvent and oifd's left-hand sides solve by LDL^T (TestTridiagonalPath in
    test_schemes checks those steps against a dense solve)."""

    @pytest.mark.parametrize("name,orders", IMPLICIT, ids=lambda v: str(v).replace(" ", ""))
    def test_solves_give_the_bytes_of_gbtrs(self, name, orders):
        check_solves_against_gbtrs(name, orders)

    @pytest.mark.skipif(platform.machine() != "x86_64", reason="x86-64 OpenBLAS core types")
    @pytest.mark.parametrize("core", sorted(CORE_TYPE_FLAGS))
    def test_solves_give_the_bytes_of_gbtrs_on_each_openblas_core_type(self, core):
        # OPENBLAS_CORETYPE picks the kernels when the library loads: a fresh process each
        if not CORE_TYPE_FLAGS[core] <= cpu_flags():
            pytest.skip(f"this CPU cannot run OpenBLAS's {core} kernels")
        code = ("from test_linalg import IMPLICIT, check_solves_against_gbtrs\n"
                "for name, orders in IMPLICIT: check_solves_against_gbtrs(name, orders, 10)")
        env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=os.pathsep.join(sys.path))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, run.stderr[-2000:]

    def test_too_wide_a_replay_stays_on_gbtrs(self):
        # Q_4 at N = 300, r = 9: its interchanges widen L' to 51 diagonals, ten times the
        # band's kl, and an S >= 2 system stays on gbtrs at any size
        ((_, fact),) = sample_factors("fdST", (4, 0), 300, 9.0)
        assert isinstance(fact, BandedFactorization)
        assert len(replay_oracle(fact.lu, fact.ipiv, fact.kl, fact.ku)[1]) > 5 * fact.kl
        rng = np.random.default_rng(23)
        for _ in range(3):
            rhs = rng.standard_normal(fact.n)
            assert solve_banded(fact, rhs).tobytes() == gbtrs_bytes(fact, rhs)

    @pytest.mark.parametrize("name,orders,N,r", [
        ("fdST", (4, 4), 300, 3.0),  # a position pulled up three times
        ("fd11", None, 3200, 0.5),  # the last position pulled up twice
    ])
    def test_positions_pulled_up_more_than_once(self, name, orders, N, r):
        # gbtrs solves Q_S's band however often its interchanges move a row: (4, 4)'s step
        # is that solve, byte for byte, and fd11's LDL^T step agrees with it to 1e-12
        grid = build_grid(0.0, math.pi, N)
        problem = sample_problem()
        op, k = assemble_system(grid, problem), r * grid.h
        config = config_for(name, k, orders)
        approx = pade_coefficients(*config.orders)
        fact = lu_factor_banded(schemes._banded_poly(approx.q_floats, op, k))
        moved = fact.ipiv[fact.ipiv != np.arange(fact.n)]
        assert np.bincount(moved).max() > 1
        stepper = make_stepper(config, op, grid, problem)
        perm = np.arange(op.size).reshape(2, -1).T.ravel()  # (u_1, w_1, u_2, w_2, ...)
        rng = np.random.default_rng(18)
        for _ in range(5):
            v = rng.standard_normal((op.size, 1))
            want = apply_poly(approx.p_floats, stepper.op, k, v)()[:, 0]
            want[perm] = GBTRS(fact.lu, fact.kl, fact.ku, want[perm], fact.ipiv)[0]
            got = step_semigroup(stepper, StateVector(0.0, v)).values[:, 0]  # R(kM) v: F = 0
            if approx.S >= 2:
                assert got.tobytes() == want.tobytes()
            else:
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_the_oracle_replay_refactors_the_matrix(self):
        # a pivoting band matrix: P A = L' U with L' from the replay and U from gbtrf
        rng = np.random.default_rng(19)
        dense = random_banded(rng, 30, 3, 2)
        dense[np.arange(30), np.arange(30)] = 0.1
        fact = lu_factor_banded(banded(dense))
        assert (fact.ipiv != np.arange(30)).any()
        perm, lower = replay_oracle(fact.lu, fact.ipiv, fact.kl, fact.ku)
        unit_lower = np.eye(30)
        for d in range(1, len(lower)):
            unit_lower += np.diag(lower[d, : 30 - d], -d)
        upper = np.zeros((30, 30))
        for d in range(fact.kl + fact.ku + 1):
            upper += np.diag(fact.lu[fact.kl + fact.ku - d, d:], d)
        assert unit_lower @ upper == pytest.approx(dense[perm], abs=1e-12)

    @pytest.mark.parametrize("name,orders,r", [("fd11", None, 9.0), ("fdST", (4, 4), 3.0),
                                               ("oifd", None, 9.0)])
    def test_non_finite_results_are_gbtrs_bytes(self, name, orders, r):
        # an overflowing, infinite or NaN right-hand side solves, unraised, to LAPACK's
        # bytes, gbtrs's for (4, 4) and pttrs's for fd11's and oifd's LDL^T at N = 300, and
        # a non-finite one to a non-finite state, which the time loop reports as a blow-up
        rng = np.random.default_rng(20)
        for _, fact in sample_factors(name, orders, 300, r):
            lapack = gbtrs_bytes if isinstance(fact, BandedFactorization) else pttrs_bytes
            for i in range(30):
                rhs = rng.uniform(-1.0, 1.0, fact.n) * 10.0 ** rng.uniform(300, 308)  # may overflow
                if i % 2:
                    rhs[rng.integers(fact.n)] = (math.inf, -math.inf, math.nan)[i % 3]
                x = solve_banded(fact, rhs)
                assert x.tobytes() == lapack(fact, rhs)
                assert i % 2 == 0 or not np.isfinite(x).all()

    def test_a_factor_without_multipliers(self):
        # kl = 0: no interchanges and an L' of the diagonal alone; signed zeros solve
        # to gbtrs's bytes
        rng = np.random.default_rng(22)
        fact = lu_factor_banded(banded(random_banded(rng, 300, 0, 2)))
        for _ in range(5):
            rhs = rng.choice([0.0, -0.0, 1.5, -2.5], 300)
            assert solve_banded(fact, rhs).tobytes() == gbtrs_bytes(fact, rhs)
        perm, lower = replay_oracle(fact.lu, fact.ipiv, fact.kl, fact.ku)
        assert np.array_equal(fact.ipiv, np.arange(300))
        assert np.array_equal(perm, np.arange(300)) and lower.shape == (1, 300)

    def test_the_replay_waits_for_the_second_large_solve(self, monkeypatch):
        # set-up factors each system once and solves only oifd's ghost start, once; a
        # large factor solves a right-hand side to pttrs's bytes from its first solve on
        solved, solve = [], linalg.solve_banded
        monkeypatch.setattr(linalg, "solve_banded", lambda f, b: solved.append(f) or solve(f, b))
        (_, ghost), (_, step) = sample_factors("oifd", None, 800, 0.5)
        ((_, q_fact),) = sample_factors("fd11", None, 800, 0.5)
        assert len(solved) == 1 and solved[0] is ghost
        rhs = np.ones(q_fact.n)
        first = solve(q_fact, rhs)
        assert first.tobytes() == pttrs_bytes(q_fact, rhs)
        for _ in range(2):
            assert solve(q_fact, rhs).tobytes() == first.tobytes()

    def test_small_factors_stay_on_gbtrs(self):
        # below TRIDIAGONAL_MIN_N interior nodes every implicit system is a banded LU
        for name in ("fd11", "oifd"):
            for N, kind in [(TRIDIAGONAL_MIN_N, BandedFactorization),
                            (TRIDIAGONAL_MIN_N + 1, TridiagonalFactorization)]:
                assert all(isinstance(fact, kind) for _, fact in sample_factors(name, None, N, 0.5))

    def test_factorization_in_place_matches_gbtrf_on_a_copy(self):
        # gbtrf on its Fortran-ordered work array in place, the lu and ipiv that f2py's
        # copy of a C-ordered one gives
        rng = np.random.default_rng(21)
        for kl, ku in [(3, 1), (5, 4), (1, 1), (0, 2)]:
            matrix = banded(random_banded(rng, 400, kl, ku))
            full = np.zeros((2 * kl + ku + 1, 400))
            full[kl:] = matrix.ab
            lu, ipiv, _ = GBTRF(full, kl, ku)
            fact = lu_factor_banded(matrix)
            assert fact.lu.flags.f_contiguous
            assert fact.lu.tobytes() == lu.tobytes() and np.array_equal(fact.ipiv, ipiv)


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
        rho = spectral_radius(  # F = 0: a step is R(kM) v
            lambda v: step_semigroup(stepper, StateVector(0.0, v[:, None])).values[:, 0].copy(),
            op.size)
        assert rho <= 1.0 + 1e-8
        analytic = implicit_amplification(10, math.pi / 10, 0.05, 2.0).max_modulus
        assert rho == pytest.approx(analytic, rel=1e-10)
