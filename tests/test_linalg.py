import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from dampwave import linalg
from dampwave.linalg import (
    SWEEP_MAX_WIDTH,
    SWEEP_MIN_N,
    BandedMatrix,
    SingularMatrixError,
    lu_factor_banded,
    replay_interchanges,
    solve_banded,
)
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
from oracles import replay_interchanges as replay_oracle

GBTRF, GBTRS = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), dtype=np.float64)


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


def sample_factors(name, orders, N, r):
    """The banded factors a solve of the sample problem at k = r h makes: Q_S's for fdST,
    and for oifd its step's and its ghost start's, caught as make_stepper solves with it."""
    grid = build_grid(0.0, math.pi, N)
    problem = sample_problem()
    config = config_for(name, r * grid.h, orders)
    solved, solve = [], linalg.solve_banded
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "solve_banded", lambda f, b: solved.append(f) or solve(f, b))
        (member,) = make_stepper(config, assemble_system(grid, problem), grid, problem).members
    assert name == "oifd" or not solved
    return [member.finish, *solved]


# every implicit scheme: each (S, T) with S >= 1, and oifd (its step and its ghost start)
IMPLICIT = [("fdST", (S, T)) for S in range(1, 5) for T in range(5)] + [("oifd", None)]


def gbtrs_bytes(fact, rhs):
    return GBTRS(fact.lu, fact.kl, fact.ku, rhs, fact.ipiv)[0].tobytes()


def check_solves_against_gbtrs(name, orders, solves=50):
    """Each factor of a sample solve at N = 40 and 300 and r = 0.016, 0.5, 3 and 9 solves
    random right-hand sides, every fifth with exact zeros of either sign, to gbtrs's bytes;
    from its second solve on, one with n >= SWEEP_MIN_N sweeps unless L' is too wide."""
    rng = np.random.default_rng(17)
    for N, r in [(N, r) for N in (40, 300) for r in (0.016, 0.5, 3.0, 9.0)]:
        for fact in sample_factors(name, orders, N, r):
            for i in range(solves):
                rhs = rng.standard_normal(fact.n)
                if i % 5 == 0:
                    rhs[rng.integers(0, fact.n, 8)] = rng.choice([0.0, -0.0], 8)
                assert solve_banded(fact, rhs).tobytes() == gbtrs_bytes(fact, rhs), (N, r)
            if fact.n < SWEEP_MIN_N:
                assert fact.sweeps == []
            else:
                narrow = len(replay_interchanges(fact)[1]) <= SWEEP_MAX_WIDTH + 1
                assert len(fact.sweeps[0]) == (2 if narrow else 0)


# the OpenBLAS core types whose daxpy kernels differ, with the CPU flags each needs
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
    """From its second solve on, a factor with n >= SWEEP_MIN_N solves by the gather and
    two band sweeps of its replayed interchanges; every result is gbtrs's, byte for byte."""

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
        (fact,) = sample_factors("fdST", (4, 0), 300, 9.0)
        assert len(replay_interchanges(fact)[1]) > SWEEP_MAX_WIDTH + 1
        rng = np.random.default_rng(23)
        for _ in range(3):
            rhs = rng.standard_normal(fact.n)
            assert solve_banded(fact, rhs).tobytes() == gbtrs_bytes(fact, rhs)
        assert fact.sweeps == [()]

    @pytest.mark.parametrize("name,orders,N,r", [
        ("fdST", (4, 4), 300, 3.0),  # a position pulled up three times
        ("fd11", None, 3200, 0.5),  # the last position pulled up twice
    ])
    def test_positions_pulled_up_more_than_once(self, name, orders, N, r):
        (fact,) = sample_factors(name, orders, N, r)
        moved = fact.ipiv[fact.ipiv != np.arange(fact.n)]
        assert np.bincount(moved).max() > 1
        rng = np.random.default_rng(18)
        for _ in range(50):
            rhs = rng.standard_normal(fact.n)
            assert solve_banded(fact, rhs).tobytes() == gbtrs_bytes(fact, rhs)
        assert fact.sweeps[0]

    @pytest.mark.parametrize("name,orders", IMPLICIT, ids=lambda v: str(v).replace(" ", ""))
    def test_replay_equals_the_one_step_at_a_time_replay(self, name, orders):
        for N, r in [(40, 0.5), (300, 0.016), (300, 3.0), (300, 9.0)]:
            for fact in sample_factors(name, orders, N, r):
                perm, lower = replay_interchanges(fact)
                want_perm, want_lower = replay_oracle(fact.lu, fact.ipiv, fact.kl, fact.ku)
                assert np.array_equal(perm, want_perm)
                assert lower.shape == want_lower.shape and lower.tobytes() == want_lower.tobytes()
                assert lower.flags.f_contiguous

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
        # an inf or NaN meeting a zero slot of the sweeps turns NaN, so those results
        # come from gbtrs: a diverging run's last level does not depend on the form
        rng = np.random.default_rng(20)
        fact = sample_factors(name, orders, 300, r)[0]
        solve_banded(fact, np.zeros(fact.n))  # the first solve, which is gbtrs's
        for i in range(30):
            rhs = rng.uniform(-1.0, 1.0, fact.n) * 10.0 ** rng.uniform(300, 308)  # may overflow
            if i % 2:
                rhs[rng.integers(fact.n)] = (math.inf, -math.inf, math.nan)[i % 3]
            x = solve_banded(fact, rhs)
            assert x.tobytes() == gbtrs_bytes(fact, rhs)
            assert i % 2 == 0 or not np.isfinite(x).all()
        assert fact.sweeps[0]

    def test_a_factor_without_multipliers(self):
        # kl = 0: no interchanges, and a lower sweep of width 0 that keeps signed zeros
        rng = np.random.default_rng(22)
        fact = lu_factor_banded(banded(random_banded(rng, 300, 0, 2)))
        for _ in range(5):
            rhs = rng.choice([0.0, -0.0, 1.5, -2.5], 300)
            assert solve_banded(fact, rhs).tobytes() == gbtrs_bytes(fact, rhs)
        perm, lower = fact.sweeps[0]
        assert np.array_equal(perm, np.arange(300)) and lower.shape == (1, 300)

    def test_the_replay_waits_for_the_second_large_solve(self, monkeypatch):
        # set-up (lu_factor_banded, make_stepper and the oifd ghost start's one solve
        # in it) never replays; a factor's first large solve is gbtrs's
        replays = []
        monkeypatch.setattr(linalg, "replay_interchanges",
                            lambda f: replays.append(f) or replay_interchanges(f))
        step, ghost = sample_factors("oifd", None, 800, 0.5)
        (q_fact,) = sample_factors("fd11", None, 800, 0.5)
        assert (step.sweeps, ghost.sweeps, q_fact.sweeps, replays) == ([], [None], [], [])
        rhs = np.ones(q_fact.n)
        first = solve_banded(q_fact, rhs)
        assert q_fact.sweeps == [None] and not replays
        assert solve_banded(q_fact, rhs).tobytes() == first.tobytes()
        solve_banded(q_fact, rhs)
        assert replays == [q_fact]

    def test_small_factors_stay_on_gbtrs(self):
        (fact,) = sample_factors("fd11", None, SWEEP_MIN_N // 2 - 1, 0.5)
        assert fact.n < SWEEP_MIN_N
        for _ in range(3):
            solve_banded(fact, np.ones(fact.n))
        assert fact.sweeps == []

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
        rho = spectral_radius(lambda v: amplify(stepper, v[:, None])[:, 0], op.size)
        assert rho <= 1.0 + 1e-8
        analytic = implicit_amplification(10, math.pi / 10, 0.05, 2.0).max_modulus
        assert rho == pytest.approx(analytic, rel=1e-10)
