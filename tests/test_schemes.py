import dataclasses
import functools
import json
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dampwave.harness import error_profile
from dampwave.operators import (
    assemble_system, boundary_vector, build_grid, forcing_vector, second_difference,
)
from dampwave.pade import apply_poly, pade_coefficients
from dampwave.problems import (
    DampedWaveProblem, ExpressionError, load_problem_config, sample_problem, time_free,
)
from dampwave import schemes
from dampwave.schemes import (
    CHECK_EVERY,
    SchemeConfig,
    StateVector,
    config_for,
    make_stepper,
    solve_evolution,
    startup_u1,
    step_oefd,
    step_oifd,
    step_semigroup,
    _banded_poly,
    _interleaved_kM,
)

from oracles import (
    banded_to_dense, dense_amplification, dense_oifd_step, eval_scalar, matrix_exponential,
    operator_to_dense, semidiscrete_solution, solve_checking_every_level,
    solve_group_every_level,
)


def plain_problem(**kw):
    defaults = dict(
        domain=(0.0, math.pi),
        gamma=lambda x: 2.0,
        g=lambda x, t: 0.0,
        phi=lambda x: math.sin(x),
        psi=lambda x: -math.sin(x),
        u_a=lambda t: 0.0,
        u_b=lambda t: 0.0,
        exact=lambda x, t: math.exp(-t) * math.sin(x),
    )
    defaults.update(kw)
    return DampedWaveProblem(**defaults)


class TestSchemeConfig:
    def test_labels(self):
        assert config_for("fd01", 0.1).label == "fd01"
        assert config_for("fd11", 0.1).label == "fd11"
        assert config_for("fdST", 0.1, (2, 2)).label == "fd22"
        assert config_for("oefd", 0.1).label == "oefd"

    def test_validation(self):
        with pytest.raises(ValueError):
            SchemeConfig("semigroup", k=0.1)  # missing orders
        with pytest.raises(ValueError):
            SchemeConfig("semigroup", k=-0.1, orders=(1, 1))
        with pytest.raises(ValueError):
            SchemeConfig("semigroup", k=0.1, orders=(9, 1))
        with pytest.raises(ValueError):
            SchemeConfig("nope", k=0.1)
        with pytest.raises(ValueError):
            config_for("fdST", 0.1)  # fdST needs orders


class TestMakeStepper:
    def test_explicit_needs_no_factorization(self):
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 10)
        op = assemble_system(grid, problem)
        stepper = make_stepper(config_for("fd01", 0.1), op, grid, problem)
        assert stepper.members[0].finish is None

    @pytest.mark.parametrize("N", [10, 23])
    def test_implicit_factorization_succeeds(self, N):
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, N)
        op = assemble_system(grid, problem)
        stepper = make_stepper(config_for("fd11", 0.05), op, grid, problem)
        assert stepper.members[0].finish is not None

    def test_oefd_holds_start_levels(self):
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 10)
        op = assemble_system(grid, problem)
        stepper = make_stepper(config_for("oefd", 0.1), op, grid, problem)
        u0, u1 = stepper.start
        assert (u0.t, u1.t) == (0.0, 0.1)
        assert u0.values[:, 0] == pytest.approx(np.sin(grid.interior_nodes))
        expected = startup_u1(problem, grid, 0.1, op.damping, u0.values[:, 0],
                              -np.sin(grid.interior_nodes))
        assert u1.values[:, 0] == pytest.approx(expected, abs=0)
        assert u1.prev is u0.values

    @pytest.mark.parametrize("name", ["fd11", "oefd", "oifd"])
    def test_phi_sampled_once_per_solve(self, name):
        array_calls = []

        def phi(x):
            if np.ndim(x):
                array_calls.append(len(x))
            return np.sin(x)

        problem = plain_problem(phi=phi)
        solve_evolution(problem, build_grid(0.0, math.pi, 10), (config_for(name, 0.1),), 0.5)
        assert array_calls == [9]


def interleaving(size):
    """The permutation matrix taking (u_1..u_n, w_1..w_n) to (u_1, w_1, u_2, w_2, ...)."""
    return np.eye(size)[np.arange(size).reshape(2, -1).T.ravel()]


@pytest.mark.parametrize("N", [2, 3, 7, 20])
def test_interleaved_kM_is_permuted_dense_operator(N):
    problem = plain_problem(gamma=lambda x: 1.0 + x * x)
    grid = build_grid(0.0, math.pi, N)
    op = assemble_system(grid, problem)
    k = 0.07
    P = interleaving(op.size)
    expected = P @ (k * operator_to_dense(op)) @ P.T
    diags = _interleaved_kM(op, k)
    assert sorted(diags) == [-3, -1, 0, 1]
    got = np.zeros((op.size, op.size))
    rows = np.arange(op.size)
    for d, diag in diags.items():
        inside = (rows + d >= 0) & (rows + d < op.size)
        got[rows[inside], rows[inside] + d] = diag[inside]
        assert not diag[~inside].any()  # entries past the matrix edge stay zero
    assert np.array_equal(got, expected)


def dense_horner(coeffs, x):
    acc = coeffs[-1] * np.eye(len(x))
    for c in reversed(coeffs[:-1]):
        acc = acc @ x + c * np.eye(len(x))
    return acc


@pytest.mark.parametrize("N", [2, 3, 10, 41])
@pytest.mark.parametrize("S, bands", [(1, (3, 1)), (2, (3, 2)), (3, (5, 3)), (4, (5, 4))])
def test_band_assembly_is_dense_horner_polynomial(S, bands, N):
    problem = plain_problem(gamma=lambda x: 0.5 + x * np.cos(x) ** 2)
    grid = build_grid(0.0, math.pi, N)
    op = assemble_system(grid, problem)
    k = 0.3
    coeffs = pade_coefficients(S, S).q_floats
    P = interleaving(op.size)
    expected = dense_horner(coeffs, P @ (k * operator_to_dense(op)) @ P.T)
    banded = _banded_poly(coeffs, op, k)
    if N > 3:  # two or four unknowns cannot hold the full band
        assert (banded.kl, banded.ku) == bands
    got = banded_to_dense(banded)
    assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


def csr_horner_band(coeffs, op, k):
    """Q(kM) in interleaved band storage through scipy.sparse CSR products."""
    P = scipy.sparse.csr_matrix(interleaving(op.size))
    x = (P @ scipy.sparse.csr_matrix(k * operator_to_dense(op)) @ P.T).tocsr()
    eye = scipy.sparse.identity(op.size, format="csr")
    acc = coeffs[-1] * eye
    for c in reversed(coeffs[:-1]):
        acc = acc @ x + c * eye
    coo = acc.tocoo()
    coo.eliminate_zeros()
    kl, ku = max(0, (coo.row - coo.col).max()), max(0, (coo.col - coo.row).max())
    ab = np.zeros((kl + ku + 1, op.size))
    ab[ku + coo.row - coo.col, coo.col] = coo.data
    return kl, ku, ab


@pytest.mark.parametrize("S", [1, 2, 3, 4])
@pytest.mark.parametrize("N", [2, 10, 50])
def test_band_assembly_matches_csr_products_bitwise(S, N):
    problem = plain_problem(gamma=lambda x: 0.5 + x * np.cos(x) ** 2)
    grid = build_grid(0.0, math.pi, N)
    op = assemble_system(grid, problem)
    for k in (0.01, 0.3 * grid.h, 1.7):
        coeffs = pade_coefficients(S, 4 - S // 2).q_floats
        banded = _banded_poly(coeffs, op, k)
        kl, ku, ab = csr_horner_band(coeffs, op, k)
        assert (banded.kl, banded.ku) == (kl, ku)
        assert np.array_equal(banded.ab, ab)


class TestStepSemigroup:
    @pytest.mark.parametrize("scheme", ["fd01", "fd11", "fdST"])
    def test_forcing_evaluated_once_per_time_level(self, scheme, monkeypatch):
        problem = plain_problem(gamma=lambda x: 1.0 + x, g=lambda x, t: np.sin(x) * np.cos(t),
                                exact=None)
        grid = build_grid(0.0, math.pi, 12)
        config = config_for(scheme, 0.01, (2, 2) if scheme == "fdST" else None)
        # reference: every step evaluates both F(t_n) and F(t_{n+1})
        stepper = make_stepper(config, assemble_system(grid, problem), grid, problem)
        (state,) = stepper.start
        rows = [state.values[:, 0]]
        for _ in range(10):
            state = step_semigroup(stepper, dataclasses.replace(state, carry=None))
            rows.append(state.values[:, 0].copy())  # a step's ring slot is written again
        times = []

        def counted(problem, grid, t):
            times.append(t)
            return forcing_vector(problem, grid, t)

        monkeypatch.setattr(schemes, "forcing_vector", counted)
        (traj,) = solve_group_every_level(problem, grid, (config,), 0.1)
        assert len(traj.times) == 11
        assert len(times) == 11 and len(set(times)) == 11
        assert np.array_equal(traj.states, np.array(rows))

    def test_single_node_matches_dense_crank_nicolson(self):
        # 2x2 system from N=2 with nonzero damping, forcing and boundary data
        problem = DampedWaveProblem(
            domain=(0.0, 1.0),
            gamma=lambda x: 1.5,
            g=lambda x, t: x * t + 1.0,
            phi=lambda x: x,
            psi=lambda x: math.cos(x),
            u_a=lambda t: t,
            u_b=lambda t: 1.0 + t,
        )
        grid = build_grid(0.0, 1.0, 2)
        op = assemble_system(grid, problem)
        k = 0.2
        stepper = make_stepper(config_for("fd11", k), op, grid, problem)
        v0 = np.array([problem.phi(0.5), problem.psi(0.5)])
        got = step_semigroup(stepper, StateVector(0.0, v0[:, None]))

        m = operator_to_dense(op)
        eye = np.eye(2)
        f0 = forcing_vector(problem, grid, 0.0)
        f1 = forcing_vector(problem, grid, k)
        rhs = (eye + k * m / 2) @ v0 + (k / 2) * ((eye + k * m / 2) @ f0 + (eye - k * m / 2) @ f1)
        expected = np.linalg.solve(eye - k * m / 2, rhs)
        assert got.values[:, 0] == pytest.approx(expected, rel=1e-13, abs=1e-13)
        assert got.t == pytest.approx(k)

    @pytest.mark.parametrize("N", [3, 6])
    def test_implicit_recurrence_dense(self, N):
        # banded interleaved solve path vs the dense one-step recurrence
        problem = plain_problem(gamma=lambda x: 1.0 + x, g=lambda x, t: math.sin(x) * t)
        grid = build_grid(0.0, math.pi, N)
        op = assemble_system(grid, problem)
        k = 0.13
        stepper = make_stepper(config_for("fd11", k), op, grid, problem)
        rng = np.random.default_rng(N)
        v = rng.standard_normal(op.size)
        t0 = 0.4
        got = step_semigroup(stepper, StateVector(t0, v[:, None])).values[:, 0]

        m = operator_to_dense(op)
        eye = np.eye(op.size)
        f0 = forcing_vector(problem, grid, t0)
        f1 = forcing_vector(problem, grid, t0 + k)
        rhs = (eye + k * m / 2) @ v + (k / 2) * ((eye + k * m / 2) @ f0 + (eye - k * m / 2) @ f1)
        expected = np.linalg.solve(eye - k * m / 2, rhs)
        assert np.abs(got - expected).max() <= 1e-13 * max(1.0, np.abs(expected).max())

    def test_small_k_continuity(self):
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 6)
        op = assemble_system(grid, problem)
        v0 = np.concatenate([np.sin(grid.interior_nodes), -np.sin(grid.interior_nodes)])
        for name in ("fd01", "fd11"):
            stepper = make_stepper(config_for(name, 1e-8), op, grid, problem)
            out = step_semigroup(stepper, StateVector(0.0, v0[:, None])).values[:, 0]
            assert np.abs(out - v0).max() < 1e-6

    def test_one_step_defect_refinement(self):
        # halving k cuts the defect vs the exponential oracle by ~2^(order+1)
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 6)
        op = assemble_system(grid, problem)
        v0 = np.concatenate([np.sin(grid.interior_nodes), -np.sin(grid.interior_nodes)])
        ratios = {}
        for name in ("fd11", "fd01"):
            defects = []
            for k in (0.1, 0.05):
                stepper = make_stepper(config_for(name, k), op, grid, problem)
                got = step_semigroup(stepper, StateVector(0.0, v0[:, None])).values[:, 0]
                oracle = matrix_exponential(op, k) @ v0
                defects.append(np.linalg.norm(got - oracle, np.inf))
            ratios[name] = defects[0] / defects[1]
        assert 6.0 <= ratios["fd11"] <= 10.0
        assert 3.0 <= ratios["fd01"] <= 5.0

    def test_higher_order_member_beats_fd11_locally(self):
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 6)
        op = assemble_system(grid, problem)
        v0 = np.concatenate([np.sin(grid.interior_nodes), -np.sin(grid.interior_nodes)])
        oracle = matrix_exponential(op, 0.1) @ v0
        defect = {}
        for name, orders in (("fd11", None), ("fdST", (2, 2))):
            stepper = make_stepper(config_for(name, 0.1, orders), op, grid, problem)
            got = step_semigroup(stepper, StateVector(0.0, v0[:, None])).values[:, 0]
            defect[name] = np.linalg.norm(got - oracle, np.inf)
        assert defect["fdST"] < 0.02 * defect["fd11"]


class TestStartup:
    def test_linear_phi_fixed_point(self):
        problem = DampedWaveProblem(
            domain=(0.0, 1.0),
            gamma=lambda x: 0.0,
            g=lambda x, t: 0.0,
            phi=lambda x: x,
            psi=lambda x: 0.0,
            u_a=lambda t: 0.0,
            u_b=lambda t: 1.0,
        )
        grid = build_grid(0.0, 1.0, 8)
        u1 = startup_u1(problem, grid, 0.2, np.zeros(grid.n_interior), grid.interior_nodes,
                        np.zeros(grid.n_interior))
        assert u1 == pytest.approx(grid.interior_nodes, abs=1e-15)

    def test_sample_problem_accuracy(self):
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 10)
        k = 0.1
        u1 = startup_u1(problem, grid, k, np.full(grid.n_interior, 2.0),
                        np.sin(grid.interior_nodes), -np.sin(grid.interior_nodes))
        exact = np.exp(-k) * np.sin(grid.interior_nodes)
        err = np.abs(u1 - exact).max()
        assert err == pytest.approx(2.0357026e-4, rel=1e-5)
        assert err < k**3

    def test_taylor_vs_exact_start_long_horizon(self):
        # at long horizons the start choice washes out of the explicit baseline
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 50)
        k = 0.18 * grid.h
        t_final = 6.0
        op = assemble_system(grid, problem)
        stepper = make_stepper(config_for("oefd", k), op, grid, problem)
        u0, u1 = stepper.start
        n_steps = int(math.floor(t_final / k * (1 + 1e-12) + 1e-12))

        def run(u1):
            state = StateVector(k, u1[:, None], prev=u0.values, carry=(None,))
            for _ in range(2, n_steps + 1):
                state = step_oefd(stepper, state)
            exact = np.exp(-n_steps * k) * np.sin(grid.interior_nodes)
            return np.abs(state.values[:, 0] - exact).max()

        err_taylor = run(u1.values[:, 0])
        err_exact = run(np.exp(-k) * np.sin(grid.interior_nodes))
        assert abs(err_taylor - err_exact) / max(err_taylor, err_exact) < 0.10


class TestBaselineSteps:
    def test_oefd_leapfrog_degenerate(self):
        # constant-in-space data with matching boundaries and no damping:
        # update reduces to 2 u^n - u^{n-1}
        problem = DampedWaveProblem(
            domain=(0.0, 1.0),
            gamma=lambda x: 0.0,
            g=lambda x, t: 0.0,
            phi=lambda x: 3.0,
            psi=lambda x: 0.0,
            u_a=lambda t: 3.0,
            u_b=lambda t: 3.0,
        )
        grid = build_grid(0.0, 1.0, 6)
        op = assemble_system(grid, problem)
        stepper = make_stepper(config_for("oefd", 0.05), op, grid, problem)
        rng = np.random.default_rng(0)
        u_curr = np.full(grid.n_interior, 3.0) + 0 * rng.standard_normal(grid.n_interior)
        u_prev = np.full(grid.n_interior, 2.0)
        state = StateVector(0.4, u_curr[:, None], prev=u_prev[:, None], carry=(None,))
        out = step_oefd(stepper, state)
        assert out.t == pytest.approx(0.45)
        assert out.values[:, 0] == pytest.approx(2 * u_curr - u_prev, abs=1e-14)
        assert out.prev is state.values

    def test_oefd_matches_dense_formula(self):
        problem = plain_problem(
            gamma=lambda x: 0.7 + x,
            g=lambda x, t: x - t,
            u_a=lambda t: 0.3 * t,
            u_b=lambda t: -0.1 * t,
            phi=lambda x: math.sin(x),
            psi=lambda x: 0.0,
            exact=None,
        )
        grid = build_grid(0.0, math.pi, 5)
        op = assemble_system(grid, problem)
        k = 0.07
        stepper = make_stepper(config_for("oefd", k), op, grid, problem)
        rng = np.random.default_rng(9)
        u_curr, u_prev = rng.standard_normal((2, grid.n_interior))
        t = 1.1
        got = step_oefd(stepper, StateVector(t, u_curr[:, None], prev=u_prev[:, None],
                                             carry=(None,))).values[:, 0]

        n = grid.n_interior
        r = k / grid.h
        a = np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        gamma = np.array([problem.gamma(x) for x in grid.interior_nodes])
        bvec = np.zeros(n)
        bvec[0], bvec[-1] = problem.u_a(t), problem.u_b(t)
        gvec = np.array([problem.g(x, t) for x in grid.interior_nodes])
        expected = (
            (2 * np.eye(n) + r**2 * a) @ u_curr
            + (gamma * k / 2 - 1) * u_prev
            + r**2 * bvec
            + k**2 * gvec
        ) / (1 + gamma * k / 2)
        assert np.abs(got - expected).max() <= 1e-14 * max(1.0, np.abs(expected).max())

    def test_oifd_small_r_is_leapfrog(self):
        problem = DampedWaveProblem(
            domain=(0.0, 1000.0),
            gamma=lambda x: 0.0,
            g=lambda x, t: 0.0,
            phi=lambda x: 0.0,
            psi=lambda x: 0.0,
            u_a=lambda t: 0.0,
            u_b=lambda t: 0.0,
        )
        grid = build_grid(0.0, 1000.0, 4)  # h = 250
        op = assemble_system(grid, problem)
        k = 1e-3  # r = 4e-6
        stepper = make_stepper(config_for("oifd", k), op, grid, problem)
        rng = np.random.default_rng(4)
        u_curr, u_prev = rng.standard_normal((2, grid.n_interior))
        state = StateVector(0.0, u_curr[:, None], prev=u_prev[:, None], carry=(None,))
        out = step_oifd(stepper, state)
        assert out.values[:, 0] == pytest.approx(2 * u_curr - u_prev, abs=1e-9)
        assert out.prev is state.values

    def test_oifd_solve_residual(self):
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 10)
        op = assemble_system(grid, problem)
        k = 0.1
        stepper = make_stepper(config_for("oifd", k), op, grid, problem)
        n = grid.n_interior
        r = k / grid.h
        a = np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        gamma = op.damping
        state = stepper.start[1]
        for _ in range(2, 8):
            t, u, u_prev = state.t, state.values[:, 0], state.prev[:, 0]
            state = step_oifd(stepper, state)
            u_next = state.values[:, 0]
            rhs = (
                2 * u
                + 0.5 * r**2 * a @ u
                + (gamma * k / 2 - 1) * u_prev
                + 0.5 * r**2 * (boundary_vector(problem, grid, t + k) + boundary_vector(problem, grid, t))
                + k**2 * 0.0
            )
            lhs = (1 + gamma * k / 2) * u_next - 0.5 * r**2 * a @ u_next
            assert np.linalg.norm(lhs - rhs) < 1e-11 * max(1.0, np.linalg.norm(rhs))


# damping with zeros, at x = pi/3 and 2 pi/3, and no forcing
SPD_DOC = {"domain": [0, math.pi], "gamma": "2*abs(sin(3*x))", "g": "0", "phi": "sin(x)",
           "psi": "0", "u_a": "0", "u_b": "0"}
SPD_SCHEMES = [("fdST", (1, T)) for T in range(5)] + [("oifd", None)]


@functools.cache
def spectrum(N, r):
    """The eigenvalues of kM for SPD_DOC at k = r pi / N."""
    grid = build_grid(0.0, math.pi, N)
    op = assemble_system(grid, load_problem_config(json.dumps(SPD_DOC)))
    return np.linalg.eigvals(r * grid.h * operator_to_dense(op))


def traced_make_stepper(config, op, grid, problem):
    """make_stepper's lane for config, and a (linalg factor routine, unknowns) entry per system
    it factors, in order."""
    factored = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("lu_factor_banded", "factor_spd_tridiagonal"):
            def traced(*args, name=name, factor=getattr(schemes.linalg, name)):
                fact = factor(*args)
                factored.append((name, fact.n))
                return fact
            patch.setattr(schemes.linalg, name, traced)
        stepper = make_stepper(config, op, grid, problem)
    return stepper, factored


class TestTridiagonalPath:
    """From TRIDIAGONAL_MIN_N interior nodes, a (1, T) member steps D(kM) v + rho (I - cM)^{-1} v
    and oifd solves its left-hand side by LDL^T.

    Each step is checked against a dense solve, on a rough and a smooth v: oifd's to 1e-12
    of |ref|, a (1, T) member's to 1e-12 of the largest of |ref|, |v| and |v| times the
    largest |R| over kM's spectrum. Relative to |ref| alone the smooth v misses in 7 of 50
    cases, by up to 1.4e-10, where the banded Q_1 solve misses in 8, by up to 9e-11: (1, 2)
    to (1, 4) grow their stiff modes, fd14 at r = 1e3 by |R| = 3e8, and with them the rounding
    of v; fd10 at r = 1e3 damps v 25-fold, which x_u = v_u + c x_w cancels (1.1e-12)."""

    @staticmethod
    def vectors(x, halves):
        smooth = [np.sin(x) + 0.3 * np.sin(2.0 * x), 0.2 * np.sin(3.0 * x) - np.sin(x)]
        return {"rough": np.random.default_rng(len(x)).standard_normal(halves * len(x)),
                "smooth": np.concatenate(smooth[:halves])}

    @pytest.mark.parametrize("r", [0.016, 0.5, 3.0, 9.0, 1e3])
    @pytest.mark.parametrize("N", [129, 300])
    @pytest.mark.parametrize("name,orders", SPD_SCHEMES,
                             ids=[config_for(n, 1.0, o).label for n, o in SPD_SCHEMES])
    def test_a_step_matches_a_dense_solve(self, name, orders, N, r, monkeypatch):
        problem = load_problem_config(json.dumps(SPD_DOC))
        grid = build_grid(0.0, math.pi, N)
        op, k, x = assemble_system(grid, problem), r * grid.h, grid.interior_nodes
        stepper, factored = traced_make_stepper(config_for(name, k, orders), op, grid, problem)
        # oifd's ghost start and step, a (1, T) member's Schur complement: N - 1 unknowns each
        assert factored == [("factor_spd_tridiagonal", N - 1)] * (2 if name == "oifd" else 1)
        solved, solve = [], schemes.linalg.solve_banded
        monkeypatch.setattr(schemes.linalg, "solve_banded",
                            lambda fact, b: solved.append(type(fact).__name__) or solve(fact, b))
        if name == "oifd":
            for kind, u in self.vectors(x, 1).items():
                prev = np.roll(u, 7) - 0.5 * u
                got = step_oifd(stepper, StateVector(k, u[:, None], prev[:, None], (None,)))
                want = dense_oifd_step(op, k, grid.h, u, prev)
                assert np.abs(got.values[:, 0] - want).max() <= 1e-12 * np.abs(want).max(), kind
        else:
            approx = pade_coefficients(*orders)
            growth = max(abs(eval_scalar(approx, complex(z))) for z in spectrum(N, r))
            for kind, v in self.vectors(x, 2).items():
                got = step_semigroup(stepper, StateVector(0.0, v[:, None])).values[:, 0]
                want = dense_amplification(approx, op, k, v)
                scale = max(np.abs(want).max(), max(1.0, growth) * np.abs(v).max())
                assert np.abs(got - want).max() <= 1e-12 * scale, kind
        assert solved == ["TridiagonalFactorization"] * 2  # one LDL^T solve a step

    @pytest.mark.parametrize("name,orders", SPD_SCHEMES + [("fdST", (2, 2))],
                             ids=[config_for(n, 1.0, o).label for n, o in SPD_SCHEMES + [
                                 ("fdST", (2, 2))]])
    def test_the_path_starts_at_tridiagonal_min_n_nodes(self, name, orders):
        # below: Q_S's interleaved band of 2n unknowns, or oifd's tridiagonal band of n; from
        # TRIDIAGONAL_MIN_N: LDL^T of n, the Schur complement or oifd's left-hand side
        problem = load_problem_config(json.dumps(SPD_DOC))
        for n in (schemes.TRIDIAGONAL_MIN_N - 1, schemes.TRIDIAGONAL_MIN_N):
            grid = build_grid(0.0, math.pi, n + 1)
            config = config_for(name, 0.5 * grid.h, orders)
            _, factored = traced_make_stepper(config, assemble_system(grid, problem), grid,
                                              problem)
            banded = n < schemes.TRIDIAGONAL_MIN_N or orders == (2, 2)
            want = ("lu_factor_banded", 2 * n if name == "fdST" else n) if banded else (
                "factor_spd_tridiagonal", n)
            assert factored == [want] * (2 if name == "oifd" else 1), n


ALL_SCHEMES = [("fd01", None), ("fd11", None), ("fdST", (2, 2)), ("oefd", None), ("oifd", None)]
STEP_FUNCTIONS = {"semigroup": step_semigroup, "oefd": step_oefd, "oifd": step_oifd}


def forced_problem():
    return plain_problem(gamma=lambda x: 1.0 + x, g=lambda x, t: np.sin(x) * np.cos(t),
                         u_a=lambda t: 0.5 * t, u_b=lambda t: -0.2 * t,
                         psi=lambda x: 1.0 - x, exact=None)


def manual_levels(config, problem, grid, steps):
    """The start levels, then steps made one by one, up to level `steps`, each step's values
    copied out of the ring slot that later steps write again."""
    stepper = make_stepper(config, assemble_system(grid, problem), grid, problem)
    levels = list(stepper.start)
    assert len(levels) == (1 if config.kind == "semigroup" else 2)
    state = levels[-1]
    while len(levels) <= steps:
        state = STEP_FUNCTIONS[config.kind](stepper, state)
        levels.append(dataclasses.replace(state, values=state.values.copy()))
    return levels[: steps + 1]


STEADY_DOC = {
    "domain": [0, math.pi], "gamma": "0.5 + 0.2*x", "g": "sin(x)", "phi": "1 + 0.4*x",
    "psi": "0.1*x*(pi - x)", "u_a": "1", "u_b": "1 + 0.4*pi",
}


def plain_copy(problem):
    """The same problem through plain lambdas, which carry no time-free marker."""
    return dataclasses.replace(
        problem,
        gamma=lambda x: problem.gamma(x), g=lambda x, t: problem.g(x, t),
        phi=lambda x: problem.phi(x), psi=lambda x: problem.psi(x),
        u_a=lambda t: problem.u_a(t), u_b=lambda t: problem.u_b(t),
    )


class TestSteadyForcing:
    @pytest.mark.parametrize("name,orders", ALL_SCHEMES, ids=[n for n, _ in ALL_SCHEMES])
    @pytest.mark.parametrize("doc", [STEADY_DOC, dict(STEADY_DOC, g="0", u_a="0", u_b="0",
                                                      phi="sin(x)")], ids=["forced", "zero"])
    def test_steady_path_matches_per_level_path(self, name, orders, doc):
        problem = load_problem_config(json.dumps(doc))
        assert time_free(problem.u_b) and not time_free(plain_copy(problem).u_b)
        grid = build_grid(0.0, math.pi, 12)
        config = config_for(name, 0.02, orders)
        (steady,) = solve_group_every_level(problem, grid, (config,), 0.5)
        (per_level,) = solve_group_every_level(plain_copy(problem), grid, (config,), 0.5)
        assert np.array_equal(steady.states, per_level.states)
        assert np.array_equal(steady.times, per_level.times)

    def test_sample_problem_takes_the_steady_path(self, monkeypatch):
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 10)
        calls = []

        def counted(*args):
            calls.append(args[-1])
            return forcing_vector(*args)

        monkeypatch.setattr(schemes, "forcing_vector", counted)
        # F = 0 is evaluated once, and its step is R(kM) V exactly: the P_T Horner pass, then
        # gbtrs on Q_S's interleaved band
        (traj,) = solve_group_every_level(problem, grid, (config_for("fd11", 0.1),), 1.0)
        assert calls == [0.0]
        op, approx = assemble_system(grid, problem), pade_coefficients(1, 1)
        fact = schemes.linalg.lu_factor_banded(_banded_poly(approx.q_floats, op, 0.1))
        perm = np.arange(op.size).reshape(2, -1).T.ravel()  # (u_1, w_1, u_2, w_2, ...)
        (gbtrs,) = scipy.linalg.get_lapack_funcs(("gbtrs",), dtype=np.float64)
        want = apply_poly(approx.p_floats, op, 0.1, traj.states[0])()
        want[perm] = gbtrs(fact.lu, fact.kl, fact.ku, want[perm], fact.ipiv)[0]
        assert traj.states[1].tobytes() == want.tobytes()
        for name in ("fd01", "fd11", "oefd", "oifd"):
            config = config_for(name, 0.1)
            (steady,) = solve_group_every_level(problem, grid, (config,), 1.0)
            (per_level,) = solve_group_every_level(plain_copy(problem), grid, (config,), 1.0)
            assert np.array_equal(steady.states, per_level.states)

    @pytest.mark.parametrize("name,orders", ALL_SCHEMES, ids=[n for n, _ in ALL_SCHEMES])
    def test_forcing_evaluations_per_solve(self, name, orders, monkeypatch):
        # F for the semigroup family, B for the baselines
        counted_name = "forcing_vector" if name.startswith("fd") else "boundary_vector"
        original = getattr(schemes, counted_name)
        calls = []

        def counted(*args):
            calls.append(args[-1])
            return original(*args)

        monkeypatch.setattr(schemes, counted_name, counted)
        grid = build_grid(0.0, math.pi, 12)
        config = config_for(name, 0.05, orders)

        def count(problem, steps):
            calls.clear()
            solve_evolution(problem, grid, (config,), steps * 0.05)
            return len(calls)

        steady = load_problem_config(json.dumps(STEADY_DOC))
        assert count(steady, 10) == count(steady, 20) == 1
        uses_t = load_problem_config(json.dumps(dict(STEADY_DOC, u_b="1 + 0.4*pi + t")))
        assert count(uses_t, 20) - count(uses_t, 10) == 10

    @pytest.mark.parametrize("name,orders", ALL_SCHEMES, ids=[n for n, _ in ALL_SCHEMES])
    def test_wrapping_after_construction_keeps_the_steady_path(self, name, orders):
        # callables replaced by plain wrappers after construction, as a tracer
        # does, lose their time-free marker but not the problem's steadiness
        problem = load_problem_config(json.dumps(STEADY_DOC))
        calls = []
        for field in ("g", "u_a", "u_b"):
            def wrapped(*args, fn=getattr(problem, field), field=field):
                calls.append(field)
                return fn(*args)

            object.__setattr__(problem, field, wrapped)
        assert problem.steady and not time_free(problem.g)
        grid = build_grid(0.0, math.pi, 12)
        config = config_for(name, 0.05, orders)
        (first,) = solve_group_every_level(problem, grid, (config,), 0.5)
        # one forcing evaluation per solve: g once, B(t) once (oefd's Taylor start adds g(., 0))
        once = ["g", "u_a", "u_b"] + (["g"] if name == "oefd" else [])
        assert sorted(calls) == sorted(once)
        calls.clear()
        (again,) = solve_group_every_level(problem, grid, (config,), 1.0)
        assert np.array_equal(again.states[:11], first.states)
        assert sorted(calls) == sorted(once)


class TestStepperProtocol:
    # (steps, every): a run too short for one step, every level collected through
    # on_block, and the start and last levels only; the last two ids name the stride
    # cases (a stride that skips the last level, one longer than the run) whose kept
    # levels these are
    @pytest.mark.parametrize("steps,every",
                             [(0, True), (1, True), (2, True), (7, False), (2, False)],
                             ids=["0", "1", "2", "7-stride3", "2-stride5"])
    @pytest.mark.parametrize("name,orders", ALL_SCHEMES, ids=[n for n, _ in ALL_SCHEMES])
    def test_short_runs_are_start_levels_then_steps(self, name, orders, steps, every):
        problem = forced_problem()
        grid = build_grid(0.0, math.pi, 9)
        k = 0.05
        config = config_for(name, k, orders)
        solve = solve_group_every_level if every else solve_evolution
        if steps == 0:  # no step to report: refused, not answered with the start level
            with pytest.raises(ValueError, match="shorter than one time step"):
                solve(problem, grid, (config,), 0.25 * k)
            return
        (traj,) = solve(problem, grid, (config,), (steps + 0.25) * k)

        levels = manual_levels(config, problem, grid, steps)
        kept = list(range(steps + 1)) if every else [0, steps]
        assert not traj.blow_up and traj.blow_up_index is None
        assert np.array_equal(traj.times, k * np.array(kept))
        assert [levels[n].t for n in kept] == pytest.approx(traj.times, abs=1e-15)
        assert np.array_equal(traj.states, np.array([levels[n].values[:, 0] for n in kept]))
        width = grid.n_interior * (2 if config.kind == "semigroup" else 1)
        assert traj.states.shape == (len(kept), width)

    @pytest.mark.parametrize("name,r,level", [("fd01", 1.59, 623), ("oefd", 1.59, 379),
                                              ("fd01", 3.0, 414)],
                             ids=["fd01-623", "oefd-379", "fd01-414"])
    def test_blow_up_level_kept_off_stride(self, name, r, level, recwarn):
        # r = 1.59 and 3 lie outside both explicit schemes' stability regions; an
        # ends-only run keeps the halting level, which is not its last step
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 50)
        config = config_for(name, r * grid.h)
        (traj,) = solve_evolution(problem, grid, (config,), 80.0)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert traj.blow_up and traj.blow_up_index == level
        kept = [0, level]
        assert np.array_equal(traj.times, np.array(kept) * config.k)
        assert np.isfinite(traj.states[:-1]).all()
        assert not np.isfinite(traj.states[-1]).all()
        with np.errstate(over="ignore", invalid="ignore"):
            levels = manual_levels(config, problem, grid, level)
        expected = np.array([levels[n].values[:, 0] for n in kept])
        assert np.array_equal(traj.states, expected, equal_nan=True)

    def test_oifd_boundary_data_evaluated_once_per_time_level(self):
        problem = forced_problem()
        calls = []

        def u_a(t):
            calls.append(t)
            return 0.5 * t

        problem = dataclasses.replace(problem, u_a=u_a)
        grid = build_grid(0.0, math.pi, 9)
        config = config_for("oifd", 0.05)
        stepper = make_stepper(config, assemble_system(grid, problem), grid, problem)
        state = stepper.start[1]
        assert np.array_equal(state.carry[0], boundary_vector(problem, grid, 0.05))
        rows = [state.values[:, 0]]
        for _ in range(8):
            # reference: every step evaluates both B(t_n) and B(t_{n+1})
            state = step_oifd(stepper, dataclasses.replace(state, carry=(None,)))
            rows.append(state.values[:, 0].copy())  # a step's ring array is written again
        calls.clear()
        (traj,) = solve_group_every_level(problem, grid, (config,), 0.45)
        assert np.array_equal(traj.states[1:], np.array(rows))
        # the ghost start takes B(0) and B(k), which u^1 carries; each step takes one level
        assert len(calls) == 2 + 8


SIX_SCHEMES = ALL_SCHEMES + [("fdST", (3, 3))]

# each data field a sum of coefficient * term, with g, u_a and u_b all reading t
SUPERPOSITION_TERMS = {
    "g": ("sin(x)*cos(t)", "x*t", "1"),
    "phi": ("sin(x)", "x", "1"),
    "psi": ("cos(x)", "x*x"),
    "u_a": ("t", "sin(2*t)", "1"),
    "u_b": ("cos(t)", "t*t"),
}


def random_coefficients(rng):
    """Coefficients for SUPERPOSITION_TERMS, with u_a(0) = phi(0) and u_b(0) = phi(pi)."""
    coeffs = {f: rng.uniform(-1.0, 1.0, len(terms)) for f, terms in SUPERPOSITION_TERMS.items()}
    coeffs["u_a"][2] = coeffs["phi"][2]
    coeffs["u_b"][0] = math.pi * coeffs["phi"][1] + coeffs["phi"][2]
    return coeffs


def linear_problem(coeffs):
    doc = {"domain": [0, math.pi], "gamma": "0.5 + 0.3*x"}
    for field, terms in SUPERPOSITION_TERMS.items():
        doc[field] = " + ".join(f"({float(c)!r})*{term}" for c, term in zip(coeffs[field], terms))
    return load_problem_config(json.dumps(doc))


@pytest.mark.parametrize("name,orders", SIX_SCHEMES,
                         ids=[f"{n}{o[0]}{o[1]}" if o else n for n, o in SIX_SCHEMES])
def test_solutions_superpose(name, orders):
    # every scheme is linear in (phi, psi, g, u_a, u_b) at fixed gamma, so
    # solve(alpha P1 + beta P2) = alpha solve(P1) + beta solve(P2) up to rounding
    rng = np.random.default_rng(5)
    grid = build_grid(0.0, math.pi, 12)
    config = config_for(name, 0.02, orders)
    for _ in range(5):
        c1, c2 = random_coefficients(rng), random_coefficients(rng)
        alpha, beta = rng.uniform(-2.0, 2.0, 2)
        mixed = {f: alpha * c1[f] + beta * c2[f] for f in SUPERPOSITION_TERMS}
        runs = [solve_group_every_level(linear_problem(c), grid, (config,), 40 * 0.02)[0]
                for c in (c1, c2, mixed)]
        s1, s2, s = (traj.states for traj in runs)
        assert len(s) == 41
        scale = max(np.abs(states).max() for states in (s1, s2, s))
        assert np.abs(s - (alpha * s1 + beta * s2)).max() <= 1e-12 * scale


MANUFACTURED_DOC = {
    # u = cos t sin x: every term of u_tt = u_xx - gamma u_t + g is nonzero
    "domain": [0, math.pi],
    "gamma": "1 + x",
    "g": "-(1 + x)*sin(t)*sin(x)",
    "phi": "sin(x)",
    "psi": "0",
    "u_a": "0",
    "u_b": "0",
    "exact": "cos(t)*sin(x)",
}


def test_oifd_is_first_order_in_time_when_u_xxt_is_nonzero():
    # k and h refined together at r = 0.25; oifd's averaged Laplacian leaves
    # a (k/2) u_xxt truncation term, so its order falls toward 1
    problem = load_problem_config(json.dumps(MANUFACTURED_DOC))
    orders = {}
    for name in ("oifd", "oefd", "fd11"):
        errors = []
        for N in (20, 40, 80, 160):
            grid = build_grid(0.0, math.pi, N)
            (traj,) = solve_evolution(problem, grid, (config_for(name, 0.25 * grid.h),), 1.0)
            errors.append(error_profile(traj, problem).max_error)
        orders[name] = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert orders["oifd"] == pytest.approx([1.149, 1.049, 1.026], abs=5e-3)
    for name in ("oefd", "fd11"):
        assert min(orders[name]) > 1.95, name


# the bench's forced-config problem (bench/workloads.py, manufactured_config)
# at the centre of its parameter ranges: u = cos(2t) sin x + (1 + x/4) sin t
# with gamma = 1 + x/2, so g, the Dirichlet data and psi are all nonzero
FORCED_GAMMA = "1.0 + 0.5*x"
FORCED_DOC = {
    "domain": [0, math.pi],
    "gamma": FORCED_GAMMA,
    "g": ("(1 - 2.0^2)*cos(2.0*t)*sin(x) - (1.0 + 0.25*x)*sin(t)"
          f" + ({FORCED_GAMMA})*(-2.0*sin(2.0*t)*sin(x) + (1.0 + 0.25*x)*cos(t))"),
    "phi": "sin(x)",
    "psi": "1.0 + 0.25*x",
    "u_a": "1.0*sin(t)",
    "u_b": "(1.0 + 0.25*pi)*sin(t)",
}

# observed time orders at N=16 and t=0.2 against the same scheme at k=0.01/32;
# the semigroup members are second order because the trapezoid rule for the
# Duhamel integral caps them there: fd22's 2 is that cap, which the
# exponential quadrature of ROADMAP item 1 lifts to >= 3.8
TIME_ORDER_PINS = [
    ("fd01", None, (0.9, 1.25)),
    ("oifd", None, (0.9, 1.25)),
    ("fd11", None, (1.85, 2.15)),
    ("fdST", (1, 2), (1.85, 2.15)),
    ("fdST", (2, 2), (1.85, 2.15)),
    ("oefd", None, (1.85, 2.15)),
]


@pytest.mark.parametrize("name,orders,band", TIME_ORDER_PINS,
                         ids=[f"{n}{o[0]}{o[1]}" if o else n for n, o, _ in TIME_ORDER_PINS])
def test_time_order_on_forced_problem(name, orders, band):
    problem = load_problem_config(json.dumps(FORCED_DOC))
    grid = build_grid(0.0, math.pi, 16)

    def final_u(k):
        (traj,) = solve_evolution(problem, grid, (config_for(name, k, orders),), 0.2)
        assert traj.times[-1] == pytest.approx(0.2, abs=1e-12)
        return traj.displacements[-1]

    reference = final_u(0.01 / 32)
    errors = [np.abs(final_u(0.01 / 2**j) - reference).max() for j in range(3)]
    observed = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(band[0] <= p <= band[1] for p in observed), observed


# u = (cos 2t + sin t) sin x with gamma = 1 + sin(x)/2, so that g and psi are nonzero, plus
# (1 + x/4) for constant and (1 + x/4) sin t for time-varying Dirichlet data
ORDER_GAMMA = "(1 + 0.5*sin(x))"
ORDER_G = f"-3*cos(2*t)*sin(x) + {ORDER_GAMMA}*(cos(t) - 2*sin(2*t))*sin(x)"
ORDER_U = "(cos(2*t) + sin(t))*sin(x)"
ORDER_DOCS = {
    "zero": dict(g=ORDER_G, phi="sin(x)", psi="sin(x)", u_a="0", u_b="0", exact=ORDER_U),
    "constant": dict(g=ORDER_G, phi="sin(x) + 1 + 0.25*x", psi="sin(x)", u_a="1",
                     u_b="1 + 0.25*pi", exact=f"{ORDER_U} + 1 + 0.25*x"),
    "varying": dict(g=f"{ORDER_G} + (1 + 0.25*x)*({ORDER_GAMMA}*cos(t) - sin(t))",
                    phi="sin(x)", psi="sin(x) + 1 + 0.25*x", u_a="sin(t)",
                    u_b="(1 + 0.25*pi)*sin(t)", exact=f"{ORDER_U} + (1 + 0.25*x)*sin(t)"),
}
ORDER_T = 8 * math.pi / 25  # 16 levels at N=25 and r=0.5: every N ends at this time
SECOND, FIRST = (1.9, math.inf), (0.7, 1.3)
ITEM_1 = ("ROADMAP item 1: next to nonzero Dirichlet data the trapezoid rule's steady state "
          "is off by a multiple of r^2 u_b, an error flat in N")
ITEM_2 = "ROADMAP item 2: time-dependent Dirichlet data reduce fd11's order to 1.3-1.5"
ITEM_1_FD10 = ("ROADMAP item 1: fd10's order 0.47 with constant Dirichlet data is the "
               "trapezoid rule's steady-state defect in the u_t half, reproduced digit for "
               "digit by a dense fd10 step (ROADMAP Baseline)")
ITEM_1_FD01 = ("ROADMAP item 1: fd01's order 1.3 with constant Dirichlet data is the "
               "trapezoid rule's steady-state defect in the u_t half")
# (scheme, Pade orders, the band of every observed order, the configs that miss it and why)
ORDER_MATRIX = [
    ("fdST", (1, 0), FIRST, {"constant": ITEM_1_FD10}),
    ("fd11", None, SECOND, {"varying": ITEM_2}),
    ("fdST", (2, 0), SECOND, {"constant": ITEM_1, "varying": ITEM_1}),
    ("fdST", (2, 2), SECOND, {"constant": ITEM_1, "varying": ITEM_1}),
    ("fdST", (3, 3), SECOND, {"constant": ITEM_1, "varying": ITEM_1}),
    ("oefd", None, SECOND, {}),
    ("oifd", None, FIRST, {}),
]


def _observed_orders(data, Ns, config_of_h):
    """log2 of successive max errors against the exact solution at ORDER_T, solving
    ORDER_DOCS[data] at each N with the config config_of_h(h)."""
    problem = load_problem_config(json.dumps(dict(ORDER_DOCS[data], domain=[0, math.pi],
                                                  gamma=ORDER_GAMMA)))
    errors = []
    for N in Ns:
        grid = build_grid(0.0, math.pi, N)
        (traj,) = solve_evolution(problem, grid, (config_of_h(grid.h),), ORDER_T)
        assert traj.times[-1] == pytest.approx(ORDER_T, abs=1e-12)
        errors.append(error_profile(traj, problem).max_error)
    return [math.log2(a / b) for a, b in zip(errors, errors[1:])]


@pytest.mark.parametrize("name,orders,band,data", [
    pytest.param(name, orders, band, data, id=f"{config_for(name, 1.0, orders).label}-{data}",
                 marks=pytest.mark.xfail(strict=True, reason=misses[data])
                 if data in misses else ())
    for name, orders, band, misses in ORDER_MATRIX for data in ORDER_DOCS])
def test_order_against_the_exact_solution_at_fixed_courant_ratio(name, orders, band, data):
    # h and k refined together at r = 0.5, N = 25 ... 200, every term of the PDE nonzero
    observed = _observed_orders(data, (25, 50, 100, 200),
                                lambda h: config_for(name, 0.5 * h, orders))
    assert all(band[0] <= p <= band[1] for p in observed), observed


@pytest.mark.parametrize("data", [
    pytest.param(data, marks=pytest.mark.xfail(strict=True, reason=ITEM_1_FD01)
                 if data == "constant" else ()) for data in ORDER_DOCS])
def test_fd01_order_against_the_exact_solution_at_k_of_order_h_squared(data):
    # fd01 is stable for k <= min(2/gamma, gamma h^2/4), and gamma = 1 + sin(x)/2 >= 1 here,
    # so k = T/ceil(8T/h^2) <= h^2/8 is stable and its first-order time error is O(h^2)
    observed = _observed_orders(data, (25, 50, 100), lambda h: config_for(
        "fd01", ORDER_T / math.ceil(8 * ORDER_T / h**2)))
    assert all(SECOND[0] <= p <= SECOND[1] for p in observed), observed


def _order_problem(data):
    return load_problem_config(json.dumps(dict(ORDER_DOCS[data], domain=[0, math.pi],
                                               gamma=ORDER_GAMMA)))


def test_fd11_converges_in_time_to_the_semidiscrete_solution():
    # the exact solution of dV/dt = MV + F(t) has no time error, so against it a fine-k run
    # of fd11 shows its time error alone, with time-varying data too: at N = 25 and
    # k = T/256 ... T/16384 its u is off by 1.47e-5 ... 3.58e-9, order 2 at each halving
    problem, grid = _order_problem("varying"), build_grid(0.0, math.pi, 25)
    want = semidiscrete_solution(problem, grid, ORDER_T)[: grid.n_interior]
    errors = []
    for steps in (2**j for j in range(8, 15)):
        (traj,) = solve_evolution(problem, grid, (config_for("fd11", ORDER_T / steps),), ORDER_T)
        assert traj.times[-1] == pytest.approx(ORDER_T, abs=1e-12)
        errors.append(np.abs(traj.displacements[-1] - want).max())
    observed = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(1.9 <= p <= 2.1 for p in observed), observed
    assert errors[0] == pytest.approx(1.47e-5, rel=0.01)


@pytest.mark.parametrize("data", ["zero", "varying"])
def test_the_semidiscrete_solution_is_second_order_in_space(data):
    # its distance to the exact solution is the space error, the same for every scheme
    problem = _order_problem(data)
    errors = []
    for N in (25, 50, 100):
        grid = build_grid(0.0, math.pi, N)
        u = semidiscrete_solution(problem, grid, ORDER_T)[: grid.n_interior]
        errors.append(np.abs(u - problem.exact(grid.interior_nodes, ORDER_T)).max())
    observed = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(1.95 <= p <= 2.05 for p in observed), observed


def test_the_semidiscrete_solution_needs_trigonometric_forcing():
    with pytest.raises(ValueError, match="not a combination"):
        semidiscrete_solution(_order_problem("constant"), build_grid(0.0, math.pi, 25), 1.0)


# gamma >= 0 of moderate size: abs() of a small expression in x
GAMMA_EXPRESSIONS = st.recursive(st.sampled_from(["0", "0.5", "2", "x", "pi"]), lambda inner: (
    st.tuples(inner, st.sampled_from("+-*"), inner).map(lambda p: f"({p[0]}){p[1]}({p[2]})")
    | st.tuples(st.sampled_from(["sin", "cos"]), inner).map(lambda p: f"{p[0]}({p[1]})")),
    max_leaves=4).map(lambda e: f"abs({e})")


def energy_by_level(gamma, N, configs, seed, steps):
    """E = h[u.(-A/h^2)u + w.w] at every level of an unforced solve of configs on [0, pi]
    with damping gamma (an expression) and phi, psi drawn node by node from seed, read
    through on_block: a row per config, a column per level."""
    problem = load_problem_config(json.dumps(dict(
        domain=[0, math.pi], gamma=gamma, g="0", phi="0", psi="0", u_a="0", u_b="0")))
    phi, psi = np.random.default_rng(seed).standard_normal((2, N - 1))
    problem = dataclasses.replace(problem, phi=lambda x: phi if np.ndim(x) else 0.0,
                                  psi=lambda x: psi if np.ndim(x) else 0.0)
    grid = build_grid(0.0, math.pi, N)
    n, h = grid.n_interior, grid.h
    levels = [[] for _ in configs]

    def on_block(first, blocks):
        for level, rows in zip(levels, blocks):
            assert len(level) == first
            u, w = rows[:, :n], rows[:, n:]
            potential = -(u * second_difference(u.T).T).sum(axis=1) / h**2  # u.(-A/h^2)u
            level.extend(h * (potential + (w * w).sum(axis=1)))

    ends = solve_evolution(problem, grid, configs, (steps + 0.25) * configs[0].k, on_block)
    assert [end.blow_up for end in ends] == [False] * len(configs)
    return np.array(levels)


class TestSolveEvolution:
    @pytest.mark.parametrize("name,orders", ALL_SCHEMES + [("fdST", (3, 3))],
                             ids=[n for n, _ in ALL_SCHEMES] + ["fdST33"])
    def test_ends_only_rows_are_first_and_last_of_every_level_run(self, name, orders):
        problem = forced_problem()
        grid = build_grid(0.0, math.pi, 12)
        config = config_for(name, 0.05, orders)
        (every,) = solve_group_every_level(problem, grid, (config,), 1.33)
        (ends,) = solve_evolution(problem, grid, (config,), 1.33)
        assert every.times.shape == (27,) and ends.blow_up_index is every.blow_up_index is None
        assert np.array_equal(ends.times, every.times[[0, -1]])
        assert np.array_equal(ends.states, every.states[[0, -1]])

    def test_table_values_at_first_level(self):
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 10)
        expected = {
            "fd11": 4.010538170e-05,
            "fd01": 4.837418036e-03,
            "oefd": 2.035702635e-04,
            "oifd": 4.384393293e-04,
        }
        for name, value in expected.items():
            (traj,) = solve_evolution(problem, grid, (config_for(name, 0.1),), 0.1)
            errs = np.abs(
                traj.displacements[-1] - np.exp(-0.1) * np.sin(grid.interior_nodes)
            )
            assert errs.max() == pytest.approx(value, rel=1e-6), name

    def test_three_step_values(self):
        # frozen from an independent dense-matrix run of the same recurrences
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 10)
        for name, value in (("fd11", 8.456962e-05), ("fd01", 1.159688e-02)):
            (traj,) = solve_evolution(problem, grid, (config_for(name, 0.1),), 0.3)
            errs = np.abs(
                traj.displacements[-1] - np.exp(-0.3) * np.sin(grid.interior_nodes)
            )
            assert errs.max() == pytest.approx(value, rel=1e-4), name

    def test_zero_data_stays_zero(self):
        problem = plain_problem(phi=lambda x: 0.0, psi=lambda x: 0.0, exact=None)
        grid = build_grid(0.0, math.pi, 8)
        for name in ("fd01", "fd11", "oefd", "oifd"):
            (traj,) = solve_group_every_level(problem, grid, (config_for(name, 0.05),), 0.5)
            assert not traj.states.any(), name

    def test_linearity_in_initial_data(self):
        alpha = 2.5
        base = plain_problem(gamma=lambda x: 1.0, exact=None)
        scaled = plain_problem(
            gamma=lambda x: 1.0,
            phi=lambda x: alpha * math.sin(x),
            psi=lambda x: -alpha * math.sin(x),
            exact=None,
        )
        grid = build_grid(0.0, math.pi, 8)
        for name in ("fd11", "oefd", "oifd"):
            (t1,) = solve_group_every_level(base, grid, (config_for(name, 0.05),), 0.5)
            (t2,) = solve_group_every_level(scaled, grid, (config_for(name, 0.05),), 0.5)
            assert np.abs(t2.states - alpha * t1.states).max() <= 1e-10

    def test_implicit_norm_never_grows(self):
        problem = sample_problem()
        for N, k in ((10, 0.1), (23, 0.05), (10, 0.5)):
            grid = build_grid(0.0, math.pi, N)
            (traj,) = solve_group_every_level(problem, grid, (config_for("fd11", k),), 20.0)
            norms = np.linalg.norm(traj.states, axis=1)
            assert np.all(np.diff(norms) <= 1e-8), (N, k)

    @settings(max_examples=60, deadline=None)
    @given(
        N=st.integers(2, 30),
        r=st.floats(0.05, 8.0),
        gamma=st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 4.0)),
        # no coefficient so small that its square underflows: a subnormal E
        # is rounded by an ulp while 1e-12 * E0 rounds to 0
        modes=st.lists(st.tuples(*[st.floats(-1.0, 1.0).filter(
            lambda c: c == 0.0 or abs(c) > 1e-100)] * 2), min_size=1, max_size=5),
    )
    def test_fd11_never_increases_discrete_energy(self, N, r, gamma, modes):
        # fd11 is Crank-Nicolson on M, which is dissipative in the energy
        # E = |w|^2 + u.(-A/h^2)u; unforced with zero boundary data, no step
        # may raise E, whatever the (nonnegative) damping and initial data
        def series(coeffs):
            return lambda x: sum(c * np.sin((j + 1) * x) for j, c in enumerate(coeffs))

        problem = plain_problem(gamma=lambda x: gamma[0] + gamma[1] * x,
                                phi=series([a for a, _ in modes]),
                                psi=series([b for _, b in modes]), exact=None)
        grid = build_grid(0.0, math.pi, N)
        k = r * grid.h
        (traj,) = solve_group_every_level(problem, grid, (config_for("fd11", k),), 30.25 * k)
        u, w = np.split(traj.states, 2, axis=1)
        energy = (w * w).sum(axis=1) - (u * second_difference(u.T).T).sum(axis=1) / grid.h**2
        assert np.all(np.diff(energy) <= 1e-12 * energy[0])

    @settings(max_examples=25, deadline=None)
    @given(
        gamma=GAMMA_EXPRESSIONS,
        # both sides of the Schur finishes' threshold
        N=st.one_of(st.integers(2, schemes.TRIDIAGONAL_MIN_N),
                    st.integers(schemes.TRIDIAGONAL_MIN_N + 1, schemes.TRIDIAGONAL_MIN_N + 40)),
        r=st.floats(0.05, 50.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_stable_pairs_never_increase_the_energy_norm(self, gamma, N, r, seed):
        # M is dissipative in <V, V'>_E = h[u.(-A/h^2)u' + w.w'] for gamma >= 0, so every
        # A-stable R(kM), T <= S <= T + 2, is a contraction in it (von Neumann): unforced,
        # no level of any of the 11 pairs may raise E, whatever the damping and initial data
        configs = tuple(SchemeConfig("semigroup", r * math.pi / N, (S, T))
                        for S in range(5) for T in range(5) if T <= S <= T + 2 and S + T)
        energy = energy_by_level(gamma, N, configs, seed, 70)
        assert np.all(energy[:, 1:] <= energy[:, :-1] * (1.0 + 1e-12))

    def test_fd01_raises_the_energy_norm_at_r_1_59(self):
        # fd01 is not A-stable: at r = 1.59 on rough undamped data, E grows
        energy = energy_by_level("0", 50, (config_for("fd01", 1.59 * math.pi / 50),), 7, 70)
        assert np.any(energy[:, 1:] > energy[:, :-1] * (1.0 + 1e-12))

    def test_blow_up_detected_and_flagged(self):
        problem = plain_problem(gamma=lambda x: 0.0, psi=lambda x: 0.0, exact=None)
        grid = build_grid(0.0, math.pi, 10)
        k = 5.0 * grid.h  # far outside any stability region
        (traj,) = solve_evolution(problem, grid, (config_for("fd01", k),), 600.0)
        assert traj.blow_up
        assert traj.blow_up_index is not None
        assert not np.isfinite(traj.states[-1]).all()
        assert traj.times[-1] < 600.0  # halted early

    def test_trajectory_times_and_stride(self):
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 6)
        (traj,) = solve_group_every_level(problem, grid, (config_for("fd11", 0.1),), 1.0)
        assert traj.times == pytest.approx(0.1 * np.arange(11))
        assert np.diff(traj.times) == pytest.approx(np.full(10, 0.1))
        (ends,) = solve_evolution(problem, grid, (config_for("fd11", 0.1),), 1.0)
        assert np.array_equal(ends.times, traj.times[[0, -1]])
        assert np.array_equal(ends.states, traj.states[[0, -1]])

    def test_final_level_always_kept(self):
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 6)
        (traj,) = solve_evolution(problem, grid, (config_for("oefd", 0.1),), 0.7)
        assert traj.times[-1] == pytest.approx(0.7)

    def test_t_final_not_multiple_of_k(self):
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 6)
        (traj,) = solve_evolution(problem, grid, (config_for("fd11", 0.1),), 0.349)
        assert traj.times[-1] == pytest.approx(0.3)

    def test_rejects_bad_t_final(self):
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 6)
        with pytest.raises(ValueError):
            solve_evolution(problem, grid, (config_for("fd11", 0.1),), -1.0)

    def test_step_cap(self):
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 6)
        with pytest.raises(ValueError, match="steps"):
            solve_evolution(problem, grid, (config_for("fd11", 1e-9),), 100.0)

    def test_snapshot_buffer_beyond_memory_raises(self, monkeypatch):
        # the (41, 18, 1) level buffer of 40 steps at N=10, a one-member lane's, is
        # refused, as a buffer larger than the memory would be
        empty = np.empty

        def refuse_snapshots(shape, *args, **kwargs):
            if shape == (41, 18, 1):
                raise MemoryError("Unable to allocate the snapshot buffer")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", refuse_snapshots)
        grid = build_grid(0.0, math.pi, 10)
        with pytest.raises(ValueError, match="cannot hold 41 snapshots"):
            solve_evolution(sample_problem(), grid, (config_for("fd01", 0.1),), 4.0,
                            on_block=lambda first, blocks: None)


# the sample problem as a config: u = e^{-t} sin x with gamma = 2 and no forcing
SAMPLE_DOC = {"domain": [0, math.pi], "gamma": "2", "g": "0", "phi": "sin(x)",
              "psi": "-sin(x)", "u_a": "0", "u_b": "0", "exact": "exp(-t)*sin(x)"}


def _equal_runs(got, want):
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.states, want.states, equal_nan=True)
    assert got.blow_up_index == want.blow_up_index


class TestSpacedBlowUpChecks:
    """solve_evolution checks every CHECK_EVERY levels and rewinds on a failed check or
    a raising step; its runs equal those of the loop that checks every level."""

    @settings(max_examples=60, deadline=None)
    @given(scheme=st.sampled_from(SIX_SCHEMES), every_level=st.booleans(),
           forced=st.booleans(),
           steps=st.sampled_from([1, 2, CHECK_EVERY - 1, CHECK_EVERY, CHECK_EVERY + 1,
                                  2 * CHECK_EVERY, 2 * CHECK_EVERY + 1]))
    def test_finite_runs_match_the_every_level_check(self, scheme, every_level, forced, steps):
        problem = forced_problem() if forced else sample_problem()
        grid = build_grid(0.0, math.pi, 9)
        config = config_for(scheme[0], 0.05, scheme[1])
        t_final = (steps + 0.25) * 0.05
        (got,) = (solve_group_every_level if every_level else solve_evolution)(
            problem, grid, (config,), t_final)
        assert got.times[-1] == pytest.approx(steps * 0.05)
        _equal_runs(got, solve_checking_every_level(problem, grid, config, t_final,
                                                    every_level))

    # (scheme, r, last level, blow-up level): runs that end past the next check, before
    # it, and at the blow-up itself
    @pytest.mark.parametrize("every_level", [True, False], ids=["every", "ends"])
    @pytest.mark.parametrize("name,r,steps,level", [
        ("fd01", 1.59, 800, 623), ("fd01", 1.59, 630, 623), ("fd01", 1.59, 623, 623),
        ("oefd", 1.59, 800, 379), ("fd01", 3.0, 530, 414),
    ], ids=["fd01-623", "fd01-623-ends-before-check", "fd01-623-last", "oefd-379", "fd01-414"])
    def test_blow_up_inside_an_interval(self, name, r, steps, level, every_level):
        assert level % CHECK_EVERY
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 50)
        config = config_for(name, r * grid.h)
        t_final = (steps + 0.25) * config.k
        (got,) = (solve_group_every_level if every_level else solve_evolution)(
            problem, grid, (config,), t_final)
        assert got.blow_up_index == level
        _equal_runs(got, solve_checking_every_level(problem, grid, config, t_final,
                                                    every_level))

    @pytest.mark.filterwarnings("ignore:initial/boundary mismatch:UserWarning")
    @pytest.mark.parametrize("every_level", [True, False], ids=["every", "ends"])
    @pytest.mark.parametrize("name,orders", SIX_SCHEMES,
                             ids=[f"{n}{o[0]}{o[1]}" if o else n for n, o in SIX_SCHEMES])
    def test_blow_up_at_the_first_level(self, name, orders, every_level):
        # phi = 1e308 sin x overflows in u^1's Laplacian (and in the first step)
        problem = dataclasses.replace(sample_problem(), phi=lambda x: 1e308 * np.sin(x))
        grid = build_grid(0.0, math.pi, 50)
        config = config_for(name, 0.5 * grid.h, orders)
        with np.errstate(over="ignore", invalid="ignore"):
            (got,) = (solve_group_every_level if every_level else solve_evolution)(
                problem, grid, (config,), 10.0)
            want = solve_checking_every_level(problem, grid, config, 10.0, every_level)
        assert got.blow_up_index == 1
        _equal_runs(got, want)

    def test_checks_are_spaced_again_after_a_rewind(self, monkeypatch):
        # the four table schemes at r=1.59: the check at 384 finds oefd's halt at 379 and
        # the check at 640 fd01's at 623; each rewind steps the failing member's lane alone
        # one level at a time up to that check only, the other lane waiting there, and
        # spaced checks resume from there
        grid = build_grid(0.0, math.pi, 50)
        configs = tuple(config_for(name, 1.59 * grid.h) for name in ("oefd", "oifd", "fd01",
                                                                      "fd11"))
        spans, advance = [], schemes._advance

        def counted(step, lane, state, levels, *args):
            if step is not None:  # not level 0
                spans.append(len(levels))
            return advance(step, lane, state, levels, *args)
        monkeypatch.setattr(schemes, "_advance", counted)
        ends = solve_evolution(sample_problem(), grid, configs, 80.0)
        assert [end.blow_up_index for end in ends] == [379, None, 623, None]
        for config, end in zip(configs, ends):
            _equal_runs(end, solve_checking_every_level(sample_problem(), grid, config, 80.0,
                                                        every_level=False))
        assert spans.count(1) <= 2 * CHECK_EVERY  # one lane's levels per halt

    def test_step_raising_past_an_unchecked_blow_up_reports_the_blow_up(self):
        # g raises from level 634 on, 11 levels past fd01's blow-up at 623 and before
        # the check at 640
        grid = build_grid(0.0, math.pi, 50)
        k = 1.59 * grid.h
        problem = load_problem_config(json.dumps(dict(
            SAMPLE_DOC, g=f"0*sqrt({633.5 * k!r} - t)")))
        (got,) = solve_evolution(problem, grid, (config_for("fd01", k),), 80.0)
        assert got.blow_up_index == 623
        _equal_runs(got, solve_checking_every_level(problem, grid, config_for("fd01", k), 80.0,
                                                    every_level=False))

    def test_step_raising_on_a_finite_run_raises_as_before(self):
        grid = build_grid(0.0, math.pi, 50)
        k = 0.5 * grid.h
        problem = load_problem_config(json.dumps(dict(SAMPLE_DOC, g=f"0*sqrt({70.5 * k!r} - t)")))
        config = config_for("fd11", k)
        with pytest.raises(ExpressionError, match="math domain error"):
            solve_evolution(problem, grid, (config,), 100 * k)
        with pytest.raises(ExpressionError, match="math domain error"):
            solve_checking_every_level(problem, grid, config, 100 * k)


class TestLevelBlocks:
    """on_block gets every level once, in order, in runs that end at multiples of
    CHECK_EVERY, the last level or the blow-up level, each a view of one buffer."""

    # (scheme, r, steps, blow-up level): runs shorter than a block, of exactly one, and
    # of several, finite and ending in blow-ups inside a check interval
    @pytest.mark.parametrize("name,r,steps,level", [
        ("fd11", 0.5, 3, None), ("fd11", 0.5, CHECK_EVERY, None),
        ("oifd", 0.5, 2 * CHECK_EVERY + 5, None), ("fd01", 1.59, 800, 623),
        ("oefd", 1.59, 800, 379), ("fd01", 1.59, 623, 623),
    ], ids=["short", "one-block", "oifd-three-blocks", "fd01-623", "oefd-379", "fd01-623-last"])
    def test_runs_cover_every_level_once(self, name, r, steps, level):
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 50)
        config = config_for(name, r * grid.h)
        t_final = (steps + 0.25) * config.k
        runs = []
        (ends,) = solve_evolution(problem, grid, (config,), t_final,
                                  on_block=lambda first, blocks: runs.append((first, *blocks)))
        last = steps if level is None else level
        assert ends.blow_up_index == level
        assert [first for first, _ in runs] == [0] + list(range(CHECK_EVERY + 1, last + 1,
                                                                CHECK_EVERY))
        assert sum(len(states) for _, states in runs) == last + 1
        assert all(len(states) <= CHECK_EVERY + 1 for _, states in runs)
        assert all(np.shares_memory(runs[0][1], states) for _, states in runs)
        want = solve_checking_every_level(problem, grid, config, t_final)
        _equal_runs(solve_group_every_level(problem, grid, (config,), t_final)[0], want)

    def test_consumer_runs_under_the_callers_error_state(self):
        # the loop ignores overflow, the consumer does not: under over="raise" an
        # overflow in on_block raises, while the diverging run itself does not
        grid = build_grid(0.0, math.pi, 50)
        config = config_for("fd01", 1.59 * grid.h)
        with np.errstate(over="raise"):
            (ends,) = solve_evolution(sample_problem(), grid, (config,), 80.0,
                                      on_block=lambda first, blocks: None)
            assert ends.blow_up_index == 623
            with pytest.raises(FloatingPointError):
                solve_evolution(sample_problem(), grid, (config,), 1.0,
                                on_block=lambda first, blocks: blocks[0] * 1e308 * 1e308)


@pytest.mark.parametrize("doc", [FORCED_DOC, SAMPLE_DOC], ids=["forced", "sample"])
@pytest.mark.parametrize("name,orders", SIX_SCHEMES,
                         ids=[f"{n}{o[0]}{o[1]}" if o else n for n, o in SIX_SCHEMES])
def test_no_step_writes_into_its_input(name, orders, doc, N=12):
    # solve_evolution rewinds to an earlier level, so a step must leave it as it was
    problem = load_problem_config(json.dumps(doc))
    grid = build_grid(0.0, math.pi, N)
    config = config_for(name, 0.05, orders)
    stepper = make_stepper(config, assemble_system(grid, problem), grid, problem)
    state = stepper.start[-1]

    def arrays(state):  # a baseline lane's carry is a tuple, an entry per member
        carry = state.carry if isinstance(state.carry, tuple) else (state.carry,)
        return (state.values, state.prev, *carry)

    for _ in range(3):
        before = [None if a is None else a.copy() for a in arrays(state)]
        after = STEP_FUNCTIONS[config.kind](stepper, state)
        for old, new in zip(before, arrays(state), strict=True):
            assert (old is None) == (new is None)
            assert old is None or np.array_equal(old, new)
        state = after


@pytest.mark.parametrize("name,orders,make_problem,N", [
    pytest.param(n, o, make, N, id=(f"{n}{o[0]}{o[1]}" if o else n)
                 + ("-sample" if make is sample_problem else "") + (f"-N{N}" if N != 12 else ""))
    for n, o in SIX_SCHEMES for make in (forced_problem, sample_problem)
    for N in (12, schemes.TRIDIAGONAL_MIN_N + 1)])
def test_a_step_result_stays_intact_for_one_further_step(name, orders, make_problem, N):
    # a step writes its level into the next array of its lane's ring, 3 for the semigroup
    # family and 4 for the baselines: a result stays intact while the next step reads it, and
    # while a step from any other state runs, and its array is written again a ring later
    problem = make_problem()
    grid = build_grid(0.0, math.pi, N)
    config = config_for(name, 0.05, orders)
    stepper = make_stepper(config, assemble_system(grid, problem), grid, problem)
    step, ring = STEP_FUNCTIONS[config.kind], 3 if config.kind == "semigroup" else 4
    states = [step(stepper, stepper.start[-1])]
    for _ in range(2 * ring):
        before = states[-1].values.copy()
        states.append(step(stepper, states[-1]))
        assert np.array_equal(states[-2].values, before)
    for n in range(len(states) - ring):
        assert states[n + ring].values is states[n].values
        assert all(states[n + i].values is not states[n].values for i in range(1, ring))

    def bits(state):  # a baseline lane's carry is a tuple, an entry per member
        carry = state.carry if isinstance(state.carry, tuple) else (state.carry,)
        return [None if a is None else a.tobytes() for a in (state.values, *carry)]

    # a step from a copy of the result before the last, which it copies into the ring, leaves
    # the last intact and gives the bits that the step from that result itself gave
    last, before, source = states[-1], bits(states[-1]), states[-2]
    copy = dataclasses.replace(source, values=source.values.copy(), carry=(
        source.carry.copy() if isinstance(source.carry, np.ndarray) else source.carry))
    again = step(stepper, copy)
    assert bits(last) == before
    assert bits(again) == before


@pytest.mark.parametrize("name,orders", SPD_SCHEMES,
                         ids=[config_for(n, 1.0, o).label for n, o in SPD_SCHEMES])
def test_no_tridiagonal_step_writes_into_its_input(name, orders):
    # the resolvent reads its v after the shared pass has made the result
    test_no_step_writes_into_its_input(name, orders, FORCED_DOC, schemes.TRIDIAGONAL_MIN_N + 1)


@pytest.mark.parametrize("name,orders", ALL_SCHEMES, ids=[n for n, _ in ALL_SCHEMES])
def test_a_lane_refuses_a_state_without_a_column_per_member(name, orders):
    # a one-member lane's (n, 1) coefficients broadcast over a (size, 2) state, whose
    # second column no member would finish (no Q_S or oifd solve): the step raises instead
    problem = forced_problem()
    grid = build_grid(0.0, math.pi, 9)
    config = config_for(name, 0.05, orders)
    stepper = make_stepper(config, assemble_system(grid, problem), grid, problem)
    state = stepper.start[-1]
    wide = dataclasses.replace(state, values=np.repeat(state.values, 2, axis=1),
                               prev=None if state.prev is None else np.repeat(state.prev, 2, axis=1))
    with pytest.raises(ValueError, match="cannot reshape"):
        STEP_FUNCTIONS[config.kind](stepper, wide)


LOCKSTEP_SCHEMES = [("fd01", None), ("fd11", None), ("fdST", (2, 2)), ("oefd", None),
                    ("oifd", None)]


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestLockstep:
    """A tuple of configs runs in lockstep, and each member's levels, blow-up and on_block
    rows are those of its solo run, bit for bit; if a solo run raises, the group does."""

    @settings(max_examples=60, deadline=None)
    @given(members=st.lists(st.sampled_from(LOCKSTEP_SCHEMES), min_size=1, max_size=5,
                            unique=True),
           N=st.sampled_from([2, 3, 8, 50]),
           r=st.one_of(st.sampled_from([0.5, 1.59, 3.0]), st.floats(0.05, 3.0)),
           doc=st.sampled_from([SAMPLE_DOC, FORCED_DOC]),
           steps=st.sampled_from([1, 2, CHECK_EVERY - 1, CHECK_EVERY, CHECK_EVERY + 1, 130, 700]),
           raise_at=st.one_of(st.none(), st.sampled_from([1, 40, 634])))
    # fd01 blows up at 623 while fd11 runs on, and oefd at 379 while oifd runs on in its
    # lane; oefd (379) and fd01 blow up before g raises at level 634, a raise that rewinds
    # fd01 to its blow-up, and that fd11 raises at
    @example(members=LOCKSTEP_SCHEMES[:2], N=50, r=1.59, doc=SAMPLE_DOC, steps=700,
             raise_at=None)
    @example(members=LOCKSTEP_SCHEMES[3:], N=50, r=1.59, doc=SAMPLE_DOC, steps=700,
             raise_at=None)
    # fd01's lane, halted at 623, is not stepped on into the raise at 634 that oifd never meets
    @example(members=[LOCKSTEP_SCHEMES[i] for i in (0, 4)], N=50, r=1.59, doc=SAMPLE_DOC,
             steps=634, raise_at=634)
    @example(members=[LOCKSTEP_SCHEMES[i] for i in (0, 3)], N=50, r=1.59, doc=SAMPLE_DOC,
             steps=700, raise_at=634)
    @example(members=LOCKSTEP_SCHEMES[:2], N=50, r=1.59, doc=SAMPLE_DOC, steps=700,
             raise_at=634)
    # the four table schemes: oefd halts at 379 and fd01 at 623, each rebinding its lane,
    # while oifd and fd11 run on in those lanes
    @example(members=[LOCKSTEP_SCHEMES[i] for i in (3, 4, 0, 1)], N=50, r=1.59,
             doc=SAMPLE_DOC, steps=700, raise_at=None)
    # grids of TRIDIAGONAL_MIN_N interior nodes and more, where fd11 steps D + rho resolvent
    # (a lane apart from fd01's) and oifd solves LDL^T
    @example(members=LOCKSTEP_SCHEMES[:2], N=300, r=0.5, doc=FORCED_DOC, steps=130,
             raise_at=None)
    @example(members=LOCKSTEP_SCHEMES[3:], N=300, r=0.5, doc=FORCED_DOC, steps=130,
             raise_at=None)
    def test_members_equal_solo_runs(self, members, N, r, doc, steps, raise_at):
        grid = build_grid(0.0, math.pi, N)
        k = r * grid.h
        if raise_at is not None:  # g raises from t = (raise_at - 1/2) k on
            doc = dict(doc, g=f"({doc['g']}) + 0*sqrt({(raise_at - 0.5) * k!r} - t)")
        problem = load_problem_config(json.dumps(doc))
        configs = [config_for(name, k, orders) for name, orders in members]
        t_final = (steps + 0.25) * k
        solo = []
        for config in configs:
            try:
                solo.append(solve_group_every_level(problem, grid, (config,), t_final)[0])
            except ExpressionError:
                solo.append(None)
            else:  # and the solo run is the loop that checks every level
                want = solve_checking_every_level(problem, grid, config, t_final)
                assert np.array_equal(bits(solo[-1].states), bits(want.states))
                assert solo[-1].blow_up_index == want.blow_up_index
        if None in solo:
            with pytest.raises(ExpressionError):
                solve_evolution(problem, grid, tuple(configs), t_final)
            return
        every = solve_group_every_level(problem, grid, tuple(configs), t_final)
        ends = solve_evolution(problem, grid, tuple(configs), t_final)
        for got, end, want in zip(every, ends, solo):
            assert got.blow_up_index == end.blow_up_index == want.blow_up_index
            assert np.array_equal(bits(got.states), bits(want.states))
            assert np.array_equal(bits(end.times), bits(want.times[[0, -1]]))
            assert np.array_equal(bits(end.states), bits(want.states[[0, -1]]))

    def test_a_solo_config_is_the_one_member_group(self):
        # a one-config solve steps the one-member lane that make_stepper returns
        grid = build_grid(0.0, math.pi, 12)
        for name in ("fd11", "oifd"):
            config = config_for(name, 0.05)
            (solo,) = solve_evolution(forced_problem(), grid, (config,), 1.0)
            first, *_, last = manual_levels(config, forced_problem(), grid, 20)
            assert np.array_equal(bits(solo.states),
                                  bits(np.stack([first.values[:, 0], last.values[:, 0]])))

    def test_a_halted_members_finish_is_skipped_on_the_sweep_path(self, monkeypatch):
        # on the large-grid path, once the band sweeps' and now the tridiagonal solves':
        # fd14 and fd33 share a lane at N = 400 (D and P_3, one length); fd14 fails the
        # check at level 192, is re-stepped from 128 and halts at 137, and its tridiagonal
        # factor is solved no more after that while fd33 runs on to level 424
        grid = build_grid(0.0, math.pi, 400)
        configs = tuple(config_for("fdST", 9 * grid.h, orders) for orders in ((1, 4), (3, 3)))
        solo = [solve_evolution(sample_problem(), grid, (c,), 30.0)[0] for c in configs]
        solves, solve = {}, schemes.linalg.solve_banded
        def counted(fact, *args):
            key = type(fact).__name__
            solves[key] = solves.get(key, 0) + 1
            return solve(fact, *args)
        monkeypatch.setattr(schemes.linalg, "solve_banded", counted)
        ends = solve_evolution(sample_problem(), grid, configs, 30.0)
        for end, want in zip(ends, solo):
            assert end.blow_up_index == want.blow_up_index
            assert np.array_equal(bits(end.times), bits(want.times))
            assert np.array_equal(bits(end.states), bits(want.states))
        assert [end.blow_up_index for end in ends] == [137, None]
        # fd14's Schur complement, fd33's Q_3 band
        assert solves == {"TridiagonalFactorization": 192 + 9,
                          "BandedFactorization": 424 + 64}

    def test_members_need_one_time_step(self):
        grid = build_grid(0.0, math.pi, 12)
        with pytest.raises(ValueError, match="one time step"):
            solve_evolution(sample_problem(), grid, (config_for("fd11", 0.05),
                                                     config_for("oifd", 0.1)), 1.0)

    @pytest.mark.parametrize("names", [("fd01", "fd11"), ("oefd", "oifd")])
    def test_members_of_a_kind_share_one_step(self, names, monkeypatch):
        # one step per level serves the whole lane: fd01 and fd11, or oefd and oifd
        calls = []
        for name in ("step_semigroup", "step_oefd", "step_oifd"):
            def counted(stepper, state, fn=getattr(schemes, name)):
                calls.append(len(stepper.members))
                return fn(stepper, state)
            monkeypatch.setattr(schemes, name, counted)
        grid = build_grid(0.0, math.pi, 12)
        solve_evolution(sample_problem(), grid, tuple(config_for(n, 0.05) for n in names), 0.5)
        assert calls == [2] * (10 if names[0] == "fd01" else 9)


class TestDispatchBudget:
    """The per-level work of a lockstep solve of the four table schemes at N=50, counted at
    the names the bench tracer patches: one step per lane and level, apply_poly only as the
    semigroup lane's plan binds a pass, one solve per live implicit member and level, and no
    per-level forcing on the steady sample problem."""

    TABLE = (("oefd", None), ("oifd", None), ("fd01", None), ("fd11", None))

    def run(self, monkeypatch, members, r, steps):
        """Solve members on the sample problem at N=50 to level steps. Returns the
        trajectories, a [lane label, level, ids of the factors its live implicit members step
        with, ids of the factors solved, apply_poly calls] record per step call, and the number
        of calls of the forcing sources `schemes._bind` makes and of the functions they
        evaluate."""
        grid = build_grid(0.0, math.pi, 50)
        k = r * grid.h
        calls, forcing, made, factors = [], [], [], {}

        def wrap(module, name, record):
            fn = getattr(module, name)

            def counted(*args):
                record(*args)
                return fn(*args)
            monkeypatch.setattr(module, name, counted)

        def step(lane, state):
            live = [id(factors[m]) for m in lane.members if m in factors]
            calls.append([lane.config.label, round(state.t / k) + 1, live, [], 0])

        def solve(fact, *_):
            if calls:  # not oifd's ghost start, solved in make_stepper
                calls[-1][3].append(id(fact))

        def poly(*_):
            calls[-1][4] += 1

        def stepper_with_factor(*args):
            made.clear()
            stepper = make(*args)
            if made:  # the last factor made: oifd's step's, after its ghost start's
                factors[stepper.members[0]] = made[-1]
            return stepper

        factor = schemes.linalg.lu_factor_banded
        monkeypatch.setattr(schemes.linalg, "lu_factor_banded",
                            lambda matrix: made.append(factor(matrix)) or made[-1])
        make = schemes.make_stepper
        monkeypatch.setattr(schemes, "make_stepper", stepper_with_factor)
        for name in ("step_semigroup", "step_oefd", "step_oifd"):
            wrap(schemes, name, step)
        wrap(schemes, "apply_poly", poly)
        wrap(schemes.linalg, "solve_banded", solve)
        for name in ("forcing_vector", "boundary_vector", "sample"):
            wrap(schemes, name, lambda *_: forcing.append(name))
        bind = schemes._bind

        def counted_bind(problem, terms):
            source = bind(problem, terms)

            def counted_source(*args):
                forcing.append("source")
                return source(*args)
            return counted_source
        monkeypatch.setattr(schemes, "_bind", counted_bind)
        configs = tuple(config_for(name, k, orders) for name, orders in members)
        ends = solve_evolution(sample_problem(), grid, configs, (steps + 0.25) * k)
        return ends, calls, len(forcing)

    def test_one_step_per_lane_and_level(self, monkeypatch):
        ends, calls, _ = self.run(monkeypatch, self.TABLE, 0.5, 200)
        assert [end.blow_up_index for end in ends] == [None] * 4
        # the baselines' lane steps from u^1 on, and is named by its first member's kind
        assert [level for lane, level, *_ in calls if lane == "fd01"] == list(range(1, 201))
        assert [level for lane, level, *_ in calls if lane == "oefd"] == list(range(2, 201))
        assert len(calls) == 200 + 199
        for lane, _, live, solved, polys in calls:
            assert sorted(solved) == sorted(live) and len(live) == 1  # fd11's, or oifd's
        # the plan binds a pass per ring slot as a level first reads it: V^0 copied into the
        # first slot, then the other two, and none again
        assert [(lane, level) for lane, level, *_, polys in calls if polys] == [
            ("fd01", 1), ("fd01", 2), ("fd01", 3)]
        assert {polys for *_, polys in calls} == {0, 1}

    def test_no_solve_after_a_members_halt(self, monkeypatch):
        # at r=9, oefd halts at 141, fdST 1,3 at 189 and fd01 at 259, each rebinding its
        # lane; fdST 3,3 shares fdST 1,3's lane, and runs on with oifd and fd11
        members = self.TABLE + (("fdST", (1, 3)), ("fdST", (3, 3)))
        ends, calls, _ = self.run(monkeypatch, members, 9.0, 300)
        assert [end.blow_up_index for end in ends] == [141, None, 259, None, 189, None]
        for _, _, live, solved, _ in calls:
            assert sorted(solved) == sorted(live)  # once per live implicit member
        # the levels fdST 3,3's lane steps with fdST 1,3's factor unsolved; fd01's halt
        # rewinds it a second time, from 256, so levels 257 to 300 are stepped twice
        assert {level for lane, level, live, *_ in calls
                if lane == "fd13" and len(live) == 1} == set(range(190, 301))

    def test_a_steady_source_is_not_evaluated_per_level(self, monkeypatch):
        counts = [self.run(monkeypatch, self.TABLE, 0.5, steps)[2] for steps in (20, 200)]
        assert counts[0] == counts[1]


class TestDensePath:
    """A long unforced small-grid member whose one-step map G does not grow advances by G^16
    after its first CHECK_EVERY span: within 1e-10 of stepping at the last level, every level
    of the first span bit for bit, and in lockstep bit for bit its solo run."""

    FAMILIES = (("oefd", "oifd"), ("fd01", "fd11"))

    @staticmethod
    def solve(configs, t_final, N=50, problem=None, stepped=False, monkeypatch=None):
        """The trajectories and every member's rows (each on_block run, stacked), dense
        unless stepped."""
        if stepped:
            monkeypatch.setattr(schemes, "DENSE_MIN_LEVELS", math.inf)
        runs = []
        ends = solve_evolution(problem or sample_problem(), build_grid(0.0, math.pi, N),
                               configs, t_final,
                               on_block=lambda first, blocks: runs.append(
                                   [b.copy() for b in blocks]))
        if stepped:
            monkeypatch.undo()
        return ends, [np.concatenate(rows) for rows in zip(*runs)]

    @pytest.mark.parametrize("name", ["oefd", "oifd", "fd01", "fd11"])
    def test_within_1e_10_of_stepping(self, name, monkeypatch):
        grid = build_grid(0.0, math.pi, 50)
        config = config_for(name, 0.016 * grid.h)
        steps = []
        for kind in ("step_semigroup", "step_oefd", "step_oifd"):
            step = getattr(schemes, kind)
            monkeypatch.setattr(schemes, kind, lambda lane, state, step=step: (
                steps.append(state.t), step(lane, state))[1])
        (dense,), (dense_rows,) = self.solve((config,), 6.0)
        dense_steps = len(steps)
        (stepped,), (stepped_rows,) = self.solve((config,), 6.0, stepped=True,
                                                 monkeypatch=monkeypatch)
        assert len(dense_rows) == len(stepped_rows) == 5969
        assert dense_steps < 300 < len(steps)  # the first span and G's columns, not 5968 steps
        assert np.array_equal(bits(dense_rows[:CHECK_EVERY + 1]),
                              bits(stepped_rows[:CHECK_EVERY + 1]))
        assert not np.array_equal(dense_rows[CHECK_EVERY + 1:], stepped_rows[CHECK_EVERY + 1:])
        assert np.abs(dense.states[-1] - stepped.states[-1]).max() <= 1e-10
        assert np.array_equal(bits(dense.states[-1]), bits(dense_rows[-1]))
        assert dense.blow_up_index is None

    @pytest.mark.parametrize("family", FAMILIES, ids=["baselines", "semigroup"])
    def test_lockstep_equals_solo_dense_runs(self, family):
        configs = tuple(config_for(name, 0.016 * math.pi / 50) for name in family)
        ends, rows = self.solve(configs, 6.0)
        for config, end, member_rows in zip(configs, ends, rows):
            (solo,), (solo_rows,) = self.solve((config,), 6.0)
            assert np.array_equal(bits(end.states), bits(solo.states))
            assert np.array_equal(bits(member_rows), bits(solo_rows))

    def test_without_on_block_the_last_level_is_the_same(self):
        config = config_for("fd11", 0.016 * math.pi / 50)
        (ends,), _ = self.solve((config,), 6.0)
        (bare,) = solve_evolution(sample_problem(), build_grid(0.0, math.pi, 50), (config,), 6.0)
        assert np.array_equal(bits(bare.states), bits(ends.states))

    def test_a_growing_member_keeps_stepping_beside_a_dense_one(self, monkeypatch):
        # fd01's map grows at r = 0.159 (rho > 1) and fd11's does not: in their lane fd11 goes
        # dense and fd01 steps on, its every level the bits of the all-stepped run
        k = 0.159 * math.pi / 50
        configs = (config_for("fd01", k), config_for("fd11", k))
        t_final = 1100.25 * k
        ends, rows = self.solve(configs, t_final)
        stepped, stepped_rows = self.solve(configs, t_final, stepped=True,
                                           monkeypatch=monkeypatch)
        assert np.array_equal(bits(rows[0]), bits(stepped_rows[0]))
        assert np.array_equal(bits(ends[0].states), bits(stepped[0].states))
        assert not np.array_equal(rows[1], stepped_rows[1])
        assert np.abs(ends[1].states[-1] - stepped[1].states[-1]).max() <= 1e-10
        for config, end, member_rows in zip(configs, ends, rows):
            (solo,), (solo_rows,) = self.solve((config,), t_final)
            assert np.array_equal(bits(member_rows), bits(solo_rows))
            assert np.array_equal(bits(end.states), bits(solo.states))

    # the pinned blow-ups, each run past DENSE_MIN_LEVELS so that its gate measures rho > 1
    @pytest.mark.parametrize("name,N,k,level", [
        ("fd01", 50, 1.59 * math.pi / 50, 623), ("oefd", 50, 1.59 * math.pi / 50, 379),
        ("fd01", 50, 3.0 * math.pi / 50, 414), ("fd01", 10, 1.5, 335),
    ], ids=["fd01-623", "oefd-379", "fd01-414", "fd01-335"])
    def test_pinned_blow_ups_keep_stepping(self, name, N, k, level, monkeypatch):
        eigvals = []
        monkeypatch.setattr(np.linalg, "eigvals", lambda a, f=np.linalg.eigvals: (
            eigvals.append(a.shape), f(a))[1])
        config = config_for(name, k)
        t_final = (schemes.DENSE_MIN_LEVELS + 0.25) * k
        (end,), (rows,) = self.solve((config,), t_final, N=N)
        assert eigvals  # the gate ran
        assert end.blow_up_index == level == len(rows) - 1
        (stepped,), (stepped_rows,) = self.solve((config,), t_final, N=N, stepped=True,
                                                 monkeypatch=monkeypatch)
        _equal_runs(end, stepped)
        assert np.array_equal(bits(rows), bits(stepped_rows))

    def test_a_non_finite_dense_level_halts_its_member(self, monkeypatch):
        # a power scaled by 1e300 overflows the second block after the first span: the
        # member halts at its first non-finite level, as a stepped one does
        power = schemes._power
        monkeypatch.setattr(schemes, "_power", lambda *args: power(*args) * 1e300)
        config = config_for("fd11", 0.016 * math.pi / 50)
        (end,), (rows,) = self.solve((config,), 6.0)
        assert end.blow_up_index == CHECK_EVERY + 1 + schemes.DENSE_SPAN == len(rows) - 1
        assert np.isfinite(rows[:-1]).all() and not np.isfinite(rows[-1]).all()
        assert np.array_equal(bits(end.states[-1]), bits(rows[-1]))

    @pytest.mark.parametrize("case", ["forced", "short", "large"])
    def test_the_gate_runs_no_eigvals_unless_its_cheap_conditions_hold(self, case, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", None)  # a call raises TypeError
        problem, N, levels = {"forced": (forced_problem(), 10, 1100),
                              "short": (sample_problem(), 10, schemes.DENSE_MIN_LEVELS - 1),
                              "large": (sample_problem(), 66, 1100)}[case]
        k = 0.016 * math.pi / N
        solve_evolution(problem, build_grid(0.0, math.pi, N),
                        (config_for("oifd", k), config_for("fd11", k)), (levels + 0.25) * k)

    @pytest.mark.parametrize("name,r", [("oifd", 0.016), ("fd11", 0.001)])
    def test_a_flushed_map_holds_no_subnormal(self, name, r, monkeypatch):
        grid = build_grid(0.0, math.pi, 50)
        problem = sample_problem()
        stepper = make_stepper(config_for(name, r * grid.h), assemble_system(grid, problem),
                               grid, problem)
        g = schemes._one_step_map(schemes._step, stepper)
        assert np.abs(g[g != 0.0]).min() >= np.finfo(float).tiny
        monkeypatch.setattr(schemes, "FLUSH", 0.0)  # unflushed, fd11's holds some at r = 0.001
        g = schemes._one_step_map(schemes._step, stepper)
        assert (np.abs(g[g != 0.0]).min() < np.finfo(float).tiny) == (name == "fd11")
