import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampwave.operators import assemble_system, build_grid
from dampwave.problems import DampedWaveProblem
from dampwave.schemes import StateVector, config_for, make_stepper, step_semigroup
from dampwave.stability import (
    MAX_MAP_SIZE,
    ModeCouplingError,
    check_explicit_stability,
    implicit_amplification,
    spectral_radius,
)

from oracles import QuadraticCoeffs, explicit_char_poly, jury_stable, operator_to_dense
from oracles import spectral_radius as dense_spectral_radius


def roots_inside(q: QuadraticCoeffs) -> bool:
    r = np.roots([q.a, q.b, q.c])
    return bool(np.all(np.abs(r) < 1.0))


class TestJury:
    def test_complex_pair_inside(self):
        q = QuadraticCoeffs(1.0, 0.0, 0.5)
        assert jury_stable(q)
        assert np.abs(np.roots([1.0, 0.0, 0.5])) == pytest.approx(
            [math.sqrt(0.5)] * 2, rel=1e-12
        )

    def test_double_root_on_circle(self):
        assert not jury_stable(QuadraticCoeffs(1.0, -2.0, 1.0))  # p(1) = 0

    def test_modulus_one_pair(self):
        assert not jury_stable(QuadraticCoeffs(1.0, 0.0, 1.0))  # |c| = a

    def test_rejects_nonpositive_leading(self):
        with pytest.raises(ValueError):
            jury_stable(QuadraticCoeffs(0.0, 1.0, 0.5))
        with pytest.raises(ValueError):
            jury_stable(QuadraticCoeffs(-1.0, 0.0, 0.0))

    def test_matches_brute_force_roots(self):
        # randomized equivalence sweep, boundary margin excluded
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 10_000:
            a = rng.uniform(0.1, 3.0)
            b = rng.uniform(-4.0, 4.0)
            c = rng.uniform(-4.0, 4.0)
            moduli = np.abs(np.roots([a, b, c]))
            if np.any(np.abs(moduli - 1.0) <= 1e-9):
                continue
            q = QuadraticCoeffs(a, b, c)
            assert jury_stable(q) == bool(np.all(moduli < 1.0)), (a, b, c)
            checked += 1


class TestExplicitCharPoly:
    def test_zero_step_neutral(self):
        q = explicit_char_poly(3, 10, 0.0, 0.5, 2.0)
        assert (q.a, q.b, q.c) == (1.0, -2.0, 1.0)
        assert np.roots([q.a, q.b, q.c]) == pytest.approx([1.0, 1.0])

    def test_middle_mode_value(self):
        # n = N/2 makes sin^2 = 1/2
        q = explicit_char_poly(4, 8, 0.1, 0.5, 2.0)
        assert q.c == pytest.approx(0.88, abs=1e-12)
        assert q.b == pytest.approx(-1.8, abs=1e-12)

    def test_rejects_bad_mode_index(self):
        with pytest.raises(ValueError):
            explicit_char_poly(0, 10, 0.1, 0.5, 2.0)
        with pytest.raises(ValueError):
            explicit_char_poly(10, 10, 0.1, 0.5, 2.0)

    @pytest.mark.parametrize("N", [4, 6, 9])
    def test_roots_are_mode_eigenvalues(self, N):
        # eigenvalues of I + kM restricted to mode n (constant damping)
        gamma_c, k = 2.0, 0.05
        problem = DampedWaveProblem(
            domain=(0.0, math.pi),
            gamma=lambda x: gamma_c,
            g=lambda x, t: 0.0,
            phi=lambda x: 0.0,
            psi=lambda x: 0.0,
            u_a=lambda t: 0.0,
            u_b=lambda t: 0.0,
        )
        grid = build_grid(0.0, math.pi, N)
        op = assemble_system(grid, problem)
        amp = np.eye(op.size) + k * operator_to_dense(op)
        eig = np.linalg.eigvals(amp)
        expected = []
        for n in range(1, N):
            q = explicit_char_poly(n, N, k, grid.h, gamma_c)
            expected.extend(np.roots([q.a, q.b, q.c]))
        key = lambda z: (np.round(np.real(z), 9), np.round(np.imag(z), 9))
        assert sorted(eig, key=key) == pytest.approx(
            sorted(np.array(expected), key=key), abs=1e-10
        )


class TestExplicitVerdict:
    def test_stable_point(self):
        v = check_explicit_stability(0.01, 0.2, 2.0)
        assert v.stable
        assert all(c.passed for c in v.conditions)
        assert v.conditions[0].bound == pytest.approx(1.0)
        assert v.conditions[1].value == pytest.approx(0.5)
        assert v.conditions[1].bound == pytest.approx(math.sqrt(2.0) / 2)

    def test_unstable_table_point(self):
        v = check_explicit_stability(0.1, math.pi / 10, 2.0)
        assert not v.stable
        assert v.conditions[0].passed
        assert not v.conditions[1].passed
        assert v.conditions[1].value == pytest.approx(math.sqrt(0.1) / (math.pi / 10))

    def test_zero_damping_never_stable(self):
        for k, h in ((0.001, 0.5), (0.1, 0.01), (1.0, 1.0)):
            v = check_explicit_stability(k, h, 0.0)
            assert not v.stable
            assert math.isinf(v.conditions[0].bound)

    def test_monotone_in_h(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = rng.uniform(1e-3, 0.5)
            h = rng.uniform(0.05, 1.0)
            gamma = rng.uniform(0.1, 10.0)
            if check_explicit_stability(k, h, gamma).stable:
                assert check_explicit_stability(k, h * rng.uniform(1.0, 3.0), gamma).stable

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            check_explicit_stability(-0.1, 0.5, 1.0)
        with pytest.raises(ValueError):
            check_explicit_stability(0.1, 0.5, -1.0)
        for k, h, gamma, name in ((0.1, 0.5, math.nan, "gamma*=nan"),
                                  (0.1, 0.5, math.inf, "gamma*=inf"),
                                  (math.inf, 0.5, 1.0, "k=inf"),
                                  (0.1, math.inf, 1.0, "h=inf")):
            with pytest.raises(ValueError, match=re.escape(name)):
                check_explicit_stability(k, h, gamma)
            with pytest.raises(ValueError, match=re.escape(name)):
                implicit_amplification(10, h, k, gamma)


class TestImplicitAmplification:
    def test_small_k_near_identity(self):
        spec = implicit_amplification(8, 0.3, 1e-9, 2.0)
        assert np.abs(spec.mu_plus - 1.0).max() < 1e-6
        assert np.abs(spec.mu_minus - 1.0).max() < 1e-6

    def test_zero_damping_unit_modulus(self):
        # Cayley transform of purely imaginary eigenvalues; unit modulus up
        # to a couple of ulps of complex-division rounding
        for h, k in ((0.1, 0.05), (0.5, 1.0), (0.02, 0.3)):
            spec = implicit_amplification(12, h, k, 0.0)
            assert np.abs(spec.mu_plus) == pytest.approx(np.ones(11), abs=5e-16)
            assert np.abs(spec.mu_minus) == pytest.approx(np.ones(11), abs=5e-16)

    def test_sample_parameters_contractive(self):
        spec = implicit_amplification(10, math.pi / 10, 0.1, 2.0)
        assert spec.max_modulus <= 1.0
        assert np.abs(spec.mu_plus).max() <= 1.0 and np.abs(spec.mu_minus).max() <= 1.0

    def test_lambdas_match_dense_eigendecomposition(self):
        gamma_c = 2.0
        problem = DampedWaveProblem(
            domain=(0.0, math.pi),
            gamma=lambda x: gamma_c,
            g=lambda x, t: 0.0,
            phi=lambda x: 0.0,
            psi=lambda x: 0.0,
            u_a=lambda t: 0.0,
            u_b=lambda t: 0.0,
        )
        grid = build_grid(0.0, math.pi, 10)
        op = assemble_system(grid, problem)
        eig = np.linalg.eigvals(operator_to_dense(op))
        spec = implicit_amplification(10, grid.h, 0.1, gamma_c)
        formula = np.concatenate([spec.lambda_plus, spec.lambda_minus])
        key = lambda z: (np.round(np.real(z), 8), np.round(np.imag(z), 8))
        assert sorted(eig, key=key) == pytest.approx(sorted(formula, key=key), abs=1e-10)

    def test_rejects_small_N(self):
        with pytest.raises(ValueError):
            implicit_amplification(1, 0.1, 0.1, 1.0)

    def test_randomized_sweep_contractive(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(2000):
            N = int(rng.integers(2, 41))
            h = rng.uniform(0.01, 1.0)
            k = rng.uniform(0.001, 1.0)
            gamma = rng.uniform(0.0, 10.0)
            spec = implicit_amplification(N, h, k, gamma)
            worst = max(worst, spec.max_modulus)
        assert worst <= 1.0 + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        gamma=st.floats(-3.0, 3.0), h=st.floats(-3.0, 0.0), k=st.floats(-6.0, 0.0),
        N=st.integers(2, 200),
    )
    def test_explicit_conditions_are_sufficient(self, gamma, h, k, N):
        # log-uniform (gamma*, h, k): a stable verdict must bound every explicit
        # (0,1) amplification factor 1 + k lambda of M's closed-form eigenvalues
        gamma, h, k = 10.0**gamma, 10.0**h, 10.0**k
        if not check_explicit_stability(k, h, gamma).stable:
            return
        spec = implicit_amplification(N, h, k, gamma)
        lam = np.concatenate([spec.lambda_plus, spec.lambda_minus])
        assert np.abs(1.0 + k * lam).max() <= 1.0


def probe_map(N, h, k, gamma, name="fd11", orders=None):
    """The one-step map of an unforced problem on [0, N h], as `stability --empirical` takes it:
    a step of make_stepper's one-member lane, on a 1-D vector, copied out of the lane's ring."""
    problem = DampedWaveProblem(
        domain=(0.0, N * h),
        gamma=gamma if callable(gamma) else lambda x: gamma,
        g=lambda x, t: 0.0,
        phi=lambda x: 0.0,
        psi=lambda x: 0.0,
        u_a=lambda t: 0.0,
        u_b=lambda t: 0.0,
    )
    grid = build_grid(0.0, N * h, N)
    stepper = make_stepper(config_for(name, k, orders), assemble_system(grid, problem), grid,
                           problem)
    return lambda v: step_semigroup(stepper, StateVector(0.0, v[:, None])).values[:, 0].copy()


class TestPerModeSpectralRadius:
    @pytest.mark.parametrize("N,h,k,gamma", [
        (50, math.pi / 50, 0.05, 2.0),  # the bench's `stability --empirical`
        (2, 0.5, 0.1, 1.0),
        (10, math.pi / 10, 0.3, 0.0),  # no damping: |mu| = 1
        (12, 0.1, 0.05, 50.0),  # overdamped, gamma^2 > 16/h^2
        (25, 0.05, 1.0, 3.0),
        (40, 0.2, 0.01, 7.5),
        (200, math.pi / 200, 0.05, 2.0),  # fd11 through the Schur complement's LDL^T
    ])
    @pytest.mark.parametrize("name,orders", [("fd11", None), ("fd01", None), ("fdST", (2, 2))])
    def test_matches_the_dense_oracle(self, N, h, k, gamma, name, orders):
        apply = probe_map(N, h, k, gamma, name, orders)
        rho, residual = spectral_radius(apply, N)
        dense = dense_spectral_radius(apply, 2 * (N - 1))
        assert rho == pytest.approx(dense, rel=1e-12)
        assert 0.0 <= residual < 1e-12
        if name == "fd11":
            closed = implicit_amplification(N, h, k, gamma).max_modulus
            assert rho == pytest.approx(closed, rel=1e-12)

    def test_bench_configuration(self):
        rho, residual = spectral_radius(probe_map(50, math.pi / 50, 0.05, 2.0), 50)
        assert f"{rho:.12f}" == "0.969829531354"
        assert residual < 1e-12

    def test_one_application_per_plane_basis_vector(self):
        apply = probe_map(9, 0.3, 0.1, 1.0)
        calls = []
        spectral_radius(lambda v: calls.append(v) or apply(v), 9)
        assert len(calls) == 16

    def test_varying_damping_is_refused_by_name(self):
        apply = probe_map(20, math.pi / 20, 0.05, lambda x: 1.0 + x)
        with pytest.raises(ModeCouplingError, match="couples sine modes"):
            spectral_radius(apply, 20)

    @pytest.mark.parametrize("N", [1, MAX_MAP_SIZE // 2 + 2])
    def test_size_bound(self, N):
        calls = []
        with pytest.raises(ValueError, match=f"size {MAX_MAP_SIZE}, got {2 * (N - 1)}"):
            spectral_radius(calls.append, N)
        assert calls == []
