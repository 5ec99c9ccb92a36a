import math
from fractions import Fraction

import numpy as np
import pytest

from dampwave.operators import assemble_system, build_grid
from dampwave.pade import apply_poly, pade_coefficients
from dampwave.problems import DampedWaveProblem

from oracles import eval_scalar, operator_to_dense


def series_coefficients(approx, order):
    """Taylor coefficients of P/Q through the given order, exact rationals."""
    # invert Q as a power series (q0 = 1), then multiply by P
    q = list(approx.q_coeffs) + [Fraction(0)] * (order + 1 - len(approx.q_coeffs))
    p = list(approx.p_coeffs) + [Fraction(0)] * (order + 1 - len(approx.p_coeffs))
    inv = [Fraction(1)]
    for j in range(1, order + 1):
        inv.append(-sum(q[i] * inv[j - i] for i in range(1, j + 1)))
    return [sum(p[i] * inv[j - i] for i in range(0, j + 1)) for j in range(order + 1)]


GOLDEN = {
    (0, 1): ([Fraction(1), Fraction(1)], [Fraction(1)], Fraction(1, 2)),
    (0, 2): ([Fraction(1), Fraction(1), Fraction(1, 2)], [Fraction(1)], Fraction(1, 6)),
    (1, 0): ([Fraction(1)], [Fraction(1), Fraction(-1)], Fraction(-1, 2)),
    (1, 1): ([Fraction(1), Fraction(1, 2)], [Fraction(1), Fraction(-1, 2)], Fraction(-1, 12)),
}


class TestCoefficients:
    @pytest.mark.parametrize("orders", sorted(GOLDEN))
    def test_golden_table(self, orders):
        p, q, lead = GOLDEN[orders]
        approx = pade_coefficients(*orders)
        assert list(approx.p_coeffs) == p
        assert list(approx.q_coeffs) == q
        assert approx.leading_error == lead

    @pytest.mark.parametrize("S", range(0, 5))
    @pytest.mark.parametrize("T", range(0, 5))
    def test_series_match_exact(self, S, T):
        # Taylor series of P/Q must agree with e^theta through order S+T,
        # and the next coefficient must differ by exactly leading_error
        if S + T < 1:
            return
        approx = pade_coefficients(S, T)
        assert approx.p_coeffs[0] == 1 and approx.q_coeffs[0] == 1
        coeffs = series_coefficients(approx, S + T + 1)
        for j in range(S + T + 1):
            assert coeffs[j] == Fraction(1, math.factorial(j)), (S, T, j)
        gap = Fraction(1, math.factorial(S + T + 1)) - coeffs[S + T + 1]
        assert gap == approx.leading_error

    @pytest.mark.parametrize("orders", [(-1, 1), (5, 0), (0, 5), (0, 0), (2, 7)])
    def test_rejects_out_of_range(self, orders):
        with pytest.raises(ValueError):
            pade_coefficients(*orders)


class TestEvalScalar:
    def test_identity_at_zero(self):
        for S in range(3):
            for T in range(3):
                if S + T >= 1:
                    assert eval_scalar(pade_coefficients(S, T), 0.0) == 1.0

    def test_one_one_at_one(self):
        assert eval_scalar(pade_coefficients(1, 1), 1.0) == pytest.approx(3.0, abs=0)

    def test_leading_error_magnitude(self):
        approx = pade_coefficients(0, 1)
        diff = abs(eval_scalar(approx, 0.1) - math.exp(0.1))
        assert diff == pytest.approx(0.00517, rel=1e-2)
        assert diff == pytest.approx(0.5 * 0.1**2, rel=0.05)

    @pytest.mark.parametrize("orders", sorted(GOLDEN))
    @pytest.mark.parametrize("theta", [0.1, -0.1, 0.01, -0.01])
    def test_error_tracks_leading_term(self, orders, theta):
        approx = pade_coefficients(*orders)
        diff = abs(eval_scalar(approx, theta) - math.exp(theta))
        lead = abs(float(approx.leading_error)) * abs(theta) ** (sum(orders) + 1)
        assert diff <= 1.5 * lead
        assert diff >= lead / 1.5

    def test_pole_detection(self):
        with pytest.raises(ZeroDivisionError, match="pole"):
            eval_scalar(pade_coefficients(1, 0), 1.0)


def small_operator(N=3):
    problem = DampedWaveProblem(
        domain=(0.0, math.pi),
        gamma=lambda x: 0.5 + x,
        g=lambda x, t: 0.0,
        phi=lambda x: 0.0,
        psi=lambda x: 0.0,
        u_a=lambda t: 0.0,
        u_b=lambda t: 0.0,
    )
    grid = build_grid(0.0, math.pi, N)
    return assemble_system(grid, problem)


class TestApplyPoly:
    def test_identity_polynomial(self):
        op = small_operator()
        rng = np.random.default_rng(0)
        v = rng.standard_normal(op.size)
        assert apply_poly([1.0], op, 0.3, v)() == pytest.approx(v, abs=0)

    def test_k_zero_collapses(self):
        op = small_operator()
        rng = np.random.default_rng(1)
        v = rng.standard_normal(op.size)
        assert apply_poly([1.0, 1.0], op, 0.0, v)() == pytest.approx(v, abs=0)

    def test_matches_dense_polynomial(self):
        op = small_operator(N=3)  # 4x4 system
        k = 0.2
        rng = np.random.default_rng(7)
        v = rng.standard_normal(op.size)
        approx = pade_coefficients(1, 1)
        dense = operator_to_dense(op)
        for coeffs in (approx.p_floats, approx.q_floats, (0.5, -2.0, 3.0, 1.25)):
            expected = sum(
                c * np.linalg.matrix_power(k * dense, j) @ v for j, c in enumerate(coeffs)
            )
            got = apply_poly(coeffs, op, k, v)()
            assert np.abs(got - expected).max() <= 1e-13 * max(1.0, np.abs(expected).max())

    def test_linear_in_v(self):
        op = small_operator(N=5)
        rng = np.random.default_rng(3)
        v, w = rng.standard_normal((2, op.size))
        coeffs = (1.0, -0.5, 0.25)
        left = apply_poly(coeffs, op, 0.1, 2.0 * v + w)()
        right = 2.0 * apply_poly(coeffs, op, 0.1, v)() + apply_poly(coeffs, op, 0.1, w)()
        assert left == pytest.approx(right, rel=1e-13, abs=1e-13)

    def test_dimension_mismatch(self):
        op = small_operator()
        with pytest.raises(ValueError):
            apply_poly([1.0, 1.0], op, 0.1, np.zeros(op.size - 1))
