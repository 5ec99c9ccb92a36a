import math

import numpy as np
import pytest

from dampwave.operators import (
    assemble_system,
    build_grid,
    forcing_vector,
    sample,
    second_difference,
)
from dampwave.pade import apply_poly
from dampwave.problems import (
    DampedWaveProblem,
    EvaluationError,
    compile_expression,
    parse_expression,
    sample_problem,
)

from oracles import operator_to_dense


def make_problem(gamma=lambda x: 2.0, g=lambda x, t: 0.0, u_a=lambda t: 0.0,
                 u_b=lambda t: 0.0, domain=(0.0, math.pi)):
    a, b = domain
    ua0, ub0 = u_a(0.0), u_b(0.0)
    return DampedWaveProblem(
        domain=domain,
        gamma=gamma,
        g=g,
        # linear blend keeps the corners compatible with the boundary data
        phi=lambda x: ua0 + (ub0 - ua0) * (x - a) / (b - a),
        psi=lambda x: 0.0,
        u_a=u_a,
        u_b=u_b,
    )


class TestBuildGrid:
    def test_pi_tenth_nodes(self):
        grid = build_grid(0.0, math.pi, 10)
        assert grid.h == pytest.approx(math.pi / 10, abs=0)
        # abscissae of the reference error table
        expected = [0.314159265, 0.628318531, 0.942477796, 1.256637061,
                    1.570796327, 1.884955592, 2.199114858, 2.513274123,
                    2.827433388]
        assert grid.interior_nodes == pytest.approx(expected, abs=1e-9)

    def test_smallest_grid(self):
        grid = build_grid(0.0, 1.0, 2)
        assert grid.h == 0.5
        assert list(grid.interior_nodes) == [0.5]

    def test_node_formula(self):
        grid = build_grid(0.0, math.pi, 50)
        assert grid.N == 50
        assert len(grid.interior_nodes) == 49
        h = (math.pi - 0.0) / 50
        assert grid.interior_nodes == pytest.approx([0 + i * h for i in range(1, 50)], abs=0)

    def test_invariants(self):
        grid = build_grid(-1.5, 2.5, 7)
        assert grid.h == (2.5 - (-1.5)) / 7
        assert np.all(np.diff(grid.interior_nodes) > 0)
        assert grid.interior_nodes[0] > grid.a and grid.interior_nodes[-1] < grid.b

    @pytest.mark.parametrize("a,b,N", [
        (0.0, 1.0, 1), (0.0, 1.0, 0), (1.0, 1.0, 4), (2.0, 1.0, 4),
        (-math.inf, 0.0, 10), (0.0, math.inf, 10), (-1e308, 1e308, 10),
        # h^2 underflows to zero, is subnormal (1/h^2 = inf), or overflows
        (0.0, 1e-300, 10), (0.0, 1e-160, 10), (0.0, 1e200, 10),
    ])
    def test_rejects_bad_input(self, a, b, N):
        with pytest.raises(ValueError):
            build_grid(a, b, N)


def laplacian_block(op):
    """The A block of M = [[0, I], [A/h^2, -Gamma]], rescaled by h^2."""
    n = op.n_interior
    return operator_to_dense(op)[n:, :n] / op.inv_h2


class TestAssembleSystem:
    def test_stencil_n3(self):
        grid = build_grid(0.0, math.pi, 3)
        op = assemble_system(grid, make_problem())
        assert laplacian_block(op) == pytest.approx(np.array([[-2.0, 1.0], [1.0, -2.0]]))

    def test_degenerate_single_node(self):
        grid = build_grid(0.0, 1.0, 2)
        op = assemble_system(grid, make_problem(gamma=lambda x: 3.0))
        assert laplacian_block(op) == pytest.approx(np.array([[-2.0]]))
        assert op.damping == pytest.approx([3.0])

    def test_eigenvalues_n3(self):
        grid = build_grid(0.0, math.pi, 3)
        op = assemble_system(grid, make_problem())
        eig = np.sort(np.linalg.eigvalsh(laplacian_block(op)))
        assert eig == pytest.approx([-3.0, -1.0], abs=1e-12)
        formula = np.sort([-4 * math.sin(n * math.pi / 6) ** 2 for n in (1, 2)])
        assert eig == pytest.approx(formula, abs=1e-12)

    @pytest.mark.parametrize("N", [2, 5, 11, 20])
    def test_eigenvalue_formula(self, N):
        # brute-force eigendecomposition against the sine formula
        grid = build_grid(0.0, math.pi, N)
        op = assemble_system(grid, make_problem())
        eig = np.sort(np.linalg.eigvalsh(laplacian_block(op)))
        formula = np.sort([-4 * math.sin(n * math.pi / (2 * N)) ** 2 for n in range(1, N)])
        assert eig == pytest.approx(formula, abs=1e-10)

    def test_rejects_negative_damping(self):
        grid = build_grid(0.0, math.pi, 5)
        with pytest.raises(ValueError, match="nonnegative"):
            assemble_system(grid, make_problem(gamma=lambda x: math.cos(x)))

    @pytest.mark.parametrize("N", [2, 3, 7, 13, 20])
    def test_blockwise_matches_dense(self, N):
        # apply_poly's Horner loop takes each M-product block by block
        rng = np.random.default_rng(42 + N)
        grid = build_grid(0.0, math.pi, N)
        op = assemble_system(grid, make_problem(gamma=lambda x: 1.0 + x))
        dense = operator_to_dense(op)
        for _ in range(5):
            v = rng.standard_normal(op.size)
            lhs = apply_poly((0.0, 1.0), op, 1.0, v)()
            rhs = dense @ v
            assert np.abs(lhs - rhs).max() <= 1e-13 * max(1.0, np.abs(rhs).max())


class TestForcingVector:
    def test_sample_problem_zero(self):
        problem = sample_problem()
        grid = build_grid(0.0, math.pi, 10)
        for t in (0.0, 0.37, 5.0):
            f = forcing_vector(problem, grid, t)
            assert not f.any()
            assert not f.flags.writeable

    def test_boundary_placement(self):
        problem = make_problem(u_a=lambda t: 1.0, domain=(0.0, 1.5))
        grid = build_grid(0.0, 1.5, 3)  # h = 0.5
        f = forcing_vector(problem, grid, 0.7)
        n = grid.n_interior
        assert f[:n] == pytest.approx([0.0, 0.0])
        assert f[n:] == pytest.approx([4.0, 0.0])  # u_a / h^2 = 1/0.25

    def test_interior_forcing_values(self):
        problem = make_problem(g=lambda x, t: x * t, domain=(0.0, 1.0))
        grid = build_grid(0.0, 1.0, 3)
        f = forcing_vector(problem, grid, 2.0)
        n = grid.n_interior
        assert f[:n] == pytest.approx([0.0, 0.0])
        assert f[n:] == pytest.approx([2.0 / 3.0, 4.0 / 3.0])

    def test_first_block_always_zero(self):
        problem = make_problem(g=lambda x, t: math.sin(x + t), u_a=lambda t: t,
                               u_b=lambda t: -t)
        grid = build_grid(0.0, math.pi, 8)
        f = forcing_vector(problem, grid, 1.3)
        assert not f[: grid.n_interior].any()

    def test_linearity_in_data(self):
        # forcing(alpha * data) == alpha * forcing(data)
        alpha = 3.7
        grid = build_grid(0.0, 2.0, 6)
        base = make_problem(g=lambda x, t: x - t, u_a=lambda t: 2 * t,
                            u_b=lambda t: 1.0 + t, domain=(0.0, 2.0))
        scaled = make_problem(g=lambda x, t: alpha * (x - t), u_a=lambda t: alpha * 2 * t,
                              u_b=lambda t: alpha * (1.0 + t), domain=(0.0, 2.0))
        for t in (0.0, 0.9, 4.2):
            f1 = forcing_vector(base, grid, t)
            f2 = forcing_vector(scaled, grid, t)
            assert f2 == pytest.approx(alpha * f1, rel=1e-13)


def test_laplacian_stencil_single_row():
    assert second_difference(np.array([2.0])) == pytest.approx([-4.0])


def _branching(x):
    return 1.0 if x < 1.0 else x * x


class TestSample:
    def test_constant_broadcasts(self):
        nodes = build_grid(0.0, 2.0, 8).interior_nodes
        values = sample(lambda x, t: 0.5, nodes, 3.0)
        assert values.shape == nodes.shape
        assert np.all(values == 0.5)
        assert values.flags.writeable

    @pytest.mark.parametrize("fn", [math.sin, _branching], ids=["math.sin", "branching"])
    @pytest.mark.parametrize("N", [2, 9])
    def test_scalar_only_callable_matches_per_node_loop(self, fn, N):
        nodes = build_grid(0.0, 2.0, N).interior_nodes
        expected = np.array([fn(x) for x in nodes], dtype=float)
        assert np.array_equal(sample(fn, nodes), expected)

    @pytest.mark.parametrize("N", [2, 9])
    def test_array_callable_called_once(self, N):
        nodes = build_grid(0.0, 2.0, N).interior_nodes
        calls = []

        def g(x, t):
            calls.append(x)
            return np.sin(x) * t

        values = sample(g, nodes, 2.0)
        assert len(calls) == 1
        assert np.array_equal(values, np.array([math.sin(x) * 2.0 for x in nodes]))

    def test_single_interior_node(self):
        nodes = build_grid(0.0, 1.0, 2).interior_nodes
        assert sample(lambda x: 3.0, nodes).tolist() == [3.0]
        assert sample(np.cos, nodes).tolist() == [math.cos(0.5)]
        compiled = compile_expression(parse_expression("x*t"))
        assert sample(compiled, nodes, 4.0).tolist() == [2.0]

    def test_evaluation_error_propagates_without_fallback(self):
        nodes = build_grid(0.0, 2.0, 4).interior_nodes  # 0.5, 1.0, 1.5
        compiled = compile_expression(parse_expression("1/(x - 1)"))
        calls = []

        def g(x, t):
            calls.append(x)
            return compiled(x, t)

        # the array pass raises FloatingPointError, so sample goes node by node;
        # the EvaluationError at x=1 ends that loop before the node at 1.5
        with pytest.raises(EvaluationError, match=r"\(1\.0 / \(x - 1\.0\)\)"):
            sample(g, nodes, 0.0)
        assert len(calls) == 3 and calls[0] is nodes
        assert calls[1:] == [0.5, 1.0]
