import json
import math
import string
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampwave.harness import error_profile
from dampwave.operators import build_grid, sample
from dampwave.problems import (
    _ARRAY,
    _SCALAR,
    FUNCTIONS,
    MAX_DEPTH,
    BinOp,
    Call,
    EvaluationError,
    ExpressionError,
    ExpressionSyntaxError,
    Neg,
    Num,
    ProblemConfigError,
    UnknownIdentifierError,
    Var,
    _tokenize,
    compile_expression,
    eval_expression,
    format_expression,
    load_problem_config,
    parse_expression,
    sample_problem,
    time_free,
)
from dampwave.schemes import config_for, solve_evolution

from oracles import solve_group_every_level, tokenize as loop_tokenize

SAMPLE_DOC = {
    "domain": [0, math.pi],
    "gamma": "2",
    "g": "0",
    "phi": "sin(x)",
    "psi": "-sin(x)",
    "u_a": "0",
    "u_b": "0",
    "exact": "exp(-t)*sin(x)",
}


class TestParse:
    def test_grammar_shape(self):
        tree = parse_expression("exp(-t)*sin(x)")
        assert tree == BinOp("*", Call("exp", Neg(Var("t"))), Call("sin", Var("x")))

    def test_power_right_associative(self):
        assert eval_expression(parse_expression("2^3^2"), 0.0, 0.0) == 512.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert eval_expression(parse_expression("-x^2"), 3.0, 0.0) == -9.0

    def test_negative_exponent(self):
        assert eval_expression(parse_expression("2^-2"), 0.0, 0.0) == 0.25

    def test_precedence(self):
        assert eval_expression(parse_expression("1+2*3^2"), 0.0, 0.0) == 19.0
        assert eval_expression(parse_expression("(1+2)*3"), 0.0, 0.0) == 9.0
        assert eval_expression(parse_expression("2-3-4"), 0.0, 0.0) == -5.0
        assert eval_expression(parse_expression("12/3/2"), 0.0, 0.0) == 2.0

    def test_unbalanced_paren(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("sin(x")
        assert err.value.offset == 5
        assert ")" in err.value.expected

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse_expression("2*y + 1")
        assert err.value.name == "y"
        assert err.value.offset == 2

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifierError):
            parse_expression("tan(x)")

    @pytest.mark.parametrize("text", ["", "  ", "1 +", "* 2", "sin()", "1 2", "(1))"])
    def test_malformed(self, text):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression(text)

    def test_scientific_literals(self):
        assert eval_expression(parse_expression("1e-3 + 2.5E+1"), 0.0, 0.0) == pytest.approx(25.001)

    @pytest.mark.parametrize("text", ["1e400", "x + 1e309", "2*1E+999"])
    def test_non_finite_literal_rejected(self, text):
        with pytest.raises(ExpressionSyntaxError, match="not finite") as err:
            parse_expression(text)
        assert err.value.offset == text.index("1")
        assert parse_expression("1.7e308") == Num(1.7e308)


def _deep(kind, n):
    """An expression n levels deep, and the offset of the token opening level n."""
    if kind == "parens":
        return "(" * n + "x" + ")" * n, n - 1
    if kind == "calls":
        return "sin(" * n + "x" + ")" * n, 4 * (n - 1)
    if kind == "minus":
        return "-" * n + "x", n - 1
    # a chain of n operators: the n-th is at 2n - 1
    return {"power": "^", "sum": "+", "product": "*"}[kind].join(["x"] * (n + 1)), 2 * n - 1


class TestDepthBound:
    KINDS = ["parens", "calls", "minus", "power", "sum", "product"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_max_depth_parses_and_walks(self, kind):
        tree = parse_expression(_deep(kind, MAX_DEPTH)[0])
        f = compile_expression(tree)
        assert f.variables == {"x"} and f(np.array([0.5]), 0.0).shape == (1,)
        # the scalar walk, directly and through the compiled closure
        assert math.isfinite(eval_expression(tree, 0.5, 0.0))
        assert f(0.5, 0.0) == eval_expression(tree, 0.5, 0.0)
        format_expression(tree)

    @pytest.mark.parametrize("n", [MAX_DEPTH + 1, 1000, 100_000])
    @pytest.mark.parametrize("kind", KINDS)
    def test_deeper_is_a_syntax_error_at_the_offending_token(self, kind, n):
        text, _ = _deep(kind, n)
        with pytest.raises(ExpressionSyntaxError, match="deeper than") as err:
            parse_expression(text)
        assert err.value.offset == _deep(kind, MAX_DEPTH + 1)[1]

    def test_depth_counts_the_tallest_path(self):
        # MAX_DEPTH / 2 parentheses around a sum of MAX_DEPTH / 2 + 1 terms
        half = MAX_DEPTH // 2
        inner = "+".join(["x"] * (half + 1))
        parse_expression("(" * half + inner + ")" * half)
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("(" * half + inner + "+x" + ")" * half)
        # a '^' is one level above its base as well as its exponent
        base = "(" + "+".join(["x"] * MAX_DEPTH) + ")"
        parse_expression(base)
        with pytest.raises(ExpressionSyntaxError):
            parse_expression(base + "^2")
        # each parenthesised sum ends one level above its first term's
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("(" * MAX_DEPTH + "x" + "+x)" * MAX_DEPTH)


def _scan(tokenize, text):
    """The tokens of text, or the class, message and offset of its syntax error."""
    try:
        return tokenize(text)
    except ExpressionSyntaxError as exc:
        return type(exc), str(exc), exc.offset


#: what numbers are made of, drawn as often as all the rest together
_NUMBER_CHARS = string.digits + ".eE+-"
_OTHER_CHARS = "*/^()" + string.ascii_letters + "_" + " \n\t\r\x0b\x0c" + "é"


@settings(max_examples=1000, deadline=None)
@given(st.text(st.one_of(st.sampled_from(_NUMBER_CHARS), st.sampled_from(_OTHER_CHARS)),
               max_size=24))
def test_scanner_matches_the_character_loop(text):
    assert _scan(_tokenize, text) == _scan(loop_tokenize, text)


@pytest.mark.parametrize("text,loop_error,error", [
    ("²", "malformed number '²' at offset 0", "unknown identifier '²' at offset 0"),
    ("2²", "malformed number '2²' at offset 0", "unexpected trailing '²' at offset 1"),
    ("x + ½", "unexpected character '½' at offset 4", "unknown identifier '½' at offset 4"),
])
def test_non_decimal_numerals_scan_as_names(text, loop_error, error):
    # the one departure from the character loop, which read isdigit() numerals
    # such as '²' as part of a number and rejected '½' as a character
    with pytest.raises(ExpressionSyntaxError, match=loop_error):
        loop_tokenize(text)
    with pytest.raises(ExpressionError, match=error):
        parse_expression(text)


class TestEval:
    def test_pi(self):
        assert eval_expression(parse_expression("pi"), 0.0, 0.0) == math.pi

    def test_exp_sin(self):
        val = eval_expression(parse_expression("exp(-t)*sin(x)"), math.pi / 2, 1.0)
        assert val == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_division_by_zero_flagged(self):
        expr = parse_expression("x/0")
        with pytest.raises(EvaluationError, match="x / 0"):
            eval_expression(expr, 1.0, 0.0)

    def test_sqrt_domain_error_names_subexpression(self):
        expr = parse_expression("1 + sqrt(x)")
        with pytest.raises(EvaluationError, match="sqrt"):
            eval_expression(expr, -4.0, 0.0)

    def test_overflow_flagged(self):
        expr = parse_expression("exp(x^2)")
        with pytest.raises(EvaluationError):
            eval_expression(expr, 1e6, 0.0)

    def test_functions(self):
        assert eval_expression(parse_expression("abs(-3)+sqrt(16)+cos(0)"), 0, 0) == 8.0

    def test_scalar_and_array_tables_name_the_same_operations(self):
        # a function added to the language cannot be missing from one of the walks
        assert _SCALAR.keys() == _ARRAY.keys() == {*FUNCTIONS, *"+-*/^", "neg"}


def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Num(float(np.round(rng.uniform(0, 10), 3)))
        return Var(("x", "t", "pi")[rng.integers(3)])
    kind = rng.integers(3)
    if kind == 0:
        return Neg(random_tree(rng, depth - 1))
    if kind == 1:
        op = "+-*/^"[rng.integers(5)]
        return BinOp(op, random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    fn = ("sin", "cos", "exp", "sqrt", "abs")[rng.integers(5)]
    return Call(fn, random_tree(rng, depth - 1))


def test_print_parse_round_trip():
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        tree = random_tree(rng, int(rng.integers(1, 9)))
        assert parse_expression(format_expression(tree)) == tree


# numpy's exp and power differ from libm's by one ulp on some arguments, and
# an ill-conditioned tree (sin of a large argument, cancellation) amplifies
# that difference. Each call and '^' result, scaled by a few ulps one at a
# time, shows how far the tree's value can legitimately move; where that is
# more than 1e-6 relative the value has no digits left to compare.
ULP_SCALE = 1.0 + 4 * 2.0**-52


def _one_scaled(node):
    """Copies of the tree with one call or '^' result multiplied by ULP_SCALE."""
    if isinstance(node, Neg):
        yield from (Neg(v) for v in _one_scaled(node.arg))
    elif isinstance(node, Call):
        yield BinOp("*", node, Num(ULP_SCALE))
        yield from (Call(node.fn, v) for v in _one_scaled(node.arg))
    elif isinstance(node, BinOp):
        if node.op == "^":
            yield BinOp("*", node, Num(ULP_SCALE))
        yield from (BinOp(node.op, v, node.right) for v in _one_scaled(node.left))
        yield from (BinOp(node.op, node.left, v) for v in _one_scaled(node.right))


def _scalar(tree, x, t):
    try:
        return eval_expression(tree, x, t)
    except EvaluationError:
        return None


def _ulp_sensitivity(tree, x, t, value):
    total = 0.0
    for variant in _one_scaled(tree):
        moved = _scalar(variant, x, t)
        if moved is None:
            return math.inf  # a few ulps from a domain failure
        total += abs(moved - value)
    return total


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    xs=st.lists(st.floats(-10, 10), min_size=1, max_size=12),
    t=st.floats(-10, 10),
)
def test_compiled_agrees_with_scalar_reference(seed, xs, t):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, int(rng.integers(1, 7)))
    f = compile_expression(tree)
    reference = [_scalar(tree, x, t) for x in xs]
    # sampling the whole array raises exactly when some node fails
    if None in reference:
        with pytest.raises(EvaluationError):
            sample(f, np.array(xs), t)
        whole = None
    else:
        whole = sample(f, np.array(xs), t)
        assert whole.shape == (len(xs),)
    for i, (x, want) in enumerate(zip(xs, reference)):
        if want is None:
            with pytest.raises(EvaluationError):
                sample(f, np.array([x]), t)
            continue
        got = [sample(f, np.array([x]), t)[0]] + ([] if whole is None else [whole[i]])
        spread = _ulp_sensitivity(tree, x, t, want)
        if spread <= 1e-6 * abs(want):
            for value in got:
                assert abs(value - want) <= 1e-12 * abs(want) + spread, format_expression(tree)


class TestCompiledExpression:
    def test_scalar_arguments_use_the_reference(self):
        f = compile_expression(parse_expression("exp(-t)*sin(x)"))
        assert f(0.3, 1.2) == eval_expression(parse_expression("exp(-t)*sin(x)"), 0.3, 1.2)
        assert type(f(0.3, 1.2)) is float

    def test_constant_broadcasts_to_node_shape(self):
        f = compile_expression(parse_expression("2*pi"))
        out = sample(f, np.linspace(0.0, 1.0, 5), 0.0)
        assert out.shape == (5,) and np.all(out == 2 * math.pi)

    def test_failure_names_subexpression_of_first_failing_node(self):
        f = compile_expression(parse_expression("1 + 1/(x - 1)"))
        with pytest.raises(EvaluationError, match=r"\(1\.0 / \(x - 1\.0\)\)"):
            sample(f, np.array([0.5, 1.0, 1.5]), 0.0)

    def test_absorbed_intermediate_failure_still_raises(self):
        # 1/(x-1) is inf at x=1 and 1/inf = 0 is finite, yet the scalar
        # reference fails at the inner division
        f = compile_expression(parse_expression("1/(1/(x - 1))"))
        with pytest.raises(EvaluationError, match=r"\(1\.0 / \(x - 1\.0\)\)"):
            sample(f, np.array([0.0, 1.0, 2.0]), 0.0)

    def test_array_pass_raises_floating_point_error(self):
        # the rejection that sends operators.sample node by node
        with pytest.raises(FloatingPointError):
            compile_expression(parse_expression("1/(x - 1)"))(np.array([0.5, 1.0]), 0.0)

    def test_no_runtime_warning(self):
        f = compile_expression(parse_expression("sqrt(x) + exp(x^2)"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError):
                sample(f, np.array([1.0, -1.0]), 0.0)
            with pytest.raises(EvaluationError):
                sample(f, np.array([1.0, 1e3]), 0.0)


def test_expression_variables():
    assert compile_expression(parse_expression("exp(-t)*sin(x)+pi")).variables == {"x", "t"}
    assert compile_expression(parse_expression("pi*2")).variables == set()


class TestTimeFree:
    def test_compiled_expressions_carry_their_variables(self):
        assert compile_expression(parse_expression("exp(-t)*sin(x)")).variables == {"x", "t"}
        assert time_free(compile_expression(parse_expression("sin(x) + pi")))
        assert not time_free(compile_expression(parse_expression("x*t")))

    def test_config_boundary_data_keep_the_marker(self):
        problem = load_problem_config(json.dumps(dict(SAMPLE_DOC, u_b="sin(t)")))
        assert time_free(problem.g) and time_free(problem.u_a)
        assert not time_free(problem.u_b)

    def test_unmarked_callables_count_as_using_t(self):
        assert not time_free(lambda x, t: 0.0)
        assert not time_free(np.sin)

    def test_sample_problem_forcing_is_time_free(self):
        problem = sample_problem()
        for fn in (problem.g, problem.u_a, problem.u_b):
            assert time_free(fn) and fn.variables == set()
        assert problem.g(np.arange(3.0), 2.0) == 0.0 and problem.u_a(1.5) == 0.0


class TestSampleProblem:
    def test_exact_at_center(self):
        problem = sample_problem()
        assert problem.exact(math.pi / 2, 0.0) == pytest.approx(1.0, abs=0)

    def test_exact_satisfies_pde(self):
        # residual of u_tt - u_xx + 2 u_t via 4th-order central differences
        problem = sample_problem()
        rng = np.random.default_rng(5)
        d = 1e-3
        w = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * d * d)
        offs = np.array([-2, -1, 0, 1, 2]) * d
        wd1 = np.array([1.0, -8.0, 8.0, -1.0]) / (12 * d)
        offs1 = np.array([-2, -1, 1, 2]) * d
        for _ in range(100):
            x = rng.uniform(0.3, math.pi - 0.3)
            t = rng.uniform(0.1, 3.0)
            u_tt = sum(wi * problem.exact(x, t + o) for wi, o in zip(w, offs))
            u_xx = sum(wi * problem.exact(x + o, t) for wi, o in zip(w, offs))
            u_t = sum(wi * problem.exact(x, t + o) for wi, o in zip(wd1, offs1))
            assert abs(u_tt - u_xx + 2 * u_t) < 1e-6

    def test_exact_keeps_the_bits_of_math_exp(self):
        exact = sample_problem().exact
        rng = np.random.default_rng(3)
        x, ts = rng.uniform(0.0, math.pi, 37), rng.uniform(0.0, 6.0, 200)
        for t in ts:
            assert np.array_equal(exact(x, t), math.exp(-t) * np.sin(x))
            assert exact(float(x[0]), float(t)) == math.exp(-t) * np.sin(x[0])
        # a column of t broadcasts against a row of nodes, level by level the same
        assert np.array_equal(exact(x[None, :], ts[:, None]),
                              [math.exp(-t) * np.sin(x) for t in ts])

    def test_damping_maximum(self):
        problem = sample_problem()
        xs = np.linspace(0, math.pi, 101)
        assert max(problem.gamma(x) for x in xs) == 2.0

    def test_boundary_and_initial_identities(self):
        problem = sample_problem()
        assert problem.phi(0.0) == 0.0 and abs(problem.phi(math.pi)) < 2e-16
        for t in (0.0, 1.0, 6.0):
            assert problem.u_a(t) == 0.0 and problem.u_b(t) == 0.0
        for x in np.linspace(0, math.pi, 11):
            assert problem.psi(x) == -problem.phi(x)

    def test_corner_compatibility_warning(self):
        from dampwave.problems import DampedWaveProblem

        with pytest.warns(UserWarning, match="mismatch"):
            DampedWaveProblem(
                domain=(0.0, 1.0),
                gamma=lambda x: 0.0,
                g=lambda x, t: 0.0,
                phi=lambda x: 1.0,
                psi=lambda x: 0.0,
                u_a=lambda t: 0.0,
                u_b=lambda t: 1.0,
            )


class TestLoadConfig:
    def test_builtin(self):
        # builtins are named by --problem, not by a document
        with pytest.raises(ProblemConfigError, match="'domain'"):
            load_problem_config('{"builtin": "sample"}')

    def test_full_document_matches_builtin_solve(self):
        problem_cfg = load_problem_config(json.dumps(SAMPLE_DOC))
        problem_ref = sample_problem()
        grid = build_grid(0.0, math.pi, 8)
        k = 0.05
        for name in ("fd11", "oefd"):
            (t_cfg,) = solve_group_every_level(problem_cfg, grid, (config_for(name, k),), 0.5)
            (t_ref,) = solve_group_every_level(problem_ref, grid, (config_for(name, k),), 0.5)
            assert np.abs(t_cfg.states - t_ref.states).max() <= 1e-14

    def test_missing_field_named(self):
        doc = dict(SAMPLE_DOC)
        del doc["phi"]
        with pytest.raises(ProblemConfigError, match="phi"):
            load_problem_config(json.dumps(doc))

    def test_expression_error_named(self):
        doc = dict(SAMPLE_DOC, psi="sin(x")
        with pytest.raises(ProblemConfigError, match="psi"):
            load_problem_config(json.dumps(doc))

    def test_wrong_variable_rejected(self):
        doc = dict(SAMPLE_DOC, gamma="2*t")
        with pytest.raises(ProblemConfigError, match="gamma"):
            load_problem_config(json.dumps(doc))

    def test_bad_domain(self):
        with pytest.raises(ProblemConfigError, match="domain"):
            load_problem_config(json.dumps(dict(SAMPLE_DOC, domain=[1, 1])))

    def test_unknown_fields_rejected(self):
        with pytest.raises(ProblemConfigError, match="unknown fields"):
            load_problem_config(json.dumps(dict(SAMPLE_DOC, extra="1")))

    def test_not_json(self):
        with pytest.raises(ProblemConfigError, match="invalid JSON"):
            load_problem_config("{")

    def test_deeply_nested_json(self):
        with pytest.raises(ProblemConfigError, match="invalid JSON"):
            load_problem_config("[" * 100_000)

    @pytest.mark.parametrize("domain", [[False, True], [0, True], [False, 1.0]])
    def test_boolean_domain_rejected(self, domain):
        with pytest.raises(ProblemConfigError, match="must be a pair of numbers"):
            load_problem_config(json.dumps(dict(SAMPLE_DOC, domain=domain)))

    @pytest.mark.parametrize("field", ["gamma", "g", "phi", "psi", "u_a", "u_b", "exact"])
    def test_non_finite_literal_named(self, field):
        with pytest.raises(ProblemConfigError, match=f"{field}.*not finite at offset 0"):
            load_problem_config(json.dumps(dict(SAMPLE_DOC, **{field: "1e400"})))

    def test_exact_optional(self):
        doc = dict(SAMPLE_DOC)
        del doc["exact"]
        problem = load_problem_config(json.dumps(doc))
        assert problem.exact is None
        grid = build_grid(0.0, math.pi, 6)
        (traj,) = solve_evolution(problem, grid, (config_for("fd11", 0.1),), 0.3)
        with pytest.raises(ValueError, match="exact"):
            error_profile(traj, problem)
