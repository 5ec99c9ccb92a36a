"""Problem definitions for the damped wave equation u_tt = u_xx - gamma(x) u_t + g(x,t).

A problem bundles the domain, damping coefficient, forcing, initial and
boundary data, and (optionally) an exact solution. Problems can be built in
code (the builtin `sample_problem`) or loaded from a JSON document whose
coefficient fields are strings in a small expression language.

Expression grammar (standard precedence, highest first):

    power   :=  atom ['^' unary]          # right-associative
    unary   :=  '-' unary | power
    term    :=  unary {('*' | '/') unary}
    expr    :=  term {('+' | '-') term}
    atom    :=  NUMBER | 'x' | 't' | 'pi' | FUNC '(' expr ')' | '(' expr ')'
    FUNC    :=  sin | cos | exp | sqrt | abs

Note '^' binds tighter than unary minus: -x^2 == -(x^2). An expression may
nest at most MAX_DEPTH levels.

Tokens are what the `_TOKEN` pattern matches, left to right; whitespace only
separates them. A NUMBER is a decimal digit, or '.' before one, then digits and
'.', then optionally e|E, a sign and at least one digit; it must read as a
finite float. A name is a letter, '_' or non-decimal numeral such as '²', then
word characters. The operators are + - * / ^ ( ); any other character is an error.
"""

from __future__ import annotations

import copyreg
import json
import math
import operator
import re
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np


class ExpressionError(ValueError):
    """Base class for expression parsing and evaluation failures."""

    def __reduce__(self):
        # unpickled without __init__, which in a subclass takes more than the message
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ExpressionSyntaxError(ExpressionError):
    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + " or ".join(repr(e) for e in expected) + ")"
        super().__init__(detail)


class UnknownIdentifierError(ExpressionError):
    def __init__(self, name: str, offset: int):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown identifier {name!r} at offset {offset}")


class EvaluationError(ExpressionError):
    def __init__(self, message: str, expression: "Expression"):
        self.expression = expression
        super().__init__(f"{message} in {format_expression(expression)!r}")


class ProblemConfigError(ValueError):
    """Raised when a JSON problem document violates the schema."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "x", "t" or "pi"


@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expression"


Expression = Num | Var | Neg | BinOp | Call

VARIABLES = ("x", "t", "pi")
FUNCTIONS = ("sin", "cos", "exp", "sqrt", "abs")

#: each operation by name, on floats and on numpy arrays: the five operators, the
#: FUNCTIONS and "neg" (unary minus; a float stays a float in the array pass too)
_SCALAR = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt, "abs": abs,
           "neg": operator.neg, "+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow}
_ARRAY = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs,
          "neg": operator.neg, "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
          "^": np.power}


def format_expression(node: Expression) -> str:
    """Render an AST back to source text (fully parenthesized)."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, BinOp):
        return f"({format_expression(node.left)} {node.op} {format_expression(node.right)})"
    arg = format_expression(node.arg)
    return f"{node.fn}({arg})" if isinstance(node, Call) else f"(-{arg})"


# ---------------------------------------------------------------------------
# Tokenizer / parser

#: the deepest an expression may nest, where each parenthesis, call, unary minus,
#: '^' and chained + - * / is one level; deeper input is an ExpressionSyntaxError,
#: not a RecursionError in the parser or in the functions that walk the tree
MAX_DEPTH = 100


#: groups: number, name, operator, any other non-space character (an error)
_TOKEN = re.compile(r"((?:\d|\.\d)[\d.]*(?:[eE][+-]?\d+)?)|([^\W\d]\w*)|([-+*/^()])|(\S)")
_KINDS = (None, "num", "ident", "op", "bad")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, offset) triples; kinds: num, ident, op, end."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, token, i = _KINDS[match.lastindex], match.group(), match.start()
        if kind == "bad":
            raise ExpressionSyntaxError(f"unexpected character {token!r}", i)
        if kind == "num":
            try:
                value = float(token)
            except ValueError:
                raise ExpressionSyntaxError(f"malformed number {token!r}", i) from None
            if not math.isfinite(value):
                raise ExpressionSyntaxError(f"number {token!r} is not finite", i)
        tokens.append((kind, token, i))
    tokens.append(("end", "", len(text)))
    return tokens


def _unexpected(token: tuple[str, str, int], *expected: str) -> ExpressionSyntaxError:
    kind, text, offset = token
    message = "unexpected end of input" if kind == "end" else f"unexpected {text!r}"
    return ExpressionSyntaxError(message, offset, expected)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        # levels open above the current token; levels in the last node parsed
        self.depth = self.height = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str) -> None:
        if self.peek()[:2] != ("op", symbol):
            raise _unexpected(self.peek(), symbol)
        self.advance()

    def check(self, levels: int, offset: int) -> int:
        if levels > MAX_DEPTH:
            raise ExpressionSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", offset)
        return levels

    def nested(self, parse: Callable[[], Expression], offset: int) -> Expression:
        """parse() one level down, checked before it recurses; its node gains that level."""
        self.depth = self.check(self.depth + 1, offset)
        node = parse()
        self.depth -= 1
        self.height = self.check(self.height + 1, offset)
        return node

    def parse(self) -> Expression:
        node = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing {text!r}", offset)
        return node

    def expr(self, ops: str = "+-") -> Expression:
        """expr, or term when ops is "*/": operand {op operand}, left-associative, each
        op one level above the last."""
        operand = self.unary if ops == "*/" else partial(self.expr, "*/")
        node, height = operand(), self.height
        while True:
            kind, text, offset = self.peek()
            if kind != "op" or text not in ops:
                self.height = height
                return node
            self.advance()
            node = BinOp(text, node, operand())
            height = self.check(max(height, self.height) + 1, offset)

    def unary(self) -> Expression:
        kind, text, offset = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.nested(self.unary, offset))
        return self.power()

    def power(self) -> Expression:
        base, height = self.atom(), self.height
        kind, text, offset = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # right-associative; exponent may carry a unary minus
            node = BinOp("^", base, self.nested(self.unary, offset))
            self.height = self.check(max(height + 1, self.height), offset)
            return node
        return base

    def atom(self) -> Expression:
        kind, text, offset = self.advance()
        self.height = 0
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.nested(self.expr, offset)
                self.expect_op(")")
                return Call(text, arg)
            if text in VARIABLES:
                return Var(text)
            raise UnknownIdentifierError(text, offset)
        if kind == "op" and text == "(":
            node = self.nested(self.expr, offset)
            self.expect_op(")")
            return node
        raise _unexpected((kind, text, offset), "number", "identifier", "(")


def parse_expression(text: str) -> Expression:
    """Parse source text into an expression tree.

    Raises ExpressionSyntaxError (with byte offset and expected-token set) on
    malformed input and UnknownIdentifierError for names outside the language.
    """
    if not text or text.isspace():
        raise ExpressionSyntaxError("empty expression", 0)
    return _Parser(text).parse()


def eval_expression(expr: Expression, x: float, t: float) -> float:
    """Evaluate the tree at one point (x, t) with float semantics.

    This is the scalar reference: `compile_expression` calls it for scalar
    arguments, and its numpy pass must agree with it wherever it completes.

    Domain failures (division by zero, sqrt of a negative, overflow and other
    non-finite results) raise EvaluationError naming the offending
    sub-expression.
    """
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return x if expr.name == "x" else t if expr.name == "t" else math.pi
    if isinstance(expr, BinOp):
        name = expr.op
        args = eval_expression(expr.left, x, t), eval_expression(expr.right, x, t)
    else:
        name = expr.fn if isinstance(expr, Call) else "neg"
        args = (eval_expression(expr.arg, x, t),)
    try:
        out = _SCALAR[name](*args)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise EvaluationError(str(exc), expr) from None
    if isinstance(out, complex) or not math.isfinite(out):
        raise EvaluationError("non-finite result", expr)
    return out


def _vectorize(expr: Expression) -> tuple[Callable, frozenset]:
    """The tree as nested numpy closures (x, t) -> values, without domain checks, and the
    variables it reads."""
    if isinstance(expr, Num):
        value = expr.value
        return (lambda x, t: value), frozenset()
    if isinstance(expr, Var):
        if expr.name == "x":
            return (lambda x, t: x), frozenset("x")
        if expr.name == "t":
            return (lambda x, t: t), frozenset("t")
        return (lambda x, t: math.pi), frozenset()
    if isinstance(expr, BinOp):
        op = _ARRAY[expr.op]
        (left, left_used), (right, right_used) = _vectorize(expr.left), _vectorize(expr.right)
        return (lambda x, t: op(left(x, t), right(x, t))), left_used | right_used
    fn, (arg, used) = _ARRAY[expr.fn if isinstance(expr, Call) else "neg"], _vectorize(expr.arg)
    return (lambda x, t: fn(arg(x, t))), used


def _marked(fn: Callable, variables) -> Callable:
    fn.variables = frozenset(variables)  # the variables fn may read
    return fn


def time_free(fn: Callable) -> bool:
    """True when fn is marked as never reading t (see DampedWaveProblem)."""
    return "t" not in getattr(fn, "variables", ("t",))


def compile_expression(expr: Expression) -> Callable:
    """Compile the tree once, in one pass, into a closure f(x, t), with the free
    variables it reads ('x', 't') as its `variables` attribute.

    Scalar arguments go to `eval_expression`. Array arguments take one numpy
    pass that raises FloatingPointError on overflow, division by zero or an
    invalid operation; from finite leaves and arguments every non-finite
    intermediate sets one of those, so a pass that completes matches the
    reference. On that raise `operators.sample` calls f node by node, and the
    reference raises the EvaluationError at the first failing node.
    """
    vectorized, used = _vectorize(expr)

    def evaluate(x, t):
        if np.ndim(x) == 0 and np.ndim(t) == 0:
            return eval_expression(expr, float(x), float(t))
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            return vectorized(x, t)

    return _marked(evaluate, used)


# ---------------------------------------------------------------------------
# Problem record


@dataclass(frozen=True)
class DampedWaveProblem:
    """Data of u_tt = u_xx - gamma(x) u_t + g(x,t) on [a, b].

    gamma must be nonnegative (checked per grid node at assembly time).
    phi/psi are initial displacement/velocity; u_a/u_b the Dirichlet boundary
    data; exact, when present, is the reference solution used for error
    reporting.

    The solvers sample gamma, g, phi, psi and exact through
    `operators.sample`: each callable receives the whole node array (and a
    scalar t) when it accepts one, and returns the values at every node or a
    scalar for all of them. A callable that rejects the array (a scalar-only
    one such as math.sin, or an expression whose numpy pass raised a
    floating-point error) is called once per node instead. u_a and u_b are
    only ever called with a scalar t. `harness.max_error_series` first tries
    exact on a row of nodes and a column of t, broadcasting to one row per t.

    `steady`, set on construction, holds when g, u_a and u_b are all `time_free`
    (config expressions without t, the sample problem's zero data); then
    `schemes.make_stepper` evaluates the forcing once, at t = 0, not per level.
    """

    domain: tuple[float, float]
    gamma: Callable[[float], float]
    g: Callable[[float, float], float]
    phi: Callable[[float], float]
    psi: Callable[[float], float]
    u_a: Callable[[float], float]
    u_b: Callable[[float], float]
    exact: Optional[Callable[[float, float], float]] = None
    name: str = "custom"
    steady: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "steady", all(map(time_free, (self.g, self.u_a, self.u_b))))
        a, b = self.domain
        if not b > a:
            raise ValueError(f"domain must satisfy a < b, got ({a}, {b})")
        # corner compatibility is a modelling warning, not an error
        for point, data, label in ((a, self.u_a, "u_a"), (b, self.u_b, "u_b")):
            try:
                gap = abs(self.phi(point) - data(0.0))
            except ExpressionError:
                continue
            if gap > 1e-10:
                warnings.warn(
                    f"initial/boundary mismatch at x={point}: "
                    f"|phi - {label}(0)| = {gap:.3e}",
                    stacklevel=2,
                )


#: math.exp over a scalar or an array of t: the reference values were computed with
#: math.exp, and np.exp differs from it in the last bit for some arguments
_MATH_EXP = np.frompyfunc(math.exp, 1, 1)


def sample_problem() -> DampedWaveProblem:
    """u_tt = u_xx - 2 u_t on [0, pi] with u(x,0)=sin x, u_t(x,0)=-sin x.

    Dirichlet-zero boundary; exact solution e^{-t} sin x.
    """
    zero = _marked(lambda *args: 0.0, ())
    return DampedWaveProblem(
        domain=(0.0, math.pi),
        gamma=lambda x: 2.0,
        g=zero,
        phi=np.sin,
        psi=lambda x: -np.sin(x),
        u_a=zero,
        u_b=zero,
        exact=lambda x, t: np.asarray(_MATH_EXP(np.negative(t)), dtype=float) * np.sin(x),
        name="sample",
    )


_SCHEMA_FIELDS = {
    "gamma": {"x"},
    "g": {"x", "t"},
    "phi": {"x"},
    "psi": {"x"},
    "u_a": {"t"},
    "u_b": {"t"},
}


def _compile(field: str, source: object, allowed: set[str]) -> Callable:
    if not isinstance(source, str):
        raise ProblemConfigError(f"field {field!r} must be an expression string")
    try:
        tree = parse_expression(source)
    except ExpressionError as exc:
        raise ProblemConfigError(f"field {field!r}: {exc}") from exc
    f = compile_expression(tree)
    if not f.variables <= allowed:
        raise ProblemConfigError(f"field {field!r} may only use {sorted(allowed)}, "
                                 f"found {sorted(f.variables - allowed)}")
    return f


def load_problem_config(text: str) -> DampedWaveProblem:
    """Build a problem from a JSON document.

    The fields are domain=[a,b], gamma(x), g(x,t), phi(x), psi(x), u_a(t),
    u_b(t) and an optional exact(x,t), each an expression string. The builtin
    sample problem is named by `--problem sample`, not by a document.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also an int past the digit limit
        raise ProblemConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemConfigError("document must be a JSON object")

    if "domain" not in doc:
        raise ProblemConfigError("missing field 'domain'")
    domain = doc["domain"]
    if (
        not isinstance(domain, (list, tuple))
        or len(domain) != 2
        or not all(type(v) in (int, float) for v in domain)  # bool is an int
    ):
        raise ProblemConfigError("field 'domain' must be a pair of numbers [a, b]")
    try:
        a, b = float(domain[0]), float(domain[1])
    except OverflowError:  # an integer beyond the float range
        raise ProblemConfigError("field 'domain' holds an integer too large for a float") from None
    if not b > a:
        raise ProblemConfigError(f"field 'domain' must satisfy a < b, got [{a}, {b}]")

    fns: dict[str, Callable] = {}
    for field, allowed in _SCHEMA_FIELDS.items():
        if field not in doc:
            raise ProblemConfigError(f"missing field {field!r}")
        fns[field] = _compile(field, doc[field], allowed)
    exact = None
    if "exact" in doc and doc["exact"] is not None:
        exact = _compile("exact", doc["exact"], {"x", "t"})

    extras = set(doc) - set(_SCHEMA_FIELDS) - {"domain", "exact"}
    if extras:
        raise ProblemConfigError(f"unknown fields: {sorted(extras)}")

    def of_x(f: Callable) -> Callable:
        return lambda x: f(x, 0.0)

    def of_t(f: Callable) -> Callable:
        return _marked(lambda t: f(0.0, t), f.variables)

    return DampedWaveProblem(
        domain=(a, b),
        gamma=of_x(fns["gamma"]),
        g=fns["g"],
        phi=of_x(fns["phi"]),
        psi=of_x(fns["psi"]),
        u_a=of_t(fns["u_a"]),
        u_b=of_t(fns["u_b"]),
        exact=exact,
        name="config",
    )
