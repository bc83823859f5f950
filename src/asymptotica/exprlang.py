"""A small expression language for user-supplied scalar functions.

Curve components and coefficient functions are written as strings such as
``"sin(x)^3"`` or ``"2 + sin(x)"``.  Parsing produces an immutable AST, and
compile_expr turns a tree into nested closures once, so repeated evaluation
never walks the tree again.  Evaluation is generic over the scalar ring, so
the same expression yields plain values over floats, exact values over
rationals, and derivatives of any order over jets.

Grammar notes:
  * tokens are ASCII (numbers such as 12, 1.5, .5 or 2.; names; + - * / ^ ( )),
    whitespace is any Unicode space, and any other character (``²`` and ``٣``
    included) is a ParseError at its offset.
  * ``^`` is right-associative and binds tighter than unary minus, so
    ``-x^2`` is ``-(x^2)``.
  * ``^`` accepts integer exponents only (optionally negated or in
    parentheses, or a chain such as 3^2 of at most MAX_CHAIN); anything
    else is rejected at parse time.
  * numeric literals are exact rationals; at evaluation they stay exact when
    no variable is bound or any bound value is exact (an int, a Fraction or
    a jet over one), and otherwise become ints (integer literals) or floats.
    A compiled expression holds its literals converted both ways and makes
    this choice once per call.
  * a variable that is not bound is an UnboundVariable error when the
    expression is compiled, before any evaluation.
  * a value outside a function's domain or the float range (a negative
    sqrt, a division by zero, an overflowing exp or ^) is a DomainError.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple, Union

from . import jets

VARIABLES = ("x", "y", "z", "u", "v")
FUNCTIONS = ("sin", "cos", "exp", "sqrt")
MAX_CHAIN = 10**6  # the largest value of an exponent chain such as 3^2 in x^3^2


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}" + (f" (expected {', '.join(expected)})" if expected else ""))
        self.offset = offset
        self.expected = tuple(expected)


class EvalError(ExprError):
    pass


class UnboundVariable(EvalError):
    pass


class DomainError(EvalError):
    pass


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Pi:
    pass


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Pi, Neg, BinOp, Pow, Call]


# -- tokenizer ---------------------------------------------------------------

# after optional whitespace (any str.isspace character): an ASCII number, name or
# operator, the end of input, or any other character, which is an error
_TOKEN = re.compile(
    r"(?s)\s*(?:(?P<num>[0-9]+(?:\.[0-9]*)?|\.[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()])"
    r"|(?P<end>\Z)|(?P<bad>.))"
)


def _tokenize(source: str):
    """(kind, text, offset) tuples, kind being "num", "name", "end" or the operator itself."""
    tokens, pos = [], 0
    while not tokens or tokens[-1][0] != "end":
        match = _TOKEN.match(source, pos)
        kind, text, pos = match.lastgroup, match[match.lastgroup], match.end()
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", match.start(kind))
        tokens.append((text if kind == "op" else kind, text, match.start(kind)))
    return tokens


# -- parser (precedence climbing) --------------------------------------------

_BINARY_PREC = {"+": 10, "-": 10, "*": 20, "/": 20}
_UNARY_PREC = 30
_POW_PREC = 40


class _Parser:
    def __init__(self, source):
        if not source.strip():
            raise ParseError("empty input", 0)
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            what = "unexpected end of input" if tok[0] == "end" else f"unexpected token {tok[1]!r}"
            raise ParseError(what, tok[2], expected=(kind,))
        return tok

    def parse(self):
        try:
            expr = self.expression(0)
        except ValueError:  # the literal just read has more digits than int() converts
            raise ParseError("numeric literal has too many digits", self.tokens[self.pos - 1][2]) from None
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2], expected=("end of input",))
        return expr

    def expression(self, min_prec):
        left = self.unary()
        while True:
            kind, _, _ = self.peek()
            prec = _BINARY_PREC.get(kind)
            if prec is None or prec < min_prec:
                return left
            self.advance()
            right = self.expression(prec + 1)
            left = BinOp(kind, left, right)

    def unary(self):
        kind, _, _ = self.peek()
        if kind == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, _, _ = self.peek()
        if kind == "^":
            self.advance()
            return Pow(base, self.integer_exponent())
        return base

    def integer_exponent(self):
        kind, text, off = self.peek()
        if kind == "-":
            self.advance()
            return -self.integer_exponent()
        if kind == "(":
            self.advance()
            value = self.integer_exponent()
            self.expect(")")
            return value
        if kind == "num" and "." not in text:
            self.advance()
            value = int(text)
            # right-associative chains: x^3^2 is x^(3^2), checked before the power is built (b^n >= 2^n for b >= 2)
            if self.peek()[0] == "^":
                self.advance()
                n = self.integer_exponent()
                if n < 0 and value != 1 or value > 1 and (n >= MAX_CHAIN.bit_length() or value**n > MAX_CHAIN):
                    raise ParseError(f"exponent chain is not an integer of at most {MAX_CHAIN}", off)
                value **= abs(n)  # 1^-n is 1
            return value
        raise ParseError("exponent must be an integer", off, expected=("integer literal",))

    def atom(self):
        kind, text, off = self.advance()
        if kind == "num":
            return Num(Fraction(text))
        if kind == "name":
            if text == "pi":
                return Pi()
            if text in FUNCTIONS:
                self.expect("(")
                arg = self.expression(0)
                self.expect(")")
                return Call(text, arg)
            if text in VARIABLES:
                return Var(text)
            raise ParseError(f"unknown identifier {text!r}", off, expected=VARIABLES + FUNCTIONS + ("pi",))
        if kind == "(":
            inner = self.expression(0)
            self.expect(")")
            return inner
        if kind == "end":
            raise ParseError("unexpected end of input", off, expected=("expression",))
        raise ParseError(f"unexpected token {text!r}", off, expected=("expression",))


def parse(source: str) -> Expr:
    return _Parser(source).parse()


# -- pretty printer ----------------------------------------------------------


def _prec_of(expr) -> int:
    if isinstance(expr, BinOp):
        return _BINARY_PREC[expr.op]
    if isinstance(expr, Neg):
        return _UNARY_PREC
    if isinstance(expr, Pow):
        return _POW_PREC
    return 100


def _literal(v: Fraction) -> str:
    """A number's source: its exact decimal, which every parser literal has,
    else the parenthesized quotient p/q."""
    if v.denominator == 1:
        return str(v.numerator)
    k = v.denominator.bit_length()  # a denominator 2^a 5^b divides 10^k
    scaled, rest = divmod(v.numerator * 10**k, v.denominator)
    if rest:
        return f"({v.numerator}/{v.denominator})"
    digits = str(abs(scaled)).rjust(k + 1, "0")
    return f"{'-' * (scaled < 0)}{digits[:-k]}.{digits[-k:].rstrip('0')}"


def to_source(expr: Expr) -> str:
    if isinstance(expr, Num):
        return _literal(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Pi):
        return "pi"
    if isinstance(expr, Call):
        return f"{expr.func}({to_source(expr.arg)})"
    if isinstance(expr, Neg):
        inner = to_source(expr.arg)
        if _prec_of(expr.arg) <= _UNARY_PREC:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, Pow):
        base = to_source(expr.base)
        if _prec_of(expr.base) <= _POW_PREC:
            base = f"({base})"
        exp = str(expr.exponent) if expr.exponent >= 0 else f"({expr.exponent})"
        return f"{base}^{exp}"
    if isinstance(expr, BinOp):
        left, right = to_source(expr.left), to_source(expr.right)
        prec = _BINARY_PREC[expr.op]
        if _prec_of(expr.left) < prec:
            left = f"({left})"
        # right operand needs parens at equal precedence (left associativity)
        if _prec_of(expr.right) <= prec:
            right = f"({right})"
        return f"{left} {expr.op} {right}"
    raise TypeError(f"not an expression node: {expr!r}")


# -- evaluation --------------------------------------------------------------

_FUNC_IMPL = {"sin": jets.sin, "cos": jets.cos, "exp": jets.exp, "sqrt": jets.sqrt}


def _domain_checked(fn, node):
    """fn, the closure of node over the argument tuple, raising DomainError
    for a value outside its domain or the float range."""

    def checked(args):
        try:
            return fn(args)
        except ZeroDivisionError:  # also 0 ** -n
            raise DomainError("division by zero") from None
        except OverflowError:
            raise DomainError(f"{to_source(node)} overflows the float range") from None
        except ValueError as exc:
            raise DomainError(str(exc)) from None

    return checked


def compile_expr(expr: Expr, variables: Tuple[str, ...]):
    """expr as a callable of the values of variables, in that order.

    The tree is walked once, here, into nested closures: one set whose
    literals are exact and one whose literals are ints or floats (see the
    literal rule in the module docstring).  Each call picks the set once,
    from its arguments.  The first variable of expr in tree order that is
    not among variables raises UnboundVariable here, not at the call.
    """
    index = {name: i for i, name in enumerate(variables)}
    exact, inexact = _closure(expr, index, True), _closure(expr, index, False)

    def fn(*args):
        # literals stay exact with no arguments or any exact one (an int, a
        # Fraction or a jet over one); otherwise float and array arithmetic
        # never meets a Fraction (which would make numpy object arrays)
        if not args or any(jets._exact(jets.value_of(v)) for v in args):
            return exact(args)
        return inexact(args)

    return fn


def _closure(node, index, exact):
    """node as a function of the argument tuple, literals exact or not."""
    if isinstance(node, Num):
        v = node.value
        value = v if exact else int(v) if v.denominator == 1 else float(v)
        return lambda args: value
    if isinstance(node, Var):
        if node.name not in index:
            raise UnboundVariable(f"unbound variable {node.name!r}")
        return operator.itemgetter(index[node.name])
    if isinstance(node, Pi):
        return lambda args: math.pi
    if isinstance(node, Neg):
        arg = _closure(node.arg, index, exact)
        return lambda args: -arg(args)
    if isinstance(node, Pow):
        base, n = _closure(node.base, index, exact), node.exponent
        return _domain_checked(lambda args: base(args) ** n, node)
    if isinstance(node, Call):
        arg, impl = _closure(node.arg, index, exact), _FUNC_IMPL[node.func]
        return _domain_checked(lambda args: impl(arg(args)), node)
    if isinstance(node, BinOp):
        left, right = _closure(node.left, index, exact), _closure(node.right, index, exact)
        if node.op == "+":
            return lambda args: left(args) + right(args)
        if node.op == "-":
            return lambda args: left(args) - right(args)
        if node.op == "*":
            return lambda args: left(args) * right(args)
        return _domain_checked(lambda args: left(args) / right(args), node)
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(expr: Expr, bindings: Dict[str, object]):
    """Evaluate over whatever scalar ring the bindings live in (compiles expr
    for this one call; compile_expr once for repeated evaluation)."""
    return compile_expr(expr, tuple(bindings))(*bindings.values())


def compile_function(source: str, *variables: str):
    """Parse and compile once, returning a plain callable over the named variables."""
    return compile_expr(parse(source), variables)
