"""A small expression language for user-supplied scalar functions.

Curve components and coefficient functions are written as strings such as
``"sin(x)^3"`` or ``"2 + sin(x)"``.  Parsing produces an immutable AST;
evaluation is generic over the scalar ring, so the same expression yields
plain values over floats, exact values over rationals, and derivatives of
any order over jets.

Grammar notes:
  * ``^`` is right-associative and binds tighter than unary minus, so
    ``-x^2`` is ``-(x^2)``.
  * ``^`` accepts integer exponents only (optionally negated or in
    parentheses); anything else is rejected at parse time.
  * numeric literals are exact rationals; at evaluation they stay exact when
    no variable is bound or any bound value is exact (an int, a Fraction or
    a jet over one), and otherwise become ints (integer literals) or floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple, Union

from . import jets

VARIABLES = ("x", "y", "z", "u", "v")
FUNCTIONS = ("sin", "cos", "exp", "sqrt")


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


def _tokenize(source: str):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(("num", source[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
        elif ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
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
        expr = self.expression(0)
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
            # right-associative chains: x^3^2 is x^(3^2)
            if self.peek()[0] == "^":
                self.advance()
                value = value ** self.integer_exponent()
            return value
        raise ParseError("exponent must be an integer", off, expected=("integer literal",))

    def atom(self):
        kind, text, off = self.advance()
        if kind == "num":
            if "." in text:
                whole, frac = text.split(".")
                denom = 10 ** len(frac)
                return Num(Fraction(int(whole or 0) * denom + int(frac or 0), denom))
            return Num(Fraction(int(text)))
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


def to_source(expr: Expr) -> str:
    if isinstance(expr, Num):
        v = expr.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
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


def evaluate(expr: Expr, bindings: Dict[str, object]):
    """Evaluate over whatever scalar ring the bindings live in."""
    if isinstance(expr, Num):
        return _convert_literal(expr.value, bindings)
    if isinstance(expr, Var):
        try:
            return bindings[expr.name]
        except KeyError:
            raise UnboundVariable(f"unbound variable {expr.name!r}") from None
    if isinstance(expr, Pi):
        import math

        return math.pi
    if isinstance(expr, Neg):
        return -evaluate(expr.arg, bindings)
    if isinstance(expr, Pow):
        return evaluate(expr.base, bindings) ** expr.exponent
    if isinstance(expr, Call):
        arg = evaluate(expr.arg, bindings)
        try:
            return _FUNC_IMPL[expr.func](arg)
        except ValueError as exc:
            raise DomainError(str(exc)) from None
    if isinstance(expr, BinOp):
        left = evaluate(expr.left, bindings)
        right = evaluate(expr.right, bindings)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        try:
            return left / right
        except ZeroDivisionError:
            raise DomainError("division by zero") from None
    raise TypeError(f"not an expression node: {expr!r}")


def _convert_literal(value: Fraction, bindings):
    """Keep literals exact when there are no bindings or any binding is exact
    (an int, a Fraction or a jet over one); otherwise integer literals become
    ints and the others floats, so float and array arithmetic never meets a
    Fraction (which would turn numpy arrays into object arrays)."""
    if not bindings or any(_is_exact(v) for v in bindings.values()):
        return value
    if value.denominator == 1:
        return int(value)
    return float(value)


def _is_exact(v):
    if isinstance(v, jets.Jet):
        v = v.value
    return isinstance(v, (int, Fraction))


def free_variables(expr: Expr) -> Tuple[str, ...]:
    seen = []

    def walk(node):
        if isinstance(node, Var) and node.name not in seen:
            seen.append(node.name)
        elif isinstance(node, Neg):
            walk(node.arg)
        elif isinstance(node, Pow):
            walk(node.base)
        elif isinstance(node, Call):
            walk(node.arg)
        elif isinstance(node, BinOp):
            walk(node.left)
            walk(node.right)

    walk(expr)
    return tuple(seen)


def compile_function(source: str, *variables: str):
    """Parse once, returning a plain callable over the named variables."""
    expr = parse(source)
    extra = set(free_variables(expr)) - set(variables)
    if extra:
        raise ExprError(f"expression uses unexpected variable(s): {sorted(extra)}")

    def fn(*args):
        return evaluate(expr, dict(zip(variables, args)))

    fn.expr = expr
    fn.source = source
    return fn
