import math
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asymptotica import exprlang, jets
from asymptotica.exprlang import (
    BinOp,
    Call,
    DomainError,
    Neg,
    Num,
    ParseError,
    Pi,
    Pow,
    UnboundVariable,
    Var,
    compile_function,
    evaluate,
    parse,
    to_source,
)


def test_parse_power_of_function():
    tree = parse("sin(x)^3")
    assert to_source(parse(to_source(tree))) == to_source(tree)
    assert evaluate(tree, {"x": math.pi / 2}) == pytest.approx(1.0)


def test_parse_two_pi():
    assert evaluate(parse("2*pi"), {}) == pytest.approx(2 * math.pi)


def test_unclosed_call_reports_offset():
    with pytest.raises(ParseError) as err:
        parse("cos(")
    assert err.value.offset == 4


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse("")


def test_unknown_identifier_rejected():
    with pytest.raises(ParseError):
        parse("tan(x)")


def test_unbalanced_parens_rejected():
    with pytest.raises(ParseError):
        parse("(x + 1")


def test_power_binds_tighter_than_unary_minus():
    assert evaluate(parse("-x^2"), {"x": 3.0}) == -9.0


def test_power_right_associative():
    assert evaluate(parse("x^3^2"), {"x": 2.0}) == 2.0 ** 9


@pytest.mark.parametrize(
    "source, offset", [("x^2^-1", 2), ("x^0^(-1)", 2), ("x^2^20", 2), ("x^9^9^9", 4), ("x^9^9^7", 4)]
)
def test_exponent_chain_that_is_no_bounded_integer_is_a_parse_error(source, offset):
    # decided before the power is built: 9^9^9 would have 369 million digits
    with pytest.raises(ParseError) as info:
        parse(source)
    assert info.value.offset == offset


def test_exponent_chains_that_fold():
    assert parse("x^3^2") == Pow(Var("x"), 9)
    assert parse("x^1^-5") == Pow(Var("x"), 1)
    assert parse("x^10^6") == Pow(Var("x"), exprlang.MAX_CHAIN)


def test_noninteger_exponent_rejected_at_parse_time():
    with pytest.raises(ParseError):
        parse("x^y")


def test_rational_literals_are_exact():
    v = evaluate(parse("1/3"), {})
    assert v == Fraction(1, 3)


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        evaluate(parse("x + y"), {"x": 1.0})


@pytest.mark.parametrize("source, name", [("x + u*v", "u"), ("sin(v)^2 - u", "v"), ("-(y/z)", "y")])
def test_the_first_unbound_variable_in_tree_order_is_reported_at_compile_time(source, name):
    with pytest.raises(UnboundVariable, match=f"^unbound variable '{name}'$"):
        exprlang.compile_expr(parse(source), ("x",))


def test_division_by_zero_is_domain_error():
    with pytest.raises(DomainError):
        evaluate(parse("1/x"), {"x": 0.0})


def test_sqrt_of_negative_is_domain_error():
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x)"), {"x": -1.0})


def test_jet_square_carries_derivative():
    x = jets.Jet.variable(3.0, 0, 1, 1)
    v = evaluate(parse("x^2"), {"x": x})
    assert v.value == pytest.approx(9.0)
    assert v.coefficient((1,)) == pytest.approx(6.0)


def test_sin_cubed_taylor_coefficients():
    # sin^3 x = x^3 - x^5/2 + ..., so the order-3 jet at 0 is (0, 0, 0, 1)
    x = jets.Jet.variable(0.0, 0, 1, 3)
    v = evaluate(parse("sin(x)^3"), {"x": x})
    coeffs = [v.coefficient((k,)) for k in range(4)]
    assert coeffs == pytest.approx([0.0, 0.0, 0.0, 1.0])


def test_real_evaluation_equals_jet_value_slot():
    tree = parse("sin(x) * exp(x) - x^2 / (2 + cos(x))")
    for x0 in (-1.3, 0.0, 0.7, 2.9):
        plain = evaluate(tree, {"x": x0})
        j = evaluate(tree, {"x": jets.Jet.variable(x0, 0, 1, 2)})
        assert plain == j.value


def _random_source(rng):
    atoms = ["x", "x", "pi", str(int(rng.integers(1, 9)))]
    expr = str(rng.choice(atoms))
    for _ in range(int(rng.integers(1, 4))):
        op = rng.choice(["+", "-", "*", "/"])
        term = str(rng.choice(atoms))
        if rng.random() < 0.5:
            term = f"{rng.choice(['sin', 'cos', 'exp'])}({term})"
        if rng.random() < 0.3:
            term = f"{term}^{int(rng.integers(2, 4))}"
        expr = f"{expr} {op} ({term} + 2)" if op == "/" else f"{expr} {op} {term}"
    return expr


def test_round_trip_stability_random(seeds):
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for _ in range(70):
            src = _random_source(rng)
            tree = parse(src)
            assert parse(to_source(tree)) == tree


def test_jet_derivative_matches_finite_difference(seeds):
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for _ in range(70):
            tree = parse(_random_source(rng))
            x0 = float(rng.uniform(0.2, 1.2))
            j = evaluate(tree, {"x": jets.Jet.variable(x0, 0, 1, 1)})
            d = j.coefficient((1,)) if isinstance(j, jets.Jet) else 0.0
            h = 1e-5
            vp = evaluate(tree, {"x": x0 + h})
            vm = evaluate(tree, {"x": x0 - h})
            fd = (vp - vm) / (2 * h)
            # the quotient loses |f| * eps / h to cancellation
            scale = max(1.0, abs(d), abs(vp) * 1e-10 / h)
            assert abs(d - fd) <= 1e-6 * scale


def test_integer_literals_stay_off_the_exact_path_for_floats():
    assert compile_function("2*x", "x")(np.arange(3.0)).dtype == np.float64
    assert type(evaluate(parse("2*x"), {"x": 1.5})) is float
    # a numpy float is a float (exact literals would make this a Python float)
    assert type(evaluate(parse("x/3 + 1/3"), {"x": np.float64(1.5)})) is np.float64
    # exact bindings (and none at all) keep every literal exact
    assert evaluate(parse("x/3"), {"x": 1}) == Fraction(1, 3)
    assert evaluate(parse("x/3"), {"x": jets.Jet.variable(Fraction(1), 0, 1, 1)}).value == Fraction(1, 3)


# -- the compiled evaluator against the tree walker it replaced ---------------


def _oracle_is_exact(v):
    if isinstance(v, jets.Jet):
        v = v.value
    return isinstance(v, (int, Fraction))


def _oracle(expr, bindings):
    """The recursive evaluator that compile_expr replaced, kept as the oracle:
    it walks the tree on every call and converts each literal on its own."""
    if isinstance(expr, Num):
        if not bindings or any(_oracle_is_exact(v) for v in bindings.values()):
            return expr.value
        return int(expr.value) if expr.value.denominator == 1 else float(expr.value)
    if isinstance(expr, Var):
        try:
            return bindings[expr.name]
        except KeyError:
            raise UnboundVariable(f"unbound variable {expr.name!r}") from None
    if isinstance(expr, Pi):
        return math.pi
    if isinstance(expr, Neg):
        return -_oracle(expr.arg, bindings)
    if isinstance(expr, Pow):
        base = _oracle(expr.base, bindings)
        try:
            return base ** expr.exponent
        except ZeroDivisionError:  # 0 ** -n
            raise DomainError("division by zero") from None
        except OverflowError:
            raise DomainError(f"{to_source(expr)} overflows the float range") from None
    if isinstance(expr, Call):
        arg = _oracle(expr.arg, bindings)
        try:
            return {"sin": jets.sin, "cos": jets.cos, "exp": jets.exp, "sqrt": jets.sqrt}[expr.func](arg)
        except OverflowError:
            raise DomainError(f"{to_source(expr)} overflows the float range") from None
        except ValueError as exc:
            raise DomainError(str(exc)) from None
    left, right = _oracle(expr.left, bindings), _oracle(expr.right, bindings)
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


def _outcome(fn):
    """("value", v) or ("raise", exception type, message)."""
    try:
        with np.errstate(all="ignore"):
            return ("value", fn())
    except (ArithmeticError, ValueError, exprlang.EvalError) as exc:
        return ("raise", type(exc), str(exc))


def _same(a, b):
    """Equal bit for bit and of the same type (jets coefficient by coefficient)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, jets.Jet):
        return a._table is b._table and a._coef.keys() == b._coef.keys() and all(
            _same(a._coef[k], b._coef[k]) for k in a._coef
        )
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


# two of three leaves are variables, so most trees depend on the bindings
_LEAVES = st.one_of(
    st.builds(Num, st.fractions(min_value=-9, max_value=9, max_denominator=6)),
    st.sampled_from([Var("x"), Var("y"), Var("x"), Var("y"), Pi()]),
    st.sampled_from([Var("x"), Var("y")]),
)
_TREES = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
        st.builds(Pow, sub, st.integers(-2, 3)),
        st.builds(Call, st.sampled_from(exprlang.FUNCTIONS), sub),
    ),
    max_leaves=8,
)
_FLOATS = st.floats(-3, 3, allow_subnormal=False)
_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=5)


def _seeded(values, order=2):
    """Jets of x and y at these values (2 variables, order 2)."""
    return dict(zip("xy", jets.seed(values, order)))


_BINDINGS = {
    "float": st.fixed_dictionaries({"x": _FLOATS, "y": _FLOATS}),
    "int": st.fixed_dictionaries({"x": st.integers(-3, 3), "y": st.integers(-3, 3)}),
    "fraction": st.fixed_dictionaries({"x": _FRACTIONS, "y": _FRACTIONS}),
    "float-and-fraction": st.fixed_dictionaries({"x": _FLOATS, "y": _FRACTIONS}),
    "float-jet": st.tuples(_FLOATS, _FLOATS).map(_seeded),
    "exact-jet": st.tuples(_FRACTIONS, _FRACTIONS).map(_seeded),
    "array-jet": st.tuples(_FLOATS, _FLOATS).map(
        lambda v: _seeded((np.array([v[0], -1.0, 0.5]), np.array([v[1], 2.0, 0.0])))
    ),
    "array": st.tuples(_FLOATS, _FLOATS).map(
        lambda v: {"x": np.array([v[0], 0.0, -2.0]), "y": np.array([v[1], 1.5, 0.25])}
    ),
    "y-unbound": st.fixed_dictionaries({"x": _FLOATS}),
    "none-bound": st.just({}),
}


def _assert_same_outcome(want, got):
    if want[0] == "raise":
        assert got == want
    else:
        assert got[0] == "value" and _same(want[1], got[1])


def _variables(node):
    """The names of the variables in a tree."""
    if isinstance(node, Var):
        return {node.name}
    return set().union(*(_variables(getattr(node, f)) for f in ("arg", "base", "left", "right") if hasattr(node, f)))


def _check_against_the_walker(tree, bindings):
    got = _outcome(lambda: evaluate(tree, bindings))
    if _variables(tree) - set(bindings):
        # the compiled evaluator reports an unbound variable before evaluating
        assert got[:2] == ("raise", UnboundVariable)
        return
    _assert_same_outcome(_outcome(lambda: _oracle(tree, bindings)), got)
    # one compiled tree serves every ring: the literal choice is made per call
    fn = exprlang.compile_expr(tree, ("x", "y"))
    for x, y in ((0.5, -1.25), (Fraction(1, 2), 2), (0.5, -1.25)):
        _assert_same_outcome(_outcome(lambda: _oracle(tree, {"x": x, "y": y})), _outcome(lambda: fn(x, y)))


@pytest.mark.parametrize("ring", sorted(_BINDINGS))
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_compiled_expressions_match_the_tree_walker(ring, data):
    _check_against_the_walker(data.draw(_TREES, "tree"), data.draw(_BINDINGS[ring], "bindings"))


@pytest.mark.parametrize(
    "source, bindings, error",
    [
        ("sqrt(x)", {"x": -1.0}, DomainError),
        ("sqrt(x)", {"x": Fraction(-1)}, DomainError),
        ("1/(x-x)", {"x": 1.0}, DomainError),
        ("1/(x-x)", {"x": Fraction(1, 3)}, DomainError),
        ("x + y", {"x": 1.0}, UnboundVariable),
        ("x^(-1)", {"x": 0.0}, DomainError),
        ("x^(-2)", {"x": Fraction(0)}, DomainError),
        ("x^400", {"x": 1e10}, DomainError),
        ("exp(x)", {"x": 800.0}, DomainError),
    ],
)
def test_compiled_expressions_raise_what_the_tree_walker_raises(source, bindings, error):
    assert _outcome(lambda: _oracle(parse(source), bindings))[:2] == ("raise", error)
    _check_against_the_walker(parse(source), bindings)


# -- the token pattern against the hand-written scanner it replaced -----------


def _reference_tokenize(source):
    """The scanner that the token pattern replaced, kept as the reference: it
    reads any str.isdigit, str.isalpha and str.isalnum character."""
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


def _reference_literal(text):
    """The literal code that Fraction(text) replaced."""
    if "." in text:
        whole, frac = text.split(".")
        denom = 10 ** len(frac)
        return Fraction(int(whole or 0) * denom + int(frac or 0), denom)
    return Fraction(int(text))


class _ReferenceParser(exprlang._Parser):
    """The parser fed by the reference scanner, its literals read by the reference code."""

    def __init__(self, source):
        if not source.strip():
            raise ParseError("empty input", 0)
        self.tokens = _reference_tokenize(source)
        self.pos = 0

    def atom(self):
        kind, text, _ = self.peek()
        if kind == "num":
            self.advance()
            return Num(_reference_literal(text))
        return super().atom()


def _parse_outcome(fn):
    """("value", v) or ("raise", ParseError, message, offset)."""
    try:
        return ("value", fn())
    except ParseError as exc:
        return ("raise", type(exc), str(exc), exc.offset)


# ASCII pieces: digits and dots, every name the grammar knows and some it does
# not, the operators, parentheses, and whitespace including \x1c (str.isspace)
_PIECES = (
    list("0123456789..") + list(exprlang.VARIABLES + exprlang.FUNCTIONS) + ["pi", "a", "Q", "_", "tan", "x1", "e5"]
    + list("+-*/^()") + [" ", "  ", "\t", "\n", "\x1c", "\x0b", "#", "$", ",", "'"]
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(source=st.lists(st.sampled_from(_PIECES), max_size=12).map("".join))
@example(source="1.2.3 + .5 * 2.")
@example(source="x^2^-1 \x1c")
@example(source="sin(x)^3 - 2*pi / .5")
def test_the_token_pattern_matches_the_reference_scanner_on_ascii(source):
    assert _parse_outcome(lambda: exprlang._tokenize(source)) == _parse_outcome(lambda: _reference_tokenize(source))
    assert _parse_outcome(lambda: parse(source)) == _parse_outcome(lambda: _ReferenceParser(source).parse())


@pytest.mark.parametrize("source", ["²", "x^²", "x + ¹", "٣", "x^٣", "ｘ", "é"])
def test_a_non_ascii_digit_or_letter_is_a_parse_error_at_its_offset(source):
    offset = next(i for i, ch in enumerate(source) if not ch.isascii())
    with pytest.raises(ParseError, match=f"^unexpected character {source[offset]!r} at offset {offset}$") as info:
        parse(source)
    assert info.value.offset == offset


@pytest.mark.parametrize("template, offset", [("{}", 0), ("x + 0.{}", 4), ("x^{}", 2)])
def test_a_literal_with_more_digits_than_int_converts_is_a_parse_error(template, offset):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts integer strings of any length")
    with pytest.raises(ParseError, match="too many digits") as info:
        parse(template.format("1" * (limit + 1)))
    assert info.value.offset == offset
