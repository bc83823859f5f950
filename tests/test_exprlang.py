import math
from fractions import Fraction

import numpy as np
import pytest

from asymptotica import exprlang, jets
from asymptotica.exprlang import DomainError, ParseError, UnboundVariable, compile_function, evaluate, parse, to_source


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


def test_noninteger_exponent_rejected_at_parse_time():
    with pytest.raises(ParseError):
        parse("x^y")


def test_rational_literals_are_exact():
    v = evaluate(parse("1/3"), {})
    assert v == Fraction(1, 3)


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        evaluate(parse("x + y"), {"x": 1.0})


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
    # exact bindings (and none at all) keep every literal exact
    assert evaluate(parse("x/3"), {"x": 1}) == Fraction(1, 3)
    assert evaluate(parse("x/3"), {"x": jets.Jet.variable(Fraction(1), 0, 1, 1)}).value == Fraction(1, 3)
