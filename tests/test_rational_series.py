import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymptotica import construct, curves
from asymptotica.rational_series import PowerSeriesQ, SeriesError, truncated_product


def test_constant_and_x():
    one = PowerSeriesQ.constant(1, 4)
    x = PowerSeriesQ([0, 1], 4)
    s = one + x
    assert s.coeffs[0] == 1 and s.coeffs[1] == 1


def test_geometric_series_inverse():
    x = PowerSeriesQ([0, 1], 5)
    inv = PowerSeriesQ.constant(1, 5) / (PowerSeriesQ.constant(1, 5) - x)
    assert inv.coeffs[:6] == [Fraction(1)] * 6


def test_division_exact_rationals():
    q = PowerSeriesQ([0, 1, 1], 4) / PowerSeriesQ([2, 1], 4)
    # (x + x^2)/(2 + x) = x/2 + x^2/4 - x^3/8 + ...
    assert q.coeffs[1] == Fraction(1, 2)
    assert q.coeffs[2] == Fraction(1, 4)
    assert q.coeffs[3] == Fraction(-1, 8)


def test_division_by_higher_valuation_raises():
    x = PowerSeriesQ([0, 1], 4)
    with pytest.raises(SeriesError):
        PowerSeriesQ.constant(1, 4) / x


def test_factor_x_exact():
    s = PowerSeriesQ([0, 0, 1, 3], 6)
    t = s.factor_x(2)
    assert t.coeffs[0] == 1 and t.coeffs[1] == 3


def test_factor_x_rejects_low_valuation():
    with pytest.raises(SeriesError):
        PowerSeriesQ([0, 1, 1], 4).factor_x(2)


def test_derivative():
    d = PowerSeriesQ([0, 0, 0, 1], 4).derivative()
    assert d.coeffs[2] == 3


def test_is_zero():
    assert PowerSeriesQ.constant(0, 2).is_zero()
    assert not PowerSeriesQ([0, 1], 2).is_zero()


def test_product_truncates_at_the_common_order():
    # (1 + x)^4 by repeated products, the way realize_t5 multiplies
    x = PowerSeriesQ([0, 1], 4)
    s = PowerSeriesQ.constant(1, 4)
    for _ in range(4):
        s = s * (1 + x)
    assert s.coeffs == [1, 4, 6, 4, 1]
    assert (PowerSeriesQ([1, 1], 2) * PowerSeriesQ([1, 1], 4)).coeffs == [1, 2, 1]


# -- the integer product kernel against the Fraction convolution it replaced ----


def reference_product(a, b):
    """The truncated product of the coefficient lists a and b (len(b) == len(a)),
    convolved term by term in Fraction arithmetic."""
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j in range(len(a) - i):
            y = b[j]
            if y != 0:
                out[i + j] += x * y
    return out


def reference_mul(self, other):
    """PowerSeriesQ.__mul__ with the Fraction convolution as its series product."""
    if isinstance(other, (int, Fraction)):
        return PowerSeriesQ([a * other for a in self.coeffs], self.order)
    pair = self._coerce(other)
    if pair is NotImplemented:
        return NotImplemented
    s, o = pair
    return PowerSeriesQ(reference_product(s.coeffs, o.coeffs), s.order)


def reference_quotient(a, b):
    """a / b by the recursion b_0 q_k = a_k - sum_{j >= 1} b_j q_{k-j}, in Fraction arithmetic."""
    out = []
    for k in range(len(a)):
        acc = a[k] - sum((b[j] * out[k - j] for j in range(1, k + 1)), Fraction(0))
        out.append(acc / b[0])
    return out


scalars = st.one_of(st.integers(-30, 30), st.fractions(min_value=-30, max_value=30, max_denominator=12))
# zeros and negatives come often, and lists may be shorter or longer than order + 1
coefficients = st.one_of(st.just(0), st.just(Fraction(0)), scalars)


@st.composite
def series(draw):
    order = draw(st.integers(0, 8))
    return PowerSeriesQ(draw(st.lists(coefficients, max_size=order + 3)), order)


def as_coeffs(x, order):
    """The coefficients 0..order of a series or of a scalar read as a constant series."""
    if isinstance(x, PowerSeriesQ):
        return [Fraction(c) for c in x.coeffs[: order + 1]]
    return [Fraction(x)] + [Fraction(0)] * order


OPS = {"*": operator.mul, "+": operator.add, "-": operator.sub, "/": operator.truediv}


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    op=st.sampled_from(sorted(OPS)),
    left=st.one_of(series(), scalars),
    right=st.one_of(series(), scalars),
)
def test_series_arithmetic_matches_fraction_reference(op, left, right):
    if not isinstance(left, PowerSeriesQ) and not isinstance(right, PowerSeriesQ):
        right = PowerSeriesQ([right, 1], 2)
    operands = [x for x in (left, right) if isinstance(x, PowerSeriesQ)]
    before = [(list(x.coeffs), x.order) for x in operands]
    order = min(x.order for x in operands)
    a, b = as_coeffs(left, order), as_coeffs(right, order)
    if op == "/" and not isinstance(left, PowerSeriesQ):
        with pytest.raises(TypeError):
            left / right
        return
    if op == "/" and b[0] == 0:
        with pytest.raises(SeriesError if isinstance(right, PowerSeriesQ) else ZeroDivisionError):
            left / right
        return
    result = OPS[op](left, right)
    expected = {
        "*": lambda: reference_product(a, b),
        "+": lambda: [x + y for x, y in zip(a, b)],
        "-": lambda: [x - y for x, y in zip(a, b)],
        "/": lambda: reference_quotient(a, b),
    }[op]()
    assert result.order == order
    assert result.coeffs == expected
    assert all(type(c) is Fraction for c in result.coeffs)
    assert [(x.coeffs, x.order) for x in operands] == before


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_truncated_product_matches_fraction_convolution(data):
    size = data.draw(st.integers(1, 12))
    a, b = ([Fraction(c) for c in data.draw(st.lists(coefficients, min_size=size, max_size=size))] for _ in "ab")
    out = truncated_product(a, b)
    assert out == reference_product(a, b)
    assert all(type(c) is Fraction for c in out)


def local_models():
    """(x, a x^m + a' x^(m+1), b x^n + b' x^(n+1)) with fixed rationals, every 2 <= m < n <= 9."""
    a, a1, b, b1 = Fraction(-3, 7), Fraction(5, 4), Fraction(2, 9), Fraction(-1, 6)
    return [(m, n, [[0, 1], [0] * m + [a, a1], [0] * n + [b, b1]]) for m in range(2, 9) for n in range(m + 1, 10)]


def test_realize_t5_certificates_match_the_fraction_convolution(monkeypatch):
    models = local_models()
    assert len(models) == 28
    certificates = [construct.realize_t5(curves.Curve.from_series(s))[1] for _, _, s in models]
    monkeypatch.setattr(PowerSeriesQ, "__mul__", reference_mul)
    monkeypatch.setattr(PowerSeriesQ, "__rmul__", reference_mul)
    for (m, n, s), cert in zip(models, certificates):
        reference = construct.realize_t5(curves.Curve.from_series(s))[1]
        assert (cert["m"], cert["n"]) == (m, n)
        assert cert.keys() == reference.keys()
        for key, value in cert.items():
            want = reference[key]
            assert type(value) is type(want), key
            assert repr(value) == repr(want), key
            if isinstance(value, PowerSeriesQ):
                assert value.order == want.order, key
                assert all(type(c) is Fraction for c in value.coeffs), key
