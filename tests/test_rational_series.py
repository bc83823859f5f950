import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymptotica import construct, curves
from asymptotica.rational_series import PowerSeriesQ, SeriesError


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


# -- the integer kernels against the Fraction arithmetic they replaced ----------


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


def reference_quotient(a, b):
    """a / b by the recursion b_0 q_k = a_k - sum_{j >= 1} b_j q_{k-j}, in Fraction arithmetic."""
    out = []
    for k in range(len(a)):
        acc = a[k] - sum((b[j] * out[k - j] for j in range(1, k + 1)), Fraction(0))
        out.append(acc / b[0])
    return out


class ReferenceSeries:
    """The series type PowerSeriesQ replaced: a list of Fraction coefficients, every
    operation term by term in Fraction arithmetic, and the same repr and errors."""

    def __init__(self, coeffs, order=None):
        coeffs = [Fraction(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        self.coeffs = coeffs[: order + 1] + [Fraction(0)] * (order + 1 - len(coeffs))
        self.order = order

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            other = ReferenceSeries([other], self.order)
        if not isinstance(other, ReferenceSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return self.truncated(order), other.truncated(order)

    def _termwise(self, other, op):
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        return ReferenceSeries([op(a, b) for a, b in zip(s.coeffs, o.coeffs)], s.order)

    def __add__(self, other):
        return self._termwise(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return ReferenceSeries([-a for a in self.coeffs], self.order)

    def __sub__(self, other):
        return self._termwise(other, operator.sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ReferenceSeries([a * other for a in self.coeffs], self.order)
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        return ReferenceSeries(reference_product(s.coeffs, o.coeffs), s.order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("series divided by zero")
            return ReferenceSeries([a / other for a in self.coeffs], self.order)
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        if o.coeffs[0] == 0:
            raise SeriesError("division requires a unit (nonzero constant term)")
        return ReferenceSeries(reference_quotient(s.coeffs, o.coeffs), s.order)

    def __repr__(self):
        return f"PowerSeriesQ({self.coeffs!r})"

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def derivative(self):
        return ReferenceSeries([k * self.coeffs[k] for k in range(1, self.order + 1)], self.order - 1)

    def factor_x(self, k):
        if k < 0 or k > self.order:
            raise SeriesError("cannot factor that power of x")
        bad = [i for i in range(k) if self.coeffs[i] != 0]
        if bad:
            raise SeriesError(f"cannot factor x^{k}: coefficient of x^{bad[0]} is {self.coeffs[bad[0]]}, not zero")
        return ReferenceSeries(self.coeffs[k:], self.order - k)

    def truncated(self, order):
        if order > self.order:
            raise SeriesError("cannot extend truncation")
        return ReferenceSeries(self.coeffs, order)


scalars = st.one_of(st.integers(-30, 30), st.fractions(min_value=-30, max_value=30, max_denominator=12))
nonzero_scalars = scalars.filter(lambda c: c != 0)
# zeros and negatives come often, and lists may be shorter or longer than order + 1
coefficients = st.one_of(st.just(0), st.just(Fraction(0)), scalars)


@st.composite
def series_args(draw, max_order=8):
    """(coefficients, order): the arguments of one series, for both series types."""
    order = draw(st.integers(0, max_order))
    return draw(st.lists(coefficients, max_size=order + 3)), order


def build(x, cls):
    return cls(*x) if isinstance(x, tuple) else x


def snapshot(operands):
    return [(list(x._num), x._den, x.order) for x in operands if isinstance(x, PowerSeriesQ)]


def assert_matches(result, reference):
    """Equal order and values, Fraction coefficients (the zeros one object), and the
    normal form: a positive denominator sharing no factor with every numerator."""
    assert type(result) is PowerSeriesQ
    assert result.order == reference.order
    assert result.coeffs == reference.coeffs
    assert all(type(c) is Fraction for c in result.coeffs)
    assert len({id(c) for c in result.coeffs if c == 0}) <= 1
    assert result._den > 0 and math.gcd(result._den, *result._num) == 1
    assert repr(result) == repr(reference)


def assert_same_outcome(op, operands):
    """op on PowerSeriesQ operands against op on ReferenceSeries ones: the same
    result or the same error, and no operand changed."""
    series = [build(x, PowerSeriesQ) for x in operands]
    before = snapshot(series)
    try:
        want = op(*(build(x, ReferenceSeries) for x in operands))
    except (TypeError, SeriesError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)) as info:
            op(*series)
        assert str(info.value) == str(exc) or type(exc) is TypeError
    else:
        assert_matches(op(*series), want)
    assert snapshot(series) == before


OPS = {"*": operator.mul, "+": operator.add, "-": operator.sub, "/": operator.truediv}


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(
    op=st.sampled_from(sorted(OPS)),
    left=st.one_of(series_args(), scalars),
    right=st.one_of(series_args(), scalars),
)
def test_series_arithmetic_matches_fraction_reference(op, left, right):
    # int and Fraction scalars on either side; scalar / series is a TypeError
    if not isinstance(left, tuple) and not isinstance(right, tuple):
        right = ([right, 1], 2)
    assert_same_outcome(OPS[op], (left, right))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(dividend=series_args(10), lead=nonzero_scalars, divisor=series_args(10))
def test_series_division_matches_fraction_reference(dividend, lead, divisor):
    # divisors with negative, fractional and non-unit leading coefficients
    coeffs, order = divisor
    assert_same_outcome(operator.truediv, (dividend, ([lead] + coeffs, order)))


UNARY = {
    "-": lambda s, k: -s,
    "derivative": lambda s, k: s.derivative(),
    "factor_x": lambda s, k: s.factor_x(k),
    "truncated": lambda s, k: s.truncated(k),
}


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(op=st.sampled_from(sorted(UNARY)), args=series_args(), data=st.data())
def test_unary_operations_match_fraction_reference(op, args, data):
    # k from -1 to order + 1, and leading zeros, so factor_x and truncated succeed as
    # well as fail, and factor_x names the coefficient it cannot remove
    coeffs, order = args
    k = data.draw(st.integers(-1, order + 1))
    args = ([0] * data.draw(st.integers(0, max(k, 0))) + coeffs, order)
    assert_same_outcome(lambda s: UNARY[op](s, k), (args,))
    assert PowerSeriesQ(*args).is_zero() == ReferenceSeries(*args).is_zero()


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_truncated_product_matches_fraction_convolution(data):
    # the series product convolves integer numerators; the reference convolves Fractions
    size = data.draw(st.integers(1, 12))
    a, b = ([Fraction(c) for c in data.draw(st.lists(coefficients, min_size=size, max_size=size))] for _ in "ab")
    out = (PowerSeriesQ(a) * PowerSeriesQ(b)).coeffs
    assert out == reference_product(a, b)
    assert all(type(c) is Fraction for c in out)


def local_models():
    """(x, a x^m + a' x^(m+1), b x^n + b' x^(n+1)) with fixed rationals, every 2 <= m < n <= 9."""
    a, a1, b, b1 = Fraction(-3, 7), Fraction(5, 4), Fraction(2, 9), Fraction(-1, 6)
    return [(m, n, [[0, 1], [0] * m + [a, a1], [0] * n + [b, b1]]) for m in range(2, 9) for n in range(m + 1, 10)]


def test_realize_t5_certificates_match_the_fraction_convolution(monkeypatch):
    # every series of the realization in the Fraction reference type, not only its products
    models = local_models()
    assert len(models) == 28
    certificates = [construct.realize_t5(curves.Curve.from_series(s))[1] for _, _, s in models]
    monkeypatch.setattr(construct, "PowerSeriesQ", ReferenceSeries)
    for (m, n, s), cert in zip(models, certificates):
        reference = construct.realize_t5(curves.Curve.from_series(s))[1]
        assert type(reference["K_series"]) is ReferenceSeries
        assert (cert["m"], cert["n"]) == (m, n)
        assert cert.keys() == reference.keys()
        for key, value in cert.items():
            want = reference[key]
            assert repr(value) == repr(want), key
            if isinstance(value, PowerSeriesQ):
                assert type(want) is ReferenceSeries and value.order == want.order, key
                assert all(type(c) is Fraction for c in value.coeffs), key
            else:
                assert type(value) is type(want), key
