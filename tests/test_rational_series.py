from fractions import Fraction

import pytest

from asymptotica import jets
from asymptotica.rational_series import PowerSeriesQ, SeriesError


def test_constant_and_x():
    one = PowerSeriesQ.constant(1, 4)
    x = PowerSeriesQ.x(4)
    s = one + x
    assert s.coeffs[0] == 1 and s.coeffs[1] == 1


def test_geometric_series_inverse():
    x = PowerSeriesQ.x(5)
    inv = PowerSeriesQ.constant(1, 5) / (PowerSeriesQ.constant(1, 5) - x)
    assert inv.coeffs[:6] == [Fraction(1)] * 6


def test_division_exact_rationals():
    x = PowerSeriesQ.x(4)
    q = (x + x ** 2) / (PowerSeriesQ.constant(2, 4) + x)
    # (x + x^2)/(2 + x) = x/2 + x^2/4 - x^3/8 + ...
    assert q.coeffs[1] == Fraction(1, 2)
    assert q.coeffs[2] == Fraction(1, 4)
    assert q.coeffs[3] == Fraction(-1, 8)


def test_division_by_higher_valuation_raises():
    x = PowerSeriesQ.x(4)
    with pytest.raises(SeriesError):
        PowerSeriesQ.constant(1, 4) / x


def test_valuation():
    x = PowerSeriesQ.x(6)
    assert (x ** 3 + x ** 5).valuation() == 3
    assert PowerSeriesQ.constant(0, 3).valuation() is None


def test_factor_x_exact():
    x = PowerSeriesQ.x(6)
    s = x ** 2 + 3 * x ** 3
    t = s.factor_x(2)
    assert t.coeffs[0] == 1 and t.coeffs[1] == 3


def test_factor_x_rejects_low_valuation():
    x = PowerSeriesQ.x(4)
    with pytest.raises(SeriesError):
        (x + x ** 2).factor_x(2)


def test_derivative():
    x = PowerSeriesQ.x(4)
    d = (x ** 3).derivative()
    assert d.coeffs[2] == 3


def test_from_jet_round_trip():
    j = jets.Jet.variable(Fraction(0), 0, 1, 3)
    p = (1 + j) ** 3
    s = PowerSeriesQ.from_jet(p)
    assert s.coeffs[:4] == [Fraction(1), Fraction(3), Fraction(3), Fraction(1)]
    back = s.to_jet()
    assert [back.coefficient((k,)) for k in range(4)] == [p.coefficient((k,)) for k in range(4)]


def test_call_evaluates_polynomial():
    x = PowerSeriesQ.x(3)
    s = 1 + 2 * x + x ** 2
    assert s(Fraction(1, 2)) == Fraction(9, 4)


def test_is_zero():
    assert PowerSeriesQ.constant(0, 2).is_zero()
    assert not PowerSeriesQ.x(2).is_zero()


def test_power():
    x = PowerSeriesQ.x(4)
    s = (1 + x) ** 4
    assert s.coeffs[:5] == [1, 4, 6, 4, 1]
