from fractions import Fraction

import pytest

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
