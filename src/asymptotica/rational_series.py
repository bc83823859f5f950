"""Exact truncated power series with rational coefficients.

Used where floating point is not good enough: recognizing that the leading
coefficients of a series are *identically* zero so that a power of x can be
factored out, and certifying on-curve identities coefficient by coefficient.

Coefficients are always `Fraction`s.  Products run on integer numerators:
each factor is brought over its least common denominator, the convolution
is done in `int`, and one `Fraction` is built per non-zero output
coefficient, so no gcd is taken per term.
"""

from __future__ import annotations

import math
from fractions import Fraction

_ZERO = Fraction(0)


class SeriesError(Exception):
    pass


def _numerators(coeffs):
    """(numerators, d): integers n_k with coeffs[k] == n_k / d, d the least common denominator."""
    d = 1
    for c in coeffs:  # pairwise: math.lcm(*generator) left memory held after a loop of realizations
        d = math.lcm(d, c.denominator)
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def truncated_product(a, b):
    """The first len(a) coefficients of the product of the Fraction lists a and b,
    as Fractions (the zeros share one object)."""
    na, da = _numerators(a)
    nb, db = _numerators(b)
    size = len(na)
    terms = [(j, y) for j, y in enumerate(nb) if y]
    out = [0] * size
    for i, x in enumerate(na):
        if x:
            for j, y in terms:
                if i + j >= size:
                    break
                out[i + j] += x * y
    d = da * db
    return [Fraction(c, d) if c else _ZERO for c in out]


class PowerSeriesQ:
    """Polynomial truncation sum c_k x^k, k <= order, with Fraction coefficients."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        coeffs = coeffs[: order + 1]
        coeffs += [_ZERO] * (order + 1 - len(coeffs))
        self.coeffs = coeffs
        self.order = order

    @classmethod
    def constant(cls, value, order):
        return cls([Fraction(value)], order)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        """Pair (self, other) at a common truncation order.

        Truncating to the shorter order is sound (truncation is an ideal),
        so mixed-order arithmetic aligns silently rather than erroring.  Series
        are never mutated, so operands of equal order are returned as they are.
        """
        if isinstance(other, (int, Fraction)):
            other = PowerSeriesQ.constant(other, self.order)
        if not isinstance(other, PowerSeriesQ):
            return NotImplemented
        if other.order == self.order:
            return self, other
        order = min(self.order, other.order)
        return self.truncated(order), other.truncated(order)

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        return PowerSeriesQ([a + b for a, b in zip(s.coeffs, o.coeffs)], s.order)

    __radd__ = __add__

    def __neg__(self):
        return PowerSeriesQ([-a for a in self.coeffs], self.order)

    def __sub__(self, other):
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        return PowerSeriesQ([a - b for a, b in zip(s.coeffs, o.coeffs)], s.order)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PowerSeriesQ([a * other for a in self.coeffs], self.order)
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        return PowerSeriesQ(truncated_product(s.coeffs, o.coeffs), s.order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("series divided by zero")
            return PowerSeriesQ([a / other for a in self.coeffs], self.order)
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        if o.coeffs[0] == 0:
            raise SeriesError("division requires a unit (nonzero constant term)")
        out = [Fraction(0)] * (s.order + 1)
        for k in range(s.order + 1):
            acc = s.coeffs[k]
            for j in range(1, k + 1):
                acc -= o.coeffs[j] * out[k - j]
            out[k] = acc / o.coeffs[0]
        return PowerSeriesQ(out, s.order)

    def __repr__(self):
        return f"PowerSeriesQ({self.coeffs!r})"

    # -- series-specific operations ----------------------------------------

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def derivative(self):
        out = [k * self.coeffs[k] for k in range(1, self.order + 1)]
        return PowerSeriesQ(out, self.order - 1)

    def factor_x(self, k):
        """Divide by x^k; the first k coefficients must be identically zero."""
        if k < 0 or k > self.order:
            raise SeriesError("cannot factor that power of x")
        bad = [i for i in range(k) if self.coeffs[i] != 0]
        if bad:
            raise SeriesError(
                f"cannot factor x^{k}: coefficient of x^{bad[0]} is {self.coeffs[bad[0]]}, not zero"
            )
        return PowerSeriesQ(self.coeffs[k:], self.order - k)

    def truncated(self, order):
        if order > self.order:
            raise SeriesError("cannot extend truncation")
        return PowerSeriesQ(self.coeffs, order)
