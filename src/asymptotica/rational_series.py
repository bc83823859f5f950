"""Exact truncated power series with rational coefficients.

Used where floating point is not good enough: recognizing that the leading
coefficients of a series are *identically* zero so that a power of x can be
factored out, and certifying on-curve identities coefficient by coefficient.

A series is stored as integer numerators `_num` over one common denominator
`_den` > 0, in lowest terms: the gcd of `_den` and every numerator is 1.
Every ring operation runs in `int` and reduces once at the end, so no gcd is
taken per term; `Fraction`s are built only when `.coeffs` is read.
"""

from __future__ import annotations

import math
from fractions import Fraction

_ZERO = Fraction(0)


class SeriesError(Exception):
    pass


def _series(num, den, order):
    """The series with coefficients num[k] / den (den != 0), in lowest terms with den > 0."""
    g = abs(den)
    for c in num:  # pairwise: math.gcd(den, *num) left memory held after a loop of realizations
        if g == 1:
            break
        g = math.gcd(g, c)
    g = -g if den < 0 else g  # the sign goes into the numerators
    if g != 1:
        num, den = [c // g for c in num], den // g
    s = PowerSeriesQ.__new__(PowerSeriesQ)
    s._num, s._den, s.order = num, den, order
    return s


class PowerSeriesQ:
    """Polynomial truncation sum c_k x^k, k <= order, with c_k = _num[k] / _den."""

    __slots__ = ("_num", "_den", "order")

    def __init__(self, coeffs, order=None):
        coeffs = [c if type(c) in (int, Fraction) else Fraction(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        coeffs = coeffs[: order + 1]
        den = 1
        for c in coeffs:  # pairwise, as in _series
            den = math.lcm(den, c.denominator)
        # over the lcm of reduced denominators the numerators are already in lowest terms
        self._num = [c.numerator * (den // c.denominator) for c in coeffs] + [0] * (order + 1 - len(coeffs))
        self._den, self.order = den, order

    @property
    def coeffs(self):
        """The coefficients as a new list of Fractions (the zeros share one object)."""
        return [Fraction(c, self._den) if c else _ZERO for c in self._num]

    @classmethod
    def constant(cls, value, order):
        return cls([value], order)

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

    def _combine(self, other, sign):
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        d = math.lcm(s._den, o._den)
        u, v = d // s._den, sign * (d // o._den)
        return _series([a * u + b * v for a, b in zip(s._num, o._num)], d, s.order)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _series([-a for a in self._num], self._den, self.order)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _series([a * other.numerator for a in self._num], self._den * other.denominator, self.order)
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        size = s.order + 1
        terms = [(j, y) for j, y in enumerate(o._num) if y]
        out = [0] * size
        for i, x in enumerate(s._num):
            if x:
                for j, y in terms:
                    if i + j >= size:
                        break
                    out[i + j] += x * y
        return _series(out, s._den * o._den, s.order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("series divided by zero")
            return _series([a * other.denominator for a in self._num], self._den * other.numerator, self.order)
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        s, o = pair
        u = o._num[0]
        if u == 0:
            raise SeriesError("division requires a unit (nonzero constant term)")
        # on the numerators s_k, o_k with u = o_0: s/o = (d_o/d_s) sum t_k x^k / u^(k+1), where
        # t_k = u^k s_k - sum_{j=1..k} o_j u^(j-1) t_(k-j); one reduction at the end
        n = s.order
        powers = [u**k for k in range(n + 2)]
        scaled = [b * p for b, p in zip(o._num[1:], powers)]
        t = []
        for k, a in enumerate(s._num):
            t.append(powers[k] * a - sum(b * c for b, c in zip(scaled, reversed(t))))
        return _series([o._den * powers[n - k] * c for k, c in enumerate(t)], s._den * powers[n + 1], n)

    def __repr__(self):
        return f"PowerSeriesQ({self.coeffs!r})"

    # -- series-specific operations ----------------------------------------

    def is_zero(self):
        return not any(self._num)

    def derivative(self):
        return _series([k * self._num[k] for k in range(1, self.order + 1)], self._den, self.order - 1)

    def factor_x(self, k):
        """Divide by x^k; the first k coefficients must be identically zero."""
        if k < 0 or k > self.order:
            raise SeriesError("cannot factor that power of x")
        bad = [i for i in range(k) if self._num[i]]
        if bad:
            raise SeriesError(f"cannot factor x^{k}: coefficient of x^{bad[0]} is {self.coeffs[bad[0]]}, not zero")
        return _series(self._num[k:], self._den, self.order - k)

    def truncated(self, order):
        if order > self.order:
            raise SeriesError("cannot extend truncation")
        return _series(self._num[: order + 1], self._den, order)
