"""Exact truncated power series with rational coefficients.

Used where floating point is not good enough: recognizing that the leading
coefficients of a series are *identically* zero so that a power of x can be
factored out, and certifying on-curve identities coefficient by coefficient.
"""

from __future__ import annotations

from fractions import Fraction

from .jets import Jet


class SeriesError(Exception):
    pass


class PowerSeriesQ:
    """Polynomial truncation sum c_k x^k, k <= order, with Fraction coefficients."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = [Fraction(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        coeffs = coeffs[: order + 1]
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        self.coeffs = coeffs
        self.order = order

    @classmethod
    def constant(cls, value, order):
        return cls([Fraction(value)], order)

    @classmethod
    def x(cls, order):
        return cls([Fraction(0), Fraction(1)], order)

    @classmethod
    def from_jet(cls, jet: Jet):
        """Convert a univariate jet (Taylor coefficients at 0) to a series."""
        if jet.nvars != 1:
            raise SeriesError("only univariate jets convert to power series")
        return cls([jet.coefficient((k,)) for k in range(jet.order + 1)])

    def to_jet(self):
        return Jet(1, self.order, {(k,): c for k, c in enumerate(self.coeffs) if c != 0})

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        """Pair (self, other) at a common truncation order.

        Truncating to the shorter order is sound (truncation is an ideal),
        so mixed-order arithmetic aligns silently rather than erroring.
        """
        if isinstance(other, (int, Fraction)):
            other = PowerSeriesQ.constant(other, self.order)
        if not isinstance(other, PowerSeriesQ):
            return NotImplemented
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
        out = [Fraction(0)] * (s.order + 1)
        for i, a in enumerate(s.coeffs):
            if a == 0:
                continue
            for j in range(s.order + 1 - i):
                b = o.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return PowerSeriesQ(out, s.order)

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

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise SeriesError("series power wants a nonnegative integer")
        result = PowerSeriesQ.constant(1, self.order)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PowerSeriesQ.constant(other, self.order)
        if not isinstance(other, PowerSeriesQ):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        return f"PowerSeriesQ({self.coeffs!r})"

    # -- series-specific operations ----------------------------------------

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def derivative(self):
        out = [k * self.coeffs[k] for k in range(1, self.order + 1)]
        return PowerSeriesQ(out, self.order - 1)

    def valuation(self):
        """Index of the first nonzero coefficient (None for the zero series)."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return None

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

    def __call__(self, x):
        """Horner evaluation; exact when x is a Fraction."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc
