"""Truncated multivariate Taylor arithmetic (forward-mode jets).

A ``Jet`` stores the Taylor coefficients of a function at a point, indexed
by multi-exponent and truncated at a fixed total degree.  Arithmetic on
jets therefore propagates derivatives of every order up to the truncation:
order 1 is ordinary forward-mode AD, order 2 carries Hessians, and so on.

Coefficients may be floats or ``fractions.Fraction``; arithmetic stays
exact as long as the inputs are exact and no transcendental function is
applied.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

import numpy as np

Scalar = Union[int, float, Fraction, "Jet"]

_FACTORIALS = [math.factorial(k) for k in range(32)]


class Jet:
    """Taylor polynomial in ``nvars`` variables, truncated at total degree ``order``.

    ``coef`` maps exponent tuples to coefficients; absent entries are zero.
    The entry at the all-zero exponent is the value at the expansion point.
    """

    __slots__ = ("nvars", "order", "coef")

    def __init__(self, nvars, order, coef=None):
        self.nvars = nvars
        self.order = order
        self.coef = coef if coef is not None else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, nvars, order):
        zero = (0,) * nvars
        return cls(nvars, order, {zero: value})

    @classmethod
    def variable(cls, value, index, nvars, order):
        """The seed ``value + h_index`` for differentiation in direction ``index``."""
        j = cls.constant(value, nvars, order)
        if order >= 1:
            unit = tuple(1 if i == index else 0 for i in range(nvars))
            j.coef[unit] = _one_like(value)
        return j

    # -- accessors ---------------------------------------------------------

    @property
    def value(self):
        return self.coef.get((0,) * self.nvars, 0)

    def deriv(self, *exponents):
        """Partial derivative d^|e| / dx^e at the expansion point (not the raw coefficient)."""
        if len(exponents) != self.nvars:
            raise ValueError("exponent tuple has wrong arity")
        scale = 1
        for e in exponents:
            scale *= _FACTORIALS[e]
        return self.coef.get(tuple(exponents), 0) * scale

    def partial(self, index):
        """The jet of the partial derivative in direction ``index`` (order drops by one)."""
        out = {}
        for exps, c in self.coef.items():
            e = exps[index]
            if e == 0:
                continue
            lowered = exps[:index] + (e - 1,) + exps[index + 1 :]
            out[lowered] = out.get(lowered, 0) + c * e
        return Jet(self.nvars, self.order - 1, out)

    def truncated(self, order):
        if order >= self.order:
            return self
        out = {e: c for e, c in self.coef.items() if sum(e) <= order}
        return Jet(self.nvars, order, out)

    def nilpotent(self):
        """This jet minus its value (the part that vanishes at the expansion point)."""
        out = dict(self.coef)
        out.pop((0,) * self.nvars, None)
        return Jet(self.nvars, self.order, out)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.nvars != self.nvars or other.order != self.order:
                raise ValueError("jet shape mismatch")
            return other
        if isinstance(other, (int, float, Fraction, np.ndarray)):
            return Jet.constant(other, self.nvars, self.order)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out = dict(self.coef)
        for e, c in o.coef.items():
            out[e] = out.get(e, 0) + c
        return Jet(self.nvars, self.order, out)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.nvars, self.order, {e: -c for e, c in self.coef.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out = dict(self.coef)
        for e, c in o.coef.items():
            out[e] = out.get(e, 0) - c
        return Jet(self.nvars, self.order, out)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction, np.ndarray)):
            return Jet(self.nvars, self.order, {e: c * other for e, c in self.coef.items()})
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        order = self.order
        out = {}
        for ea, ca in self.coef.items():
            da = sum(ea)
            for eb, cb in o.coef.items():
                if da + sum(eb) > order:
                    continue
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return Jet(self.nvars, order, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return Jet(self.nvars, self.order, {e: _div(c, other) for e, c in self.coef.items()})
        if isinstance(other, np.ndarray):
            return Jet(self.nvars, self.order, {e: c / other for e, c in self.coef.items()})
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self):
        a0 = self.value
        if isinstance(a0, (int, float, Fraction)) and a0 == 0:
            raise ZeroDivisionError("division by a jet with zero value")
        derivs = []
        p = _div(_one_like(a0), a0)
        for k in range(self.order + 1):
            derivs.append(p)  # (1/u)^(k)/k! at a0 up to sign handled below
            p = _div(-p, a0)
        # derivs[k] currently (-1)^k / a0^(k+1); that is exactly d^k/du^k (1/u) / k!
        return self._compose_scaled(derivs)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("jet exponent must be an integer")
        if n < 0:
            return (self ** (-n))._reciprocal()
        result = Jet.constant(1, self.nvars, self.order)
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def _compose_scaled(self, scaled_derivs):
        """Sum scaled_derivs[k] * (self - value)^k, with scaled_derivs[k] = f^(k)(a0)/k!."""
        n = self.nilpotent()
        result = Jet.constant(scaled_derivs[0], self.nvars, self.order)
        power = Jet.constant(1, self.nvars, self.order)
        for k in range(1, min(len(scaled_derivs), self.order + 1)):
            power = power * n
            if not power.coef:
                break
            result = result + power * scaled_derivs[k]
        return result

    def compose_univariate(self, derivs):
        """Apply an analytic function given its derivatives [f(a0), f'(a0), ...] at self.value."""
        scaled = [d / _FACTORIALS[k] for k, d in enumerate(derivs)]
        return self._compose_scaled(scaled)

    def __repr__(self):
        items = ", ".join(f"{e}: {c}" for e, c in sorted(self.coef.items()))
        return f"Jet({self.nvars} vars, order {self.order}, {{{items}}})"


def _one_like(v):
    # plain integer 1 is exact and promotes correctly in every coefficient ring
    return 1


def _div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def seed(values, order):
    """Jets for a tuple of independent variables at the given point."""
    n = len(values)
    return tuple(Jet.variable(v, i, n, order) for i, v in enumerate(values))


def value_of(x):
    return x.value if isinstance(x, Jet) else x


def dot(u, v):
    """Dot product of two 3-vectors of ring elements."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross(u, v):
    """Cross product of two 3-vectors of ring elements."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


# -- analytic functions over float | Fraction | Jet --------------------------


def sin(x):
    if isinstance(x, Jet):
        a0 = _as_float(x.value)
        s, c = np.sin(a0), np.cos(a0)
        cycle = [s, c, -s, -c]
        return x.compose_univariate([cycle[k % 4] for k in range(x.order + 1)])
    return math.sin(x)


def cos(x):
    if isinstance(x, Jet):
        a0 = _as_float(x.value)
        s, c = np.sin(a0), np.cos(a0)
        cycle = [c, -s, -c, s]
        return x.compose_univariate([cycle[k % 4] for k in range(x.order + 1)])
    return math.cos(x)


def exp(x):
    if isinstance(x, Jet):
        e0 = np.exp(_as_float(x.value))
        return x.compose_univariate([e0] * (x.order + 1))
    return math.exp(x)


def sqrt(x):
    if isinstance(x, Jet):
        a0 = _as_float(x.value)
        if np.any(a0 < 0):
            raise ValueError("sqrt of a negative value")
        if np.any(a0 == 0):
            raise ValueError("sqrt jet at zero is not differentiable")
        derivs = [np.sqrt(a0)]
        coeff = 1.0
        for k in range(1, x.order + 1):
            coeff *= 0.5 - (k - 1)
            derivs.append(coeff * a0 ** (0.5 - k))
        return x.compose_univariate(derivs)
    if x < 0:
        raise ValueError("sqrt of a negative value")
    return math.sqrt(x)


def _as_float(v):
    if isinstance(v, np.ndarray):
        return v
    return float(v)

