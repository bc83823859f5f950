"""Truncated multivariate Taylor arithmetic (forward-mode jets).

A ``Jet`` stores the Taylor coefficients of a function at a point, one per
monomial, truncated at a fixed total degree.  Arithmetic on jets therefore
propagates derivatives of every order up to the truncation: order 1 is
ordinary forward-mode AD, order 2 carries Hessians, and so on.

Products are table driven (Griewank & Walther, *Evaluating Derivatives*,
ch. 13): a pair table built once per ``(nvars, order)`` numbers the product
of two monomials, so a product makes one lookup per pair of coefficients.

Coefficients may be floats, numpy arrays (one array per monomial) or
``fractions.Fraction``; arithmetic stays exact as long as the inputs are
exact and no transcendental function is applied.

A seed's unit derivative takes the ring of its value: ``1`` for an int or a
``Fraction``, ``1.0`` for a float, a numpy scalar or an array.  ``seed``
picks one ring per call: exact when every value is an int or a
``Fraction``, float otherwise (its ints and Fractions become floats).  So a
float point never carries an exact unit, and a later ``jet / 2`` stays a
float product instead of making ``Fraction`` coefficients (which turn
array coefficients into object arrays).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

_FACTORIALS = [math.factorial(k) for k in range(32)]
# Fraction last: its ABC instance check is the slow one
_SCALARS = (float, int, np.ndarray, Fraction)


@functools.cache
class _Monomials:
    """Monomial tables of the jets in ``nvars`` variables truncated at ``order``.

    Monomials are numbered by degree, then by exponent tuple, largest first:
    a monomial has one number at every order, and those of degree <= d come
    first.  ``rows[i][j]`` numbers monomial i times monomial j, for the
    prefix of j that keeps the product within the order.
    """

    def __init__(self, nvars, order):
        self.nvars, self.order = nvars, order
        monomials = (e for e in itertools.product(range(order + 1), repeat=nvars) if sum(e) <= order)
        self.exponents = sorted(monomials, key=lambda e: (sum(e), [-x for x in e]))
        self.index = {e: i for i, e in enumerate(self.exponents)}
        self.rows = [
            [self.index[tuple(map(sum, zip(a, b)))] for b in self.exponents if sum(a) + sum(b) <= order]
            for a in self.exponents
        ]
        # lowered[v][i]: (number of monomial i over x_v, exponent of x_v), None where x_v is absent
        self.lowered = [
            [(self.index[e[:v] + (e[v] - 1,) + e[v + 1 :]], e[v]) if e[v] else None for e in self.exponents]
            for v in range(nvars)
        ]


_new = object.__new__


def _jet(table, coef):
    """A jet of the shape of ``table`` owning ``coef`` (monomial number -> coefficient)."""
    j = _new(Jet)
    j._table, j._coef = table, coef
    return j


class Jet:
    """Taylor polynomial in ``nvars`` variables, truncated at total degree ``order``.

    ``Jet(nvars, order, {exponents: c})`` takes the raw Taylor coefficient
    of each monomial, ``coefficient(exponents)`` reads one back, and
    ``value`` is the constant coefficient (the value at the expansion
    point).  Absent monomials are zero.  Jets are never mutated, so results
    may share storage with operands (``x ** 1`` is ``x``).
    """

    __slots__ = ("_table", "_coef")
    # numpy defers to the reflected operators: ndarray + jet is a jet with
    # array coefficients, not an object array of jets
    __array_ufunc__ = None

    def __init__(self, nvars, order, coef=None):
        self._table = _Monomials(nvars, order)
        self._coef = {self._table.index[tuple(e)]: c for e, c in (coef or {}).items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, nvars, order):
        return _jet(_Monomials(nvars, order), {0: value})

    @classmethod
    def variable(cls, value, index, nvars, order):
        """The seed ``value + h_index`` for differentiation in direction ``index``.

        The unit is 1 for an int or Fraction value and 1.0 for any other.
        """
        unit = 1 if _exact(value) else 1.0
        # the degree-one monomials follow the constant, in variable order
        return _jet(_Monomials(nvars, order), {0: value, 1 + index: unit} if order >= 1 else {0: value})

    # -- accessors ---------------------------------------------------------

    nvars = property(lambda self: self._table.nvars)
    order = property(lambda self: self._table.order)
    value = property(lambda self: self._coef.get(0, 0))

    def coefficient(self, exponents):
        """The raw Taylor coefficient of the monomial with these exponents (0 when absent)."""
        i = self._table.index.get(tuple(exponents))
        return 0 if i is None else self._coef.get(i, 0)

    def deriv(self, *exponents):
        """Partial derivative d^|e| / dx^e at the expansion point (not the raw coefficient)."""
        if len(exponents) != self.nvars:
            raise ValueError("exponent tuple has wrong arity")
        scale = 1
        for e in exponents:
            scale *= _FACTORIALS[e]
        return self.coefficient(exponents) * scale

    def partial(self, index):
        """The jet of the partial derivative in direction ``index`` (order drops by one)."""
        lowered = self._table.lowered[index]
        out = {lowered[i][0]: c * lowered[i][1] for i, c in self._coef.items() if lowered[i] is not None}
        return _jet(_Monomials(self.nvars, self.order - 1), out)

    def truncated(self, order):
        if order >= self.order:
            return self
        table = _Monomials(self.nvars, order)
        n = len(table.exponents)  # the monomials of the lower order come first
        return _jet(table, {i: c for i, c in self._coef.items() if i < n})

    def nilpotent(self):
        """This jet minus its value (the part that vanishes at the expansion point)."""
        return _jet(self._table, {i: c for i, c in self._coef.items() if i})

    def unstack(self, m=None):
        """The jets of the entries along the last axis of vector coefficients.

        A jet whose coefficients have shape s + (m,) gives m jets whose
        coefficients have shape s (Python floats when s is empty).  A scalar
        coefficient is shared by every entry; m is needed only when no
        coefficient is an array.
        """
        cols = {
            i: c.tolist() if c.ndim == 1 else list(np.moveaxis(c, -1, 0))
            for i, c in self._coef.items()
            if isinstance(c, np.ndarray)
        }
        m = len(next(iter(cols.values()))) if cols else m
        return [_jet(self._table, {i: cols[i][k] if i in cols else c for i, c in self._coef.items()}) for k in range(m)]

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        """The coefficients of ``other`` as a jet of this shape, or NotImplemented."""
        if type(other) is Jet:
            if other._table is not self._table:
                raise ValueError("jet shape mismatch")
            return other._coef
        if isinstance(other, _SCALARS):
            return {0: other}
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out = dict(self._coef)
        for i, c in o.items():
            out[i] = out.get(i, 0) + c
        return _jet(self._table, out)

    __radd__ = __add__

    def __neg__(self):
        return _jet(self._table, {i: -c for i, c in self._coef.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out = dict(self._coef)
        for i, c in o.items():
            out[i] = out.get(i, 0) - c
        return _jet(self._table, out)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if type(other) is not Jet:
            if isinstance(other, _SCALARS):
                return _jet(self._table, {i: c * other for i, c in self._coef.items()})
            return NotImplemented
        table = self._table
        if other._table is not table:
            raise ValueError("jet shape mismatch")
        rows, b = table.rows, other._coef
        b0, pairs = b.get(0), b.items()
        out = {}
        for i, ca in self._coef.items():
            row = rows[i]
            n = len(row)
            if n == 1:  # a top-degree monomial pairs only with the constant
                if b0 is not None:
                    out[i] = out.get(i, 0) + ca * b0
                continue
            for j, cb in pairs:
                if j < n:
                    k = row[j]
                    out[k] = out.get(k, 0) + ca * cb
        j = _new(Jet)  # _jet inlined: this is the hottest constructor
        j._table, j._coef = table, out
        return j

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Jet:
            return self * other._reciprocal()
        if isinstance(other, (int, float, Fraction)) and other == 0:
            raise ZeroDivisionError("division by zero")
        if isinstance(other, _SCALARS):
            return _jet(self._table, {i: _div(c, other) for i, c in self._coef.items()})
        return NotImplemented

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self):
        a0 = self.value
        if isinstance(a0, (int, float, Fraction)) and a0 == 0:
            raise ZeroDivisionError("division by a jet with zero value")
        derivs = []
        p = _div(1, a0)
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
        # square and multiply from the low bit, with no unit factor and no unused last square
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            base = base * base if n else base
        return Jet.constant(1, self.nvars, self.order) if result is None else result

    def _compose_scaled(self, scaled_derivs):
        """Sum scaled_derivs[k] * (self - value)^k, with scaled_derivs[k] = f^(k)(a0)/k!."""
        n = power = self.nilpotent()
        result = _jet(self._table, {0: scaled_derivs[0]})
        for k in range(1, min(len(scaled_derivs), self._table.order + 1)):
            if k > 1:
                power = power * n
            if not power._coef:
                break
            result = result + power * scaled_derivs[k]
        return result

    def compose_univariate(self, derivs):
        """Apply an analytic function given its derivatives [f(a0), f'(a0), ...] at self.value."""
        scaled = [d / _FACTORIALS[k] for k, d in enumerate(derivs)]
        return self._compose_scaled(scaled)

    def __repr__(self):
        terms = sorted((self._table.exponents[i], c) for i, c in self._coef.items())
        return f"Jet({self.nvars} vars, order {self.order}, {{{', '.join(f'{e}: {c}' for e, c in terms)}}})"


def _exact(v):
    """Whether v is an int or a Fraction (floats and arrays answer first:
    Fraction's ABC instance check is the slow one)."""
    return not isinstance(v, (float, np.ndarray)) and isinstance(v, (int, Fraction))


def _div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def seed(values, order):
    """Jets for a tuple of independent variables at the given point.

    Exact when every value is an int or a Fraction; otherwise those become
    floats, so every seed of the call has the unit 1.0.
    """
    n = len(values)
    if not all(map(_exact, values)):
        values = [float(v) if _exact(v) else v for v in values]
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


# -- analytic functions over float | Fraction | ndarray | Jet -----------------
# (numpy for arrays, math for scalars, so scalar results stay those of math)


def sin(x):
    if isinstance(x, Jet):
        a0 = _as_float(x.value)
        s, c = np.sin(a0), np.cos(a0)
        cycle = [s, c, -s, -c]
        return x.compose_univariate([cycle[k % 4] for k in range(x.order + 1)])
    return np.sin(x) if isinstance(x, np.ndarray) else math.sin(x)


def cos(x):
    if isinstance(x, Jet):
        a0 = _as_float(x.value)
        s, c = np.sin(a0), np.cos(a0)
        cycle = [c, -s, -c, s]
        return x.compose_univariate([cycle[k % 4] for k in range(x.order + 1)])
    return np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)


def exp(x):
    if isinstance(x, Jet):
        e0 = np.exp(_as_float(x.value))
        return x.compose_univariate([e0] * (x.order + 1))
    return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)


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
    if isinstance(x, np.ndarray):
        if np.any(x < 0):
            raise ValueError("sqrt of a negative value")
        return np.sqrt(x)
    if x < 0:
        raise ValueError("sqrt of a negative value")
    return math.sqrt(x)


def _as_float(v):
    if isinstance(v, np.ndarray):
        return v
    return float(v)

