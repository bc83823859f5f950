"""Truncated multivariate Taylor arithmetic (forward-mode jets).

A ``Jet`` stores the Taylor coefficients of a function at a point, one per
monomial, truncated at a fixed total degree.  Arithmetic on jets therefore
propagates derivatives of every order up to the truncation: order 1 is
ordinary forward-mode AD, order 2 carries Hessians, and so on.

Products are table driven (Griewank & Walther, *Evaluating Derivatives*,
ch. 13): a pair table built once per ``(nvars, order)`` numbers the product
of two monomials, so a product makes one lookup per pair of coefficients.
A coefficient of a product, sum or difference starts at its first term,
not at 0, so one whose only term is -0.0 stays -0.0.

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

A ``Tape`` records one evaluation on ``Recorded`` values as straight-line
code that repeats its float operations (tubular.ChartProgram replays so).
The code is trimmed as a tape is (Griewank & Walther, ch. 6) without
changing those operations: a float's unit factor or divisor is not
recorded, a value read once is written into its reader, and an unread
value goes where its operation cannot raise.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
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

    def unstack(self):
        """The jets of the entries along the last axis of vector coefficients.

        A jet whose coefficients have shape s + (m,) gives m jets whose
        coefficients have shape s (Python floats when s is empty).  A scalar
        coefficient is shared by every entry.
        """
        cols = {
            i: c.tolist() if c.ndim == 1 else list(np.moveaxis(c, -1, 0))
            for i, c in self._coef.items()
            if isinstance(c, np.ndarray)
        }
        m = len(next(iter(cols.values())))
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
            out[i] = out[i] + c if i in out else c
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
            out[i] = out[i] - c if i in out else -c
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
                    t = ca * b0
                    out[i] = out[i] + t if i in out else t
                continue
            for j, cb in pairs:
                if j < n:
                    k, t = row[j], ca * cb
                    out[k] = out[k] + t if k in out else t
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
# (numpy for arrays, math for scalars, so scalar results stay those of math;
# on a jet the numpy calls are opaque nodes of a recording)


def sin(x):
    return _sin_cos(x, 0) if isinstance(x, Jet) else np.sin(x) if isinstance(x, np.ndarray) else math.sin(x)


def cos(x):
    return _sin_cos(x, 1) if isinstance(x, Jet) else np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)


def _sin_cos(x, shift):
    """sin (shift 0) or cos (shift 1) of a jet: the derivatives cycle through s, c, -s, -c."""
    a0 = _as_float(x.value)
    s, c = opaque(np.sin, a0), opaque(np.cos, a0)
    cycle = [s, c, -s, -c]
    return x.compose_univariate([cycle[(k + shift) % 4] for k in range(x.order + 1)])


def exp(x):
    if isinstance(x, Jet):
        e0 = opaque(np.exp, _as_float(x.value))
        return x.compose_univariate([e0] * (x.order + 1))
    return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)


def sqrt(x):
    if isinstance(x, Jet):
        a0 = _as_float(x.value)
        if np.any(a0 < 0):
            raise ValueError("sqrt of a negative value")
        if np.any(a0 == 0):
            raise ValueError("sqrt jet at zero is not differentiable")
        derivs = [opaque(np.sqrt, a0)]
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
    return opaque(float, v)


# -- recording: one evaluation as straight-line code -----------------------------
# (an operation tape, Griewank & Walther, ch. 6, replayed as compiled Python)


class Untraceable(Exception):
    """float() or a truth test of a Recorded value: it would fold into a constant."""


class GuardTripped(Exception):
    """A replayed comparison came out otherwise than when it was recorded."""


class Recorded:
    """A value that a Tape follows: it computes as the value v it carries and
    records each operation.  It reports v's class, so isinstance tests answer
    as for v, and numpy defers its operators to it."""

    __slots__ = ("v", "tape", "index")
    __array_ufunc__ = __hash__ = None
    __class__ = property(lambda self: type(self.v))
    ndim = property(lambda self: self.v.ndim)

    def tolist(self):
        return self.tape.unpack(self)

    def _untraceable(self, *args):
        raise Untraceable(f"a recorded value cannot be converted or tested: {self.v!r}")

    __float__ = __bool__ = _untraceable
    __neg__ = lambda self: self.tape.op(operator.neg, "-{}", self)
    __abs__ = lambda self: self.tape.op(abs, "abs({})", self)


def _operators(name, symbol):
    fn, form = getattr(operator, name), f"{{}} {symbol} {{}}"
    if name in ("lt", "le", "gt", "ge", "eq", "ne"):
        return (lambda self, other: self.tape.guard(fn, form, self, other),)
    # a jet operand takes the jet's reflected operator
    forward = lambda self, other: NotImplemented if type(other) is Jet else self.tape.op(fn, form, self, other)
    reverse = lambda self, other: NotImplemented if type(other) is Jet else self.tape.op(fn, form, other, self)
    return forward, reverse


for _name, _symbol in (
    ("add", "+"), ("sub", "-"), ("mul", "*"), ("truediv", "/"), ("pow", "**"),
    ("lt", "<"), ("le", "<="), ("gt", ">"), ("ge", ">="), ("eq", "=="), ("ne", "!="),
):
    for _prefix, _method in zip(("__", "__r"), _operators(_name, _symbol)):
        setattr(Recorded, f"{_prefix}{_name}__", _method)


def unwrap(v):
    """The plain value of v, or of each entry of a tuple."""
    if type(v) is Recorded:
        return v.v
    return tuple(map(unwrap, v)) if type(v) is tuple else v


def opaque(fn, *args):
    """fn(*args), recorded as one call when an argument is Recorded: a replay
    makes the call again (the numpy calls of sin, cos, exp, sqrt, a series;
    of a float as float(fn(v)), numpy's bits, so the replay runs on floats)."""
    for a in args:
        if type(a) is Recorded:
            form = f"{a.tape.ref(fn)}({', '.join(['{}'] * len(args))})"
            if fn in (np.sin, np.cos, np.exp, np.sqrt) and type(a.v) is float:
                return a.tape.op(lambda v: float(fn(v)), f"float({form})", a)
            return a.tape.op(fn, form, *args)
    return fn(*args)


# recorded values' names stay interned: fresh names for each compile, freed
# with its program, churned the interned-string table (peak RSS +2 MB)
_NAMES = []
# float +, -, * and unary - raise on no operand: a record of one whose value
# is never read may go.  A division, a power or a call stays, since whether
# it raises decides whether a point takes the jet pipeline
_TOTAL = (operator.add, operator.sub, operator.mul, operator.neg)
# nested parentheses of one expression in a program (CPython parses 200)
DEPTH_CAP = 50


def _cannot_raise(fn, values):
    # an int operand converts to float, which raises past the float range
    return fn in _TOTAL and all(type(v) is float or type(v) is int and abs(v) <= sys.float_info.max for v in values)


def _is_unit(v):
    return (type(v) is int or type(v) is float) and v == 1


def _unit_keeps(v):
    """Whether v times or over a unit is v itself, of v's type: a float, or a
    float64 array (not a 0-d one, which numpy makes a scalar)."""
    return type(v) is float or type(v) is np.float64 or type(v) is np.ndarray and v.dtype == np.float64 and v.ndim > 0


def _flat(obj):
    """(form, entries) of a value or a nested tuple: one {} per entry."""
    if type(obj) is not tuple:
        return "{}", [obj]
    parts = [_flat(v) for v in obj]
    return f"({''.join(form + ', ' for form, _ in parts)})", [e for _, entries in parts for e in entries]


class Tape:
    """The operations of one evaluation on Recorded inputs, in order:
    ring operations as the jet kernel makes them, comparisons as guards,
    opaque calls as calls.  A float (or float64 array) times or over a
    literal 1 is that value, exactly in IEEE 754 (-0.0, inf and NaN
    included), and is not recorded.
    compile() makes the records a function of the inputs that raises
    GuardTripped where a guard fails."""

    def __init__(self):
        # records are (target index or None, form with one {} per operand,
        # operands, droppable); an operand is a value's index or a constant's
        # source, so no Recorded value is kept in a cycle.  uses[i] counts the
        # operands that are value i
        self.records, self.constants, self.uses = [], {}, []

    def new(self, value):
        """A Recorded value carrying value: an input, or the result of a record."""
        i = len(self.uses)
        if i == len(_NAMES):
            _NAMES.append(sys.intern(f"v{i}"))
        r = _new(Recorded)
        r.v, r.tape, r.index = value, self, i
        self.uses.append(0)
        return r

    def ref(self, obj):
        """A constant in the source: an int or finite float literal or a bound constant."""
        if type(obj) is int or type(obj) is float and math.isfinite(obj):
            return f"({obj!r})" if repr(obj).startswith("-") else repr(obj)
        self.constants[name := f"c{len(self.constants)}"] = obj
        return name

    def _operands(self, args, uses):
        """The operands of args, each value's use counted in uses."""
        operands = []
        for a in args:
            if type(a) is Recorded:
                uses[a.index] += 1
                operands.append(a.index)
            else:
                operands.append(self.ref(a))
        return operands

    def _record(self, target, form, args, droppable):
        self.records.append((target, form, self._operands(args, self.uses), droppable))

    def op(self, fn, form, *args):
        """fn(*args) as a Recorded value, recorded as form filled with the operands."""
        if fn is operator.mul or fn is operator.truediv:
            a, b = args
            if _is_unit(b) and type(a) is Recorded and _unit_keeps(a.v):
                return a
            if fn is operator.mul and _is_unit(a) and type(b) is Recorded and _unit_keeps(b.v):
                return b
        values = [a.v if type(a) is Recorded else a for a in args]
        out = self.new(fn(*values))
        self._record(out.index, form, args, _cannot_raise(fn, values))
        return out

    def guard(self, fn, form, a, b):
        outcome = fn(unwrap(a), unwrap(b))
        self._record(None, f"if {'not ' if outcome else ''}({form}): raise Trip", (a, b), False)
        return outcome

    def unpack(self, a):
        """a.tolist() of a recorded vector, one Recorded value per entry."""
        out = [self.new(v) for v in a.v.tolist()]
        self._record(None, f"[{', '.join(_NAMES[r.index] for r in out)}] = {{}}.tolist()", (a,), False)
        return out

    def source(self, inputs, outputs):
        """The records as the source of program(inputs) returning outputs
        (Recorded values, constants and tuples of them).  A value read once
        is written into its reader, in parentheses, unless that nests deeper
        than DEPTH_CAP; a value never read goes with its record where the
        record cannot raise.  Guards, unpacks and values read more often are
        lines of their own."""
        form, args = _flat(tuple(outputs))
        uses, live = self.uses.copy(), []
        records = self.records + [(None, f"return {form}", self._operands(args, uses), False)]
        for record in reversed(records):  # readers first, so a dropped reader frees its operands
            target, _, operands, droppable = record
            if droppable and not uses[target]:
                for r in operands:
                    if type(r) is int:
                        uses[r] -= 1
            else:
                live.append(record)
        inlined, lines = {}, []  # inlined: index -> (parenthesised source, nesting depth)
        for target, form, operands, _ in reversed(live):
            texts, depth = [], 0
            for r in operands:
                if type(r) is not int:
                    texts.append(r)
                elif r in inlined:
                    text, d = inlined.pop(r)
                    texts.append(text)
                    depth = max(depth, d)
                else:
                    texts.append(_NAMES[r])
            text, depth = form.format(*texts), depth + form.count("(")
            if target is not None and uses[target] == 1 and depth < DEPTH_CAP:
                inlined[target] = f"({text})", depth + 1
            else:
                lines.append(text if target is None else f"{_NAMES[target]} = {text}")
        return f"def program({', '.join(_NAMES[r.index] for r in inputs)}):\n" + "".join(f"    {ln}\n" for ln in lines)

    def compile(self, inputs, outputs):
        """program(inputs) of source(), compiled."""
        code = compile(self.source(inputs, outputs), "<recorded>", "exec")
        namespace = {**self.constants, "Trip": GuardTripped}
        exec(code, namespace)
        return namespace.pop("program")  # its globals do not refer back to it
