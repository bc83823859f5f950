"""Tubular chart around a core curve and the reduction of the asymptotic-line
equation to a binary quadratic form.

In chart coordinates (x, y, z) the asymptotic-line condition splits into a
linear equation a dx + b dy + c dz = 0 and a quadratic one with coefficients
L1..L6.  Solving the linear one for dz (possible wherever c != 0) reduces the
quadratic to e dx^2 + 2 f dx dy + g dy^2 = 0; the sign of eg - f^2 classifies
points, and eg - f^2 itself is the Gaussian curvature of the plane field.

All partial derivatives here come from jet arithmetic, never from divided
differences: the monodromy eigenvalues downstream are exponentially sensitive
to the entries built from these partials.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .curves import adapted_frame
from .exprlang import DomainError
from .jets import value_of

TUBE_RADIUS = 0.1  # the chart's tube: |y|, |z| <= TUBE_RADIUS
C_TOL = 1e-13  # |c| below this is a singular reduction
CLASS_TOL = 1e-8  # the Parabolic and FullyDegenerate bands of classify


class ReductionSingular(Exception):
    """c = 0 at the requested point: dz cannot be solved for."""


class PointClass(enum.Enum):
    HYPERBOLIC = "Hyperbolic"
    ELLIPTIC = "Elliptic"
    PARABOLIC = "Parabolic"
    FULLY_DEGENERATE = "FullyDegenerate"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class ChartPoint:
    """One expansion of the core curve at a chart point (x, y, z).

    derivs are the derivative vectors (gamma, gamma', ...) at x, as far as
    the expansion went, frame the adapted frame (X, Y, Z) built from
    gamma', and alpha the ambient point gamma + y Y + z Z.  Fields read
    their components from it, so a chart point expands the curve once.
    """

    x: object
    y: object
    z: object
    derivs: list
    frame: tuple
    alpha: tuple


class TubularChart:
    """alpha(x, y, z) = gamma(x) + y Y(x) + z Z(x) around the core curve."""

    def __init__(self, curve):
        self.curve = curve
        self.radius = TUBE_RADIUS

    def expand(self, x, y, z, order=2, row=None):
        """The ChartPoint at (x, y, z), from one curve expansion to this
        order (at least 1: the frame is built from gamma'), or from row,
        the (derivs, frame) that curve_rows gave at x's value."""
        derivs, frame = self._curve_part(x, order) if row is None else row
        _, Y, Z = frame
        alpha = tuple(derivs[0][i] + y * Y[i] + z * Z[i] for i in range(3))
        return ChartPoint(x, y, z, derivs, frame, alpha)

    def _curve_part(self, x, order):
        derivs = self.curve.jet(x, order)
        return derivs, adapted_frame(derivs[1])

    def curve_rows(self, x, order=2):
        """The (derivs, frame) of expand at each abscissa of x, for the
        first-order seeds of an order-0 chart_data pass.

        One vectorised curve expansion serves every abscissa, and its jets
        are split into per-abscissa jets with float coefficients, bit for
        bit what expand computes at each point.  A float x gives one row, an
        array a list.  Where the pass raises or gives a non-finite value, the
        rows are None, so that expand meets the failure at its own point.
        """
        n = None if not np.ndim(x) else len(x)
        try:
            with np.errstate(all="ignore"):
                derivs, frame = self._curve_part(jets.Jet.variable(x, 0, 3, 1), order)
            parts = (v for vec in (*derivs, *frame) for v in vec if isinstance(v, jets.Jet))
            finite = all(np.isfinite(c).all() for v in parts for c in v._coef.values())
        except (ArithmeticError, ValueError, TypeError, DomainError):  # TypeError: isfinite of an object array
            finite = False
        if not finite:  # each point expands the curve itself and meets the failure there
            return None if n is None else [None] * n
        if n is None:
            return derivs, frame
        # a vector of jets as n vectors of per-abscissa jets
        split = lambda vec: list(zip(*(v.unstack(n) if isinstance(v, jets.Jet) else [v] * n for v in vec)))
        derivs, frame = [split(d) for d in derivs], [split(axis) for axis in frame]
        return [([d[k] for d in derivs], tuple(axis[k] for axis in frame)) for k in range(n)]

    def alpha(self, x, y, z):
        return self.expand(x, y, z, 1).alpha

    def point(self, x, y, z):
        return np.array([float(value_of(c)) for c in self.alpha(x, y, z)])

    def inside(self, y, z):
        return abs(y) <= self.radius and abs(z) <= self.radius


@dataclass
class ChartData:
    """Reduced binary-equation data at one chart point (or an array of them).

    At order 0 every field is a plain value (a float, an array or a
    Fraction); at a higher order the jet fields keep derivative information
    up to that order, and the scalar convenience accessors read their values.
    """

    x: object
    y: object
    z: object
    a: object
    b: object
    c: object
    L: tuple
    e: object
    f: object
    g: object
    A: object
    B: object

    def value(self, name):
        return value_of(getattr(self, name))

    def partial(self, name, var):
        j = getattr(self, name)
        index = {"x": 0, "y": 1, "z": 2}[var]
        if not isinstance(j, jets.Jet):
            return 0.0
        exps = tuple(1 if i == index else 0 for i in range(3))
        return j.deriv(*exps)

    @property
    def K(self):
        return self.value("e") * self.value("g") - self.value("f") ** 2


def _plain(j):
    """An order-0 jet as its plain value (the reduction then runs on floats,
    arrays or Fractions); a higher-order jet as it is."""
    return j.value if j.order == 0 else j


def _partial_vec(vec, i):
    return [_plain(comp.partial(i)) if isinstance(comp, jets.Jet) else 0 for comp in vec]


def _truncate(v, order):
    return _plain(v.truncated(order)) if isinstance(v, jets.Jet) else v


def chart_data(field, chart, x, y, z, order=0, row=None):
    """Evaluate the full coefficient pipeline at a chart point.

    order is the jet order retained on the outputs: 0 for plain values,
    1 when first partials in (x, y, z) are wanted.  x, y, z may be numpy
    arrays (broadcast evaluation at many points at once).  The curve is
    expanded to field.curve_order, the highest derivative of gamma that
    field.chart_components reads, unless row is given (at order 0 only):
    then the curve part is that row of chart.curve_rows(..., field.curve_order)
    at x.
    """
    q = order + 1
    point = chart.expand(*jets.seed((x, y, z), q), field.curve_order, row)
    xi = field.chart_components(point)
    d_alpha = [_partial_vec(point.alpha, i) for i in range(3)]
    d_xi = [_partial_vec(xi, i) for i in range(3)]
    xi_t = [_truncate(cmp, order) for cmp in xi]

    a, b, c = (jets.dot(xi_t, d) for d in d_alpha)
    L = quadratic_coefficients(d_xi, d_alpha)

    small = np.abs(value_of(c)) < C_TOL
    if np.any(small):  # name the first such point
        *columns, small = np.broadcast_arrays(value_of(c), x, y, z, small)
        cv, px, py, pz = (v.flat[np.argmax(small)] for v in columns)
        raise ReductionSingular(f"c = {cv} at (x, y, z) = ({px}, {py}, {pz})")

    # one reciprocal in c's ring for both ratios: -(a * r) is bit for bit
    # the jet quotient a / c, which a plain a / c is not
    r = c._reciprocal() if isinstance(c, jets.Jet) else jets._div(1, c)
    A = -(a * r)
    B = -(b * r)
    e, f, g = reduced_coefficients(A, B, L)
    return ChartData(x=x, y=y, z=z, a=a, b=b, c=c, L=L, e=e, f=f, g=g, A=A, B=B)


def quadratic_coefficients(d_xi, d_alpha):
    """L1..L6 from the partials (xi_x, xi_y, xi_z) of the field and
    (alpha_x, alpha_y, alpha_z) of the chart (ring-generic 3-vectors)."""
    (xx, xy, xz), (ax, ay, az) = d_xi, d_alpha
    return (
        jets.dot(xx, ax),
        jets.dot(xx, ay) + jets.dot(xy, ax),
        jets.dot(xy, ay),
        jets.dot(xx, az) + jets.dot(xz, ax),
        jets.dot(xy, az) + jets.dot(xz, ay),
        jets.dot(xz, az),
    )


def reduced_coefficients(A, B, L):
    """(e, f, g) of the quadratic L1..L6 after substituting dz = A dx + B dy."""
    L1, L2, L3, L4, L5, L6 = L
    e = L1 + A * L4 + A * A * L6
    # substituting dz = A dx + B dy into L6 dz^2 puts 2AB L6 on the dx dy
    # coefficient, so the mixed reduced coefficient carries the full AB L6
    # (gauge invariance of the root slopes pins this down)
    # halved in the ring of the terms: an int becomes a Fraction, as in a jet
    f = jets._div(L2, 2) + jets._div(A * L5 + B * L4, 2) + A * B * L6
    g = L3 + B * L5 + B * B * L6
    return e, f, g


def gaussian_curvature(field, chart, x, y, z):
    return chart_data(field, chart, x, y, z, order=0).K


def classify(field, chart, point):
    """Sign classification of eg - f^2, scale-free, with a Parabolic band."""
    return _classes(chart_data(field, chart, *point))[0]


def _efg_rows(d):
    """(x, y, z, e, f, g) of each point of order-0 chart data d, as Python
    numbers in flat order; DomainError names the first point where e, f or g
    is not finite (an array pass divides by zero without raising)."""
    columns = np.broadcast_arrays(*(np.asarray(v) for v in (d.x, d.y, d.z, d.e, d.f, d.g)))
    rows = list(zip(*(c.ravel().tolist() for c in columns)))
    for x, y, z, *efg in rows:
        if not all(map(math.isfinite, efg)):
            raise DomainError(f"non-finite e, f, g = {', '.join(map(str, efg))} at (x, y, z) = ({x}, {y}, {z})")
    return rows


def _classes(d):
    """The PointClass of each point of order-0 chart data d, in flat order:
    the threshold rule of classify, for one point or a vector pass."""
    out = []
    for *_, e, f, g in _efg_rows(d):
        scale = max(abs(e), abs(f), abs(g), 1.0)
        if max(abs(e), abs(f), abs(g)) <= CLASS_TOL * scale:
            out.append(PointClass.FULLY_DEGENERATE)
            continue
        K = (e * g - f * f) / scale**2
        out.append(
            PointClass.HYPERBOLIC if K < -CLASS_TOL else PointClass.ELLIPTIC if K > CLASS_TOL else PointClass.PARABOLIC
        )
    return out


def binary_equation_data(field, chart):
    """A callable (x, y, z[, row]) -> (e, f, g, A, B) of plain values,
    array-capable; row is chart.curve_rows(x, field.curve_order) at a float x.

    This is the interface the flow integrator consumes.
    """

    def efgab(x, y, z, row=None):
        d = chart_data(field, chart, x, y, z, order=0, row=row)
        return (d.value("e"), d.value("f"), d.value("g"), d.value("A"), d.value("B"))

    return efgab
