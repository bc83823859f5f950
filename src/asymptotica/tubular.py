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

    def expand(self, x, y, z, order):
        """The ChartPoint at (x, y, z), from one curve expansion to this
        order (at least 1: the frame is built from gamma')."""
        derivs = self.curve.jet(x, order)
        frame = adapted_frame(derivs[1])
        _, Y, Z = frame
        alpha = tuple(derivs[0][i] + y * Y[i] + z * Z[i] for i in range(3))
        return ChartPoint(x, y, z, derivs, frame, alpha)

    def point(self, x, y, z):
        return np.array([float(value_of(c)) for c in self.expand(x, y, z, 1).alpha])


@dataclass
class ChartData:
    """Reduced binary-equation data at one chart point (or an array of them).

    At order 0 every field is a plain value (a float, an array or a
    Fraction); at a higher order the jet fields keep their Taylor
    coefficients in (y, z) up to that order, on monomials free of x, and the
    scalar convenience accessors read their values.
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
        """The first partial of field name in var ("y" or "z"); 0.0 on
        order-0 data.  Order >= 1 data carries no partial in x: "x" raises
        ValueError."""
        j = getattr(self, name)
        index = {"x": 0, "y": 1, "z": 2}[var]
        if not isinstance(j, jets.Jet):
            return 0.0
        if not index:
            raise ValueError("chart_data carries transverse partials only (in y and z), not the partial in x")
        exps = tuple(1 if i == index else 0 for i in range(3))
        return j.deriv(*exps)

    @property
    def K(self):
        return self.value("e") * self.value("g") - self.value("f") ** 2


def _transverse(j):
    """An order-0 jet as its plain value (the reduction then runs on floats,
    arrays or Fractions); a higher-order jet on the monomials free of x."""
    return j.value if j.order == 0 else j.restricted(0)


def _partial_vec(vec, i):
    return [_transverse(comp.partial(i)) if isinstance(comp, jets.Jet) else 0 for comp in vec]


def _truncate(v, order):
    return _transverse(v.truncated(order)) if isinstance(v, jets.Jet) else v


def chart_data(field, chart, x, y, z, order=0, program=None):
    """Evaluate the full coefficient pipeline at a chart point.

    order is the jet order retained on the outputs: 0 for plain values,
    k >= 1 for the Taylor coefficients in (y, z) to degree k at the point
    (ChartData.partial reads the first ones).  The outputs carry no
    x-monomial: the reduction reads the first x-partials of the field and
    the chart, and no reader wants one of its own.  x, y, z may be numpy
    arrays (broadcast evaluation at many points at once).  The curve is
    expanded to field.curve_order, the highest derivative of gamma that
    field.chart_components reads.  program, the ChartProgram of one
    equation of this field and chart, runs an order-0 point of three Python
    floats: its first such point records the pipeline, later ones replay it.
    """
    if program is not None and order == 0 and type(x) is type(y) is type(z) is float:
        return program.run(field, chart, x, y, z)
    return _reduce(field, chart, x, y, z, order)


def _partials(field, chart, x, y, z, order):
    """The field truncated to order and the first partials of the field and
    of the chart at a chart point, on the monomials free of x.

    The seeds carry x to first degree only, all that the x-partials read:
    the monomials of higher x-degree are an ideal, so a coefficient of
    x-degree <= 1 takes the same terms in the same order as with full seeds.
    Once the x-partials are taken every output drops its x-monomials, whose
    coefficients would now be incomplete; the reduction runs on the rest."""
    seeds = [s.restricted(1) for s in jets.seed((x, y, z), order + 1)]
    point = chart.expand(*seeds, field.curve_order)
    xi = field.chart_components(point)
    d_alpha = [_partial_vec(point.alpha, i) for i in range(3)]
    d_xi = [_partial_vec(xi, i) for i in range(3)]
    return [_truncate(cmp, order) for cmp in xi], d_xi, d_alpha


def _reduce(field, chart, x, y, z, order):
    """chart_data through the jet pipeline."""
    # the curve expansion is freed as _partials returns and the partials before
    # the reduction, which bounds a vector pass's peak memory
    xi_t, d_xi, d_alpha = _partials(field, chart, x, y, z, order)
    a, b, c = (jets.dot(xi_t, d) for d in d_alpha)
    L = quadratic_coefficients(d_xi, d_alpha)
    del xi_t, d_xi, d_alpha

    small = abs(value_of(c)) < C_TOL
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


class ChartProgram:
    """The order-0 pipeline of one equation, recorded at its first point as
    straight-line code (jets.Tape) and replayed at later points; a point
    whose replay trips a guard or raises, and every point of a field the
    recording cannot follow, takes the jet pipeline (docs/conventions.md)."""

    code = None  # the compiled recording; False for a field it cannot follow

    def run(self, field, chart, x, y, z):
        if self.code:
            try:
                return ChartData(x, y, z, *self.code(x, y, z))
            except Exception:  # the jet pipeline meets the failure itself
                pass
        elif self.code is None:
            tape = jets.Tape()
            inputs = [tape.new(v) for v in (x, y, z)]
            try:
                d = _reduce(field, chart, *inputs, 0)
                outputs = (d.a, d.b, d.c, d.L, d.e, d.f, d.g, d.A, d.B)
                name = f"<chart program {field.name or type(field).__name__}>"
                self.code = tape.compile(inputs, outputs, name)
            except Exception:
                d = _reduce(field, chart, x, y, z, 0)  # a failure of the point raises here
                self.code = False  # the jet pipeline ran where the recording did not
                return d
            return ChartData(x, y, z, *jets.unwrap(outputs))
        return _reduce(field, chart, x, y, z, 0)


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
    """A callable (x, y, z) -> (e, f, g, A, B) of plain values,
    array-capable; its points of three Python floats run one ChartProgram.

    This is the interface the flow integrator consumes.
    """
    program = ChartProgram()

    def efgab(x, y, z):
        d = chart_data(field, chart, x, y, z, order=0, program=program)
        return d.e, d.f, d.g, d.A, d.B

    return efgab
