"""Constructions of plane fields in tubular-coefficient form.

A field here is determined along a core curve by the frame functions k0, l0
(forced by the requirement that the curve be an asymptotic line) together
with free coefficient functions of x multiplying the chart monomials
y, z, y^2/2, yz, z^2/2 on each frame direction.  The module provides:

  * the forced k0, l0;
  * the k1(H) choice that makes the curve parabolic-free with on-curve
    coefficient f = H (so the field's Gaussian curvature on the curve is
    -H^2);
  * an exact-series realization for polynomial local models (x, a_m x^m + ...,
    b_n x^n + ...), including the exact factoring of x^(m-2) that makes the
    chart reduction regular through x = 0;
  * the closed worked example t1 on (sin x, cos x, sin^3 x), whose monodromy
    is triangular with explicitly integrable diagonal.  One staged affine
    solve builds it in six stages, each a pointwise linear solve at uniform
    nodes: (l1, k1) so that A_z meets its target and f = 1 on the curve,
    then (l2, k2) so that e_z = 0 and e_y + 2f = 0, then four stages of
    quadratic and cubic coefficients that make the flow linear to third
    order.  The node samples of all 18 coefficient slots are interpolated
    trigonometrically as one vector series, and one off-node residual
    check covers all six stages.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import jets, tubular
from .curves import Curve, adapted_frame, finite_type_symbol
from .exprlang import compile_function
from .jets import value_of
from .rational_series import PowerSeriesQ, SeriesError
from .spectral import TrigSeries, refine

COEFFICIENT_NAMES = (
    "k1", "k2", "k3", "l1", "l2", "l3",
    "kt1", "kt2", "kt3", "jt1", "jt2", "jt3", "lt1", "lt2", "lt3",
)
T1_NODES, T1_RESIDUAL_TOL, T1_MAX_NODES = 256, 1e-9, 1024  # build_t1's node grid and residual bound


class ConstructError(Exception):
    pass


class InflectionOfProjection(ConstructError):
    """gamma1' gamma2'' - gamma2' gamma1'' = 0: the k1 formula denominator vanishes."""


def k0_l0(d1, d2):
    """The forced frame coefficients making the curve an asymptotic line,
    from the derivative vectors d1 = gamma', d2 = gamma'' (ring-generic)."""
    k0 = d1[0] * d2[1] - d1[1] * d2[0]
    l0 = (d1[2] * d2[0] - d1[0] * d2[2]) * d1[0] + (d1[2] * d2[1] - d1[1] * d2[2]) * d1[1]
    return k0, l0


def _as_fn(spec):
    """Accept an expression string, a number, a callable, or None (zero)."""
    if spec is None:
        return None
    if callable(spec):
        return spec
    if isinstance(spec, (int, float, Fraction)):
        value = spec
        return lambda t: value
    return compile_function(str(spec), "x")


def k1_function(curve, l1=None, H=1):
    """The coefficient k1(x) that gives e(x,0,0) = 0 and f(x,0,0) = H(x).

    Ring-generic in x.  Raises InflectionOfProjection where the horizontal
    projection of the curve has an inflection (denominator zero); for
    polynomial local models with m > 2 that zero at x = 0 is removable and
    handled exactly by realize_t5 instead.
    """
    l1_fn = _as_fn(l1) or (lambda t: 0)
    H_fn = _as_fn(H)

    def k1(t):
        num, den = _k1_num_den(*curve.jet(t, 3)[1:], l1_fn(t), H_fn(t))
        dv = value_of(den)
        if np.any(np.abs(np.asarray(dv, dtype=float)) < 1e-13):
            raise InflectionOfProjection(f"k1 denominator vanishes at x = {value_of(t)}")
        return num / den

    return k1


def _k1_num_den(d1, d2, d3, l1, H):
    """Numerator and denominator of k1 from the first three derivative
    vectors of the curve and the values of l1 and H (ring-generic)."""
    q = d1[0] * d1[0] + d1[1] * d1[1]
    s = q + d1[2] * d1[2]
    w, _ = k0_l0(d1, d2)
    tor = jets.dot(jets.cross(d2, d3), d1)
    lin = (d1[0] * d2[0] + d1[1] * d2[1]) * d1[2] - q * d2[2]
    num = q * q * tor + lin * l1 + 2 * w * H
    den = s * w
    return num, den


# the chart monomial y^i z^j that each named coefficient multiplies on its row
_NAMED_MONOMIALS = {"k": (1, 0), "l": (0, 1), "kt": (2, 0), "jt": (1, 1), "lt": (0, 2)}
_SLOTS = {f"{prefix}{row}": (row, i, j) for prefix, (i, j) in _NAMED_MONOMIALS.items() for row in (1, 2, 3)}
# the displayed weights w of y^i z^j / w; every other slot has w = 1.  The z^2
# coefficient on the Z row is displayed with weight 1/3 rather than 1/2; it
# is a free higher-order coefficient either way, and the displayed weight is
# kept (see docs).
_WEIGHTS = {(1, 2, 0): 2, (2, 2, 0): 2, (3, 2, 0): 2, (1, 0, 2): 2, (2, 0, 2): 2, (3, 0, 2): 3}


def _is_slot(slot):
    return isinstance(slot, tuple) and len(slot) == 3 and slot[0] in (1, 2, 3) and min(slot[1:]) >= 0 < sum(slot[1:])


class TubularField:
    """A plane field given by coefficient functions in the tubular chart.

    xi = l0 Y + k0 Z + PX X + PY Y + PZ Z in the adapted frame of the curve.
    Each factor P is a sum of coefficient functions of x times chart
    monomials y^i z^j / w.  A coefficient slot (row, i, j) names one such
    term, row 1, 2, 3 for X, Y, Z.  The named coefficients (COEFFICIENT_NAMES) are the
    slots of degree one and two, with w = 2 on y^2 and z^2 (3 on the Z
    row's z^2) and w = 1 otherwise.

    coefficients maps a name to its function of x (an expression string, a
    number or a callable), or a tuple of slots to one callable whose value
    at x is the sequence of their coefficients (the columns of a vector
    TrigSeries, evaluated once per point).  The field is evaluated in the
    chart of its own curve.
    """

    def __init__(self, curve, coefficients=None, name=None):
        self.curve = curve
        self.coefficients = {}
        self._groups = []  # (slots, callable of x returning their coefficients)
        for key, spec in (coefficients or {}).items():
            if key in _SLOTS:
                fn = _as_fn(spec)
                if fn is None:
                    continue
                self._groups.append(((_SLOTS[key],), lambda t, fn=fn: (fn(t),)))
            elif isinstance(key, tuple) and key and all(map(_is_slot, key)) and callable(spec):
                fn = spec
                self._groups.append((key, spec))
            else:
                raise ConstructError(f"unknown coefficient {key!r}")
            self.coefficients[key] = fn
        self.name = name

    def xi_frame_polynomials(self, xj, yj, zj):
        """The three scalar factors multiplying X, Y, Z beyond l0 Y + k0 Z."""
        monomials = {}  # y^i z^j / w of this point, built once each
        terms = ([], [], [])
        for slots, fn in self._groups:
            for slot, c in zip(slots, fn(xj)):
                row, i, j = slot
                w = _WEIGHTS.get(slot, 1)
                m = monomials.get((i, j, w))
                if m is None:
                    m = yj ** i * zj ** j if i and j else yj ** i if i else zj ** j
                    m = monomials[(i, j, w)] = m / w if w != 1 else m
                terms[row - 1].append(m * c)
        return tuple(sum(t[1:], t[0]) if t else 0 for t in terms)

    curve_order = 2  # chart_components reads gamma' and gamma'' (for k0, l0)

    def chart_components(self, point):
        """Components of xi at a tubular.ChartPoint of the field's curve."""
        _, d1, d2 = point.derivs
        X, Y, Z = point.frame
        k0, l0 = k0_l0(d1, d2)
        PX, PY, PZ = self.xi_frame_polynomials(point.x, point.y, point.z)
        cy, cz = l0 + PY, k0 + PZ
        # Y = (gamma2', -gamma1', 0) has no third component
        return (
            PX * X[0] + cy * Y[0] + cz * Z[0],
            PX * X[1] + cy * Y[1] + cz * Z[1],
            PX * X[2] + cz * Z[2],
        )

    def __repr__(self):
        keys = sorted(map(str, self.coefficients))
        return f"TubularField({self.name or 'anonymous'}, coefficients={keys})"


def build_lac(curve, H=1, l1=None):
    """Field with k1 chosen so the curve is parabolic-free and f(x,0,0) = H."""
    coeffs = {} if l1 is None else {"l1": l1}
    coeffs["k1"] = k1_function(curve, l1=l1, H=H)
    return TubularField(curve, coefficients=coeffs)


# -- exact realization for polynomial local models ---------------------------


def realize_t5(curve):
    """Realize a finite-type polynomial local model as a parabolic-free
    asymptotic line; returns (field, certificate).

    The certificate is computed in exact rational arithmetic: the factoring
    of x^(m-2) from the on-curve linear coefficients b and c, the constant
    C(0,0,0) = a_m m (m-1) of the factored c, and the on-curve identities
    e = 0, f = 1 (hence Gaussian curvature -1) as power-series identities.
    """
    symbol = finite_type_symbol(curve, Fraction(0))
    m, n = symbol.m, symbol.n
    order = m + n + 8  # the series order; valid_order is 3 less
    derivs = curve.jet(Fraction(0), order)
    if not all(isinstance(v, (int, Fraction)) for row in derivs for v in row):
        raise ConstructError("exact realization needs rational polynomial components")
    taylor = [[Fraction(v, math.factorial(k)) for v in row] for k, row in enumerate(derivs)]
    g = [PowerSeriesQ([row[i] for row in taylor], order) for i in range(3)]
    if g[0].coeffs[1] == 0:
        raise ConstructError("local model must be regular in x (gamma1' (0) != 0)")
    d1 = [gi.derivative() for gi in g]
    d2 = [di.derivative() for di in d1]
    d3 = [di.derivative() for di in d2]
    a_m = g[1].coeffs[m]

    X, Y, Z = adapted_frame(d1)
    k0, l0 = k0_l0(d1, d2)
    xi0 = [l0 * Y[i] + k0 * Z[i] for i in range(3)]
    a_curve, b_curve, c_curve = (jets.dot(xi0, v) for v in (X, Y, Z))
    try:
        b_factored = b_curve.factor_x(m - 2)
        c_factored = c_curve.factor_x(m - 2)
    except SeriesError as exc:
        raise ConstructError(f"factoring x^{m - 2} from the on-curve coefficients failed: {exc}") from exc
    C000 = c_factored.coeffs[0]
    B000 = b_factored.coeffs[0]
    expected_C = a_m * m * (m - 1)

    # k1 with H = 1, l1 = 0; numerator and denominator share the x^(m-2) factor
    num, den = _k1_num_den(d1, d2, d3, 0, 1)
    try:
        k1_series = num.factor_x(m - 2) / den.factor_x(m - 2)
    except SeriesError as exc:
        raise ConstructError(f"k1 series is not regular at 0: {exc}") from exc

    # on-curve reduced coefficients, exactly: the chart partials are X, Y, Z
    # and the field partials xi0', k1 X and 0 (no l coefficients, so L6 = 0);
    # a vanishes on the curve, so A = -a/c = 0 while B uses the factored b, c
    d_xi = ([v.derivative() for v in xi0], [k1_series * v for v in X], (0, 0, 0))
    L = tubular.quadratic_coefficients(d_xi, (X, Y, Z))
    e_curve, f_curve, g_curve = tubular.reduced_coefficients(0, -(b_factored / c_factored), L)

    margin = 3  # orders consumed by derivatives in the pipeline
    valid = order - margin
    e_ok = all(c == 0 for c in e_curve.coeffs[: valid + 1])
    f_dev = [c for k, c in enumerate(f_curve.coeffs[: valid + 1]) if c != (1 if k == 0 else 0)]
    K_curve = e_curve * g_curve - f_curve * f_curve

    certificate = {
        "m": m,
        "n": n,
        "a_m": a_m,
        "C000": C000,
        "C000_expected": expected_C,
        "C000_exact": C000 == expected_C,
        "B000": B000,
        "a_on_curve_zero": a_curve.is_zero(),
        "b_factored": b_factored,
        "c_factored": c_factored,
        "k1_series": k1_series,
        "e_on_curve_zero": e_ok,
        "f_on_curve_one": not f_dev,
        "K_series": K_curve,
        "valid_order": valid,
    }
    field = TubularField(curve, coefficients={"k1": k1_function(curve, l1=None, H=1)}, name=f"t5:{m},{n}")
    return field, certificate


# -- the closed worked example -----------------------------------------------


_QUADRATIC_MONOMS = ((2, 0), (1, 1), (0, 2))
_CUBIC_MONOMS = ((3, 0), (2, 1), (1, 2), (0, 3))


def _slope_and_vertical_jets(d):
    """Jets of the flow data along the curve, from chart data d at y = z = 0:
    the slope branch p through 0 (division-stable root of g p^2 + 2 f p + e
    = 0), the decoupled vertical part A + (B - B(x,0,0)) p, and the full
    vertical rate A + B p."""
    e, f, g, A, B = d.e, d.f, d.g, d.A, d.B
    p = -e / (f + jets.sqrt(f * f - g * e))
    return p, A + (B - B.value) * p, A + B * p


def t1_curve():
    return Curve.from_expressions(
        ("sin(x)", "cos(x)", "sin(x)^3"), (0.0, 2.0 * math.pi), closed=True, name="t1"
    )


def _t1_az_target(t):
    """The target value of the variational entry A_z(x,0,0) (a trig polynomial)."""
    s = jets.sin(t)
    c = jets.cos(t)
    c2 = c * c
    c4 = c2 * c2
    c6 = c4 * c2
    c8 = c4 * c4
    return (
        9 * s * c8 + 54 * s * c6 - 9 * c6 - 117 * s * c4 + 18 * c4 + 55 * c2 * s - 9 * c2 - 1
    )


def _t1_target_rows(d):
    """A_z(x,0,0) on its target and f(x,0,0) = 1 (affine in l1, k1)."""
    return d.partial("A", "z") - _t1_az_target(d.x), d.value("f") - 1


def _t1_triangular_rows(d):
    """e_z(x,0,0) = 0 and e_y(x,0,0) + 2 f(x,0,0) = 0 (affine in l2, k2)."""
    return d.partial("e", "z"), d.partial("e", "y") + 2 * d.value("f")


def _flow_rows(which, monomials):
    """Rows reading the Taylor coefficients at these (y, z) monomials of the
    slope p or of the decoupled vertical part A + (B - B0) p."""

    def rows(d):
        p, vertical, _ = _slope_and_vertical_jets(d)
        r = p if which == "slope" else vertical
        return [r.coefficient((0, i, j)) for i, j in monomials]

    return rows


# stages of the t1 solve, in order: (jet order, rows of chart data, unknowns);
# an unknown is a coefficient slot (row, i, j) of TubularField
_T1_ON_CURVE_STAGES = (
    (1, _t1_target_rows, (_SLOTS["l1"], _SLOTS["k1"])),
    (1, _t1_triangular_rows, (_SLOTS["l2"], _SLOTS["k2"])),
)
_T1_FLOW_STAGES = (
    (2, _flow_rows("vertical", _QUADRATIC_MONOMS), tuple(_SLOTS[k] for k in ("kt1", "jt1", "lt1"))),
    (2, _flow_rows("slope", _QUADRATIC_MONOMS), tuple(_SLOTS[k] for k in ("kt2", "jt2", "lt2"))),
    (3, _flow_rows("vertical", _CUBIC_MONOMS), tuple((1, i, j) for i, j in _CUBIC_MONOMS)),
    (3, _flow_rows("slope", _CUBIC_MONOMS), tuple((2, i, j) for i, j in _CUBIC_MONOMS)),
)


def _t1_solve(curve, chart):
    """Solve the t1 stages pointwise at uniform nodes; see build_t1."""
    period = curve.period
    stages = _T1_ON_CURVE_STAGES + _T1_FLOW_STAGES
    unknowns = [slot for _, _, slots in stages for slot in slots]

    def assemble(store):
        # every solved slot is a column of one vector series on the node grid
        slots = tuple(slot for slot in unknowns if slot in store)
        if not slots:
            return TubularField(curve)
        series = TrigSeries.from_samples(np.stack([store[slot] for slot in slots], axis=1), period)
        return TubularField(curve, coefficients={slots: series.columns})

    def rows(order, fn, store, pts):
        d = tubular.chart_data(assemble(store), chart, pts, 0.0, 0.0, order=order)
        return np.stack([np.asarray(r, dtype=float) + np.zeros_like(pts) for r in fn(d)])

    def attempt(xs, probe):
        store = {}  # slot -> node samples of its coefficient function
        sens = {}  # stage -> (nodes, conditions, unknowns) sensitivities
        one = np.ones_like(xs)
        initial_scale = 1.0
        # every stage is affine in its unknowns, but the large intermediate
        # cancellations leave roundoff in a single solve; a second sweep with
        # the same sensitivities removes it (classical iterative refinement)
        for sweep in range(2):
            for s, (order, fn, slots) in enumerate(stages):
                F0 = rows(order, fn, store, xs)
                if sweep == 0:
                    if s >= len(_T1_ON_CURVE_STAGES):
                        initial_scale = max(initial_scale, float(np.max(np.abs(F0))))
                    # a unit bump of each unknown on top of the current state
                    bumped = [rows(order, fn, {**store, slot: store.get(slot, 0) + one}, xs) for slot in slots]
                    sens[s] = (np.stack(bumped, axis=1) - F0[:, None]).transpose(2, 0, 1)
                    if not np.all(np.abs(np.linalg.det(sens[s])) >= 1e-10):
                        raise ConstructError(f"t1 stage {s + 1} is degenerate: singular sensitivities at a node")
                sol = np.linalg.solve(sens[s], -F0.T[:, :, None])[:, :, 0]
                for k, slot in enumerate(slots):
                    store[slot] = store.get(slot, 0) + sol[:, k]

        field = assemble(store)
        # one check of every stage at the midpoints of the build grid, so the
        # probe resolution grows with the node count and localized residual
        # peaks cannot hide: the on-curve rows against T1_RESIDUAL_TOL, the full
        # quadratic + cubic expansion of (dy/dx, dz/dx) against T1_RESIDUAL_TOL
        # times the largest first residual of the flow stages
        d = tubular.chart_data(field, chart, probe, 0.0, 0.0, order=3)
        on_curve = max(float(np.max(np.abs(r))) for _, fn, _ in _T1_ON_CURVE_STAGES for r in fn(d))
        p, _, full = _slope_and_vertical_jets(d)
        flow = max(
            float(np.max(np.abs(r.coefficient((0, i, j)))))
            for r in (p, full)
            for i, j in _QUADRATIC_MONOMS + _CUBIC_MONOMS
        )
        # the residual in units of its bound
        return field, max(on_curve / T1_RESIDUAL_TOL, flow / (T1_RESIDUAL_TOL * initial_scale)), 1.0

    return refine(attempt, period, T1_NODES, T1_MAX_NODES)


def build_t1():
    """The worked-example field on (sin x, cos x, sin^3 x).

    Six stages choose its coefficient functions, each affine in its own
    unknowns once the earlier stages are fixed:

      1. (l1, k1): A_z(x,0,0) equals the target trig polynomial and
         f(x,0,0) = 1, so the curve is parabolic-free with K = -1 on it;
      2. (l2, k2): e_z(x,0,0) = 0 and e_y(x,0,0) + 2 f(x,0,0) = 0, which
         makes the variational matrix lower triangular with constant first
         diagonal entry 1;
      3-6. the free quadratic and cubic coefficients, which enter no
         on-curve value and no first partial of the reduced equation: the
         quadratic part of A + (B - B0) p pins (kt1, jt1, lt1), the
         quadratic part of the slope p then pins (kt2, jt2, lt2), and the
         same two steps at cubic order pin the y^i z^j coefficient slots of
         the first and second rows.  This makes the flow linear to third
         order around the curve, so the return map agrees with its
         linearization to fourth order in the start point, which is what
         lets the finite-difference Jacobian cross-check converge at
         practical step sizes.

    Each stage is a pointwise linear solve at uniform nodes, with the
    sensitivities measured by unit bumps and a second sweep of iterative
    refinement; a singular sensitivity matrix (|det| < 1e-10) at any node
    raises ConstructError.  The node samples are interpolated
    trigonometrically as one vector series, and one residual check at the
    midpoints covers all six stages: the on-curve rows of stages 1-2 to
    T1_RESIDUAL_TOL absolute, and the quadratic and cubic Taylor coefficients
    of (dy/dx, dz/dx) relative to the largest first residual of stages 3-6
    (the check runs through the same large cancellations as the solve, so
    its noise floor scales with that magnitude).  The node count doubles
    from T1_NODES until the check passes, and FitError ends it past
    T1_MAX_NODES.
    """
    curve = t1_curve()
    field = _t1_solve(curve, tubular.TubularChart(curve))
    field.name = "t1"
    return field
