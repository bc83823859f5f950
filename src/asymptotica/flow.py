"""Integration of asymptotic lines in chart coordinates.

The line field is implicit: at each point the slope p = dy/dx solves
g p^2 + 2 f p + e = 0, and dz/dx = A + B p.  One tracker follows one root
branch per point by continuity (nearest root to the previously accepted
slope), with rk45, the one adaptive integrator (DOP853, which monodromy uses
too), whose state is a flat list of Python floats.  It tracks n points
(y, z) in lockstep, point by point at every stage: a single chart path is
n = 1 and the finite-difference batch n = 4.  An x-only part of the right-hand side is
read from one evaluation per step attempt at the 11 abscissae of stages 1
to 11: monodromy's M (fitted or direct) or a cached batch's series; a chart
path without a cache replays one recorded tubular.ChartProgram at every
point.  A start point with no real branch
raises EllipticStop or VerticalDirection.  Any other stop ends the path
with its status instead of jumping branches: "parabolic" (roots closer than
COLLISION_TOL * (1 + |p|)), "elliptic" (no real root), "vertical" (only
dx = 0), "tube-exit" or "singular" (a singular reduction, non-finite data,
an expression evaluated outside its domain, step-size underflow or a spent
step budget).
integrate_asymptotic reports the status with the partial path;
integrate_batch raises FlowError with a message that begins with it.
ChartSpectralCache expands the chart data to degree CACHE_DEGREE in (y, z)
and fits them from CACHE_NODES nodes.  An rk45 step attempt is
straight-line code, generated on first use for each state size, and so is
the tracker's point work for each number of points: the stage row unpacked
once, then point by point the data (a cache's polynomial written out, or
one equation call) and branch_slopes' root choice, one body in two
functions: the stages' right-hand side adds the tube and collision tests,
and the choice at the start and each accepted step adds the residual.  An
import compiles none of it, and each generated function compiles under its
own file name.  Since
the generated code grows with the points, integrate_batch takes at most
MAX_BATCH starts and rk45 a state of at most 2 * MAX_BATCH floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import tubular
from .exprlang import DomainError
from .jets import _compiled
from .spectral import TrigSeries

SLOPE_TOL = 1e-12  # branch_slopes: |g| <= SLOPE_TOL * max(|e|, |f|, |g|) is the linear case
COLLISION_TOL = 1e-6  # _track: roots closer than COLLISION_TOL * (1 + |p|) stop the run "parabolic"
CACHE_NODES, CACHE_TOL, CACHE_MAX_NODES = 256, 1e-9, 1024  # ChartSpectralCache's fit
CACHE_DEGREE = 3  # ChartSpectralCache's Taylor degree in (y, z); its monomials are _MONOMIALS
_MONOMIALS = tuple((i, total - i) for total in range(CACHE_DEGREE + 1) for i in range(total + 1))  # y^i z^j
MIN_STEP = 1e-14  # rk45's smallest step
MAX_STEPS = 100_000  # rk45's step attempts per run (Hairer's NMAX)
MAX_BATCH = 16  # integrate_batch's most starts: its generated step and point work grow with them (about 27 ms at 16)


class FlowError(Exception):
    pass


class EllipticStop(FlowError):
    """Negative discriminant: no real asymptotic direction at the point."""


class VerticalDirection(FlowError):
    """Only the dx = 0 direction solves the equation; x cannot be the parameter."""


class ParabolicOnCurve(Exception):
    """f(x,0,0) = 0 somewhere on the curve; the variational matrix is undefined.

    monodromy raises it from M; a ChartSpectralCache from its first pass."""


def _require_f_on_curve(x, f):
    """f(x,0,0) at the points x as a float array; ParabolicOnCurve where any
    |f| < 1e-12, naming the point of least |f|."""
    f = np.asarray(f, dtype=float)
    if np.any(np.abs(f) < 1e-12):
        size, xs = np.broadcast_arrays(np.abs(f), x)
        i = np.nanargmin(size)
        raise ParabolicOnCurve(f"f(x,0,0) vanishes on the curve: |f| = {size.flat[i]} at x = {xs.flat[i]}")
    return f


@dataclass
class Path:
    xs: np.ndarray
    ys: np.ndarray
    zs: np.ndarray
    ps: np.ndarray
    status: str  # "reached" | "elliptic" | "parabolic" | "vertical" | "tube-exit" | "singular"
    reason: str = ""
    stats: dict = dataclass_field(default_factory=dict)

    @property
    def reached(self):
        return self.status == "reached"

    def endpoint(self):
        return float(self.xs[-1]), float(self.ys[-1]), float(self.zs[-1])


def branch_slopes(e, f, g, prev_p=None):
    """Real slope roots of g p^2 + 2 f p + e = 0 at one point and the branch selection.

    Returns (slopes, selected): the real roots, one in the linear case
    |g| <= SLOPE_TOL * max(|e|, |f|, |g|), and the root nearest prev_p (without
    prev_p, the root of least modulus).
    """
    if not (math.isfinite(e) and math.isfinite(f) and math.isfinite(g)):
        raise FlowError(f"non-finite chart data e, f, g = {e}, {f}, {g}")
    scale = max(abs(e), abs(f), abs(g))
    if scale == 0:
        raise FlowError("e = f = g = 0: every direction is asymptotic")
    if abs(g) <= SLOPE_TOL * scale:
        if abs(f) <= SLOPE_TOL * scale:
            raise VerticalDirection("f = g = 0: only dx = 0 solves the equation")
        slopes = (-e / (2 * f),)
        return slopes, slopes[0]
    disc = f * f - g * e
    if disc < 0:
        raise EllipticStop(f"discriminant {disc} < 0")
    r = math.sqrt(disc)
    q = -(f + r) if f >= 0 else -(f - r)
    p1 = q / g
    p2 = e / q if q != 0 else -2 * f / g
    near = 0.0 if prev_p is None else prev_p
    return (p1, p2), p2 if abs(p2 - near) < abs(p1 - near) else p1  # a tie keeps p1


def _polynomial(monomials, count, y, z):
    """The count sums, term by term in the order of monomials, of r(k + m)
    times the m-th monomial y^i z^j at the point named y, z (k = 0,
    len(monomials), ...), as straight-line code: (lines, sums), the lines
    forming each monomial of degree above 1 once, as m(i - 1, j) * y when
    i > j, else m(i, j - 1) * z, and the text of each sum."""
    name = lambda i, j: y if (i, j) == (1, 0) else z if (i, j) == (0, 1) else "y" * i + "z" * j
    n = len(monomials)
    lines = [f"{name(i, j)} = " + (f"{name(i - 1, j)} * {y}" if i > j else f"{name(i, j - 1)} * {z}")
             for i, j in monomials if i + j > 1]
    factors = [f" * {name(i, j)}" if i + j else "" for i, j in monomials]
    return lines, [" + ".join(f"r{k + m}{t}" for m, t in enumerate(factors)) for k in range(0, count * n, n)]


class ChartSpectralCache:
    """Fast surrogate for the reduced data (e, f, g, A, B) around a closed curve.

    Each quantity is expanded in (y, z) about the core curve to degree
    CACHE_DEGREE, and every Taylor coefficient function of x is stored as a
    trigonometric interpolant (the chart data are periodic in x).  A point
    then costs a float polynomial in (y, z), its coefficients shared by the
    points of an rk45 stage, instead of a jet pipeline pass; that makes the
    finite-difference return-map derivative affordable.  The
    x-interpolation is validated off-node against the direct pipeline at
    matching truncation; the (y, z) truncation error scales like
    (excursion)^(degree+1), far below the integrator tolerances for the
    small excursions the finite-difference probes make.  Where f(x,0,0)
    vanishes at a point of the first pass (nodes and midpoints), the fit
    stops there with ParabolicOnCurve, as the variational fit's first pass,
    made at the same points (monodromy.FIT_NODES is CACHE_NODES), would.
    """

    _QUANTITIES = ("e", "f", "g", "A", "B")
    monomials = _MONOMIALS

    def __init__(self, field, chart, period):
        self.period = float(period)
        self.passes = []  # (points, Taylor table) of each chart pass of the fit, for sampled
        self.series = TrigSeries.fit(
            lambda xs: self._taylor_table(field, chart, xs), self.period, CACHE_NODES, CACHE_TOL, CACHE_MAX_NODES
        )
        self.nodes = self.series.nodes

    def _taylor_table(self, field, chart, xs):
        """Taylor coefficients at (x, 0, 0), shape (len(xs), nquant * nmono)."""
        d = tubular.chart_data(field, chart, xs, 0.0, 0.0, order=CACHE_DEGREE)
        table = np.stack(
            [
                np.broadcast_to(np.asarray(getattr(d, name).coefficient((0, i, j)), dtype=float), xs.shape)
                for name in self._QUANTITIES
                for i, j in self.monomials
            ],
            axis=1,
        )
        self.passes.append((xs, table))
        if len(self.passes) == 1:  # the variational fit's first pass too: f = 0 there ends both fits
            _require_f_on_curve(xs, *self.sampled(xs, ("f", 0, 0)))
        return table

    def sampled(self, xs, *columns):
        """The columns (name, i, j), the coefficient of y^i z^j in quantity name
        at (x, 0, 0), of the fit's chart pass at exactly the points xs; None
        when the fit made no pass there.  A VariationalCache reads M from them."""
        for points, table in self.passes:
            if np.array_equal(points, xs):
                n = len(self.monomials)
                return [table[:, self._QUANTITIES.index(name) * n + self.monomials.index((i, j))] for name, i, j in columns]
        return None


# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.10); rows of _ERR: 5th- and 3rd-order error weights
_C = (
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0,
)
_STAGES = np.array(_C[1:])  # the abscissae of the stages that read a row; stage 0 is the last step's slope
_A = tuple(map(np.array, (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1),
)))
_B = np.array((
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
))
_ERR = np.array((
    (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
     -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
     0.3341791187130174790297318841, 0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1),
    _B - np.array((0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                   0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1)),
))


@functools.cache
def _step_function(n, with_rows):
    """One DOP853 step attempt on n floats as straight-line code:
    step(rhs, x, dh, y, f0, rows, atol, rtol) -> (y1, err5, err3), the update
    and the sums over the components of the squared fifth- and third-order
    error estimates, each divided by atol + rtol * max(|y1_j|, |y_j|) (times
    inf where that is 0, as numpy divides).  Every sum is written term by
    term over the tableau's nonzero weights, as round-trip literals in tableau
    order, so each value keeps the bits of the stage loop over lists that
    tests/test_flow.py keeps as its reference.  Stage i passes rhs the
    (i-1)-th entry of rows when with_rows.  The file name "<rk45 step n>" (or
    "<rk45 step n with rows>") keeps each size apart in a profile."""

    def weighted(row, j):
        return "(" + " + ".join(f"{float(w)!r} * k{i}_{j}" for i, w in enumerate(row) if w) + ")"

    def unpack(names, source):  # [] = y unpacks an empty state, where ", = y" would not parse
        return f"[{', '.join(names)}] = {source}"

    slopes = lambda i: [f"k{i}_{j}" for j in range(n)]
    lines = [unpack([f"a{j}" for j in range(n)], "y"), unpack(slopes(0), "f0")]
    if with_rows:
        lines.append(unpack([f"r{i}" for i in range(1, 12)], "rows"))
    for i in range(1, 12):
        state = ", ".join(f"a{j} + dh * {weighted(_A[i], j)}" for j in range(n))
        lines.append(unpack(slopes(i), f"rhs(x + dh * {_C[i]!r}, [{state}]{f', r{i}' if with_rows else ''})"))
    lines += [f"b{j} = a{j} + dh * {weighted(_B, j)}" for j in range(n)]
    lines.append("err5 = err3 = 0.0")
    for j in range(n):
        lines += [
            f"u, w = {weighted(_ERR[0], j)}, {weighted(_ERR[1], j)}",
            # NaN whenever y1 is (a NaN y makes a NaN y1)
            f"s = atol + rtol * max(abs(b{j}), abs(a{j}))",
            "u, w = (u / s, w / s) if s else (u * inf, w * inf)",
            "err5, err3 = err5 + u * u, err3 + w * w",
        ]
    lines.append(f"return [{', '.join(f'b{j}' for j in range(n))}], err5, err3")
    name = f"<rk45 step {n}{' with rows' if with_rows else ''}>"
    source = "def step(rhs, x, dh, y, f0, rows, atol, rtol):\n    " + "\n    ".join(lines)
    return _compiled(source, name, {"inf": math.inf}, "step")


_STATUS = {EllipticStop: "elliptic", VerticalDirection: "vertical"}  # any other failure is "singular"
_POINT_ERRORS = (FlowError, tubular.ReductionSingular, DomainError)  # what an equation's point may raise


class _Stop(Exception):
    """Ends an rk45 run early with a status; rk45 catches it, so it never leaves this module."""

    def __init__(self, status, reason):
        self.status = status
        self.reason = reason


def _stopped(exc, x):
    """The _Stop of an equation's error at a stage point of abscissa x."""
    # a ReductionSingular names its point; an elliptic or vertical stop keeps its bare message
    at = f" at x = {x}" if type(exc) in (FlowError, DomainError) else ""
    return _Stop(_STATUS.get(type(exc), "singular"), f"{exc}{at}")


# One point's root choice after its data e, f, g, A, B, in both rhs and accept of
# _rhs_function: branch_slopes' choice of p@ nearest the tracked slope q@ (@ is the
# point's index).  Its last line is in the two-root branch, where rhs appends the
# collision test.  Its abs, max and isfinite calls are comparisons, with the same
# outcomes: each |.| and max only enters comparisons, where a sign of zero does not
# count, and a float v is finite when |v| < inf.  The linear-case test
# |g| <= SLOPE_TOL * max(|e|, |f|, |g|) reads max(|e|, |f|) as m, since |g| <= SLOPE_TOL * |g|
# holds only at g = 0; then e = f = g = 0 is m == 0.
_ROOT_CHOICE = f"""\
ae = e if e > 0 else -e
af = f if f > 0 else -f
ag = g if g > 0 else -g
if not (ae < inf and af < inf and ag < inf):
    raise _Stop("singular", f"non-finite chart data e, f, g = {{e}}, {{f}}, {{g}} at x = {{x}}")
m = ae if ae > af else af
if ag <= {SLOPE_TOL!r} * m:
    if m == 0:
        raise _Stop("singular", f"e = f = g = 0: every direction is asymptotic at x = {{x}}")
    if af <= {SLOPE_TOL!r} * m:
        raise _Stop("vertical", "f = g = 0: only dx = 0 solves the equation")
    p@ = -e / (2 * f)
else:
    disc = f * f - g * e
    if disc < 0:
        raise _Stop("elliptic", f"discriminant {{disc}} < 0")
    r = sqrt(disc)
    s = -(f + r) if f >= 0 else -(f - r)
    t1 = s / g
    t2 = e / s if s != 0 else -2 * f / g
    d1, d2 = t1 - q@, t2 - q@
    p@ = t2 if (d2 if d2 > 0 else -d2) < (d1 if d1 > 0 else -d1) else t1"""


@functools.cache
def _rhs_function(n, monomials):
    """_track's point work on n points as straight-line code:
    bind(equation, radius, prev) -> (rhs, accept), two functions of (x,
    state[, row]) on the points (y, z) of state = [y0, z0, y1, z1, ...].
    Point after point both write the data (e, f, g, A, B) and branch_slopes'
    root choice of p nearest prev[i] from one body.  rhs adds the tube test
    |y|, |z| <= radius before them and the collision test after, and returns
    the slopes [p0, A0 + B0 p0, p1, ...] of dy/dx = p and dz/dx = A + B p.
    accept adds the residual |g p^2 + 2 f p + e|, stores the slopes in prev
    and returns the residuals.  A stop raises _Stop with the status and
    reason of the exception that branch_slopes or equation raises there.
    With monomials (a ChartSpectralCache's), the data are the cache's
    polynomial written out on the stage row unpacked once; without, one call
    of equation(x, y, z) per point.  The float operations and their order are
    those of equation (or the polynomial) and branch_slopes, so each slope
    keeps its bits: tests/test_flow.py keeps a loop over those calls as the
    reference.  The file name "<_track rhs n>" (or "<_track rhs n on m
    monomials>") keeps each kind apart in a profile."""
    points, quantities = [str(i) for i in range(n)], ChartSpectralCache._QUANTITIES  # e, f, g, A, B name the data
    head = [f"[{', '.join(f'y{i}, z{i}' for i in points)}] = state", f"[{', '.join('q' + i for i in points)}] = prev"]
    if monomials is not None:
        head.insert(0, f"[{', '.join(f'r{k}' for k in range(len(quantities) * len(monomials)))}] = row")
    rhs, accept = list(head), list(head)
    for i in points:
        if monomials is None:
            shared = ["try:", f"    e, f, g, A, B = equation(x, y{i}, z{i})",
                      "except _POINT_ERRORS as exc:", "    raise _stopped(exc, x)"]
        else:
            powers, sums = _polynomial(monomials, len(quantities), f"y{i}", f"z{i}")
            shared = powers + [f"{q} = {total}" for q, total in zip(quantities, sums)]
        shared += _ROOT_CHOICE.replace("@", i).splitlines()
        rhs += [f"if y{i} > radius or y{i} < low or z{i} > radius or z{i} < low:",
                '    raise _Stop("tube-exit", f"|y| or |z| exceeded radius {radius} at x = {x}")', *shared,
                "    d = t1 - t2",
                f"    if (d if d > 0 else -d) < {COLLISION_TOL!r} * (1 + (p{i} if p{i} > 0 else -p{i})):",
                '        raise _Stop("parabolic", "root branches collided")',
                f"v{i} = A + B * p{i}"]
        accept += [*shared, f"res{i} = abs(g * p{i} * p{i} + 2 * f * p{i} + e)"]
    rhs.append(f"return [{', '.join(f'p{i}, v{i}' for i in points)}]")
    accept += [f"prev[:] = [{', '.join('p' + i for i in points)}]", f"return [{', '.join('res' + i for i in points)}]"]
    signature, name = ("x, state", f"<_track rhs {n}>") if monomials is None else (
        "x, state, row", f"<_track rhs {n} on {len(monomials)} monomials>")
    source = "\n".join([
        "def bind(equation, radius, prev):",
        "    low = -radius",
        f"    def rhs({signature}):",
        *("        " + line for line in rhs),
        f"    def accept({signature}):",
        *("        " + line for line in accept),
        "    return rhs, accept",
    ])
    scope = {"inf": math.inf, "sqrt": math.sqrt, "_Stop": _Stop, "_stopped": _stopped, "_POINT_ERRORS": _POINT_ERRORS}
    return _compiled(source, name, scope, "bind")


def rk45(rhs, x0, x1, y0, rtol=1e-10, atol=1e-12, on_accept=None, coefficients=None):
    """Adaptive Runge-Kutta of order 8 (DOP853) on a flat list of floats.
    Dormand-Prince 8(5,3): 12 stages plus first-same-as-last, Hairer's
    combined 5th- and 3rd-order error estimate, step exponent -1/8.  The name
    stays because bench/tracer.py patches flow.rk45; a rename waits on a
    benchmark change.  The last step lands exactly on the end point x1.
    The state y is y0's entries in C order as a list of Python floats (numpy's
    per-call cost exceeds the arithmetic on a few entries); rhs(x, y) -> dy/dx
    returns a flat sequence and may raise _Stop.  coefficients, when given, is a
    vectorised function of x alone (a fitted series or monodromy's M), evaluated
    once per step attempt at the 11 abscissae of stages 1 to 11 (stage 0 is
    the last step's final slope), one row each: stage i calls
    rhs(x_i, y_i, row_(i-1)), the first-same-as-last stage reuses the last
    row, and so does on_accept unless the landing on x1 rounds x away from
    x + h; the start takes one row at x0.
    A stop inside a step halves the step, since overshooting may cause it,
    and ends the run once the step is down to 4 MIN_STEP.  A NaN error
    estimate rejects and shrinks the step, so such a run ends in a
    "singular" step-size underflow, as does a run that has made MAX_STEPS
    step attempts; the error norm never raises (x / 0 is inf or NaN, as in
    numpy).  on_accept(x, y[, last row]) is called at every accepted
    step.  A step is at most 1/8 of the run, the first 1/16.  Each step
    attempt runs the straight-line code of _step_function for the state's
    size, compiled at the first run of that size in the process (about 1 ms
    for 2 floats, 2 ms for 4 and 4 ms for 8 on 2 vCPUs, linear in the size).
    A state of more than 2 * MAX_BATCH floats, the most the library makes
    (a full batch's (y, z) pairs), raises ValueError before anything runs.
    Returns (x, y, stats) at x1, or at the last accepted point
    after a stop, y an array of y0's shape; stats holds "steps", "rejected",
    "min_step", "status" ("reached" or the stop's) and "reason".
    """
    y = np.asarray(y0, dtype=float).ravel().tolist()
    if len(y) > 2 * MAX_BATCH:
        raise ValueError(f"rk45 takes a state of at most 2 * MAX_BATCH = {2 * MAX_BATCH} floats, not {len(y)}")
    x = float(x0)
    x1 = float(x1)
    direction = 1.0 if x1 >= x else -1.0
    span = abs(x1 - x)
    max_step = span / 8 if span > 0 else 1.0
    h = span / 16 if span > 0 else max_step
    stats = {"steps": 0, "rejected": 0, "min_step": math.inf, "status": "reached", "reason": ""}
    try:
        f0 = rhs(x, y) if coefficients is None else rhs(x, y, coefficients(x))
        attempt = _step_function(len(y), coefficients is not None)
        rows, last = None, ()  # the stage table of the attempt and the extra rhs argument at its end
        tiny = 1e-15 * max(1.0, abs(x1))
        while (remaining := direction * (x1 - x)) > tiny:
            step = remaining if h >= remaining - tiny else h
            if step < MIN_STEP:
                raise _Stop("singular", f"step size underflow at x = {x}")
            if stats["steps"] + stats["rejected"] >= MAX_STEPS:
                raise _Stop("singular", f"step budget of {MAX_STEPS} attempts spent at x = {x}")
            dh = direction * step
            try:
                if coefficients is not None:
                    rows = coefficients(x + dh * _STAGES)
                    last = (rows[-1],)
                y1, err5, err3 = attempt(rhs, x, dh, y, f0, rows, atol, rtol)
                # Hairer's norm: the fifth-order estimate, damped where the third-order one is larger
                err = step * err5 / math.sqrt((err5 + 0.01 * err3) * len(y)) if err5 or err3 else 0.0
                if err <= 1.0:
                    f0 = rhs(x + dh, y1, *last)  # first same as last; _C[11] == 1
            except _Stop:
                if step <= 4 * MIN_STEP:
                    raise
                h = step / 2
                stats["rejected"] += 1
                continue
            if err <= 1.0:
                end = x + dh
                x = x1 if step == remaining else end
                y = y1
                stats["steps"] += 1
                stats["min_step"] = min(stats["min_step"], step)
                if on_accept is not None:
                    # the last row is at x + dh, which may miss x1 by a rounding
                    on_accept(x, y, *(last if x == end else ()))
            else:
                stats["rejected"] += 1
            # a NaN estimate (no comparison holds) shrinks the step
            factor = 0.9 * err ** -0.125 if err > 0 else (5.0 if err == 0 else 0.2)
            h = min(max_step, step * min(5.0, max(0.2, factor)))
    except _Stop as stop:
        stats["status"], stats["reason"] = stop.status, stop.reason
    return x, np.reshape(y, np.shape(y0)), stats


def require_reached(stats):
    """Raise FlowError, its message beginning with the status, if an rk45 run stopped early."""
    if stats["status"] != "reached":
        raise FlowError(f"{stats['status']}: {stats['reason']}")


def _track(equation, x0, x1, state0, radius, rtol, atol, cache=None):
    """Follow one root branch of g p^2 + 2 f p + e = 0 per point from x0 toward x1.

    state0 has shape (n, 2), n points (y, z) in lockstep (a single path is
    n = 1): dy/dx = p and dz/dx = A + B p.  equation(x, y, z) -> (e, f, g,
    A, B) gives the data at a point; with a cache (a ChartSpectralCache),
    equation is None and the data are the cache's polynomial on the stage
    rows of its series, which go to rk45 as coefficients.  The point work is
    _rhs_function's straight-line code for n points (and the cache's
    monomials), generated once per kind in a process: rk45's stages call its
    rhs, and the start and each accepted step its accept, which selects
    without the tube and collision tests.  The start takes the root of least
    modulus, each accepted step the root nearest the last one.  A start with
    no real root raises EllipticStop or VerticalDirection; any other stop of
    any point ends the run (a "tube-exit" outside |y|, |z| <= radius,
    "parabolic" for roots closer than COLLISION_TOL * (1 + |p|), "singular"
    for an expression evaluated outside its domain).  Returns (xs, states,
    ps, stats) at the start and every accepted step, states of shape
    (samples, n, 2), ps (samples, n); stats are rk45's plus the slope
    equation's "max_residual".
    """
    n, start = len(state0), np.asarray(state0, dtype=float).ravel().tolist()
    prev = [0.0] * n  # the tracked slope of each point; 0.0 selects as no slope does: the root of least modulus
    samples = []  # (x, state, ps, residuals) at the start and every accepted step, one p and residual per point
    if cache is None:
        coefficients, monomials = None, None
    else:
        coefficients, monomials = (lambda xs: cache.series(xs).tolist()), tuple(map(tuple, cache.monomials))
    rhs, accept = _rhs_function(n, monomials)(equation, radius, prev)

    def on_accept(x, state, *row):
        if coefficients is not None and not row:  # the start, or a landing that rounded x away from the last row
            row = (coefficients(x),)
        residuals = accept(x, state, *row)
        samples.append((x, state, list(prev), residuals))

    try:
        on_accept(x0, start)
    except _Stop as stop:
        for error, status in _STATUS.items():
            if stop.status == status:  # no real branch at the start
                raise error(stop.reason) from None
        nan = [math.nan] * n
        samples.append((x0, start, nan, nan))  # rk45's first stage stops the run "singular"
    _, _, stats = rk45(rhs, x0, x1, start, rtol=rtol, atol=atol, on_accept=on_accept, coefficients=coefficients)
    xs, states, ps, residuals = (np.array(column) for column in zip(*samples))
    stats["max_residual"] = float(np.max(residuals))
    return xs, states.reshape(len(xs), n, 2), ps, stats


def integrate_asymptotic(field, chart, start, x1, rtol=1e-10, atol=1e-12):
    """Follow one asymptotic branch from start=(x0, y0, z0) until x = x1.

    The path starts on the root of least modulus and follows it by root
    continuity inside the chart's tube.  Raises EllipticStop or
    VerticalDirection if no branch exists at the start point; a later stop
    is reported in Path.status with the partial path, and Path.stats keeps
    the integrator statistics up to the stop.
    """
    x0, y0, z0 = (float(v) for v in start)
    xs, states, ps, stats = _track(
        tubular.binary_equation_data(field, chart), x0, x1, [[y0, z0]], chart.radius, rtol, atol
    )
    status, reason = stats.pop("status"), stats.pop("reason")
    return Path(xs=xs, ys=states[:, 0, 0], zs=states[:, 0, 1], ps=ps[:, 0], status=status, reason=reason, stats=stats)


def integrate_batch(field, chart, starts, x0, x1, rtol=1e-10, atol=1e-13, cache=None):
    """Integrate many trajectories in lockstep (shared steps, each point in plain floats).

    starts is an array of shape (n, 2) holding (y, z) initial values at x0.
    Returns the (n, 2) endpoint array.  Used by the finite-difference
    return-map derivative, where the trajectories stay close together.
    Without a cache each point is a direct pipeline pass, so one start ends
    where integrate_asymptotic does; cache may be a ChartSpectralCache built
    for the same field and chart, whose validated interpolants replace that
    pass.  A start with no real branch raises EllipticStop or
    VerticalDirection; a stop of any trajectory (leaving the tube radius is a
    "tube-exit") stops the batch and raises FlowError, its message beginning
    with the status.  starts of any other shape, or more than MAX_BATCH of
    them, raise ValueError before any code is generated: the rk45 step and
    the point work that a batch compiles grow with its starts, to about
    27 ms at 16 starts (2 vCPUs) and over half a second at 512.
    """
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != 2 or not len(starts):
        raise ValueError(f"starts must have shape (n, 2) with n >= 1, not {starts.shape}")
    if len(starts) > MAX_BATCH:
        raise ValueError(f"a batch takes at most MAX_BATCH = {MAX_BATCH} starts, not {len(starts)}")
    equation = tubular.binary_equation_data(field, chart) if cache is None else None
    _, states, _, stats = _track(equation, x0, x1, starts, chart.radius, rtol, atol, cache)
    require_reached(stats)
    return states[-1]
