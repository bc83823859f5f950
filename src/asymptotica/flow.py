"""Integration of asymptotic lines in chart coordinates.

The line field is implicit: at each point the slope p = dy/dx solves
g p^2 + 2 f p + e = 0, and dz/dx = A + B p.  One tracker follows one root
branch by continuity (nearest root to the previously accepted slope), with
rk45, the one adaptive integrator (DOP853, which monodromy uses too), for a
single chart path, a lockstep batch of chart paths and a path on a
parametrized surface.  An x-only part of the right-hand side is read from
one evaluation per step attempt at the 11 abscissae of stages 1 to 11:
monodromy's M (fitted or direct), a cached batch's series, or on a single
chart path the curve expansion and frame of the direct pipeline.  A start
point with no real branch raises EllipticStop or VerticalDirection.  Any
other stop ends the path with its status instead of jumping branches: "parabolic"
(root collision), "elliptic" (no real root), "vertical" (only dx = 0),
"tube-exit" or "singular" (a singular reduction, non-finite data, an
expression evaluated outside its domain or step-size underflow).
integrate_asymptotic reports the status with the partial path;
integrate_batch and surfaces.integrate_surface_asymptotic raise FlowError
with a message that begins with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import tubular
from .exprlang import DomainError
from .spectral import TrigSeries

SLOPE_TOL = 1e-12  # branch_slopes: |g| <= SLOPE_TOL * max(|e|, |f|, |g|) is the linear case
CACHE_NODES, CACHE_TOL, CACHE_MAX_NODES = 256, 1e-9, 1024  # ChartSpectralCache's fit
MIN_STEP = 1e-14  # rk45's smallest step


class FlowError(Exception):
    pass


class EllipticStop(FlowError):
    """Negative discriminant: no real asymptotic direction at the point."""


class VerticalDirection(FlowError):
    """Only the dx = 0 direction solves the equation; x cannot be the parameter."""


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

    def ambient(self, chart):
        return np.array([chart.point(x, y, z) for x, y, z in zip(self.xs, self.ys, self.zs)])


def branch_slopes(e, f, g, prev_p=None):
    """Real slope roots of g p^2 + 2 f p + e = 0 and the branch selection.

    Returns (slopes, selected): the real roots, one in the linear case
    |g| <= SLOPE_TOL * max(|e|, |f|, |g|), and the root nearest prev_p (without
    prev_p, the root of least modulus).  e, f, g (and prev_p) may be 1-D
    arrays, a lockstep batch solved point by point; slopes then holds two
    arrays, the first inf where the equation is linear.
    """
    if not np.ndim(e):
        return _branch_slope(e, f, g, prev_p)
    columns = [np.asarray(c, dtype=float).tolist() for c in (e, f, g)]
    columns.append([None] * len(e) if prev_p is None else np.asarray(prev_p, dtype=float).tolist())
    points = [_branch_slope(*point) for point in zip(*columns)]
    roots = [(s[0] if len(s) == 2 else math.inf, s[-1]) for s, _ in points]
    return tuple(np.array(c) for c in zip(*roots)), np.array([p for _, p in points])


def _branch_slope(e, f, g, prev_p):
    """branch_slopes at one point."""
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
    if f >= 0:
        q = -(f + r)
    else:
        q = -(f - r)
    p1 = q / g
    p2 = e / q if q != 0 else -2 * f / g
    slopes = (p1, p2)
    if prev_p is None:
        selected = min(slopes, key=abs)
    else:
        selected = min(slopes, key=lambda s: abs(s - prev_p))
    return slopes, selected


class ChartSpectralCache:
    """Fast surrogate for the reduced data (e, f, g, A, B) around a closed curve.

    Each quantity is expanded in (y, z) about the core curve to a fixed
    degree, and every Taylor coefficient function of x is stored as a
    trigonometric interpolant (the chart data are periodic in x).  One
    evaluation then costs a small matrix product instead of a full jet
    pipeline pass, which is what makes the finite-difference return-map
    derivative affordable.  The x-interpolation is validated off-node
    against the direct pipeline at matching truncation; the (y, z)
    truncation error scales like (excursion)^(degree+1), far below the
    integrator tolerances for the small excursions the finite-difference
    probes make.
    """

    _QUANTITIES = ("e", "f", "g", "A", "B")

    def __init__(self, field, chart, period, degree=3):
        self.period = float(period)
        self.degree = int(degree)
        self.monomials = [
            (i, j) for total in range(degree + 1) for i in range(total + 1) for j in (total - i,)
        ]
        self._exponents = np.array(self.monomials).T  # exponents of y and of z
        self.series = TrigSeries.fit(
            lambda xs: self._taylor_table(field, chart, xs), self.period, CACHE_NODES, CACHE_TOL, CACHE_MAX_NODES
        )
        self.nodes = self.series.nodes

    def _taylor_table(self, field, chart, xs):
        """Taylor coefficients at (x, 0, 0), shape (len(xs), nquant * nmono)."""
        d = tubular.chart_data(field, chart, xs, 0.0, 0.0, order=self.degree)
        return np.stack(
            [
                np.broadcast_to(np.asarray(getattr(d, name).coefficient((0, i, j)), dtype=float), xs.shape)
                for name in self._QUANTITIES
                for i, j in self.monomials
            ],
            axis=1,
        )

    def efgab(self, x, y, z, coeffs=None):
        """Values of (e, f, g, A, B) at n points; y, z arrays of length n and
        x either such an array or one float shared by every point (a lockstep
        batch), which evaluates the x-interpolants once.  coeffs, when given,
        is self.series(x) already evaluated (a row of rk45's stage table)."""
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        coeffs = self.series(x) if coeffs is None else coeffs  # (nquant * nmono,) or (n, nquant * nmono)
        coeffs = coeffs.reshape(coeffs.shape[:-1] + (len(self._QUANTITIES), len(self.monomials)))
        i, j = self._exponents
        mono = y[:, None] ** i * z[:, None] ** j  # (n, nmono)
        values = np.matmul(coeffs, mono[:, :, None])[:, :, 0]  # (n, nquant)
        return tuple(values.T)


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


_STATUS = {EllipticStop: "elliptic", VerticalDirection: "vertical"}  # any other failure is "singular"


class _Stop(Exception):
    """Ends an rk45 run early with a status; rk45 catches it, so it never leaves this module."""

    def __init__(self, status, reason):
        self.status = status
        self.reason = reason


def rk45(rhs, x0, x1, y0, rtol=1e-10, atol=1e-12, max_step=None, on_accept=None, coefficients=None):
    """Adaptive Runge-Kutta of order 8 (DOP853); y may be any numpy array shape.
    Dormand-Prince 8(5,3): 12 stages plus first-same-as-last, Hairer's
    combined 5th- and 3rd-order error estimate, step exponent -1/8.  The name
    stays because bench/tracer.py patches flow.rk45; a rename waits on a
    benchmark change.  x1 is the end point or a sequence of stations ending
    there; a step lands exactly on each, keeping step size and first stage.
    rhs(x, y) -> dy/dx; it may raise _Stop.  coefficients, when given, is a
    vectorised function of x alone (a fitted series, or the curve rows of a
    tubular chart), evaluated once per step attempt at the 11 abscissae of
    stages 1 to 11 (stage 0 is the last step's final slope): stage i calls
    rhs(x_i, y_i, row_(i-1)), the first-same-as-last stage reuses the last
    row, and so does on_accept unless a landing on a station rounds x away
    from x + h; the start takes one row at x0.
    A stop inside a step halves the step, since overshooting may cause it,
    and ends the run once the step is down to 4 MIN_STEP.  A NaN error
    estimate rejects and shrinks the step, so such a run ends in a
    "singular" step-size underflow.  on_accept(x, y[, last row]) is called at
    every accepted step.  max_step defaults to 1/8 of the run.
    Returns (x, y, stats) at the last station, or at the last accepted point
    after a stop; stats holds "steps", "rejected", "min_step", "status"
    ("reached" or the stop's) and "reason".
    """
    y = np.array(y0, dtype=float)
    x = float(x0)
    stations = np.atleast_1d(np.asarray(x1, dtype=float)).tolist()
    direction = 1.0 if stations[-1] >= x else -1.0
    span = abs(stations[-1] - x)
    if max_step is None:
        max_step = span / 8 if span > 0 else 1.0
    h = min(max_step, span / 16) if span > 0 else max_step
    stats = {"steps": 0, "rejected": 0, "min_step": math.inf, "status": "reached", "reason": ""}
    try:
        f0 = rhs(x, y) if coefficients is None else rhs(x, y, coefficients(x))
        # the stage slopes of one step, one flattened row per stage
        ks = np.empty((12, y.size))
        rows = [()] * 11  # the extra rhs argument of stages 1 to 11
        for station in stations:
            tiny = 1e-15 * max(1.0, abs(station))
            while (remaining := direction * (station - x)) > tiny:
                step = remaining if h >= remaining - tiny else h
                if step < MIN_STEP:
                    raise _Stop("singular", f"step size underflow at x = {x}")
                dh = direction * step
                try:
                    if coefficients is not None:
                        rows = [(row,) for row in coefficients(x + dh * _STAGES)]
                    ks[0] = f0.reshape(-1)
                    for i in range(1, 12):
                        yi = y + dh * (_A[i] @ ks[:i]).reshape(y.shape)
                        ks[i] = rhs(x + dh * _C[i], yi, *rows[i - 1]).reshape(-1)
                    y1 = y + dh * (_B @ ks).reshape(y.shape)
                    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y1)).reshape(-1)
                    err5, err3 = np.sum((_ERR @ ks / scale) ** 2, axis=1)
                    # Hairer's norm: the fifth-order estimate, damped where the third-order one is larger
                    err = float(step * err5 / math.sqrt((err5 + 0.01 * err3) * y.size)) if err5 or err3 else 0.0
                    if err <= 1.0:
                        f0 = rhs(x + dh, y1, *rows[-1])  # first same as last; _C[11] == 1
                except _Stop:
                    if step <= 4 * MIN_STEP:
                        raise
                    h = step / 2
                    stats["rejected"] += 1
                    continue
                if err <= 1.0:
                    end = x + dh
                    x = station if step == remaining else end
                    y = y1
                    stats["steps"] += 1
                    stats["min_step"] = min(stats["min_step"], step)
                    if on_accept is not None:
                        # the last row is at x + dh, which may miss the station by a rounding
                        on_accept(x, y, *(rows[-1] if x == end else ()))
                else:
                    stats["rejected"] += 1
                # a NaN estimate (no comparison holds) shrinks the step
                factor = 0.9 * err ** -0.125 if err > 0 else (5.0 if err == 0 else 0.2)
                h = min(max_step, step * min(5.0, max(0.2, factor)))
    except _Stop as stop:
        stats["status"], stats["reason"] = stop.status, stop.reason
    return x, y, stats


def require_reached(stats):
    """Raise FlowError, its message beginning with the status, if an rk45 run stopped early."""
    if stats["status"] != "reached":
        raise FlowError(f"{stats['status']}: {stats['reason']}")


def _track(equation, x0, x1, state0, radius, rtol, atol, coefficients=None):
    """Follow one root branch of g p^2 + 2 f p + e = 0 from x0 toward x1.

    state0 has shape (k,) for one path or (n, k) for a lockstep batch; its
    first column moves with the tracked slope p.  equation(x, state) returns
    (e, f, g) or (e, f, g, A, B), A and B moving the second column with
    A + B p; coefficients goes to rk45, and equation takes a stage's row as
    a third argument.  The start takes the root of least modulus, and each
    accepted step the root nearest the last one.  A start with no real root
    raises EllipticStop or VerticalDirection; any other stop ends the run (a
    stage outside |state| <= radius is a "tube-exit", an expression
    evaluated outside its domain is "singular").  Returns (xs, states, ps,
    stats) at the start and every accepted step; stats are rk45's plus
    "max_residual" of the slope equation.
    """
    track = {"p": None}
    samples = []  # (x, state, p, residual) at the start and every accepted step

    def evaluate(x, state, *row):
        e, f, g, *tail = equation(x, state, *row)
        slopes, p = branch_slopes(e, f, g, prev_p=track["p"])
        return e, f, g, tail, slopes, p

    def on_accept(x, state, *row):
        e, f, g, _, _, p = evaluate(x, state, *row)
        track["p"] = p
        samples.append((x, state, p, abs(g * p * p + 2 * f * p + e)))

    def rhs(x, state, *row):
        if (np.abs(state) > radius).any():
            raise _Stop("tube-exit", f"|y| or |z| exceeded radius {radius} at x = {x}")
        try:
            _, _, _, tail, slopes, p = evaluate(x, state, *row)
        except (FlowError, tubular.ReductionSingular, DomainError) as exc:
            # a ReductionSingular names its point; an elliptic or vertical stop keeps its bare message
            at = f" at x = {x}" if type(exc) in (FlowError, DomainError) else ""
            raise _Stop(_STATUS.get(type(exc), "singular"), f"{exc}{at}")
        if len(slopes) == 2 and np.any(abs(slopes[0] - slopes[1]) < 1e-6 * (1 + abs(p))):
            raise _Stop("parabolic", "root branches collided")
        return np.stack((p, tail[0] + tail[1] * p) if tail else (p,), axis=-1)

    try:
        on_accept(x0, state0)
    except (FlowError, tubular.ReductionSingular, DomainError) as exc:
        if type(exc) in _STATUS:  # no real branch at the start
            raise
        samples.append((x0, state0, math.nan, math.nan))  # rk45's first stage stops the run "singular"
    _, _, stats = rk45(rhs, x0, x1, state0, rtol=rtol, atol=atol, on_accept=on_accept, coefficients=coefficients)
    xs, states, ps, residuals = (np.array(column) for column in zip(*samples))
    stats["max_residual"] = float(np.max(residuals))
    return xs, states, ps, stats


def integrate_asymptotic(field, chart, start, x1, rtol=1e-10, atol=1e-12):
    """Follow one asymptotic branch from start=(x0, y0, z0) until x = x1.

    The path starts on the root of least modulus and follows it by root
    continuity inside the chart's tube.  Raises EllipticStop or
    VerticalDirection if no branch exists at the start point; a later stop
    is reported in Path.status with the partial path, and Path.stats keeps
    the integrator statistics up to the stop.
    """
    x0, y0, z0 = (float(v) for v in start)
    efgab = tubular.binary_equation_data(field, chart)
    xs, states, ps, stats = _track(
        lambda x, yz, *row: efgab(x, float(yz[0]), float(yz[1]), *row), x0, x1, np.array([y0, z0]),
        chart.radius, rtol, atol, coefficients=lambda xs: chart.curve_rows(xs, field.curve_order),
    )
    status, reason = stats.pop("status"), stats.pop("reason")
    return Path(xs=xs, ys=states[:, 0], zs=states[:, 1], ps=ps, status=status, reason=reason, stats=stats)


def integrate_batch(field, chart, starts, x0, x1, rtol=1e-10, atol=1e-13, cache=None):
    """Integrate many trajectories in lockstep (shared steps, vectorized RHS).

    starts is an array of shape (n, 2) holding (y, z) initial values at x0.
    Returns the (n, 2) endpoint array.  Used by the finite-difference
    return-map derivative, where the trajectories stay close together.
    cache may be a ChartSpectralCache built for the same field and chart; it
    replaces the per-step jet pipeline with validated interpolants.  A start
    with no real branch raises EllipticStop or VerticalDirection; a stop of
    any trajectory (leaving the tube radius is a "tube-exit") stops the
    batch and raises FlowError, its message beginning with the status.
    """
    if cache is None:
        direct = tubular.binary_equation_data(field, chart)
        efgab = lambda x, y, z: direct(np.full(len(y), x), y, z)
    else:
        efgab = cache.efgab  # takes the shared abscissa as one float, or its stage-table row
    _, states, _, stats = _track(
        lambda x, yz, *row: efgab(x, yz[:, 0], yz[:, 1], *row), x0, x1, np.asarray(starts, dtype=float),
        chart.radius, rtol, atol, coefficients=None if cache is None else cache.series,
    )
    require_reached(stats)
    return states[-1]
