"""Integration of asymptotic lines in chart coordinates.

The line field is implicit: at each point the slope p = dy/dx solves
g p^2 + 2 f p + e = 0, and dz/dx = A + B p.  One tracker follows one root
branch by continuity (nearest root to the previously accepted slope), with an
adaptive Dormand-Prince 4(5) pair, for a single chart path, a lockstep batch
of chart paths and a path on a parametrized surface.  A start point with no
real branch raises EllipticStop or VerticalDirection.  A later stop ends the
path with its status instead of jumping branches: "parabolic" (root
collision), "elliptic" (no real root), "vertical" (only dx = 0), "tube-exit"
or "singular" (a singular reduction or step-size underflow).
integrate_asymptotic reports the status with the partial path;
integrate_batch and surfaces.integrate_surface_asymptotic raise FlowError
with a message that begins with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import tubular
from .spectral import TrigSeries


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


def branch_slopes(e, f, g, prev_p=None, tol=1e-12):
    """Real slope roots of g p^2 + 2 f p + e = 0 and the branch selection.

    Returns (slopes, selected): the real roots, one in the linear case
    |g| <= tol * max(|e|, |f|, |g|), and the root nearest prev_p (without
    prev_p, the root of least modulus).  e, f, g (and prev_p) may be 1-D
    arrays, a lockstep batch solved point by point; slopes then holds two
    arrays, the first inf where the equation is linear.
    """
    if not np.ndim(e):
        return _branch_slope(e, f, g, prev_p, tol)
    columns = [np.asarray(c, dtype=float).tolist() for c in (e, f, g)]
    columns.append([None] * len(e) if prev_p is None else np.asarray(prev_p, dtype=float).tolist())
    points = [_branch_slope(*point, tol) for point in zip(*columns)]
    roots = [(s[0] if len(s) == 2 else math.inf, s[-1]) for s, _ in points]
    return tuple(np.array(c) for c in zip(*roots)), np.array([p for _, p in points])


def _branch_slope(e, f, g, prev_p, tol):
    """branch_slopes at one point."""
    scale = max(abs(e), abs(f), abs(g))
    if scale == 0:
        raise FlowError("e = f = g = 0: every direction is asymptotic")
    if abs(g) <= tol * scale:
        if abs(f) <= tol * scale:
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

    def __init__(self, field, chart, period, degree=3, nodes=256, tol=1e-9, max_nodes=1024):
        self.period = float(period)
        self.degree = int(degree)
        self.monomials = [
            (i, j) for total in range(degree + 1) for i in range(total + 1) for j in (total - i,)
        ]
        self._exponents = np.array(self.monomials).T  # exponents of y and of z
        self.series = TrigSeries.fit(
            lambda xs: self._taylor_table(field, chart, xs), self.period, nodes, tol, max_nodes
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

    def efgab(self, x, y, z):
        """Values of (e, f, g, A, B) at n points; y, z arrays of length n and
        x either such an array or one float shared by every point (a lockstep
        batch), which evaluates the x-interpolants once."""
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        coeffs = self.series(x)  # (nquant * nmono,) or (n, nquant * nmono)
        coeffs = coeffs.reshape(coeffs.shape[:-1] + (len(self._QUANTITIES), len(self.monomials)))
        i, j = self._exponents
        mono = y[:, None] ** i * z[:, None] ** j  # (n, nmono)
        values = np.matmul(coeffs, mono[:, :, None])[:, :, 0]  # (n, nquant)
        return tuple(values.T)


# Dormand-Prince 4(5) tableau
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = tuple(map(np.array, (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)))
_DP_B5 = np.array((35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0))
_DP_B4 = np.array((5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40))


_STATUS = {EllipticStop: "elliptic", VerticalDirection: "vertical"}  # any other failure is "singular"


class _Stop(Exception):
    """Ends an rk45 run early with a status; rk45 catches it, so it never leaves this module."""

    def __init__(self, status, reason):
        self.status = status
        self.reason = reason


def rk45(rhs, x0, x1, y0, rtol=1e-10, atol=1e-12, max_step=None, min_step=1e-14, on_accept=None):
    """Adaptive embedded Runge-Kutta; y may be any numpy array shape.

    rhs(x, y) -> dy/dx; it may raise _Stop.  A stop inside a step halves the
    step, since overshooting may cause it, and ends the run once the step is
    down to 4 min_step.  A NaN error estimate rejects and shrinks the step,
    so such a run ends in a "singular" step-size underflow.  on_accept(x, y)
    is called at every accepted step.
    Returns (x, y, stats) at x1, or at the last accepted point after a stop;
    stats holds "steps", "rejected", "min_step", "status" ("reached" or the
    stop's) and "reason".
    """
    y = np.array(y0, dtype=float)
    x = float(x0)
    direction = 1.0 if x1 >= x0 else -1.0
    span = abs(x1 - x0)
    if max_step is None:
        max_step = span / 16 if span > 0 else 1.0
    h = min(max_step, span / 100) if span > 0 else max_step
    stats = {"steps": 0, "rejected": 0, "min_step": math.inf, "status": "reached", "reason": ""}
    try:
        f0 = rhs(x, y)
        # the stage slopes of one step, and the weights shaped to broadcast
        # over their stage axis: a stage sum is one reduction over that axis,
        # accumulated in stage order like a running sum
        ks = np.empty((7,) + y.shape)
        axes = (slice(None),) + (None,) * y.ndim
        a_rows, b5, b4 = [a[axes] for a in _DP_A], _DP_B5[axes], _DP_B4[axes]
        while direction * (x1 - x) > 1e-15 * max(1.0, abs(x1)):
            h = min(h, abs(x1 - x))
            if h < min_step:
                raise _Stop("singular", f"step size underflow at x = {x}")
            try:
                ks[0] = f0
                for i in range(1, 7):
                    yi = y + direction * h * (a_rows[i] * ks[:i]).sum(axis=0)
                    ks[i] = rhs(x + direction * h * _DP_C[i], yi)
                y5 = y + direction * h * (b5 * ks).sum(axis=0)
                y4 = y + direction * h * (b4 * ks).sum(axis=0)
            except _Stop:
                if h <= 4 * min_step:
                    raise
                h /= 2
                stats["rejected"] += 1
                continue
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
            err = float(np.sqrt(np.mean((np.asarray(y5 - y4) / scale) ** 2)))
            if err <= 1.0:
                x = x + direction * h
                y = y5
                f0 = ks[6].copy()  # FSAL; ks is overwritten by the next step
                stats["steps"] += 1
                stats["min_step"] = min(stats["min_step"], h)
                if on_accept is not None:
                    on_accept(x, y)
            else:
                stats["rejected"] += 1
            if err > 0:
                factor = 0.9 * err ** -0.2
            else:  # a NaN estimate (no comparison holds) shrinks the step
                factor = 5.0 if err == 0 else 0.2
            h = min(max_step, h * min(5.0, max(0.2, factor)))
    except _Stop as stop:
        stats["status"], stats["reason"] = stop.status, stop.reason
    return x, y, stats


def require_reached(stats):
    """Raise FlowError, its message beginning with the status, if an rk45 run stopped early."""
    if stats["status"] != "reached":
        raise FlowError(f"{stats['status']}: {stats['reason']}")


def _track(equation, x0, x1, state0, branch, radius, rtol, atol, max_step=None):
    """Follow one root branch of g p^2 + 2 f p + e = 0 from x0 toward x1.

    state0 has shape (k,) for one path or (n, k) for a lockstep batch; its
    first column moves with the tracked slope p.  equation(x, state) returns
    (e, f, g) or (e, f, g, A, B), A and B moving the second column with
    A + B p.  branch is an optional slope hint at the start.  A start with no
    real root raises EllipticStop or VerticalDirection; a later stop ends
    the run (a stage outside |state| <= radius is a "tube-exit").  Returns
    (xs, states, ps, stats) at the start and every accepted step; stats are
    rk45's plus "max_residual" of the slope equation.
    """
    track = {"p": branch}
    samples = []  # (x, state, p, residual) at the start and every accepted step

    def evaluate(x, state):
        e, f, g, *tail = equation(x, state)
        slopes, p = branch_slopes(e, f, g, prev_p=track["p"])
        return e, f, g, tail, slopes, p

    def on_accept(x, state):
        e, f, g, _, _, p = evaluate(x, state)
        track["p"] = p
        samples.append((x, state, p, abs(g * p * p + 2 * f * p + e)))

    def rhs(x, state):
        if (np.abs(state) > radius).any():
            raise _Stop("tube-exit", f"|y| or |z| exceeded radius {radius} at x = {x}")
        try:
            _, _, _, tail, slopes, p = evaluate(x, state)
        except (FlowError, tubular.ReductionSingular) as exc:
            raise _Stop(_STATUS.get(type(exc), "singular"), str(exc))
        if len(slopes) == 2 and np.any(abs(slopes[0] - slopes[1]) < 1e-6 * (1 + abs(p))):
            raise _Stop("parabolic", "root branches collided")
        return np.stack((p, tail[0] + tail[1] * p) if tail else (p,), axis=-1)

    on_accept(x0, state0)
    _, _, stats = rk45(rhs, x0, x1, state0, rtol=rtol, atol=atol, max_step=max_step, on_accept=on_accept)
    xs, states, ps, residuals = (np.array(column) for column in zip(*samples))
    stats["max_residual"] = float(np.max(residuals))
    return xs, states, ps, stats


def integrate_asymptotic(field, chart, start, x1, branch=None, rtol=1e-10, atol=1e-12, radius=None, max_step=None):
    """Follow one asymptotic branch from start=(x0, y0, z0) until x = x1.

    branch is an optional slope hint selecting the initial root; afterwards
    the branch is tracked by root continuity.  Raises EllipticStop or
    VerticalDirection if no branch exists at the start point; a later stop
    is reported in Path.status with the partial path, and Path.stats keeps
    the integrator statistics up to the stop.
    """
    x0, y0, z0 = (float(v) for v in start)
    efgab = tubular.binary_equation_data(field, chart)
    xs, states, ps, stats = _track(
        lambda x, yz: efgab(x, float(yz[0]), float(yz[1])), x0, x1, np.array([y0, z0]), branch,
        chart.radius if radius is None else radius, rtol, atol, max_step,
    )
    status, reason = stats.pop("status"), stats.pop("reason")
    return Path(xs=xs, ys=states[:, 0], zs=states[:, 1], ps=ps, status=status, reason=reason, stats=stats)


def integrate_batch(field, chart, starts, x0, x1, rtol=1e-10, atol=1e-13, max_step=None, cache=None):
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
        efgab = cache.efgab  # takes the shared abscissa as one float
    _, states, _, stats = _track(
        lambda x, yz: efgab(x, yz[:, 0], yz[:, 1]), x0, x1, np.asarray(starts, dtype=float),
        None, chart.radius, rtol, atol, max_step,
    )
    require_reached(stats)
    return states[-1]
