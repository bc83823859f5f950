"""Integration of asymptotic lines in chart coordinates.

The line field is implicit: at each point the slope p = dy/dx solves
g p^2 + 2 f p + e = 0, and dz/dx = A + B p.  The integrator follows one root
branch by continuity (nearest root to the previously accepted slope), with an
adaptive Dormand-Prince 4(5) pair.  Steps that walk into a root collision
(parabolic point), lose the real roots (elliptic point), or leave the tube
terminate the path with a status instead of jumping branches.
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


class ParabolicStop(FlowError):
    """The two root branches collided within resolution."""


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

    Returns (slopes, selected).  slopes has one entry in the linear case.
    """
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


def _slopes_array(e, f, g, prev_p):
    """Vectorized branch-continuous slope selection (used by batch integration)."""
    e = np.asarray(e, dtype=float)
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    disc = f * f - g * e
    if np.any(disc < 0):
        raise EllipticStop("discriminant < 0 at a batch point")
    if np.any(np.abs(g) < 1e-300):
        raise VerticalDirection("g = 0 at a batch point")
    r = np.sqrt(disc)
    q = -np.where(f >= 0, f + r, f - r)
    q = np.where(q == 0, -2 * f, q)
    p1 = q / g
    p2 = e / q
    gap = np.abs(p1 - p2)
    sel = np.where(np.abs(p1 - prev_p) <= np.abs(p2 - prev_p), p1, p2)
    if np.any(gap < 1e-6 * (1 + np.abs(sel))):
        raise ParabolicStop("root branches collided")
    return sel


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
        self.series = TrigSeries.fit(
            lambda xs: self._taylor_table(field, chart, xs), self.period, nodes, tol, max_nodes
        )
        self.nodes = self.series.nodes

    def _taylor_table(self, field, chart, xs):
        """Taylor coefficients at (x, 0, 0), shape (len(xs), nquant * nmono)."""
        d = tubular.chart_data(field, chart, xs, 0.0, 0.0, order=self.degree)
        return np.stack(
            [
                np.broadcast_to(np.asarray(getattr(d, name).coef.get((0, i, j), 0), dtype=float), xs.shape)
                for name in self._QUANTITIES
                for i, j in self.monomials
            ],
            axis=1,
        )

    def efgab(self, x, y, z):
        """Values of (e, f, g, A, B); x, y, z arrays of equal length."""
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        coeffs = self.series(x)  # (npts, nquant * nmono)
        mono = np.stack([y ** i * z ** j for i, j in self.monomials], axis=1)
        nm = len(self.monomials)
        return tuple(
            np.sum(coeffs[:, q * nm : (q + 1) * nm] * mono, axis=1)
            for q in range(len(self._QUANTITIES))
        )


# Dormand-Prince 4(5) tableau
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


class _Stop(Exception):
    def __init__(self, status, reason):
        self.status = status
        self.reason = reason


def rk45(rhs, x0, x1, y0, rtol=1e-10, atol=1e-12, max_step=None, min_step=1e-14, on_accept=None):
    """Adaptive embedded Runge-Kutta; y may be any numpy array shape.

    rhs(x, y) -> dy/dx; it may raise _Stop to terminate with a partial result.
    Returns (x_end, y_end, stats).  on_accept(x, y) is called at every
    accepted step.
    """
    y = np.array(y0, dtype=float)
    x = float(x0)
    direction = 1.0 if x1 >= x0 else -1.0
    span = abs(x1 - x0)
    if max_step is None:
        max_step = span / 16 if span > 0 else 1.0
    h = min(max_step, span / 100) if span > 0 else max_step
    stats = {"steps": 0, "rejected": 0, "min_step": math.inf}
    f0 = rhs(x, y)
    while direction * (x1 - x) > 1e-15 * max(1.0, abs(x1)):
        h = min(h, abs(x1 - x))
        if h < min_step:
            raise _Stop("singular", f"step size underflow at x = {x}")
        try:
            ks = [f0]
            for i in range(1, 7):
                yi = y + direction * h * sum(a * k for a, k in zip(_DP_A[i], ks))
                ks.append(rhs(x + direction * h * _DP_C[i], yi))
            y5 = y + direction * h * sum(b * k for b, k in zip(_DP_B5, ks))
            y4 = y + direction * h * sum(b * k for b, k in zip(_DP_B4, ks))
        except _Stop:
            # the stop may be an artifact of overshooting; shrink first
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
            f0 = ks[6]  # FSAL
            stats["steps"] += 1
            stats["min_step"] = min(stats["min_step"], h)
            if on_accept is not None:
                on_accept(x, y)
        else:
            stats["rejected"] += 1
        factor = 0.9 * err ** -0.2 if err > 0 else 5.0
        h = min(max_step, h * min(5.0, max(0.2, factor)))
    return x, y, stats


def integrate_asymptotic(
    field,
    chart,
    start,
    x1,
    branch=None,
    rtol=1e-10,
    atol=1e-12,
    radius=None,
    max_step=None,
):
    """Follow one asymptotic branch from start=(x0, y0, z0) until x = x1.

    branch is an optional slope hint selecting the initial root; afterwards
    the branch is tracked by root continuity.  Raises EllipticStop or
    VerticalDirection if no branch exists at the start point; later
    terminations are reported in Path.status with the partial path.
    """
    x0, y0, z0 = (float(v) for v in start)
    if radius is None:
        radius = chart.radius
    efgab = tubular.binary_equation_data(field, chart)

    e, f, g, A, B = efgab(x0, y0, z0)
    _, p0 = branch_slopes(e, f, g, prev_p=branch)
    state = {"p": p0}
    samples = [(x0, y0, z0, p0)]
    residuals = [abs(g * p0 * p0 + 2 * f * p0 + e)]

    def rhs(x, yz):
        yv, zv = float(yz[0]), float(yz[1])
        if abs(yv) > radius or abs(zv) > radius:
            raise _Stop("tube-exit", f"|y| or |z| exceeded radius {radius} at x = {x}")
        try:
            e, f, g, A, B = efgab(x, yv, zv)
            slopes, p = branch_slopes(e, f, g, prev_p=state["p"])
        except EllipticStop as exc:
            raise _Stop("elliptic", str(exc))
        except VerticalDirection as exc:
            raise _Stop("vertical", str(exc))
        except tubular.ReductionSingular as exc:
            raise _Stop("singular", str(exc))
        if len(slopes) == 2 and abs(slopes[0] - slopes[1]) < 1e-6 * (1 + abs(p)):
            raise _Stop("parabolic", "root branches collided")
        return np.array([p, A + B * p])

    def on_accept(x, yz):
        e, f, g, A, B = efgab(x, float(yz[0]), float(yz[1]))
        _, p = branch_slopes(e, f, g, prev_p=state["p"])
        state["p"] = p
        samples.append((x, float(yz[0]), float(yz[1]), p))
        residuals.append(abs(g * p * p + 2 * f * p + e))

    status, reason = "reached", ""
    try:
        _, _, stats = rk45(
            rhs, x0, x1, np.array([y0, z0]), rtol=rtol, atol=atol, max_step=max_step, on_accept=on_accept
        )
    except _Stop as stop:
        status, reason = stop.status, stop.reason
        stats = {"steps": len(samples) - 1, "rejected": 0, "min_step": math.nan}
    arr = np.array(samples)
    stats["max_residual"] = float(max(residuals))
    return Path(
        xs=arr[:, 0], ys=arr[:, 1], zs=arr[:, 2], ps=arr[:, 3],
        status=status, reason=reason, stats=stats,
    )


def integrate_batch(field, chart, starts, x0, x1, rtol=1e-10, atol=1e-13, max_step=None, cache=None):
    """Integrate many trajectories in lockstep (shared steps, vectorized RHS).

    starts is an array of shape (n, 2) holding (y, z) initial values at x0.
    Returns the (n, 2) endpoint array.  Used by the finite-difference
    return-map derivative, where the trajectories stay close together.
    cache may be a ChartSpectralCache built for the same field and chart; it
    replaces the per-step jet pipeline with validated interpolants.
    """
    starts = np.asarray(starts, dtype=float)
    efgab = cache.efgab if cache is not None else tubular.binary_equation_data(field, chart)
    state = {"p": np.zeros(len(starts))}

    def rhs(x, yz):
        y, z = yz[:, 0], yz[:, 1]
        try:
            e, f, g, A, B = efgab(np.full(len(y), x), y, z)
            p = _slopes_array(e, f, g, state["p"])
        except (EllipticStop, VerticalDirection, ParabolicStop) as exc:
            raise _Stop("elliptic", str(exc))
        return np.stack([p, A + B * p], axis=1)

    def on_accept(x, yz):
        y, z = yz[:, 0], yz[:, 1]
        e, f, g, A, B = efgab(np.full(len(y), x), y, z)
        state["p"] = _slopes_array(e, f, g, state["p"])

    try:
        _, yend, _ = rk45(rhs, x0, x1, starts, rtol=rtol, atol=atol, max_step=max_step, on_accept=on_accept)
    except _Stop as stop:
        raise FlowError(f"batch integration stopped: {stop.reason}") from None
    return yend
