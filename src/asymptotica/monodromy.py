"""Derivative of the first-return map along a closed asymptotic line.

The flow near the curve is dy/dx = p, dz/dx = A + B p with
p = (-e_y y - e_z z)/2f + O(2), so the variational system is Q' = M(x) Q,
Q(0) = I, with

    M(x) = [    -e_y/2f            -e_z/2f       ]
           [ A_y - B e_y/2f     A_z - B e_z/2f   ]   at (x, 0, 0),

where A = -a/c and B = -b/c.  The B terms in the second row carry the
dz/dx-coupling to the slope and vanish only where b does; the independent
finite-difference Jacobian below cross-checks them.  Q(period) is the
derivative of the return map at the fixed point; the orbit is hyperbolic
when both eigenvalues stay off the unit circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import flow, tubular
from .spectral import TrigSeries

HYPERBOLIC_TOL = 1e-6  # an eigenvalue modulus within this of 1 is on the unit circle
RTOL, ATOL = 1e-11, 1e-13  # the Q integration
FD_RTOL, FD_ATOL = 1e-11, 1e-14  # the finite-difference batch
FIT_TOL = 1e-9  # VariationalCache's midpoint residual


class ParabolicOnCurve(Exception):
    """f(x,0,0) = 0 somewhere on the curve; the variational matrix is undefined."""


def variational_matrix(field, chart, x):
    """M(x) from jet partials of the reduced coefficient pipeline.

    x is a float or an array of shape s; the result has shape (2, 2) or
    s + (2, 2).
    """
    x = np.asarray(x, dtype=float)
    d = tubular.chart_data(field, chart, x if x.ndim else float(x), 0.0, 0.0, order=1)
    f = np.asarray(d.value("f"), dtype=float)
    if np.any(np.abs(f) < 1e-12):
        raise ParabolicOnCurve(f"f(x,0,0) vanishes on the curve (min |f| = {np.min(np.abs(f))})")
    b0 = d.value("B")
    m11 = -d.partial("e", "y") / (2 * f)
    m12 = -d.partial("e", "z") / (2 * f)
    entries = (m11, m12, d.partial("A", "y") + b0 * m11, d.partial("A", "z") + b0 * m12)
    return np.stack([np.broadcast_to(m, x.shape) for m in entries], axis=-1).reshape(x.shape + (2, 2))


class VariationalCache:
    """Trigonometric interpolant of the four entries of M over one period.

    The entries are sampled at uniform nodes with one vectorized pipeline
    pass and fitted as one vector TrigSeries (TrigSeries.fit doubles the node
    count until the midpoint residual passes).  This makes the Q integration
    cheap, and the mean of each entry gives its exact integral over a period.
    """

    def __init__(self, field, chart, period, nodes=256, max_nodes=2048):
        self.period = float(period)
        self.series = TrigSeries.fit(
            lambda xs: variational_matrix(field, chart, xs).reshape(-1, 4), self.period, nodes, FIT_TOL, max_nodes
        )
        self.nodes = self.series.nodes
        self.residual = self.series.residual

    def matrix(self, x):
        """M at x (a float or an array of shape s), shape (2, 2) or s + (2, 2)."""
        return self.series(x).reshape(np.shape(x) + (2, 2))


@dataclass
class MonodromyResult:
    Q: np.ndarray
    eigenvalues: tuple
    hyperbolic: bool
    classification: str  # "Hyperbolic" | "NonHyperbolic"
    unit_circle_distance: float
    tolerance: float
    triangular: bool
    integrals: dict
    det_residual: float
    stats: dict

    def to_dict(self):
        return {
            "Q": [[float(v) for v in row] for row in self.Q],
            "eigenvalues": [{"re": ev.real, "im": ev.imag} for ev in self.eigenvalues],
            "hyperbolic": bool(self.hyperbolic),
            "classification": self.classification,
            "unit_circle_distance": self.unit_circle_distance,
            "tolerance": self.tolerance,
            "triangular": self.triangular,
            "integrals": {k: float(v) for k, v in self.integrals.items()},
            "det_residual": self.det_residual,
        }


def eigenvalues_2x2(Q):
    """Closed-form eigenvalues, with the small root recovered from det/trace."""
    tr = Q[0, 0] + Q[1, 1]
    det = Q[0, 0] * Q[1, 1] - Q[0, 1] * Q[1, 0]
    disc = tr * tr - 4 * det
    if disc >= 0:
        r = math.sqrt(disc)
        l1 = (tr + r) / 2 if tr >= 0 else (tr - r) / 2
        l2 = det / l1 if l1 != 0 else (tr - l1)
        return complex(l1), complex(l2)
    r = math.sqrt(-disc)
    return complex(tr / 2, r / 2), complex(tr / 2, -r / 2)


def monodromy(field, chart, period, cache=None, checkpoints=None):
    """Solve Q' = M(x) Q over one period and classify hyperbolicity.

    cache may be a prebuilt VariationalCache (reused across calls), None to
    build one, or False for the direct oracle, which evaluates M through
    the pipeline: one vector order-1 pass per step attempt, at the stage
    abscissae of rk45's stage table, as the cached path reads its fit there.
    checkpoints, when given, collects (x, Q(x)) pairs at that many uniform
    stations for identity tests, on which the one integration lands steps.
    """
    period = float(period)
    if cache is False:
        mfn = lambda x: variational_matrix(field, chart, x)
        vc = None
    else:
        vc = cache if isinstance(cache, VariationalCache) else VariationalCache(field, chart, period)
        mfn = vc.matrix

    stations = np.linspace(0.0, period, checkpoints + 1)[1:].tolist() if checkpoints else period
    collected = []

    def rhs(x, qflat, m):  # M(x) is the row of rk45's stage table
        return (m @ qflat.reshape(2, 2)).reshape(4)

    def on_accept(x, q, *_):  # M's row is passed too
        if x in stations:  # a step that lands on a station ends exactly there
            collected.append((x, q.reshape(2, 2).copy()))

    _, q, stats = flow.rk45(
        rhs, 0.0, stations, np.eye(2).reshape(4), rtol=RTOL, atol=ATOL, on_accept=on_accept if checkpoints else None,
        coefficients=mfn,
    )
    flow.require_reached(stats)
    Q = q.reshape(2, 2)

    ev = eigenvalues_2x2(Q)
    dist = min(abs(abs(e) - 1.0) for e in ev)
    hyperbolic = dist > HYPERBOLIC_TOL

    # the cached path integrates its validated interpolant exactly (period
    # times the mean); the direct path, the oracle for the cache, uses quad
    if vc is None:
        def integral(entry):
            return quad(lambda x: float(entry(mfn(x))), 0.0, period, limit=200, epsabs=1e-12)[0]
    else:
        mean = vc.series.mean().reshape(2, 2)

        def integral(entry):
            return period * float(entry(mean))

    # Liouville identity: det Q(l) = exp of the integrated trace
    trace_integral = integral(np.trace)
    detQ = float(np.linalg.det(Q))
    det_residual = abs(detQ - math.exp(trace_integral)) / max(abs(detQ), 1e-300)

    # when M is triangular the eigenvalues are exponentials of the diagonal integrals
    ms = mfn(np.linspace(0.0, period, 64, endpoint=False))
    triangular = bool(min(np.max(np.abs(ms[:, 0, 1])), np.max(np.abs(ms[:, 1, 0]))) < 1e-7)
    integrals = {"trace": trace_integral}
    if triangular:
        i11 = integral(lambda m: m[0, 0])
        i22 = integral(lambda m: m[1, 1])
        integrals.update(
            {
                "diag_first": i11,
                "diag_second": i22,
                "eigen_from_first": math.exp(i11),
                "eigen_from_second": math.exp(i22),
            }
        )

    return MonodromyResult(
        Q=Q,
        eigenvalues=ev,
        hyperbolic=hyperbolic,
        classification="Hyperbolic" if hyperbolic else "NonHyperbolic",
        unit_circle_distance=dist,
        tolerance=HYPERBOLIC_TOL,
        triangular=triangular,
        integrals=integrals,
        det_residual=det_residual,
        stats=dict(stats, checkpoints=collected) if checkpoints else stats,
    )


def check_fd_step(h, chart):
    """Raise ValueError unless the finite-difference step h lies in (1e-8, tube radius)."""
    if not (1e-8 < h < chart.radius):
        raise ValueError(f"step h = {h} outside (1e-8, tube radius {chart.radius})")


def fd_poincare_derivative(field, chart, period, h=1e-5, cache=None):
    """Central-difference Jacobian of the actual return map at the fixed point.

    This is the independent oracle for the variational route: it only uses
    the flow integrator, never the variational matrix.  The right-hand side
    is evaluated through a ChartSpectralCache (validated against the direct
    pipeline), which keeps the evaluation smooth enough for the central
    differences to resolve; cache may be one prebuilt for the same field,
    chart and period, and None builds one.
    """
    check_fd_step(h, chart)
    if cache is None:
        cache = flow.ChartSpectralCache(field, chart, float(period))
    starts = np.array([[h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    ends = flow.integrate_batch(field, chart, starts, 0.0, float(period), rtol=FD_RTOL, atol=FD_ATOL, cache=cache)
    col_y = (ends[0] - ends[1]) / (2 * h)
    col_z = (ends[2] - ends[3]) / (2 * h)
    return np.column_stack([col_y, col_z])
