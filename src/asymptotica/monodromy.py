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
when both eigenvalues stay off the unit circle.  They take det Q from
Liouville's identity, det Q = exp of the integrated trace of M.

VariationalCache fits M from FIT_NODES nodes, doubling them until the
midpoint residual is below FIT_TOL, and raises FitError past FIT_MAX_NODES.
Given the ChartSpectralCache that poincare --fd-check builds for
fd_poincare_derivative, it reads M's Taylor columns from that cache's
passes, so both fits sample the curve once; _matrix turns the columns into M.
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
FIT_NODES, FIT_TOL, FIT_MAX_NODES = 256, 1e-9, 2048  # VariationalCache's fit: nodes, midpoint residual, node cap


# the Taylor columns (quantity, i, j), coefficients of y^i z^j at (x, 0, 0), that _matrix reads after x
_COLUMNS = (("f", 0, 0), ("B", 0, 0), ("e", 1, 0), ("e", 0, 1), ("A", 1, 0), ("A", 0, 1))


class ParabolicOnCurve(Exception):
    """f(x,0,0) = 0 somewhere on the curve; the variational matrix is undefined."""


def _matrix(x, f, B, e_y, e_z, A_y, A_z):
    """M at x (an array of shape s) from the Taylor columns at (x, 0, 0): the
    values of f and B and the first partials of e and A in y and z, each a
    float or an array that broadcasts to s; the result has shape s + (2, 2)."""
    f = np.asarray(f, dtype=float)
    if np.any(np.abs(f) < 1e-12):  # name the point of least |f|
        size, xs = np.broadcast_arrays(np.abs(f), x)
        i = np.nanargmin(size)
        raise ParabolicOnCurve(f"f(x,0,0) vanishes on the curve: |f| = {size.flat[i]} at x = {xs.flat[i]}")
    m11 = -e_y / (2 * f)
    m12 = -e_z / (2 * f)
    entries = (m11, m12, A_y + B * m11, A_z + B * m12)
    return np.stack([np.broadcast_to(m, x.shape) for m in entries], axis=-1).reshape(x.shape + (2, 2))


def variational_matrix(field, chart, x):
    """M(x) from jet partials of the reduced coefficient pipeline.

    x is a float or an array of shape s; the result has shape (2, 2) or
    s + (2, 2).
    """
    x = np.asarray(x, dtype=float)
    d = tubular.chart_data(field, chart, x if x.ndim else float(x), 0.0, 0.0, order=1)
    return _matrix(
        x, d.value("f"), d.value("B"), d.partial("e", "y"), d.partial("e", "z"), d.partial("A", "y"), d.partial("A", "z")
    )


class VariationalCache:
    """Trigonometric interpolant of the four entries of M over one period.

    The entries are sampled at uniform nodes with one vectorized pipeline
    pass and fitted as one vector TrigSeries (TrigSeries.fit doubles the node
    count until the midpoint residual passes).  This makes the Q integration
    cheap, and the mean of each entry gives its exact integral over a period.
    With chart_cache, a ChartSpectralCache of the same field, chart and
    period, a level whose points the chart cache's fit sampled reads M from
    the degree-0 and degree-1 Taylor columns of that pass (the same values an
    order-1 pass gives); any other level makes its own order-1 pass.
    """

    def __init__(self, field, chart, period, chart_cache=None):
        self.period = float(period)

        def sample(xs):
            columns = None if chart_cache is None else chart_cache.sampled(xs, *_COLUMNS)
            return (variational_matrix(field, chart, xs) if columns is None else _matrix(xs, *columns)).reshape(-1, 4)

        self.series = TrigSeries.fit(sample, self.period, FIT_NODES, FIT_TOL, FIT_MAX_NODES)
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


def eigenvalues_2x2(Q, det):
    """Closed-form eigenvalues of Q given det Q (monodromy passes Liouville's
    exp of the integrated trace, which no cancellation in Q's entries
    reaches): the large real root from the trace, the small one det/large,
    and a complex pair of modulus sqrt(det)."""
    tr = Q[0, 0] + Q[1, 1]
    disc = tr * tr - 4 * det
    if disc >= 0:
        r = math.sqrt(disc)
        l1 = (tr + r) / 2 if tr >= 0 else (tr - r) / 2
        l2 = det / l1 if l1 != 0 else (tr - l1)
        return complex(l1), complex(l2)
    r = math.sqrt(-disc)
    return complex(tr / 2, r / 2), complex(tr / 2, -r / 2)


def monodromy(field, chart, period, cache=None):
    """Solve Q' = M(x) Q over one period and classify hyperbolicity.

    cache may be a prebuilt VariationalCache (reused across calls), None to
    build one, or False for the direct oracle, which evaluates M through
    the pipeline: one vector order-1 pass per step attempt, at the stage
    abscissae of rk45's stage table, as the cached path reads its fit there.
    stats are rk45's plus "det_nonpositive", the accepted steps at which
    det Q <= 0 (Liouville's identity keeps det Q positive); counting them
    does not change the steps.
    """
    period = float(period)
    if cache is False:
        mfn = lambda x: variational_matrix(field, chart, x)
        vc = None
    else:
        vc = cache if isinstance(cache, VariationalCache) else VariationalCache(field, chart, period)
        mfn = vc.matrix

    dets = []  # det Q after every accepted step

    def rhs(x, q, m):  # M Q on floats; M(x) is the row of rk45's stage table
        ((m11, m12), (m21, m22)), (q11, q12, q21, q22) = m, q
        return [m11 * q11 + m12 * q21, m11 * q12 + m12 * q22, m21 * q11 + m22 * q21, m21 * q12 + m22 * q22]

    _, Q, stats = flow.rk45(
        rhs, 0.0, period, np.eye(2), rtol=RTOL, atol=ATOL, coefficients=lambda xs: mfn(xs).tolist(),
        on_accept=lambda x, q, *_: dets.append(q[0] * q[3] - q[1] * q[2]),
    )
    flow.require_reached(stats)
    stats["det_nonpositive"] = sum(1 for d in dets if d <= 0)

    # the cached path integrates its validated interpolant exactly (period
    # times the mean); the direct path, the oracle for the cache, uses quad
    if vc is None:
        def integral(entry):
            return quad(lambda x: float(entry(mfn(x))), 0.0, period, limit=200, epsabs=1e-12)[0]
    else:
        mean = vc.series.mean().reshape(2, 2)

        def integral(entry):
            return period * float(entry(mean))

    # Liouville identity: det Q(l) = exp of the integrated trace.  The eigenvalues
    # take their det from it; Q's own det, compared with it, checks Q
    trace_integral = integral(np.trace)
    det = math.exp(trace_integral)
    detQ = float(np.linalg.det(Q))
    det_residual = abs(detQ - det) / max(abs(detQ), 1e-300)
    ev = eigenvalues_2x2(Q, det)
    dist = min(abs(abs(e) - 1.0) for e in ev)
    hyperbolic = dist > HYPERBOLIC_TOL

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
        stats=stats,
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
    differences to resolve: cache when given (one built for the same field,
    chart and period), else one of its own.
    """
    check_fd_step(h, chart)
    if cache is None:
        cache = flow.ChartSpectralCache(field, chart, float(period))
    starts = np.array([[h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    ends = flow.integrate_batch(field, chart, starts, 0.0, float(period), rtol=FD_RTOL, atol=FD_ATOL, cache=cache)
    col_y = (ends[0] - ends[1]) / (2 * h)
    col_z = (ends[2] - ends[3]) / (2 * h)
    return np.column_stack([col_y, col_z])
