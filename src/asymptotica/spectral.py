"""Trigonometric interpolation of smooth periodic functions of one variable.

A TrigSeries stores the Fourier coefficients obtained from samples at N
uniform nodes over one period.  Samples of shape (N,) give a scalar series;
samples of shape (N, m) give m series that share nodes and are evaluated
together.  For trigonometric polynomials of degree < N/2 the interpolant is
exact; for other analytic periodic functions the node count is doubled until
an off-node residual check passes (refine), so the error is spectrally small.
Series evaluate on floats, numpy arrays, and jets (through univariate
Taylor recomposition); columns splits the value of a vector series into its
m series.
"""

from __future__ import annotations

import numpy as np

from . import jets


class FitError(ValueError):
    """An adaptive periodic fit ran out of nodes before its residual check passed."""


def refine(attempt, period, nodes, max_nodes):
    """Double the node count from nodes until attempt's residual check passes.

    attempt(xs, probe) receives the n uniform nodes over one period and the
    n midpoints between them (where interpolation error is largest) and
    returns (result, residual, bound); refine returns the first result whose
    residual is at most bound, and raises FitError once the next doubling
    would exceed max_nodes.  The probes are computed as the odd nodes of the
    2n grid, so after a doubling the nodes are exactly the previous nodes
    (even positions) interleaved with the previous probes (odd positions),
    bit for bit; an attempt may reuse its samples there.
    """
    n = int(nodes)
    while True:
        xs = np.arange(n) * (period / n)
        result, residual, bound = attempt(xs, np.arange(1, 2 * n, 2) * (period / (2 * n)))
        if residual <= bound:
            return result
        if 2 * n > max_nodes:
            raise FitError(f"periodic fit residual {residual:.3g} above {bound:.3g} at {n} nodes")
        n *= 2


class TrigSeries:
    """sum_k a_k cos(k w x) + b_k sin(k w x) with w = 2 pi / period.

    The coefficient arrays have shape (K,) for a scalar series or (K, m) for
    m series; evaluation at points of shape s returns shape s or s + (m,).
    """

    def __init__(self, cos_coeffs, sin_coeffs, period):
        self.cos_coeffs = np.asarray(cos_coeffs, dtype=float)
        self.sin_coeffs = np.asarray(sin_coeffs, dtype=float)
        self.period = float(period)
        self.omega = 2.0 * np.pi / self.period
        self._k = np.arange(len(self.cos_coeffs))

    @classmethod
    def fit(cls, fn, period, nodes=64, tol=1e-11, max_nodes=4096):
        """Interpolate fn at uniform nodes, doubling until off-node residuals pass.

        fn maps a numpy array of n sample points to n values, shape (n,) or
        (n, m).  Each of the m rows passes when its largest midpoint error is
        at most tol * max(1, max |row|).  After a doubling the node samples
        are the previous node and midpoint samples interleaved, so fn is
        called only on the new midpoints: a fit that stops at 2n nodes calls
        fn on 4n points.  The result records its node count in .nodes and
        the worst scaled residual in .residual.
        """
        samples = []  # [node values, midpoint values] of the previous attempt

        def attempt(xs, probe):
            if samples:
                vals = np.empty((len(xs),) + samples[0].shape[1:])
                vals[0::2], vals[1::2] = samples
            else:
                vals = np.asarray(fn(xs), dtype=float)
            probe_vals = np.asarray(fn(probe), dtype=float)
            samples[:] = vals, probe_vals
            series = cls.from_samples(vals, period)
            scale = np.maximum(1.0, np.max(np.abs(vals), axis=0))
            err = np.max(np.abs(series(probe) - probe_vals), axis=0)
            series.residual = float(np.max(err / scale))
            return series, series.residual, tol

        return refine(attempt, period, nodes, max_nodes)

    @classmethod
    def from_samples(cls, values, period):
        """The interpolant through samples at n uniform nodes; n is kept in .nodes."""
        vals = np.asarray(values, dtype=float)
        n = len(vals)
        spec = np.fft.rfft(vals, axis=0) / n
        cos_c = 2.0 * spec.real
        sin_c = -2.0 * spec.imag
        cos_c[0] /= 2.0
        if n % 2 == 0:
            cos_c[-1] /= 2.0
        series = cls(cos_c, sin_c, period)
        series.nodes = n
        return series

    def _table(self, x):
        """The cos and sin tables of the harmonics at x, shape s + (K,)."""
        t = self.omega * np.multiply.outer(np.asarray(x, dtype=float), self._k)
        return np.cos(t), np.sin(t)

    def _apply(self, table):
        cos_t, sin_t = table
        return cos_t @ self.cos_coeffs + sin_t @ self.sin_coeffs

    def derivative(self):
        k = (self._k * self.omega).reshape((-1,) + (1,) * (self.cos_coeffs.ndim - 1))
        return TrigSeries(self.sin_coeffs * k, -self.cos_coeffs * k, self.period)

    def mean(self):
        """The mean over one period (per row); period * mean() is the exact integral."""
        return self.cos_coeffs[0].copy()

    def __call__(self, x):
        if not isinstance(x, jets.Jet):
            return self._apply(self._table(x))
        # every derivative shares the harmonics of the same point: one table
        table = self._table(x.value)
        series = self
        derivs = [series._apply(table)]
        for _ in range(x.order):
            series = series.derivative()
            derivs.append(series._apply(table))
        return x.compose_univariate(derivs)

    def columns(self, x):
        """The m series of a vector series at x, as a list of m values.

        One evaluation serves every series: one harmonic table, one
        derivative stack and, at a jet x, one composition, whose vector
        coefficients are then split.  At a float x the values are floats, at
        an array x arrays of its shape, at a jet x jets.
        """
        v = self(x)
        if isinstance(v, jets.Jet):
            return v.unstack()
        return v.tolist() if v.ndim == 1 else list(np.moveaxis(v, -1, 0))
