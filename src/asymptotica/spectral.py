"""Trigonometric interpolation of smooth periodic functions of one variable.

A TrigSeries stores the Fourier coefficients obtained from samples at N
uniform nodes over one period.  Samples of shape (N,) give a scalar series;
samples of shape (N, m) give m series that share nodes and are evaluated
together.  For trigonometric polynomials of degree < N/2 the interpolant is
exact; for other analytic periodic functions the node count is doubled until
an off-node residual check passes (refine), so the error is spectrally small;
fit samples once per level, stops at the first non-finite sample, checks its
midpoints through the FFT and keeps only the K' harmonics its samples
validated (within twice the whole interpolant's own error at the nodes and
midpoints), so an evaluation costs O(K').
Series evaluate on floats, numpy arrays, and jets (through univariate
Taylor recomposition); columns splits the value of a vector series into its
m series.
"""

from __future__ import annotations

import functools

import numpy as np

from . import jets


class FitError(ValueError):
    """An adaptive periodic fit met a non-finite sample or ran out of nodes."""


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
        self._derivative = None

    @classmethod
    def fit(cls, fn, period, nodes=64, tol=1e-11, max_nodes=4096):
        """Interpolate fn at uniform nodes, doubling until off-node residuals pass.

        fn maps a numpy array of n sample points to n values, shape (n,) or
        (n, m).  Each of the m rows passes when its largest midpoint error is
        at most tol * max(1, max |row|).  fn is called once per level: on the
        n nodes and n midpoints together, then, since the doubled nodes are
        the previous nodes and midpoints interleaved, on the new midpoints
        only; a fit that stops at 2n nodes calls fn on 4n points in two calls.
        A non-finite sample raises FitError at once, naming the least such x.
        The interpolant's values at the nodes and at the midpoints come from its
        spectrum, the midpoints' shifted by half a node (an inverse FFT each, no
        harmonic table).  At a level that passes, the result keeps only the
        harmonics the samples validated: with e the whole interpolant's worst
        scaled error on the 2n points, K' harmonics whose series is within
        min(tol, 2e) of every sample there, K' - 1 not: the count whose dropped
        root mean square exceeds min(tol, 2e) + e (fewer cannot pass) when it
        passes, as at rounding level, else by bisection between that count and
        the count whose dropped tail, the sum of |a_k| + |b_k| over k >= K'
        scaled as the check scales, stays within min(tol, 2e) - e (it passes).
        The mean always stays.  What the chop drops is then at most 3e on the
        2n points (within sqrt 2 of that anywhere, a trigonometric polynomial
        of degree n/2 at most), and the kept series still passes the check.
        It records its node count in .nodes and the worst scaled midpoint
        residual of the kept series in .residual.
        """
        samples = []  # [node values, midpoint values] of the previous attempt

        def attempt(xs, probe):
            pts = probe if samples else np.concatenate([xs, probe])  # one fn call per level
            new = np.asarray(fn(pts), dtype=float)
            bad = ~np.isfinite(new).reshape(len(pts), -1).all(axis=1)
            if bad.any():
                raise FitError(f"periodic fit sample not finite at x = {float(np.min(pts[bad]))}")
            vals, probe_vals = np.split(new, [len(pts) - len(probe)])
            if samples:
                vals = np.empty((len(xs),) + new.shape[1:])
                vals[0::2], vals[1::2] = samples
            samples[:] = vals, probe_vals
            full = cls.from_samples(vals, period)
            n, harmonics = len(xs), len(full.cos_coeffs)
            scale = np.maximum(1.0, np.max(np.abs(vals), axis=0))
            # the interpolant at the nodes is its spectrum's inverse FFT; at the midpoints, that
            # of its spectrum shifted by half a node, e^(i pi k / n)
            spectrum = np.fft.rfft(vals, axis=0)
            shift = np.exp(1j * np.pi / n * np.arange(harmonics)).reshape((-1,) + (1,) * (vals.ndim - 1))
            spectra = (spectrum * shift, probe_vals), (spectrum, vals)

            @functools.cache
            def error(k, at):  # the worst row's scaled error of the first k harmonics at the midpoints (0), nodes (1)
                s, v = spectra[at]
                return float(np.max(np.max(np.abs(np.fft.irfft(s[:k], n, axis=0) - v), axis=0) / scale))

            keep = harmonics
            if error(keep, 0) <= tol:
                e = max(error(keep, 0), error(keep, 1))
                bound = min(tol, 2 * e)
                a, b = (np.abs(c / scale).reshape(harmonics, -1) for c in (full.cos_coeffs, full.sin_coeffs))

                def tail(t):  # the worst row's sum of t over the harmonics k and up, for each k
                    return np.max(np.cumsum(t[::-1], axis=0)[::-1], axis=1)

                def passes(k):
                    return error(k, 0) <= bound and error(k, 1) <= bound

                # dropping the harmonics k and up moves the series by at most tail(a + b)[k] at any
                # x, and by at least sqrt(tail((a^2 + b^2) / 2)[k]), their root mean square, at one
                # of the 2n points: fewer harmonics than lo cannot pass, keep can
                lo = max(1, int(np.count_nonzero(np.sqrt(tail((a * a + b * b) / 2)) > bound + e)))
                keep = lo if passes(lo) else max(1, int(np.count_nonzero(tail(a + b) > bound - e)))
                while lo < keep:
                    mid = (lo + keep) // 2
                    lo, keep = (lo, mid) if passes(mid) else (mid + 1, keep)
            residual = error(keep, 0)
            series = cls(full.cos_coeffs[:keep], full.sin_coeffs[:keep], period)
            series.nodes, series.residual = n, residual
            return series, residual, tol

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
        """The cos and sin tables of the harmonics at x, shape s + (K,): the
        real and imaginary views of z^k, k = 0..K-1, z = exp(i t), t = w x, as
        one in-place running product.  z is within eps/sqrt(2) of e^(it) and each
        product adds sqrt(5)/2 eps, so entry k is within about 2 k eps of
        cos(k t) and sin(k t) for any |x|; cos(w k x) can be off by eps |w k x|."""
        x = np.asarray(x, dtype=float)
        z = np.empty(x.shape + self._k.shape, dtype=complex)
        z[...] = np.exp(1j * self.omega * x)[..., None]
        z[..., 0] = 1.0
        np.multiply.accumulate(z, axis=-1, out=z)
        return z.real, z.imag

    def _apply(self, table):
        cos_t, sin_t = table
        return cos_t @ self.cos_coeffs + sin_t @ self.sin_coeffs

    def derivative(self):
        """The derivative series, built on the first call and kept."""
        if self._derivative is None:
            k = (self._k * self.omega).reshape((-1,) + (1,) * (self.cos_coeffs.ndim - 1))
            self._derivative = TrigSeries(self.sin_coeffs * k, -self.cos_coeffs * k, self.period)
        return self._derivative

    def mean(self):
        """The mean over one period (per row); period * mean() is the exact integral."""
        return self.cos_coeffs[0].copy()

    def __call__(self, x):
        if not isinstance(x, jets.Jet):
            return self._apply(self._table(x))
        # every derivative shares the harmonics of the same point: one table,
        # freed before the composition
        table = jets.opaque(self._table, x.value)
        series = self
        derivs = [jets.opaque(series._apply, table)]
        for _ in range(x.composition_order):
            series = series.derivative()
            derivs.append(jets.opaque(series._apply, table))
        del table
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
