"""Space curves with jet evaluation, adapted frames, finite-type symbols,
and the starlike test for plane projections.

The frame attached to a curve gamma is X = gamma', Y = (gamma2', -gamma1', 0),
Z = X ^ Y.  It only needs the horizontal projection of the tangent to be
nonzero, so the curve may have inflections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import jets
from .exprlang import compile_function, parse, to_source

_CLOSED_TOL = 1e-12


class CurveError(Exception):
    pass


class NotFiniteType(CurveError):
    """Derivatives up to the requested order never span all of R^3."""


class NotSimple(CurveError):
    """The plane projection self-intersects; the starlike test needs a simple curve."""


@dataclass(frozen=True)
class TypeSymbol:
    m: int
    n: int

    @property
    def rotating(self):
        return self.n == self.m + 1

    def __iter__(self):
        return iter((1, self.m, self.n))


class Curve:
    """A space curve given by three scalar functions of one parameter.

    The component functions are ring-generic callables: they accept floats,
    Fractions, or jets, so one definition serves plain evaluation, exact
    rational evaluation (polynomial curves at rational points), and
    derivative evaluation of any order.
    """

    def __init__(self, component_fns, interval, closed=False, name=None):
        if len(component_fns) != 3:
            raise CurveError("a space curve needs exactly three components")
        self._fns = tuple(component_fns)
        self.interval = (interval[0], interval[1])
        self.closed = bool(closed)
        self.name = name
        if self.closed:
            self._check_closed()

    @classmethod
    def from_expressions(cls, sources, interval, closed=False, name=None):
        fns = [compile_function(src, "x") for src in sources]
        return cls(fns, interval, closed=closed, name=name)

    @classmethod
    def from_series(cls, coefficient_lists, interval=(-1, 1), closed=False, name=None):
        """Polynomial local model with exact rational coefficients.

        Each component is given as its list of Taylor coefficients at 0.
        """

        def make(coeffs):
            coeffs = [Fraction(c) for c in coeffs]

            def fn(t):
                acc = 0
                for c in reversed(coeffs):
                    acc = acc * t + c
                return acc

            return fn

        fns = [make(c) for c in coefficient_lists]
        return cls(fns, interval, closed=closed, name=name)

    @property
    def period(self):
        return self.interval[1] - self.interval[0]

    def _check_closed(self):
        x0 = float(self.interval[0])
        l = float(self.period)
        for i in range(32):
            s = x0 + l * i / 32.0
            p0 = self.point(s)
            p1 = self.point(s + l)
            if np.max(np.abs(p0 - p1)) > _CLOSED_TOL * max(1.0, np.max(np.abs(p0))):
                raise CurveError("curve marked closed but gamma(x) != gamma(x + period)")

    # -- evaluation --------------------------------------------------------

    def jet(self, t, k):
        """Derivative vectors gamma, gamma', ..., gamma^(k) at t.

        t may be a float, a Fraction, a numpy array or a Jet.  Each component
        is evaluated once, on a univariate Taylor seed of order k (plus the
        order of t when t is a jet), and every derivative is read off that one
        expansion; for a jet t the derivatives are composed back with t.
        """
        q = t.order if isinstance(t, jets.Jet) else 0
        # a plain t is its own seed of order 0, so plain evaluation needs no jets
        plain = k == 0 and not isinstance(t, jets.Jet)
        u = t if plain else jets.Jet.variable(jets.value_of(t), 0, 1, q + k)
        out = [[None] * 3 for _ in range(k + 1)]
        for i, fn in enumerate(self._fns):
            v = fn(u)
            if isinstance(v, jets.Jet):
                c = [v.coefficient((n,)) for n in range(q + k + 1)]
            else:
                c = [v] + [0 * v] * (q + k)
            for j in range(k + 1):
                # Taylor coefficients of gamma_i^(j) at the value of t
                s = [c[n + j] * math.perm(n + j, j) for n in range(q + 1)]
                out[j][i] = t._compose_scaled(s) if isinstance(t, jets.Jet) else s[0]
        return out

    def component(self, i, t, k=0):
        """gamma_i^(k) at t; t may be a float, Fraction, or Jet."""
        return self.jet(t, k)[k][i]

    def point(self, t):
        return np.array([float(v) for v in self.jet(t, 0)[0]])

    def frame_vectors(self, t):
        """(gamma, X, Y, Z) at t as tuples of ring elements (jets stay jets)."""
        g, d1 = self.jet(t, 1)
        return (tuple(g), *adapted_frame(d1))


def adapted_frame(d1):
    """The frame (X, Y, Z) = (gamma', (gamma2', -gamma1', 0), X ^ Y) from d1 = gamma'.

    Ring-generic and unnormalized; a jet d1 carries the frame's derivatives.
    """
    Y = (d1[1], -d1[0], 0)
    return tuple(d1), Y, jets.cross(d1, Y)


# -- finite type symbol ------------------------------------------------------


def finite_type_symbol(curve, x, max_order=9):
    """The symbol {1, m, n} of the curve at x.

    m is the least k with span{gamma', ..., gamma^(k)} of dimension 2, n the
    least k reaching dimension 3.  Rank is measured exactly when the
    derivatives are rational, otherwise by SVD with a 1e-9 threshold after
    row normalization.
    """
    try:
        xq = x if isinstance(x, Fraction) else Fraction(x).limit_denominator(10**12)
        exact = abs(float(xq) - float(x)) == 0.0
    except (TypeError, ValueError):
        exact = False
    rows = curve.jet(xq if exact else x, max_order)[1:]
    # component functions that are not rational at this point give float rows
    exact = exact and all(isinstance(v, (int, Fraction)) for row in rows for v in row)
    return _symbol(rows, _rank_exact if exact else _rank_numeric, x)


def finite_type_symbol_numeric(curve, x, max_order=9):
    """The symbol with the SVD rank test at float(x), even for rational curves."""
    return _symbol(curve.jet(float(x), max_order)[1:], _rank_numeric, x)


def _symbol(rows, rank, x):
    m = None
    for k in range(1, len(rows) + 1):
        r = rank(rows[:k])
        if k == 1 and r == 0:
            raise CurveError(f"curve is singular at x = {x}")
        if m is None and r >= 2:
            m = k
        if r == 3:
            return TypeSymbol(m=m, n=k)
    raise NotFiniteType(f"derivatives up to order {len(rows)} do not span R^3 at x = {x}")


def _rank_exact(rows):
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = 3
    used = [False] * len(mat)
    for col in range(ncols):
        pivot = None
        for r in range(len(mat)):
            if not used[r] and mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        used[pivot] = True
        rank += 1
        for r in range(len(mat)):
            if r != pivot and mat[r][col] != 0:
                factor = mat[r][col] / mat[pivot][col]
                for c in range(ncols):
                    mat[r][c] -= factor * mat[pivot][c]
    return rank


def _rank_numeric(rows, threshold=1e-9):
    mat = []
    for row in rows:
        a = np.array(row, dtype=float)
        norm = np.linalg.norm(a)
        if norm > 0:
            mat.append(a / norm)
    if not mat:
        return 0
    s = np.linalg.svd(np.array(mat), compute_uv=False)
    return int(np.sum(s > threshold * s[0])) if s[0] > 0 else 0


# -- starlike projection -----------------------------------------------------


def is_starlike_projection(curve, samples=256):
    """Whether the projection of a closed curve to {z = 0} bounds a starlike set.

    Returns (flag, witness): witness is a star point of the kernel when the
    projection is starlike, else None.  The projection is approximated by a
    polygon at the given sampling density and its kernel computed by clipping
    with the half-plane of every edge.
    """
    if not curve.closed:
        raise CurveError("starlike test needs a closed curve")
    x0, _ = curve.interval
    l = curve.period
    pts = []
    for i in range(samples):
        t = float(x0) + float(l) * i / samples
        p = curve.point(t)
        pts.append((p[0], p[1]))
    pts = _dedupe(pts)
    if len(pts) < 3:
        raise NotSimple("projection degenerates to fewer than three distinct points")
    if not _is_simple_polygon(pts):
        raise NotSimple("projected polygon self-intersects")
    kernel = polygon_kernel(pts)
    if kernel is None:
        return False, None
    cx = sum(p[0] for p in kernel) / len(kernel)
    cy = sum(p[1] for p in kernel) / len(kernel)
    return True, (cx, cy)


def _dedupe(pts, tol=1e-12):
    out = [pts[0]]
    for p in pts[1:]:
        q = out[-1]
        if abs(p[0] - q[0]) > tol or abs(p[1] - q[1]) > tol:
            out.append(p)
    if len(out) > 1 and abs(out[0][0] - out[-1][0]) <= tol and abs(out[0][1] - out[-1][1]) <= tol:
        out.pop()
    return out


def _segments_cross(p1, p2, p3, p4):
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def _is_simple_polygon(pts):
    n = len(pts)
    for i in range(n):
        a1, a2 = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or j == (i + 1) % n:
                continue
            b1, b2 = pts[j], pts[(j + 1) % n]
            if _segments_cross(a1, a2, b1, b2):
                return False
    return True


def polygon_kernel(pts):
    """Kernel of a simple polygon via successive half-plane clipping, or None."""
    area2 = sum(pts[i][0] * pts[(i + 1) % len(pts)][1] - pts[(i + 1) % len(pts)][0] * pts[i][1] for i in range(len(pts)))
    if area2 < 0:
        pts = list(reversed(pts))
    lo_x = min(p[0] for p in pts) - 1.0
    hi_x = max(p[0] for p in pts) + 1.0
    lo_y = min(p[1] for p in pts) - 1.0
    hi_y = max(p[1] for p in pts) + 1.0
    region = [(lo_x, lo_y), (hi_x, lo_y), (hi_x, hi_y), (lo_x, hi_y)]
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        region = _clip_halfplane(region, a, b)
        if not region:
            return None
    return region


def _clip_halfplane(poly, a, b):
    """Keep the part of poly on the left of directed line a -> b."""

    def side(p):
        return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])

    out = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        sp, sq = side(p), side(q)
        if sp >= 0:
            out.append(p)
        if (sp > 0 and sq < 0) or (sp < 0 and sq > 0):
            t = sp / (sp - sq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out if len(out) >= 3 else []
