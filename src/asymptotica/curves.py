"""Space curves with jet evaluation, adapted frames, finite-type symbols,
and the starlike test for plane projections.

The frame attached to a curve gamma is X = gamma', Y = (gamma2', -gamma1', 0),
Z = X ^ Y.  It only needs the horizontal projection of the tangent to be
nonzero, so the curve may have inflections.

finite_type_symbol reads derivatives up to SYMBOL_MAX_ORDER; its numeric
rank test drops singular values below RANK_TOL times the largest, and the
starlike test merges projected samples closer than DEDUPE_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import jets
from .exprlang import compile_function

_CLOSED_TOL = 1e-12
SYMBOL_MAX_ORDER = 9  # the highest derivative order finite_type_symbol reads
RANK_TOL = 1e-9  # the numeric rank test's relative singular-value threshold
DEDUPE_TOL = 1e-12  # is_starlike_projection merges samples closer than this


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
    def from_series(cls, coefficient_lists):
        """Polynomial local model with exact rational coefficients on (-1, 1),
        not closed.

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

        return cls([make(c) for c in coefficient_lists], (-1, 1))

    @property
    def period(self):
        return self.interval[1] - self.interval[0]

    def _check_closed(self):
        """gamma(s) = gamma(s + period) at 32 points s over one period, all 64
        points as one array evaluation.  Where that evaluation raises, sets a
        floating-point flag or meets a non-finite value, the points are checked
        one by one in order, so the verdict and any domain error are those of
        scalar evaluation."""
        x0, l = float(self.interval[0]), float(self.period)
        s = x0 + l * np.arange(32) / 32.0
        ends = np.empty((3, 64))  # a row per component, gamma(s) then gamma(s + period)
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                for row, v in zip(ends, self.jet(np.concatenate([s, s + l]), 0)[0]):
                    row[...] = v
            pairs = [(ends[:, :32], ends[:, 32:])] if np.isfinite(ends).all() else None
        except Exception:
            pairs = None
        for p0, p1 in pairs or ((self.point(t), self.point(t + l)) for t in s.tolist()):
            if (np.abs(p0 - p1).max(axis=0) > _CLOSED_TOL * np.maximum(1.0, np.abs(p0).max(axis=0))).any():
                raise CurveError("curve marked closed but gamma(x) != gamma(x + period)")

    # -- evaluation --------------------------------------------------------

    def jet(self, t, k):
        """Derivative vectors gamma, gamma', ..., gamma^(k) at t.

        t may be a float, a Fraction, a numpy array or a Jet.  Each component
        is evaluated once, on a univariate Taylor seed of order k (plus, when
        t is a jet, the composition order of t: 1 for the x seed of a table
        linear in x), and every derivative is read off that one expansion; for
        a jet t the derivatives are composed back with t.
        """
        q = t.composition_order if isinstance(t, jets.Jet) else 0
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


def finite_type_symbol(curve, x):
    """The symbol {1, m, n} of the curve at x.

    m is the least k with span{gamma', ..., gamma^(k)} of dimension 2, n the
    least k reaching dimension 3, both at most SYMBOL_MAX_ORDER.  Rank is
    measured exactly when the derivatives are rational, otherwise by SVD
    with the RANK_TOL threshold after row normalization.
    """
    try:
        xq = x if isinstance(x, Fraction) else Fraction(x).limit_denominator(10**12)
        exact = abs(float(xq) - float(x)) == 0.0
    except (TypeError, ValueError):
        exact = False
    rows = curve.jet(xq if exact else x, SYMBOL_MAX_ORDER)[1:]
    # component functions that are not rational at this point give float rows
    exact = exact and all(isinstance(v, (int, Fraction)) for row in rows for v in row)
    return _symbol(rows, _rank_exact if exact else _rank_numeric, x)


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


def _rank_numeric(rows):
    mat = []
    for row in rows:
        a = np.array(row, dtype=float)
        norm = np.linalg.norm(a)
        if norm > 0:
            mat.append(a / norm)
    if not mat:
        return 0
    s = np.linalg.svd(np.array(mat), compute_uv=False)
    return int(np.sum(s > RANK_TOL * s[0])) if s[0] > 0 else 0


# -- starlike projection -----------------------------------------------------


def is_starlike_projection(curve, samples=256):
    """Whether the projection of a closed curve to {z = 0} bounds a starlike set.

    Returns (flag, witness): witness is a star point of the kernel when the
    projection is starlike, else None.  The projection is approximated by a
    polygon at the given sampling density and its kernel computed by clipping
    with the half-plane of every edge.  The polygon's angle about the kernel's
    centroid rises along every edge, so a winding number of +-1 proves it simple
    (else NotSimple).  A kernel that is empty or has no area (its centroid may
    lie on an edge's line) takes the O(n^2) simplicity test instead.
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
    kernel = polygon_kernel(pts)
    flat = kernel is None or _area2(kernel) <= 0
    if flat and not _is_simple_polygon(pts):
        raise NotSimple("projected polygon self-intersects")
    if kernel is None:
        return False, None
    witness = (sum(p[0] for p in kernel) / len(kernel), sum(p[1] for p in kernel) / len(kernel))
    if not flat and abs(_winding(pts, witness)) != 1:
        raise NotSimple("projected polygon self-intersects")
    return True, witness


def _area2(pts):
    """Twice the signed area of a polygon (positive counter-clockwise)."""
    return sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(pts, pts[1:] + pts[:1]))


def _winding(pts, c):
    """The winding number of a closed polygon about a point c off it."""
    z = np.array([complex(*p) for p in pts]) - complex(*c)
    return round(float(np.sum(np.angle(np.roll(z, -1) / z))) / (2 * math.pi))


def _dedupe(pts):
    out = [pts[0]]
    for p in pts[1:]:
        q = out[-1]
        if abs(p[0] - q[0]) > DEDUPE_TOL or abs(p[1] - q[1]) > DEDUPE_TOL:
            out.append(p)
    first, last = out[0], out[-1]
    if len(out) > 1 and abs(first[0] - last[0]) <= DEDUPE_TOL and abs(first[1] - last[1]) <= DEDUPE_TOL:
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
    if _area2(pts) < 0:
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
