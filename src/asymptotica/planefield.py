"""Ambient plane fields: vector fields xi on R^3 whose orthogonal planes form
the distribution.  Provides normal curvature, the Jacobi integrability defect
<xi, curl xi>, gauge rescaling, and the explicit circle example field.
"""

from __future__ import annotations

import numpy as np

from . import exprlang, jets
from .exprlang import BinOp, parse, to_source

PLANE_TOL = 1e-9  # normal_curvature: |<xi, dr>| <= PLANE_TOL |xi| |dr| lies in the plane
GAUGE_PROBES = np.linspace(-1, 1, 10)  # gauge_scale probes phi on this lattice per axis


class FieldError(Exception):
    pass


class AmbientField:
    """A vector field given by three expressions in the variables x, y, z."""

    def __init__(self, sources, name=None):
        if len(sources) != 3:
            raise FieldError("an ambient field needs exactly three components")
        self.sources = tuple(str(s) for s in sources)
        self.exprs = tuple(parse(s) for s in self.sources)
        self._fns = tuple(exprlang.compile_expr(e, ("x", "y", "z")) for e in self.exprs)
        self.name = name

    def components(self, x, y, z):
        """Evaluate the three components over whatever ring the inputs live in."""
        return tuple(fn(x, y, z) for fn in self._fns)

    def evaluate(self, p):
        v = np.array([float(c) for c in self.components(*p)], dtype=float)
        if np.allclose(v, 0.0, atol=1e-300):
            raise FieldError(f"field vanishes at {tuple(p)}")
        return v

    def jacobian(self, p):
        xj, yj, zj = jets.seed((float(p[0]), float(p[1]), float(p[2])), 1)
        comps = self.components(xj, yj, zj)
        J = np.zeros((3, 3))
        for i, c in enumerate(comps):
            if isinstance(c, jets.Jet):
                J[i, 0] = c.deriv(1, 0, 0)
                J[i, 1] = c.deriv(0, 1, 0)
                J[i, 2] = c.deriv(0, 0, 1)
        return J

    curve_order = 1  # chart_components reads only alpha, built from gamma and gamma'

    def chart_components(self, point):
        """Components of xi at a tubular.ChartPoint, from its alpha (used by tubular)."""
        return self.components(*point.alpha)

    def __repr__(self):
        return f"AmbientField({list(self.sources)!r})"


def normal_curvature(field, p, dr):
    """k_n = -<dxi(p) dr, dr> / <dr, dr> for a direction dr in the plane at p;
    an off-plane direction raises FieldError."""
    dr = np.asarray(dr, dtype=float)
    norm = np.linalg.norm(dr)
    if norm == 0:
        raise FieldError("zero direction")
    xi = field.evaluate(p)
    if abs(np.dot(xi, dr)) > PLANE_TOL * np.linalg.norm(xi) * norm:
        raise FieldError("direction does not lie in the plane of the distribution")
    J = field.jacobian(p)
    return -float(np.dot(J @ dr, dr) / np.dot(dr, dr))


def integrability_defect(field, p):
    """<xi, curl xi> at p; identically zero iff the field is completely integrable."""
    xi = np.array([float(c) for c in field.components(*[float(v) for v in p])])
    J = field.jacobian(p)
    curl = np.array([J[2, 1] - J[1, 2], J[0, 2] - J[2, 0], J[1, 0] - J[0, 1]])
    return float(np.dot(xi, curl))


def gauge_scale(field, phi_source):
    """The field phi * xi for a nonvanishing scalar phi(x, y, z).

    Nonvanishing is checked by probing the GAUGE_PROBES lattice of [-1, 1]^3.
    """
    phi = parse(str(phi_source))
    phi_fn = exprlang.compile_expr(phi, ("x", "y", "z"))
    for x in GAUGE_PROBES:
        for y in GAUGE_PROBES:
            for z in GAUGE_PROBES:
                v = phi_fn(float(x), float(y), float(z))
                if v == 0:
                    raise FieldError(f"gauge function vanishes at ({x}, {y}, {z})")
    scaled = [to_source(BinOp("*", phi, e)) for e in field.exprs]
    name = f"{field.name}*gauge" if field.name else None
    return AmbientField(scaled, name=name)


def circle_example_field():
    """The explicit polynomial field for which the unit circle in {z = 0} is a
    parabolic-free asymptotic line even though the field is not integrable."""
    rho = "x^2*y*z + y^3*z - x^2*y - y^3 + x*z - 2*y*z + y"
    varrho = "x^3 - x^3*z - x*y^2*z + x*y^2 + 2*x*z + y*z - x"
    sigma = "-x^2 - y^2"
    return AmbientField((rho, varrho, sigma), name="circle-example")
