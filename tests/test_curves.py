import math
from fractions import Fraction

import numpy as np
import pytest

from asymptotica import curves
from asymptotica.jets import Jet
from asymptotica.tubular import TubularChart
from asymptotica.curves import (
    Curve,
    CurveError,
    NotFiniteType,
    NotSimple,
    finite_type_symbol,
    finite_type_symbol_numeric,
    is_starlike_projection,
)


def trig_cubic_curve():
    return Curve.from_expressions(
        ("sin(x)", "cos(x)", "sin(x)^3"), (0, 2 * math.pi), closed=True
    )


def circle_curve():
    return Curve.from_expressions(("cos(x)", "sin(x)", "0*x"), (0, 2 * math.pi), closed=True)


def test_jet_of_trig_cubic_at_zero():
    c = trig_cubic_curve()
    j = c.jet(0.0, 2)
    assert j[0] == pytest.approx([0.0, 1.0, 0.0])
    assert j[1] == pytest.approx([1.0, 0.0, 0.0])
    assert j[2] == pytest.approx([0.0, -1.0, 0.0])


def test_jet_at_a_jet_argument():
    # every derivative order comes from one expansion, composed with the jet t
    c = trig_cubic_curve()
    g, d1 = c.jet(Jet.variable(0.3, 0, 1, 2), 1)
    assert g[0].deriv(1) == pytest.approx(math.cos(0.3))
    assert g[0].deriv(2) == pytest.approx(-math.sin(0.3))
    assert d1[0].deriv(1) == pytest.approx(-math.sin(0.3))
    assert d1[2].value == pytest.approx(3 * math.sin(0.3) ** 2 * math.cos(0.3))
    exact = Curve.from_series([[0, 1], [0, 0, 1], [0, 0, 0, 1]]).jet(Fraction(1, 2), 3)
    assert exact[3] == [0, 0, 6]
    assert exact[1] == [1, 1, Fraction(3, 4)]


def test_frame_of_trig_cubic_at_zero():
    _, X, Y, Z = trig_cubic_curve().frame_vectors(0.0)
    assert X == pytest.approx([1.0, 0.0, 0.0])
    assert Y == pytest.approx([0.0, -1.0, 0.0])
    assert Z == pytest.approx([0.0, 0.0, -1.0])


def test_frame_derivatives_match_finite_differences():
    # the frame at a jet seed carries its derivative as the order-1 coefficient
    c = trig_cubic_curve()
    h = 1e-6
    for x0 in (0.3, 1.1, 4.0):
        _, *frame = c.frame_vectors(Jet.variable(x0, 0, 1, 1))
        _, *plus = c.frame_vectors(x0 + h)
        _, *minus = c.frame_vectors(x0 - h)
        for vector, vp, vm in zip(frame, plus, minus):
            derivative = [v.coefficient((1,)) if isinstance(v, Jet) else 0.0 for v in vector]
            fd = (np.array(vp, dtype=float) - np.array(vm, dtype=float)) / (2 * h)
            assert np.allclose(derivative, fd, atol=1e-6)


def test_closed_flag_checked():
    with pytest.raises(CurveError):
        Curve.from_expressions(("x", "0*x", "0*x"), (0, 1), closed=True)


def test_symbol_generic_point_is_123():
    sym = finite_type_symbol(trig_cubic_curve(), 0.7)
    assert tuple(sym) == (1, 2, 3)
    assert sym.rotating


def test_symbol_of_local_model_x_x2_x3():
    c = Curve.from_series([[0, 1], [0, 0, 1], [0, 0, 0, 1]])
    sym = finite_type_symbol(c, Fraction(0))
    assert (sym.m, sym.n) == (2, 3)
    assert sym.rotating


def test_symbol_of_local_model_x_x2_x4_not_rotating():
    c = Curve.from_series([[0, 1], [0, 0, 1], [0, 0, 0, 0, 1]])
    sym = finite_type_symbol(c, Fraction(0))
    assert (sym.m, sym.n) == (2, 4)
    assert not sym.rotating


def test_symbol_of_local_model_x_x3_x5():
    c = Curve.from_series([[0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 0, 1]])
    sym = finite_type_symbol(c, Fraction(0))
    assert (sym.m, sym.n) == (3, 5)


def test_planar_curve_is_not_finite_type():
    c = Curve.from_expressions(("cos(x)", "sin(x)", "0*x"), (0, 2 * math.pi), closed=True)
    with pytest.raises(NotFiniteType):
        finite_type_symbol(c, 0.2)


def test_numeric_symbol_agrees_with_exact():
    c = Curve.from_series([[0, 1], [0, 0, 1], [0, 0, 0, 1]])
    s_exact = finite_type_symbol(c, Fraction(0))
    s_num = finite_type_symbol_numeric(c, 0.0)
    assert (s_exact.m, s_exact.n) == (s_num.m, s_num.n)


def test_starlike_circle():
    ok, witness = is_starlike_projection(circle_curve())
    assert ok
    assert witness == pytest.approx((0.0, 0.0), abs=1e-9)


def test_starlike_invariant_under_reparametrization():
    fast = Curve.from_expressions(
        ("cos(2*x)", "sin(2*x)", "0*x"), (0, math.pi), closed=True
    )
    ok, _ = is_starlike_projection(fast)
    assert ok


def test_convex_polygonish_curve_is_starlike():
    # an ellipse projection: convex, so the kernel is the whole interior
    c = Curve.from_expressions(
        ("3*cos(x)", "sin(x)", "sin(x)^3"), (0, 2 * math.pi), closed=True
    )
    ok, witness = is_starlike_projection(c)
    assert ok and witness is not None


def polygon_curve(vertices):
    """Closed piecewise-linear curve in {z = 0} through the given 2D vertices."""
    verts = [tuple(map(float, v)) for v in vertices]
    n = len(verts)

    def component(i):
        def fn(t):
            s = (float(t) % 1.0) * n
            k = int(s) % n
            lam = s - int(s)
            a, b = verts[k], verts[(k + 1) % n]
            return (1 - lam) * a[i] + lam * b[i] if i < 2 else 0.0

        return fn

    return Curve([component(0), component(1), component(2)], (0, 1), closed=True)


def test_polar_graph_with_deep_notches_still_starlike():
    # every polar graph r(theta) > 0 is starlike about the origin, however
    # non-convex it looks
    c = Curve.from_expressions(
        (
            "(1 + 6/10*cos(4*x)) * cos(x)",
            "(1 + 6/10*cos(4*x)) * sin(x)",
            "0*x",
        ),
        (0, 2 * math.pi),
        closed=True,
    )
    ok, _ = is_starlike_projection(c)
    assert ok


def test_u_shape_polygon_not_starlike():
    # horseshoe: the two inner arm walls face away from each other, so the
    # half-plane intersection is empty
    u = polygon_curve(
        [(3, 0), (3, 4), (2, 4), (2, 1), (-2, 1), (-2, 4), (-3, 4), (-3, 0)]
    )
    ok, witness = is_starlike_projection(u, samples=64)
    assert not ok and witness is None


def test_random_convex_polygons_starlike(seeds):
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for _ in range(17):
            k = int(rng.integers(4, 10))
            angles = np.sort(rng.uniform(0, 2 * math.pi, k))
            if np.min(np.diff(angles)) < 1e-3:
                continue
            r = float(rng.uniform(0.5, 3.0))
            verts = [(r * math.cos(a), r * math.sin(a)) for a in angles]
            # sample exactly at the vertices: oversampling an edge puts many
            # collinear points on the polygon, which the crossing test treats
            # as degenerate
            ok, witness = is_starlike_projection(polygon_curve(verts), samples=k)
            assert ok and witness is not None


def test_self_intersecting_projection_rejected():
    fig8 = Curve.from_expressions(
        ("sin(2*x)", "sin(x)", "0*x"), (0, 2 * math.pi), closed=True
    )
    with pytest.raises(NotSimple):
        is_starlike_projection(fig8)


def test_starlike_needs_closed_curve():
    arc = Curve.from_expressions(("cos(x)", "sin(x)", "0*x"), (0, 1))
    with pytest.raises(CurveError):
        is_starlike_projection(arc)


def test_component_derivatives_match_jets(seeds):
    c = trig_cubic_curve()
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for _ in range(20):
            x0 = float(rng.uniform(0, 2 * math.pi))
            h = 1e-5
            for i in range(3):
                d = c.component(i, x0, 1)
                fd = (c.component(i, x0 + h) - c.component(i, x0 - h)) / (2 * h)
                assert abs(d - fd) < 1e-8


def test_frame_vectors_consistent_with_frame():
    # the chart's one curve expansion builds the same point and frame
    c = trig_cubic_curve()
    g, X, Y, Z = c.frame_vectors(0.9)
    point = TubularChart(c).expand(0.9, 0.0, 0.0)
    assert np.allclose(np.array(g, dtype=float), np.array(point.alpha, dtype=float))
    for got, want in zip((X, Y, Z), point.frame):
        assert np.allclose(np.array(got, dtype=float), np.array(want, dtype=float))
