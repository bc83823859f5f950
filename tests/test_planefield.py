import math

import numpy as np
import pytest

from asymptotica import flow, tubular
from asymptotica.curves import Curve
from asymptotica.planefield import (
    AmbientField,
    FieldError,
    circle_example_field,
    gauge_scale,
    integrability_defect,
    normal_curvature,
)


def contact_field():
    return AmbientField(("-y", "0*x", "1 + 0*x"))


def test_constant_field_zero_curvature():
    f = AmbientField(("0*x", "0*x", "1 + 0*x"))
    assert normal_curvature(f, (0.3, -0.5, 2.0), (1, 0, 0)) == 0.0


def test_contact_field_diagonal_direction():
    dr = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
    assert normal_curvature(contact_field(), (0, 0, 0), dr) == pytest.approx(0.5)


def test_circle_tangent_direction_zero_curvature():
    f = circle_example_field()
    assert normal_curvature(f, (1, 0, 0), (0, 1, 0)) == pytest.approx(0.0, abs=1e-12)


def test_off_plane_direction_rejected():
    with pytest.raises(FieldError):
        normal_curvature(contact_field(), (0, 0, 0), (0, 0, 1))


def test_zero_direction_rejected():
    with pytest.raises(FieldError):
        normal_curvature(contact_field(), (0, 0, 0), (0, 0, 0))


def test_curvature_homogeneous_in_direction(seeds):
    f = circle_example_field()
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for _ in range(15):
            p = rng.uniform(-1, 1, 3)
            try:
                xi = f.evaluate(p)
            except FieldError:
                continue
            dr = np.cross(xi, rng.uniform(-1, 1, 3))
            if np.linalg.norm(dr) < 1e-6:
                continue
            v1 = normal_curvature(f, p, dr)
            c = float(rng.uniform(0.1, 10))
            v2 = normal_curvature(f, p, c * dr)
            assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1))


def test_defect_constant_field():
    f = AmbientField(("0*x", "0*x", "1 + 0*x"))
    for p in [(0, 0, 0), (1, 2, 3), (-0.5, 0.1, 0.7)]:
        assert integrability_defect(f, p) == 0.0


def test_defect_contact_field_is_one():
    for p in [(0, 0, 0), (1, -1, 2), (0.3, 0.7, -0.2)]:
        assert integrability_defect(contact_field(), p) == pytest.approx(1.0)


def test_defect_circle_example():
    assert integrability_defect(circle_example_field(), (1, 0, 0)) == pytest.approx(-2.0)


def test_gradient_fields_have_zero_defect(seeds):
    # xi = grad g is integrable, so the defect vanishes identically
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for _ in range(4):
            c = rng.integers(-3, 4, 7)
            gx = f"{c[0]} + {c[1]}*y + {c[3]}*z + 2*{c[4]}*x + {c[6]}*y*z"
            gy = f"{c[1]}*x + {c[2]} + 2*{c[5]}*y + {c[6]}*x*z"
            gz = f"{c[3]}*x + {c[6]}*x*y + 1"
            f = AmbientField((gx, gy, gz))
            for _ in range(5):
                p = rng.uniform(-1, 1, 3)
                assert abs(integrability_defect(f, p)) <= 1e-9


def test_gauge_scale_by_two():
    g = gauge_scale(contact_field(), "2")
    v = np.array([float(c) for c in g.components(0.0, 3.0, 0.0)])
    assert v == pytest.approx([-6.0, 0.0, 2.0])


def test_gauge_scale_keeps_decimal_divisors():
    # the rebuilt components print 0.5 and 0.25 as decimals, not as 1/2 and 1/4 next to a division
    g = gauge_scale(AmbientField(("2/0.5", "x/0.25", "1")), "1")
    assert [float(c) for c in g.components(3.0, 0.0, 0.0)] == [4.0, 12.0, 1.0]


def test_gauge_vanishing_phi_rejected():
    with pytest.raises(FieldError):
        gauge_scale(contact_field(), "x - 1")


def test_gauge_minus_one_keeps_asymptotic_slopes():
    # slopes of the reduced quadratic are unchanged under xi -> -xi
    curve = Curve.from_expressions(("cos(x)", "sin(x)", "0*x"), (0, 2 * math.pi), closed=True)
    chart = tubular.TubularChart(curve)
    field = AmbientField(("z - y", "1 + 0*x", "1 + y*y"))
    flipped = gauge_scale(field, "-1")
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 50:
        x = float(rng.uniform(0, 2 * math.pi))
        y, z = rng.uniform(-0.05, 0.05, 2)
        d = tubular.chart_data(field, chart, x, y, z)
        e, f, g = d.value("e"), d.value("f"), d.value("g")
        s1, _ = flow.branch_slopes(e, f, g)
        if len(s1) != 2:
            continue
        d2 = tubular.chart_data(flipped, chart, x, y, z)
        e2, f2, g2 = d2.value("e"), d2.value("f"), d2.value("g")
        s2, _ = flow.branch_slopes(e2, f2, g2)
        assert sorted(s2) == pytest.approx(sorted(s1), abs=1e-9)
        checked += 1


def test_circle_field_values():
    f = circle_example_field()
    assert f.evaluate((1, 0, 0)) == pytest.approx([0.0, 0.0, -1.0])
    assert f.evaluate((0, 1, 0)) == pytest.approx([0.0, 0.0, -1.0])


def test_circle_is_asymptotic_line_of_circle_field():
    f = circle_example_field()
    for t in np.linspace(0, 2 * math.pi, 64, endpoint=False):
        g = (math.cos(t), math.sin(t), 0.0)
        gpp = np.array([-math.cos(t), -math.sin(t), 0.0])
        xi = f.evaluate(g)
        assert abs(xi @ gpp) <= 1e-12


def test_evaluate_rejects_zero_vector():
    f = AmbientField(("x", "y", "z"))
    with pytest.raises(FieldError):
        f.evaluate((0, 0, 0))


def test_jacobian_matches_finite_differences():
    f = circle_example_field()
    p = np.array([0.4, -0.3, 0.2])
    J = f.jacobian(p)
    h = 1e-6
    for j in range(3):
        dp = np.zeros(3)
        dp[j] = h
        fd = (f.evaluate(p + dp) - f.evaluate(p - dp)) / (2 * h)
        assert np.allclose(J[:, j], fd, atol=1e-8)
