import math
from fractions import Fraction

import numpy as np
import pytest

from asymptotica import construct, tubular
from asymptotica.construct import (
    ConstructError,
    InflectionOfProjection,
    TubularField,
    build_lac,
    k0_l0,
    k1_function,
    realize_t5,
    t1_curve,
)
from asymptotica.curves import Curve


def test_k0_is_minus_one_on_t1_curve():
    c = t1_curve()
    for x in np.linspace(0, 2 * math.pi, 32):
        k0, _ = k0_l0(*c.jet(float(x), 2)[1:])
        assert k0 == pytest.approx(-1.0, abs=1e-12)


def test_l0_vanishes_at_zero_on_t1_curve():
    _, l0 = k0_l0(*t1_curve().jet(0.0, 2)[1:])
    assert l0 == pytest.approx(0.0, abs=1e-12)


def test_k0_l0_cubic_local_model():
    c = Curve.from_series([[0, 1], [0, 0, 1], [0, 0, 0, 1]])
    k0, l0 = k0_l0(*c.jet(Fraction(0), 2)[1:])
    assert k0 == 2
    assert l0 == 0


def test_k1_of_t1_curve_with_cos_l1():
    # hand evaluation at x = 0: torsion term 6, H term 2 (the f = H identity
    # below is the authoritative check of the formula)
    k1 = k1_function(t1_curve(), l1="cos(x)", H=1)
    assert k1(0.0) == pytest.approx(8.0, abs=1e-12)


def test_k1_planar_curve_closed_form():
    # gamma3 = 0 kills the torsion and l1 terms, leaving 2 / (g1'^2 + g2'^2)
    ellipse = Curve.from_expressions(("2*cos(x)", "sin(x)", "0*x"), (0, 2 * math.pi), closed=True)
    k1 = k1_function(ellipse, l1=None, H=1)
    for x in (0.2, 1.0, 2.7):
        speed2 = 4 * math.sin(x) ** 2 + math.cos(x) ** 2
        assert k1(x) == pytest.approx(2.0 / speed2, rel=1e-12)


def test_k1_inflection_raises():
    c = Curve.from_expressions(("x", "x^3", "0*x"), (-1, 1))
    k1 = k1_function(c, H=1)
    with pytest.raises(InflectionOfProjection):
        k1(0.0)


def test_bare_field_restricts_to_forced_frame_combination():
    c = t1_curve()
    field = TubularField(c)
    for x in (0.0, 0.9, 3.3):
        _, X, Y, Z = c.frame_vectors(x)
        k0, l0 = k0_l0(*c.jet(x, 2)[1:])
        xi = field.chart_components(tubular.TubularChart(c).expand(x, 0.0, 0.0))
        expect = [l0 * Y[i] + k0 * Z[i] for i in range(3)]
        assert [float(v) for v in xi] == pytest.approx(expect, abs=1e-12)


def test_unknown_coefficient_rejected():
    with pytest.raises(ConstructError):
        TubularField(t1_curve(), coefficients={"q7": 1})


def test_asymptotic_line_conditions(seeds):
    # any built field keeps the curve an asymptotic line: xi orthogonal to
    # gamma' and gamma'' along the curve
    c = t1_curve()
    rng = np.random.default_rng(seeds[0])
    coeffs = {k: float(rng.uniform(-2, 2)) for k in ("k1", "k2", "l1", "l2", "kt1", "lt3")}
    field = TubularField(c, coefficients=coeffs)
    chart = tubular.TubularChart(c)
    for x in np.linspace(0, 2 * math.pi, 256, endpoint=False):
        xi = [float(v) for v in field.chart_components(chart.expand(float(x), 0.0, 0.0))]
        d1 = [c.component(i, float(x), 1) for i in range(3)]
        d2 = [c.component(i, float(x), 2) for i in range(3)]
        assert abs(sum(a * b for a, b in zip(xi, d1))) <= 1e-10
        assert abs(sum(a * b for a, b in zip(xi, d2))) <= 1e-10


def test_lac_field_on_curve_identities():
    c = t1_curve()
    chart = tubular.TubularChart(c)
    field = build_lac(c, H="2 + sin(x)", l1="cos(x)")
    for x in np.linspace(0, 2 * math.pi, 64, endpoint=False):
        H = 2.0 + math.sin(float(x))
        d = tubular.chart_data(field, chart, float(x), 0.0, 0.0)
        e, f, g = d.value("e"), d.value("f"), d.value("g")
        assert abs(e) <= 1e-9
        assert f == pytest.approx(H, abs=1e-9)
        K = e * g - f * f
        assert K == pytest.approx(-H ** 2, abs=1e-8)


def test_perturbed_k1_breaks_f_identity():
    # negative control: e(x,0,0) = 0 holds for every tubular-form field (it
    # restates the asymptotic-line condition), but f(x,0,0) = H needs the k1
    # choice; adding 1 to k1 shifts f by |gamma'|^2 / 2
    c = t1_curve()
    k1 = k1_function(c, H=1)
    field = TubularField(c, coefficients={"k1": lambda x: k1(x) + 1.0})
    chart = tubular.TubularChart(c)
    devs = []
    for x in np.linspace(0.1, 6.0, 16):
        d = tubular.chart_data(field, chart, float(x), 0.0, 0.0)
        e, f = d.value("e"), d.value("f")
        assert abs(e) <= 1e-10
        devs.append(abs(f - 1.0))
    assert max(devs) > 0.4


@pytest.mark.parametrize(
    "coeff_lists, expected_C000",
    [
        ([[0, 1], [0, 0, 1], [0, 0, 0, 1]], 2),
        ([[0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 0, 1]], 6),
        ([[0, 1], [0, 0, 1], [0, 0, 0, 0, 1]], 2),
        ([[0, 1], [0, 0, Fraction(3, 2), Fraction(-1, 5)], [0, 0, 0, Fraction(2, 7)]], 3),
    ],
)
def test_realize_t5_certificates(coeff_lists, expected_C000):
    curve = Curve.from_series(coeff_lists)
    field, cert = realize_t5(curve)
    assert cert["C000"] == expected_C000
    assert cert["C000_exact"]
    assert isinstance(cert["C000"], (int, Fraction))
    # a Fraction point seeds int units, so every series stays rational
    for key in ("b_factored", "c_factored", "k1_series", "K_series"):
        assert all(type(c) in (int, Fraction) for c in cert[key].coeffs), key
    assert cert["a_on_curve_zero"]
    assert cert["e_on_curve_zero"]
    assert cert["f_on_curve_one"]
    # Gaussian curvature on the curve is the constant -1 as a power series
    K = cert["K_series"]
    assert K.coeffs[0] == -1
    assert all(c == 0 for c in K.coeffs[1 : cert["valid_order"] + 1])


def test_realize_t5_b_vanishes_at_origin():
    _, cert = realize_t5(Curve.from_series([[0, 1], [0, 0, 1], [0, 0, 0, 1]]))
    assert cert["B000"] == 0


def test_realize_t5_numeric_curvature():
    curve = Curve.from_series([[0, 1], [0, 0, 1], [0, 0, 0, 1]])
    field, _ = realize_t5(curve)
    chart = tubular.TubularChart(curve)
    for x in np.linspace(-0.3, 0.3, 64):
        if abs(x) < 1e-8:
            continue
        K = tubular.gaussian_curvature(field, chart, float(x), 0.0, 0.0)
        assert K == pytest.approx(-1.0, abs=1e-8)


def test_realize_t5_rejects_irregular_model():
    # gamma1'(0) = 0: the local model is not a graph over x
    curve = Curve.from_series([[0, 0, 0, 1], [0, 1], [0, 0, 1]])
    with pytest.raises(ConstructError):
        realize_t5(curve)


def test_realize_t5_rejects_irrational_components():
    curve = Curve.from_expressions(("sin(x)", "cos(x)", "sin(x)^3"), (0, 2 * math.pi), closed=True)
    with pytest.raises(ConstructError):
        realize_t5(curve)


def _off_build_grid(count):
    """count points at midpoints of build_t1's 256-node grid, where its
    interpolated coefficients are least accurate."""
    return (np.arange(count) * (256 // count) + 0.5) * (2 * math.pi / 256)


def test_t1_on_curve_flatness(t1_field, t1_chart):
    xs = _off_build_grid(128)
    d = tubular.chart_data(t1_field, t1_chart, xs, 0.0, 0.0, order=1)
    assert np.max(np.abs(d.partial("e", "z"))) <= 1e-8
    assert np.max(np.abs(d.partial("e", "y") + 2 * np.asarray(d.value("f")))) <= 1e-8
    assert np.max(np.abs(np.asarray(d.value("f")) - 1)) <= 1e-9


def test_t1_vertical_rate_at_zero(t1_field, t1_chart):
    d = tubular.chart_data(t1_field, t1_chart, 0.0, 0.0, 0.0, order=1)
    assert d.partial("A", "z") == pytest.approx(-1.0, abs=1e-9)


def test_t1_vertical_rate_matches_target_polynomial(t1_field, t1_chart):
    for x in _off_build_grid(64):
        d = tubular.chart_data(t1_field, t1_chart, float(x), 0.0, 0.0, order=1)
        assert d.partial("A", "z") == pytest.approx(
            float(construct._t1_az_target(float(x))), abs=1e-9
        )


def test_t1_degenerate_stage_raises_construct_error(monkeypatch):
    # stage-2 rows that ignore their unknowns (l2, k2) leave a singular
    # sensitivity matrix at every node, which must not surface as LinAlgError
    target, (order, _, unknowns) = construct._T1_ON_CURVE_STAGES

    def ignores_unknowns(d):
        return 0 * d.x + 1.0, 0 * d.x

    monkeypatch.setattr(construct, "_T1_ON_CURVE_STAGES", (target, (order, ignores_unknowns, unknowns)))
    with pytest.raises(ConstructError, match="degenerate"):
        construct.build_t1()


def test_t1_curve_is_the_trig_cubic(t1_field):
    c = t1_field.curve
    assert np.allclose(c.point(0.5), [math.sin(0.5), math.cos(0.5), math.sin(0.5) ** 3])
    assert c.closed
