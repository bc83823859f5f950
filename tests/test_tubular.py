import math
from fractions import Fraction

import numpy as np
import pytest

from asymptotica import cli, tubular
from asymptotica.flow import integrate_asymptotic
from asymptotica.curves import Curve
from asymptotica.jets import Jet
from asymptotica.planefield import AmbientField, circle_example_field
from asymptotica.spectral import TrigSeries
from asymptotica.tubular import (
    PointClass,
    ReductionSingular,
    TubularChart,
    chart_data,
    classify,
    gaussian_curvature,
)


def circle_chart():
    curve = Curve.from_expressions(("cos(x)", "sin(x)", "0*x"), (0, 2 * math.pi), closed=True)
    return TubularChart(curve)


def test_chart_restricts_to_curve():
    chart = circle_chart()
    for x in np.linspace(0, 2 * math.pi, 16):
        assert np.allclose(chart.point(x, 0.0, 0.0), chart.curve.point(x), atol=1e-14)


def test_chart_partials_are_frame_vectors():
    chart = circle_chart()
    for x in (0.0, 1.3, 4.2):
        _, Y, Z = chart.expand(x, 0.0, 0.0).frame
        h = 1e-7
        dy = (chart.point(x, h, 0) - chart.point(x, -h, 0)) / (2 * h)
        dz = (chart.point(x, 0, h) - chart.point(x, 0, -h)) / (2 * h)
        assert np.allclose(dy, np.array(Y, dtype=float), atol=1e-9)
        assert np.allclose(dz, np.array(Z, dtype=float), atol=1e-9)


def _curve_evaluations(monkeypatch, field, chart):
    calls = []

    def counted(fn):
        def wrapper(t):
            calls.append(t)
            return fn(t)

        return wrapper

    monkeypatch.setattr(chart.curve, "_fns", tuple(counted(fn) for fn in chart.curve._fns))
    chart_data(field, chart, 0.7, 0.01, -0.02, order=1)
    return len(calls)


def test_chart_data_evaluates_each_curve_jet_once(monkeypatch, t1_field, t1_chart):
    # one Taylor evaluation per component: the chart expands the curve once,
    # and the field reads alpha, the frame and k0, l0 from that expansion;
    # t1's coefficients are trigonometric interpolants that read no curve
    assert _curve_evaluations(monkeypatch, circle_example_field(), circle_chart()) <= 3
    assert _curve_evaluations(monkeypatch, t1_field, t1_chart) <= 3


def test_t1_chart_point_builds_one_trig_table(monkeypatch, t1_field, t1_chart):
    # every t1 coefficient is a column of one vector series: one harmonic
    # table per chart_data call, for one point and for many
    calls = []
    table = TrigSeries._table
    monkeypatch.setattr(TrigSeries, "_table", lambda self, x: calls.append(x) or table(self, x))
    chart_data(t1_field, t1_chart, 0.7, 0.01, -0.02)
    assert len(calls) == 1
    chart_data(t1_field, t1_chart, np.linspace(0.0, 6.0, 5), 0.01, -0.02, order=1)
    assert len(calls) == 2


def _non_float_coefficients(d):
    out = []
    for v in (d.a, d.b, d.c, *d.L, d.e, d.f, d.g, d.A, d.B):
        for c in v._coef.values() if isinstance(v, Jet) else (v,):
            if not (isinstance(c, float) or (type(c) is np.ndarray and c.dtype == np.float64)):
                out.append(c)
    return out


@pytest.mark.parametrize("name", ["t1", "circle-example"])
def test_float_chart_passes_make_only_float_coefficients(name, t1_field, t1_chart):
    # a float point seeds float units, so no coefficient becomes a Fraction
    # and no array coefficient an object array, also when y, z are the ints 0
    field, chart = (t1_field, t1_chart) if name == "t1" else cli.resolve_field(name)
    xs = np.linspace(0.0, 2 * math.pi, 32, endpoint=False)
    for point, orders in (
        ((xs, 0.01 * np.sin(xs), -0.02 * np.cos(xs)), range(4)),
        ((xs, 0, 0), range(4)),
        ((0.7, 0.01, -0.02), range(2)),
        ((0.7, 0, 0), range(2)),
    ):
        for order in orders:
            assert not _non_float_coefficients(chart_data(field, chart, *point, order=order)), (point, order)


def test_inside_uses_radius():
    chart = circle_chart()
    assert chart.inside(0.05, -0.05)
    assert not chart.inside(0.2, 0.0)


def test_reduction_identity_random_directions(seeds):
    # substituting dz = A dx + B dy into the full quadratic must reproduce
    # e dx^2 + 2 f dx dy + g dy^2 for every direction
    chart = circle_chart()
    field = AmbientField(("z - y", "1 + 0*x", "1 + y*y"))
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for _ in range(25):
            x = float(rng.uniform(0, 2 * math.pi))
            y, z = rng.uniform(-0.05, 0.05, 2)
            d = chart_data(field, chart, x, y, z)
            L1, L2, L3, L4, L5, L6 = (float(tubular.jets.value_of(Li)) for Li in d.L)
            A, B = d.value("A"), d.value("B")
            dx, dy = rng.uniform(-1, 1, 2)
            dz = A * dx + B * dy
            full = (
                L1 * dx * dx
                + L2 * dx * dy
                + L3 * dy * dy
                + L4 * dx * dz
                + L5 * dy * dz
                + L6 * dz * dz
            )
            reduced = d.value("e") * dx * dx + 2 * d.value("f") * dx * dy + d.value("g") * dy * dy
            assert full == pytest.approx(reduced, abs=1e-12)


def test_reduction_singular_when_field_orthogonal_to_z():
    chart = circle_chart()
    field = AmbientField(("1 + 0*x", "0*x", "0*x"))
    with pytest.raises(ReductionSingular):
        chart_data(field, chart, 0.0, 0.0, 0.0)


def test_constant_field_fully_degenerate():
    chart = circle_chart()
    field = AmbientField(("0*x", "0*x", "1 + 0*x"))
    assert classify(field, chart, (0.5, 0.01, -0.02)) is PointClass.FULLY_DEGENERATE


def test_circle_example_on_curve_hyperbolic():
    chart = circle_chart()
    field = circle_example_field()
    for x in np.linspace(0, 2 * math.pi, 8, endpoint=False):
        assert classify(field, chart, (x, 0.0, 0.0)) is PointClass.HYPERBOLIC


def test_point_class_str():
    assert str(PointClass.HYPERBOLIC) == "Hyperbolic"
    assert str(PointClass.ELLIPTIC) == "Elliptic"
    assert str(PointClass.PARABOLIC) == "Parabolic"
    assert str(PointClass.FULLY_DEGENERATE) == "FullyDegenerate"


def test_t1_on_curve_values(t1_field, t1_chart):
    for x in np.linspace(0, 2 * math.pi, 16, endpoint=False):
        d = chart_data(t1_field, t1_chart, float(x), 0.0, 0.0)
        e, f, g = d.value("e"), d.value("f"), d.value("g")
        assert abs(e) <= 1e-9
        assert f == pytest.approx(1.0, abs=1e-9)
        K = gaussian_curvature(t1_field, t1_chart, float(x), 0.0, 0.0)
        assert K == pytest.approx(-1.0, abs=1e-8)
        assert classify(t1_field, t1_chart, (float(x), 0.0, 0.0)) is PointClass.HYPERBOLIC


def test_partials_match_finite_differences(t1_field, t1_chart):
    x0 = 0.8
    d = chart_data(t1_field, t1_chart, x0, 0.0, 0.0, order=1)
    h = 1e-6
    for name in ("e", "f", "g", "A", "B"):
        for var, delta in (("y", (0, h, 0)), ("z", (0, 0, h))):
            dp = chart_data(t1_field, t1_chart, x0 + delta[0], delta[1], delta[2])
            dm = chart_data(t1_field, t1_chart, x0 - delta[0], -delta[1], -delta[2])
            fd = (dp.value(name) - dm.value(name)) / (2 * h)
            jet = d.partial(name, var)
            assert abs(jet - fd) <= 1e-5 * max(1.0, abs(jet))


def test_array_evaluation_matches_scalar(t1_field, t1_chart):
    xs = np.linspace(0, 2 * math.pi, 9)
    ys = np.full_like(xs, 0.01)
    zs = np.full_like(xs, -0.02)
    d = chart_data(t1_field, t1_chart, xs, ys, zs)
    for i, x in enumerate(xs):
        ds = chart_data(t1_field, t1_chart, float(x), 0.01, -0.02)
        for name in ("e", "f", "g", "A", "B"):
            assert np.asarray(d.value(name))[i] == pytest.approx(ds.value(name), rel=1e-12, abs=1e-12)


def test_gauge_scaling_preserves_reduced_ratios():
    # scaling the field scales (a, b, c) together, leaving A and B unchanged
    chart = circle_chart()
    field = AmbientField(("z - y", "1 + 0*x", "1 + y*y"))
    scaled = AmbientField(("3*(z - y)", "3 + 0*x", "3*(1 + y*y)"))
    d1 = chart_data(field, chart, 0.7, 0.02, -0.01)
    d2 = chart_data(scaled, chart, 0.7, 0.02, -0.01)
    assert d2.value("A") == pytest.approx(d1.value("A"), rel=1e-12)
    assert d2.value("B") == pytest.approx(d1.value("B"), rel=1e-12)


def _products(monkeypatch, field, chart, point):
    """The operand pairs of every jet product one scalar order-0 chart_data pass makes."""
    pairs = []
    mul = Jet.__mul__

    def counted(a, b):
        pairs.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(Jet, "__mul__", counted)
    monkeypatch.setattr(Jet, "__rmul__", counted)
    chart_data(field, chart, *point)
    monkeypatch.undo()
    return pairs


@pytest.mark.parametrize("name, most", [("t1", 90), ("circle-example", 60)])
def test_scalar_chart_point_product_count(monkeypatch, name, most, t1_field, t1_chart):
    # the reduction runs on plain values once partials and truncations keep
    # only a constant term, and an ambient field expands the curve to first
    # order only (the parent made 132 and 107 products, 48 of them between
    # two one-coefficient jets)
    field, chart = (t1_field, t1_chart) if name == "t1" else cli.resolve_field(name)
    pairs = _products(monkeypatch, field, chart, (0.7, 0.01, -0.02))
    assert len(pairs) <= most
    assert not [p for p in pairs if all(type(j) is Jet and j.order == 0 for j in p)]


@pytest.mark.parametrize("name", ["t1", "circle-example"])
def test_order_zero_values_are_order_one_constant_terms(name, t1_field, t1_chart):
    # plain values and -(a * (1/c)) reproduce the jet pipeline's constant
    # terms bit for bit
    field, chart = (t1_field, t1_chart) if name == "t1" else cli.resolve_field(name)
    rng = np.random.default_rng(7)
    for x, y, z in zip(rng.uniform(0, 2 * math.pi, 50), rng.uniform(-0.01, 0.01, 50), rng.uniform(-0.01, 0.01, 50)):
        plain = chart_data(field, chart, float(x), float(y), float(z))
        jet = chart_data(field, chart, float(x), float(y), float(z), order=1)
        for q in "efgAB":
            assert type(getattr(plain, q)) is not Jet
            assert float(plain.value(q)).hex() == float(jet.value(q)).hex(), (x, y, z, q)


def test_ambient_field_expands_the_curve_to_first_order():
    field, chart = circle_example_field(), circle_chart()
    seeds = tubular.jets.seed((0.7, 0.01, -0.02), 1)
    point = chart.expand(*seeds, field.curve_order)
    full = chart.expand(*seeds)
    assert len(point.derivs) == 2 and len(full.derivs) == 3
    for got, want in zip(point.alpha, full.alpha):
        assert got._coef == want._coef


def test_array_reduction_singular_names_the_first_point():
    chart = circle_chart()
    field = AmbientField(("1 + 0*x", "0*x", "0*x"))
    with pytest.raises(ReductionSingular) as info:
        chart_data(field, chart, np.linspace(0.0, 1.0, 50), 0.0, 0.0)
    assert str(info.value) == "c = 0.0 at (x, y, z) = (0.0, 0.0, 0.0)"


def test_exact_chart_point_stays_exact():
    # plain values keep the ring of the seeds: a Fraction point on a
    # polynomial curve reduces to Fractions, the constant terms of the jets
    chart = TubularChart(Curve.from_expressions(("x", "x^2", "x^3"), (-1, 1)))
    field = AmbientField(("z - y", "1 + 0*x", "1 + y*y"))
    point = (Fraction(1, 3), Fraction(1, 50), Fraction(-1, 70))
    plain, jet = chart_data(field, chart, *point), chart_data(field, chart, *point, order=1)
    for q in "efgAB":
        assert type(getattr(plain, q)) is Fraction and plain.value(q) == jet.value(q)


def _bits(v):
    """A jet's coefficients in monomial order (a plain value's one), floats as hex, ints as they are."""
    coef = v._coef if isinstance(v, Jet) else {0: v}
    return [(i, c if isinstance(c, int) else float(c).hex()) for i, c in coef.items()]


@pytest.mark.parametrize("name, start", [("t1", (0.3, 0.0, 0.0)), ("circle-example", (0.5, 8e-4, 2e-4))])
def test_curve_rows_are_the_per_point_expansion_bit_for_bit(monkeypatch, t1_field, t1_chart, name, start):
    # at the start and at the stage abscissae of the first and last steps of one period
    field, chart = (t1_field, t1_chart) if name == "t1" else cli.resolve_field(name)
    tables = []
    real = TubularChart.curve_rows

    def recorded(self, x, *args, **kwargs):
        tables.append(x)
        return real(self, x, *args, **kwargs)

    monkeypatch.setattr(TubularChart, "curve_rows", recorded)
    integrate_asymptotic(field, chart, start, start[0] + 2 * math.pi)
    monkeypatch.undo()
    assert np.ndim(tables[0]) == 0 and len(tables) > 8
    for xs in tables[:5] + tables[-3:]:
        rows = chart.curve_rows(xs, field.curve_order)
        for x, (derivs, frame) in zip(np.atleast_1d(xs).tolist(), [rows] if np.ndim(xs) == 0 else rows):
            seeds = tubular.jets.seed((x, 0.001, -0.002), 1)
            point = chart.expand(*seeds, field.curve_order)
            assert len(derivs) == len(point.derivs) == field.curve_order + 1
            for got, want in zip((*derivs, *frame), (*point.derivs, *point.frame)):
                assert [_bits(v) for v in got] == [_bits(v) for v in want], x
            # and the reduced data of the whole pipeline
            plain, tabled = (chart_data(field, chart, x, 0.001, -0.002, row=r) for r in (None, (derivs, frame)))
            assert [_bits(plain.value(q)) for q in "efgAB"] == [_bits(tabled.value(q)) for q in "efgAB"], x
