import math

import numpy as np
import pytest

from asymptotica import jets, monodromy, tubular
from asymptotica.curves import Curve
from asymptotica.planefield import AmbientField
from asymptotica.spectral import FitError, TrigSeries


def test_trig_polynomial_exact():
    fn = lambda x: 1.5 + np.cos(x) - 2 * np.sin(3 * x)
    s = TrigSeries.fit(fn, 2 * math.pi, nodes=16)
    xs = np.linspace(0, 2 * math.pi, 101)
    assert np.max(np.abs(s(xs) - fn(xs))) < 1e-13


def test_analytic_function_converges():
    fn = lambda x: np.exp(np.sin(x))
    s = TrigSeries.fit(fn, 2 * math.pi, nodes=8)
    xs = np.linspace(0, 2 * math.pi, 301)
    assert np.max(np.abs(s(xs) - fn(xs))) < 1e-10


def test_fit_refuses_rough_function():
    fn = lambda x: np.abs(np.sin(x / 2))  # kink at 0: Fourier converges too slowly
    with pytest.raises(ValueError):
        TrigSeries.fit(fn, 2 * math.pi, nodes=8, max_nodes=512)


def test_nonstandard_period():
    fn = lambda x: np.sin(2 * math.pi * x / 3.0)
    s = TrigSeries.fit(fn, 3.0, nodes=16)
    assert s(0.7) == pytest.approx(fn(0.7), abs=1e-12)
    assert s(0.7 + 3.0) == pytest.approx(s(0.7), abs=1e-12)


def test_derivative():
    s = TrigSeries.fit(lambda x: np.sin(2 * x), 2 * math.pi, nodes=16)
    d = s.derivative()
    xs = np.linspace(0, 2 * math.pi, 50)
    assert np.max(np.abs(d(xs) - 2 * np.cos(2 * xs))) < 1e-12


def test_derivative_at_a_period_other_than_two_pi():
    # harmonic k has frequency k * omega, omega = 2 pi / 3; at period 2 pi, omega = 1 hides k / omega
    w = 2 * math.pi / 3.0
    s = TrigSeries.fit(lambda x: np.sin(2 * w * x) + np.cos(w * x), 3.0, nodes=16)
    xs = np.linspace(0, 3.0, 50)
    assert np.max(np.abs(s.derivative()(xs) - (2 * w * np.cos(2 * w * xs) - w * np.sin(w * xs)))) < 1e-12


def test_mean():
    s = TrigSeries.fit(lambda x: 4.0 + np.cos(x), 2 * math.pi, nodes=16)
    assert s.mean() == pytest.approx(4.0)


def test_from_samples_round_trip():
    n = 32
    xs = np.arange(n) * (2 * math.pi / n)
    vals = np.cos(3 * xs) - 0.5 * np.sin(xs)
    s = TrigSeries.from_samples(vals, 2 * math.pi)
    assert np.max(np.abs(s(xs) - vals)) < 1e-13


def test_jet_evaluation_matches_derivatives():
    s = TrigSeries.fit(lambda x: np.exp(np.sin(x)), 2 * math.pi, nodes=64)
    d1 = s.derivative()
    d2 = d1.derivative()
    d3 = d2.derivative()
    for x0 in (1.1, -3.7, 987.6):
        j = s(jets.Jet.variable(x0, 0, 1, 3))
        assert j.value == pytest.approx(float(s(x0)), rel=1e-14)
        assert j.deriv(1) == pytest.approx(float(d1(x0)), rel=1e-13, abs=1e-13)
        assert j.deriv(2) == pytest.approx(float(d2(x0)), rel=1e-13, abs=1e-13)
        assert j.deriv(3) == pytest.approx(float(d3(x0)), rel=1e-13, abs=1e-13)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs a long double of at least 64 bits")
@pytest.mark.parametrize("K", [1, 2, 129, 257, 1025])
@pytest.mark.parametrize("period", [2 * math.pi, 3.0])
def test_harmonic_table_matches_a_long_double_reference(K, period):
    # the table holds the harmonics of the phase t = w x rounded to a float,
    # the value any evaluation at the float x starts from; k t is exact in a
    # 64-bit mantissa (k < 2^11), so cosl(k t) is a reference to about 1e-19.
    # Bound: z = exp(i t) is within eps/sqrt(2) of e^(it), and each of the k
    # complex products of the running product adds at most sqrt(5)/2 eps
    # (Brent, Percival and Zimmermann 2007), so entry k is off by at most
    # about 1.83 k eps to first order: 2 K eps holds every entry
    s = TrigSeries(np.zeros(K), np.zeros(K), period)
    rng = np.random.default_rng(K)
    bound = 2 * K * np.finfo(float).eps
    k = np.arange(K).astype(np.longdouble)
    for x in (0.7, -999.3, 1e3, rng.uniform(-1e3, 1e3, 64), rng.uniform(-1e3, 1e3, (8, 5)), np.array(-2.5)):
        cos_t, sin_t = s._table(x)
        assert cos_t.shape == sin_t.shape == np.shape(x) + (K,)
        t = np.multiply.outer((s.omega * np.asarray(x, dtype=float)).astype(np.longdouble), k)
        assert np.max(np.abs(cos_t - np.cos(t))) <= bound
        assert np.max(np.abs(sin_t - np.sin(t))) <= bound


def test_array_evaluation_shape():
    s = TrigSeries.fit(lambda x: np.sin(x), 2 * math.pi, nodes=8)
    xs = np.linspace(0, 1, 5)
    out = s(xs)
    assert out.shape == xs.shape


def _two_rows(x):
    # a large trig polynomial and a small analytic function: a shared scale
    # of 1e6 would let the second row stop at 16 nodes
    return np.stack([1e6 * np.cos(x), np.exp(np.sin(x))], axis=1)


def test_vector_fit_stops_where_the_worse_row_does():
    period = 2 * math.pi
    v = TrigSeries.fit(_two_rows, period, nodes=8)
    needed = [TrigSeries.fit(lambda x, k=k: _two_rows(x)[:, k], period, nodes=8).nodes for k in range(2)]
    assert needed == [8, 32]
    assert v.nodes == 32
    assert 0.0 <= v.residual <= 1e-11
    xs = np.arange(v.nodes) * (period / v.nodes)
    for k in range(2):
        row = TrigSeries.from_samples(_two_rows(xs)[:, k], period)
        assert np.array_equal(v.cos_coeffs[:, k], row.cos_coeffs)
        assert np.array_equal(v.sin_coeffs[:, k], row.sin_coeffs)
    probe = np.linspace(0, period, 37)
    assert v(probe).shape == (37, 2)
    assert v(0.3).shape == (2,)
    assert np.max(np.abs(v(probe) - _two_rows(probe)) / [1e6, 1.0]) < 1e-11


def test_vector_derivative_and_mean_are_row_wise():
    v = TrigSeries.fit(lambda x: np.stack([4.0 + np.cos(x), np.sin(2 * x)], axis=1), 2 * math.pi, nodes=16)
    xs = np.linspace(0, 2 * math.pi, 50)
    d = v.derivative()(xs)
    assert np.max(np.abs(d[:, 0] + np.sin(xs))) < 1e-12
    assert np.max(np.abs(d[:, 1] - 2 * np.cos(2 * xs))) < 1e-12
    assert v.mean() == pytest.approx([4.0, 0.0], abs=1e-14)


def test_variational_cache_out_of_nodes_raises_fit_error(monkeypatch, t1_field, t1_chart):
    monkeypatch.setattr(monodromy, "FIT_NODES", 8)
    monkeypatch.setattr(monodromy, "FIT_MAX_NODES", 8)
    with pytest.raises(FitError):
        monodromy.VariationalCache(t1_field, t1_chart, 2 * math.pi)


def test_jet_evaluation_is_bitwise_the_derivative_stack():
    v = TrigSeries.fit(lambda x: np.stack([np.exp(np.sin(x)), np.cos(3 * x) / (2 + np.sin(x))], axis=1), 2 * math.pi)
    x = jets.Jet.variable(np.linspace(0.1, 6.0, 512), 0, 1, 4)
    stack, series = [], v
    for _ in range(x.order + 1):
        stack.append(series(x.value))
        series = series.derivative()
    want = x.compose_univariate(stack)
    got = v(x)
    for k in range(x.order + 1):
        assert np.array_equal(got.coefficient((k,)), want.coefficient((k,)))


def test_two_jet_evaluations_build_one_derivative(monkeypatch):
    v = TrigSeries.fit(lambda x: np.stack([np.exp(np.sin(x)), np.cos(2 * x)], axis=1), 2 * math.pi)
    built = []
    real = TrigSeries.__init__

    def counted(self, *args):
        built.append(self)
        real(self, *args)

    monkeypatch.setattr(TrigSeries, "__init__", counted)
    x = jets.Jet.variable(0.7, 0, 3, 1)  # a scalar chart point's x seed
    first, second = v(x), v(x)
    assert len(built) == 1  # the derivative series, kept by v for the second evaluation
    assert first._coef.keys() == second._coef.keys()
    assert all(first._coef[i].tobytes() == second._coef[i].tobytes() for i in first._coef)


def test_fit_reuses_node_and_midpoint_samples():
    # a vector fit: one fn call per level, on 4n points in all
    rows = lambda x: np.stack([np.exp(np.sin(x)), np.cos(2 * x) / (3 + np.sin(x))], axis=1)
    points = []

    def fn(x):
        points.append(len(x))
        return rows(x)

    n = 16
    s = TrigSeries.fit(fn, 2 * math.pi, nodes=n, tol=1e-9)
    assert s.nodes == 2 * n  # one doubling
    assert points == [2 * n, 2 * n]  # n nodes with n midpoints, then the 2n new midpoints
    xs = np.arange(2 * n) * (2 * math.pi / (2 * n))
    direct = TrigSeries.from_samples(rows(xs), 2 * math.pi)
    assert np.array_equal(s.cos_coeffs, direct.cos_coeffs)
    assert np.array_equal(s.sin_coeffs, direct.sin_coeffs)


@pytest.mark.parametrize("level", [0, 1])
def test_a_non_finite_sample_stops_the_fit_at_once_and_names_the_least_x(level):
    passes = []

    def fn(x):
        passes.append(x)
        v = np.stack([np.exp(np.sin(x)), np.cos(3 * x)], axis=1)
        if len(passes) == level + 1:
            v[x > 4, 1] = np.nan  # in one row, past x = 4, in this pass only
        return v

    with pytest.raises(FitError) as info:
        TrigSeries.fit(fn, 2 * math.pi, nodes=8, tol=1e-13)  # no level reaches 1e-13 before the NaN
    assert len(passes) == level + 1
    least = float(np.min(passes[-1][passes[-1] > 4]))  # a midpoint at either level
    assert str(info.value) == f"periodic fit sample not finite at x = {least}"


@pytest.mark.parametrize("xi, error, message", [
    (("1 + 0*x", "0*x", "0*x"), tubular.ReductionSingular, "c = 0.0 at (x, y, z) = (0.0, 0.0, 0.0)"),  # the first node
    (("0*x", "0*x", "1 + 0*x"), monodromy.ParabolicOnCurve, "f(x,0,0) vanishes on the curve: |f| = 0.0 at x = 0.0"),
])
def test_a_singular_or_parabolic_curve_stops_the_first_pass(monkeypatch, xi, error, message):
    chart = tubular.TubularChart(Curve.from_expressions(("cos(x)", "sin(x)", "0*x"), (0, 2 * math.pi), closed=True))
    passes = []
    real = tubular.chart_data
    monkeypatch.setattr(tubular, "chart_data", lambda *a, **kw: passes.append(np.size(a[2])) or real(*a, **kw))
    with pytest.raises(error) as info:
        monodromy.VariationalCache(AmbientField(xi), chart, 2 * math.pi)
    assert str(info.value) == message
    assert passes == [2 * monodromy.FIT_NODES]  # nodes and midpoints in one pass


def test_columns_split_one_evaluation_into_its_series():
    v = TrigSeries.fit(lambda x: np.stack([np.exp(np.sin(x)), np.cos(3 * x)], axis=1), 2 * math.pi)
    assert v.columns(0.7) == v(0.7).tolist()
    assert all(type(c) is float for c in v.columns(0.7))
    xs = np.linspace(0.1, 6.0, 7)
    assert all(np.array_equal(c, v(xs)[:, k]) for k, c in enumerate(v.columns(xs)))
    for value in (0.7, xs):
        x = jets.seed((value, 0.01, -0.02), 2)[0]
        whole = v(x)
        for k, column in enumerate(v.columns(x)):
            scalar = TrigSeries(v.cos_coeffs[:, k], v.sin_coeffs[:, k], v.period)(x)
            for e in ((0, 0, 0), (1, 0, 0), (2, 0, 0)):
                assert np.array_equal(column.coefficient(e), np.asarray(whole.coefficient(e))[..., k])
                assert np.allclose(column.coefficient(e), scalar.coefficient(e), rtol=1e-14, atol=1e-14)
