import math

import numpy as np
import pytest

from asymptotica import jets
from asymptotica.monodromy import VariationalCache
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
    x0 = 1.1
    j = s(jets.Jet.variable(x0, 0, 1, 2))
    d1 = s.derivative()
    d2 = d1.derivative()
    assert j.value == pytest.approx(float(s(x0)))
    assert j.deriv(1) == pytest.approx(float(d1(x0)))
    assert j.deriv(2) == pytest.approx(float(d2(x0)))


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


def test_variational_cache_out_of_nodes_raises_fit_error(t1_field, t1_chart):
    with pytest.raises(FitError):
        VariationalCache(t1_field, t1_chart, 2 * math.pi, nodes=8, max_nodes=8)


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


def test_fit_reuses_node_and_midpoint_samples():
    points = []

    def fn(x):
        points.append(len(x))
        return np.exp(np.sin(x))

    n = 16
    s = TrigSeries.fit(fn, 2 * math.pi, nodes=n, tol=1e-9)
    assert s.nodes == 2 * n  # one doubling
    assert sum(points) == 4 * n  # n nodes, n midpoints, 2n new midpoints
    xs = np.arange(2 * n) * (2 * math.pi / (2 * n))
    direct = TrigSeries.from_samples(np.exp(np.sin(xs)), 2 * math.pi)
    assert np.array_equal(s.cos_coeffs, direct.cos_coeffs)
    assert np.array_equal(s.sin_coeffs, direct.sin_coeffs)


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
