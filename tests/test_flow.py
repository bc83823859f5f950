import math

import numpy as np
import pytest

from asymptotica import flow, jets, monodromy, tubular
from asymptotica.curves import Curve
from asymptotica.flow import (
    ChartSpectralCache,
    EllipticStop,
    FlowError,
    VerticalDirection,
    branch_slopes,
    integrate_asymptotic,
    integrate_batch,
    rk45,
)
from asymptotica.planefield import circle_example_field
from asymptotica.spectral import TrigSeries


def test_branch_slopes_symmetric_case():
    # p^2 - 1 = 0 (g = 1, f = 0, e = -1): slopes +-1
    slopes, sel = branch_slopes(-1.0, 0.0, 1.0)
    assert sorted(slopes) == pytest.approx([-1.0, 1.0])
    assert abs(sel) == pytest.approx(1.0)


def test_branch_slopes_linear_case():
    # g = 0: a single root -e / 2f
    slopes, sel = branch_slopes(4.0, 1.0, 0.0)
    assert slopes == (-2.0,)
    assert sel == -2.0


def test_branch_slopes_elliptic():
    with pytest.raises(EllipticStop):
        branch_slopes(1.0, 0.0, 1.0)


def test_branch_slopes_vertical():
    with pytest.raises(VerticalDirection):
        branch_slopes(1.0, 0.0, 0.0)


def test_branch_slopes_all_zero():
    with pytest.raises(FlowError):
        branch_slopes(0.0, 0.0, 0.0)


@pytest.mark.parametrize("efg", [(math.nan, 1.0, 1.0), (1.0, math.inf, 0.0), (-1.0, 0.0, -math.inf)])
def test_branch_slopes_non_finite_is_no_branch_stop(efg):
    # not elliptic, vertical or a slope: the chart data themselves are broken
    with pytest.raises(FlowError) as info:
        branch_slopes(*efg)
    assert type(info.value) is FlowError
    assert str(info.value) == "non-finite chart data e, f, g = {}, {}, {}".format(*efg)


def test_branch_continuity_prefers_previous_slope():
    _, sel = branch_slopes(-1.0, 0.0, 1.0, prev_p=0.9)
    assert sel == pytest.approx(1.0)
    _, sel = branch_slopes(-1.0, 0.0, 1.0, prev_p=-0.9)
    assert sel == pytest.approx(-1.0)


def test_branch_slopes_stable_for_tiny_g():
    # near-linear quadratic: the small root must come out accurately
    e, f, g = 4.0, 1.0, 1e-14
    slopes, _ = branch_slopes(e, f, g)
    small = min(slopes, key=abs)
    assert small == pytest.approx(-2.0, rel=1e-9)


def test_rk45_exponential():
    x, y, stats = rk45(lambda x, y: y, 0.0, 1.0, np.array([1.0]), rtol=1e-10, atol=1e-12)
    assert y[0] == pytest.approx(math.e, rel=1e-9)
    assert stats["steps"] > 0


def test_rk45_backward_integration():
    _, y, _ = rk45(lambda x, y: y, 1.0, 0.0, np.array([math.e]))
    assert y[0] == pytest.approx(1.0, rel=1e-8)


def test_rk45_tolerance_controls_error():
    errors = []
    for rtol in (1e-6, 1e-9):
        _, y, _ = rk45(lambda x, y: np.array([math.cos(x)]) , 0.0, 10.0, np.array([0.0]), rtol=rtol, atol=1e-14)
        errors.append(abs(y[0] - math.sin(10.0)))
    assert errors[1] < errors[0]


def test_core_curve_is_a_trajectory(t1_field, t1_chart):
    path = integrate_asymptotic(t1_field, t1_chart, (0.0, 0.0, 0.0), 2 * math.pi)
    assert path.reached
    assert abs(path.ys[-1]) <= 1e-9
    assert abs(path.zs[-1]) <= 1e-9
    assert path.stats["max_residual"] <= 1e-9


def test_path_samples_monotone(t1_field, t1_chart):
    path = integrate_asymptotic(t1_field, t1_chart, (0.0, 0.0, 0.0), 2 * math.pi)
    assert np.all(np.diff(path.xs) > 0)


def test_path_ambient_coordinates(t1_field, t1_chart):
    path = integrate_asymptotic(t1_field, t1_chart, (0.0, 0.0, 0.0), 1.0)
    pts = path.ambient(t1_chart)
    assert pts.shape == (len(path.xs), 3)
    assert np.allclose(pts[0], t1_chart.curve.point(0.0), atol=1e-12)


def test_quadratic_residual_bound(t1_field, t1_chart):
    path = integrate_asymptotic(t1_field, t1_chart, (0.0, 1e-4, 0.0), 1.0)
    assert path.stats["max_residual"] <= 1e-8


def test_nearby_start_diverges_at_unstable_rate(t1_field, t1_chart):
    # the y-equation linearizes to dy/dx = y near the curve, so a small
    # offset grows like e^x while it stays in the flattened zone
    y0 = 1e-6
    path = integrate_asymptotic(t1_field, t1_chart, (0.0, y0, 0.0), 1.0)
    assert path.reached
    assert path.ys[-1] == pytest.approx(y0 * math.e, rel=1e-3)


def test_tolerance_halving_consistency(t1_field, t1_chart):
    ends = []
    for rtol in (1e-8, 1e-11):
        p = integrate_asymptotic(t1_field, t1_chart, (0.0, 1e-4, 0.0), 2.0, rtol=rtol, atol=1e-13)
        assert p.reached
        ends.append(p.endpoint())
    assert ends[0][1] == pytest.approx(ends[1][1], rel=1e-6, abs=1e-12)
    assert ends[0][2] == pytest.approx(ends[1][2], rel=1e-5, abs=1e-10)


def test_elliptic_start_raises():
    # an ambient field that is elliptic at the probe point
    from asymptotica.curves import Curve
    from asymptotica.planefield import AmbientField

    curve = Curve.from_expressions(("cos(x)", "sin(x)", "0*x"), (0, 2 * math.pi), closed=True)
    chart = tubular.TubularChart(curve)
    field = AmbientField(("y", "-x", "1 + 0*x"))
    d = tubular.chart_data(field, chart, 0.3, 0.01, 0.01)
    e, f, g = d.value("e"), d.value("f"), d.value("g")
    if e * g - f * f > 0:
        with pytest.raises(EllipticStop):
            integrate_asymptotic(field, chart, (0.3, 0.01, 0.01), 1.0)


def test_cache_matches_direct_pipeline(t1_field, t1_chart):
    cache = ChartSpectralCache(t1_field, t1_chart, 2 * math.pi)
    direct = tubular.binary_equation_data(t1_field, t1_chart)
    rng = np.random.default_rng(1)
    # the cache truncates at cubic order in (y, z): keep the excursion small
    # enough that the quartic remainder sits below the comparison tolerance
    xs = rng.uniform(0, 2 * math.pi, 20)
    ys = rng.uniform(-2e-4, 2e-4, 20)
    zs = rng.uniform(-2e-4, 2e-4, 20)
    got = cache.efgab(xs, ys, zs)
    for i in range(20):
        want = direct(float(xs[i]), float(ys[i]), float(zs[i]))
        for q in range(5):
            assert got[q][i] == pytest.approx(want[q], rel=1e-6, abs=1e-7)


def test_batch_matches_single_trajectory(t1_field, t1_chart):
    starts = np.array([[0.0, 0.0], [1e-4, 0.0], [0.0, 1e-4]])
    ends = integrate_batch(t1_field, t1_chart, starts, 0.0, 1.5, rtol=1e-11, atol=1e-14)
    for k in range(3):
        p = integrate_asymptotic(
            t1_field, t1_chart, (0.0, starts[k, 0], starts[k, 1]), 1.5, rtol=1e-11, atol=1e-14
        )
        assert p.reached
        assert ends[k, 0] == pytest.approx(p.ys[-1], abs=1e-10)
        assert ends[k, 1] == pytest.approx(p.zs[-1], abs=1e-10)


def test_batch_with_cache_matches_batch_without(t1_field, t1_chart):
    cache = ChartSpectralCache(t1_field, t1_chart, 2 * math.pi)
    starts = np.array([[0.0, 0.0], [1e-5, 1e-5]])
    a = integrate_batch(t1_field, t1_chart, starts, 0.0, 2.0, rtol=1e-11, atol=1e-14)
    b = integrate_batch(t1_field, t1_chart, starts, 0.0, 2.0, rtol=1e-11, atol=1e-14, cache=cache)
    assert np.allclose(a, b, atol=1e-9)


def test_tube_exit_reports_partial_path(t1_field, t1_chart):
    path = integrate_asymptotic(t1_field, t1_chart, (0.0, 0.008, 0.0), 2 * math.pi)
    assert not path.reached
    assert path.status in ("tube-exit", "parabolic")
    assert len(path.xs) > 1
    # a stop keeps the integrator statistics up to the last accepted step
    assert math.isfinite(path.stats["min_step"])
    assert path.stats["steps"] == len(path.xs) - 1


def test_batch_stop_carries_the_path_status(t1_field, t1_chart):
    path = integrate_asymptotic(t1_field, t1_chart, (0.0, 0.008, 0.0), 2 * math.pi, atol=1e-13)
    assert not path.reached
    with pytest.raises(FlowError, match=f"^{path.status}:"):
        integrate_batch(t1_field, t1_chart, [[0.008, 0.0]], 0.0, 2 * math.pi, atol=1e-13)


def test_rk45_nan_rhs_ends_in_a_singular_stop():
    calls = []

    def rhs(x, y):
        calls.append(x)
        if len(calls) > 100_000:
            raise RuntimeError("rk45 does not terminate on a NaN right-hand side")
        return np.array([math.nan]) if x > 0.5 else y

    x, y, stats = rk45(rhs, 0.0, 1.0, np.array([1.0]))
    assert stats["status"] == "singular"
    assert x <= 0.5 and y[0] == pytest.approx(math.exp(x), rel=1e-8)


def test_branch_slopes_on_arrays_match_scalars():
    # quadratic, linear (g = 0) and near-linear points in one batch
    e = np.array([-1.0, 4.0, 4.0, -2.0])
    f = np.array([0.0, 1.0, 1.0, 0.5])
    g = np.array([1.0, 0.0, 1e-14, 3.0])
    prev = np.array([0.9, 0.0, -2.5, -1.0])
    (far, near), sel = branch_slopes(e, f, g, prev_p=prev)
    for i in range(4):
        slopes, want = branch_slopes(e[i], f[i], g[i], prev_p=prev[i])
        assert sel[i] == want
        assert near[i] == slopes[-1]
        assert far[i] == (slopes[0] if len(slopes) == 2 else math.inf)
    with pytest.raises(EllipticStop):
        branch_slopes(e, f, np.array([1.0, 0.0, 1e-14, -3.0]))


@pytest.mark.parametrize(
    "bad, stop",
    [
        ((0.0, 0.0, 0.0), FlowError),
        ((1.0, 0.0, 0.0), VerticalDirection),
        ((1.0, 0.0, 1.0), EllipticStop),
        ((1.0, math.nan, 1.0), FlowError),
    ],
)
def test_branch_slopes_on_arrays_raise_the_point_stop(bad, stop):
    with pytest.raises(stop) as point:
        branch_slopes(*bad)
    good = (-1.0, 0.5, 2.0)
    e, f, g = (np.array([good[k], bad[k], good[k]]) for k in range(3))
    with pytest.raises(stop) as batch:
        branch_slopes(e, f, g)
    assert type(batch.value) is type(point.value)
    assert str(batch.value) == str(point.value)


# -- the DOP853 tableau of rk45 --------------------------------------------------


def test_tableau_is_consistent():
    # an absolute 1e-15 is below one rounding unit of the larger weights
    # (33.3 in row 9), so each sum is compared on the scale of its terms
    for i in range(1, 12):
        row = flow._A[i]
        assert abs(math.fsum(row) - flow._C[i]) <= 1e-15 * max(1.0, math.fsum(abs(row)))
    assert math.fsum(flow._B) == pytest.approx(1.0, abs=1e-15)
    for weights in flow._ERR:  # the fifth- and third-order error weights
        assert abs(math.fsum(weights)) <= 1e-15 * math.fsum(abs(weights))


def test_rk45_observed_order_is_eight():
    # y' = y cos x has y = exp(sin x), back to 1 after one period; huge
    # tolerances accept every step, so max_step fixes the step size
    errors = []
    for n in (16, 32):
        _, y, stats = rk45(
            lambda x, y: y * math.cos(x), 0.0, 2 * math.pi, np.array([1.0]), rtol=1e10, atol=1e10,
            max_step=2 * math.pi / n,
        )
        assert (stats["steps"], stats["rejected"]) == (n, 0)
        errors.append(abs(y[0] - 1.0))
    assert errors[0] >= 2**7 * errors[1] > 0


def test_rk45_lands_on_every_station():
    seen = []
    stations = [0.25, 0.5, 1.0]
    x, y, stats = rk45(lambda x, y: y, 0.0, stations, np.array([1.0]), on_accept=lambda x, y: seen.append(x))
    assert set(stations) <= set(seen) and x == 1.0
    assert y[0] == pytest.approx(math.e, rel=1e-9)
    _, plain, _ = rk45(lambda x, y: y, 0.0, 1.0, np.array([1.0]))
    assert y[0] == pytest.approx(plain[0], rel=1e-10)


@pytest.fixture
def rhs_calls(monkeypatch):
    """Counts the right-hand side evaluations of every rk45 run."""
    calls = []
    real = flow.rk45

    def counting(rhs, *args, **kwargs):
        def counted(x, y, *row):
            calls.append(x)
            return rhs(x, y, *row)

        return real(counted, *args, **kwargs)

    monkeypatch.setattr(flow, "rk45", counting)
    return calls


@pytest.fixture
def chart_points(monkeypatch):
    """Counts the chart points an integrate_asymptotic run evaluates."""
    points = []
    real = tubular.binary_equation_data

    def counting(field, chart):
        equation = real(field, chart)

        def counted(x, y, z, *row):
            points.append(x)
            return equation(x, y, z, *row)

        return counted

    monkeypatch.setattr(tubular, "binary_equation_data", counting)
    return points


def _field_and_chart(name, t1_field, t1_chart):
    if name == "t1":
        return t1_field, t1_chart
    curve = Curve.from_expressions(("cos(x)", "sin(x)", "0"), (0, 2 * math.pi), closed=True)
    return circle_example_field(), tubular.TubularChart(curve)


def test_cached_t1_monodromy_stage_count(t1_field, t1_chart, rhs_calls):
    cache = monodromy.VariationalCache(t1_field, t1_chart, 2 * math.pi)
    monodromy.monodromy(t1_field, t1_chart, 2 * math.pi, cache=cache)
    assert 0 < len(rhs_calls) <= 3000  # Dormand-Prince 5(4): 5,113


# -- the stage table: one coefficient evaluation per step attempt -------------


def test_stage_table_matches_evaluating_the_coefficients_per_stage():
    # y' = a(x) y, a fitted series of two rows; the table only changes where a is evaluated
    a = TrigSeries.fit(
        lambda xs: np.stack([np.cos(xs) + 0.3 * np.sin(2 * xs), 0.5 * np.cos(3 * xs)], axis=1), 2 * math.pi
    )
    table_calls = []

    def coefficients(xs):
        table_calls.append(np.shape(xs))
        return a(xs)

    y0 = np.array([1.0, -2.0])
    _, per_stage, want = rk45(lambda x, y: a(x) * y, 0.0, 2 * math.pi, y0, rtol=1e-11, atol=1e-13)
    _, tabled, got = rk45(
        lambda x, y, row: row * y, 0.0, 2 * math.pi, y0, rtol=1e-11, atol=1e-13, coefficients=coefficients
    )
    assert (got["steps"], got["rejected"]) == (want["steps"], want["rejected"])
    assert np.all(np.abs(tabled - per_stage) <= 1e-14 * np.abs(per_stage))
    # the start row, then one table of the 11 abscissae of stages 1 to 11 per attempt
    assert table_calls == [()] + [(11,)] * (got["steps"] + got["rejected"])


def test_every_row_lies_at_the_abscissa_that_reads_it():
    # with the abscissa itself as the row, each stage and each accepted step
    # can check its row; a landing whose x + h rounds away from the station
    # (here the first) passes on_accept no row
    seen = []

    def rhs(x, y, row):
        assert row == x
        return np.cos(x) * y

    stations = [0.16720508430044376, 0.3810124269313443, 0.5125805437872851, 1.1819580885022483]
    rk45(rhs, -0.04199605819447161, stations, np.array([1.0]), rtol=1e-6, coefficients=lambda xs: xs,
         on_accept=lambda x, y, *row: seen.append((x, row)))
    assert all(row == (x,) for x, row in seen if row)
    assert (stations[0], ()) in seen and any(row for _, row in seen)


@pytest.fixture
def series_calls(monkeypatch):
    """Counts TrigSeries evaluations; the stats of every rk45 run are appended too."""
    calls, runs = [], []
    real_call, real_rk45 = TrigSeries.__call__, flow.rk45

    def counted(self, x):
        calls.append(np.shape(x))
        return real_call(self, x)

    def recorded(*args, **kwargs):
        result = real_rk45(*args, **kwargs)
        runs.append(result[2])
        return result

    monkeypatch.setattr(TrigSeries, "__call__", counted)
    monkeypatch.setattr(flow, "rk45", recorded)
    return calls, runs


def test_cached_monodromy_evaluates_one_series_per_attempt(t1_field, t1_chart, series_calls):
    cache = monodromy.VariationalCache(t1_field, t1_chart, 2 * math.pi)
    calls, runs = series_calls
    del calls[:]
    monodromy.monodromy(t1_field, t1_chart, 2 * math.pi, cache=cache)
    (stats,) = runs
    # the start row and the 64-point triangular sample are the two extra calls;
    # one call per stage made 2,382
    assert len(calls) <= stats["steps"] + stats["rejected"] + 2


def test_cached_fd_batch_evaluates_one_series_per_attempt(t1_field, t1_chart, series_calls):
    cache = ChartSpectralCache(t1_field, t1_chart, 2 * math.pi)
    calls, runs = series_calls
    del calls[:]
    monodromy.fd_poincare_derivative(t1_field, t1_chart, 2 * math.pi, cache=cache)
    (stats,) = runs
    # the tracked slope of an accepted step reads the last stage's row, so the
    # extra calls are the start row and the start's slope; one call per stage
    # made 2,270, and a series evaluation per accepted step would add steps
    assert len(calls) <= stats["steps"] + stats["rejected"] + 2


@pytest.mark.parametrize(
    "name, start, most",
    [("t1", (0.0, 0.0, 0.0), 128), ("circle-example", (0.5, 8e-4, 2e-4), 300)],  # Dormand-Prince 5(4): 128 and 709
)
def test_one_period_chart_point_count(t1_field, t1_chart, chart_points, name, start, most):
    field, chart = _field_and_chart(name, t1_field, t1_chart)
    path = integrate_asymptotic(field, chart, start, start[0] + 2 * math.pi)
    assert path.reached
    assert len(chart_points) <= most


# Q of the Dormand-Prince 5(4) integrator that DOP853 replaced
DP5_Q = {
    "t1": [[535.4916555249698, 5.6473595006527194e-12], [1734.7032347546265, 5.449090741395999e-05]],
    "circle-example": [[0.9999999999925084, 2.7878047093032876e-13], [-5.604995634289622e-13, 0.9999999999930687]],
}


@pytest.mark.parametrize("name", sorted(DP5_Q))
def test_q_matches_the_previous_integrator(t1_field, t1_chart, name):
    field, chart = _field_and_chart(name, t1_field, t1_chart)
    Q = monodromy.monodromy(field, chart, 2 * math.pi).Q
    want = np.array(DP5_Q[name])
    assert np.all(np.abs(Q - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))


# -- the curve rows of a single chart path: one curve expansion per attempt ---


@pytest.mark.parametrize("name, start", [("t1", (0.3, 0.0, 0.0)), ("circle-example", (0.5, 8e-4, 2e-4))])
def test_single_path_expands_the_curve_once_per_attempt(monkeypatch, t1_field, t1_chart, name, start):
    field, chart = _field_and_chart(name, t1_field, t1_chart)
    shapes = []
    real = Curve.jet

    def counted(self, t, k):
        shapes.append(np.shape(jets.value_of(t)))
        return real(self, t, k)

    monkeypatch.setattr(Curve, "jet", counted)
    path = integrate_asymptotic(field, chart, start, start[0] + 2 * math.pi)
    assert path.reached
    attempts = path.stats["steps"] + path.stats["rejected"]
    # the two scalar expansions are rk45's start row and the tracker's start slope
    assert sorted(shapes) == [()] * 2 + [(11,)] * attempts


def _no_rows(self, x, *args, **kwargs):
    return None if not np.ndim(x) else [None] * len(x)


@pytest.mark.parametrize("third", ["0*sqrt(1-x)", "0*exp(800*x)"])
def test_failing_curve_rows_stop_as_each_stage_expanding_itself(monkeypatch, third):
    # a negative sqrt raises in the vector pass past x = 1, 0 * inf is NaN
    # past x = 0.887: those attempts get no rows, and the run ends as one in
    # which every stage expands the curve itself; both stop "singular" with
    # the partial path
    curve = Curve.from_expressions(("cos(x)", "sin(x)", third), (0, 2 * math.pi))
    field, chart = circle_example_field(), tubular.TubularChart(curve)
    dropped = []
    real = tubular.TubularChart.curve_rows

    def recorded(self, x, *args, **kwargs):
        rows = real(self, x, *args, **kwargs)
        dropped.append(rows is None or None in rows)
        return rows

    def outcome():
        with np.errstate(all="ignore"):
            path = integrate_asymptotic(field, chart, (0.0, 0.0, 0.0), 2.0)
        return path.status, path.reason, repr([path.xs.tolist(), path.ys.tolist(), path.zs.tolist(), path.ps.tolist()])

    monkeypatch.setattr(tubular.TubularChart, "curve_rows", recorded)
    tabled = outcome()
    assert dropped[-1] and not dropped[0]
    monkeypatch.setattr(tubular.TubularChart, "curve_rows", _no_rows)
    assert outcome() == tabled
    assert tabled[0] == "singular"
    assert tabled[1].startswith("sqrt of a negative value at x = " if "sqrt" in third else "non-finite chart data")
