import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from asymptotica import cli, construct, flow, jets, monodromy, tubular
from asymptotica.curves import Curve
from asymptotica.exprlang import DomainError
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
    x, y, stats = rk45(lambda x, y: y, 0.0, 1.0, [1.0], rtol=1e-10, atol=1e-12)
    assert y[0] == pytest.approx(math.e, rel=1e-9)
    assert stats["steps"] > 0


def test_rk45_backward_integration():
    _, y, _ = rk45(lambda x, y: y, 1.0, 0.0, [math.e])
    assert y[0] == pytest.approx(1.0, rel=1e-8)


def test_rk45_tolerance_controls_error():
    errors = []
    for rtol in (1e-6, 1e-9):
        _, y, _ = rk45(lambda x, y: [math.cos(x)], 0.0, 10.0, [0.0], rtol=rtol, atol=1e-14)
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
    i, j = np.array(cache.monomials).T
    for x, y, z in zip(xs.tolist(), ys.tolist(), zs.tolist()):
        got = cache.efgab(x, y, z, cache.series(x).tolist())
        assert got == cache.efgab(x, y, z, cache.series(np.array([x])).tolist()[0])
        # the float polynomial is the series' coefficients times the monomials
        table = cache.series(x).reshape(len(got), len(cache.monomials))
        for v, w in zip(got, table @ (y**i * z**j)):
            assert abs(v - w) <= 1e-14 * max(1.0, abs(w))
        for v, w in zip(got, direct(x, y, z)):
            assert v == pytest.approx(w, rel=1e-6, abs=1e-7)


def _written_cubic(row, y, z):
    # efgab's degree-3 body as it was written by hand: the reference for the generated code's bits
    yy, yz, zz = y * y, y * z, z * z
    yyy, yyz, yzz, zzz = yy * y, yz * y, yz * z, zz * z
    return [
        row[k] + row[k + 1] * z + row[k + 2] * y + row[k + 3] * zz + row[k + 4] * yz + row[k + 5] * yy
        + row[k + 6] * zzz + row[k + 7] * yzz + row[k + 8] * yyz + row[k + 9] * yyy
        for k in range(0, len(row), 10)
    ]


def _monomials(degree):
    return [(i, total - i) for total in range(degree + 1) for i in range(total + 1)]


def test_generated_efgab_keeps_the_bits_of_the_written_cubic(t1_chart):
    assert flow.CACHE_DEGREE == 3 and list(ChartSpectralCache.monomials) == _monomials(3)
    rng = np.random.default_rng(7)
    r = t1_chart.radius
    # t1's stage rows reach |3.9e7| (the g row); take magnitudes 1e-8 to 1e8 of either
    # sign, with exact zeros of both signs, at points up to the tube radius and on its axes
    points = [(y, z) for y in (0.0, -0.0, r, -r) for z in (0.0, -0.0, r, -r)]
    points += rng.uniform(-r, r, (40, 2)).tolist() + (rng.uniform(-r, r, (20, 2)) * 1e-6).tolist()
    for y, z in points:
        row = (rng.choice([-1.0, 1.0], 50) * 10 ** rng.uniform(-8, 8, 50)).tolist()
        row[rng.integers(50)], row[rng.integers(50)] = 0.0, -0.0
        got = ChartSpectralCache.efgab(None, 0.5, y, z, row)
        assert [v.hex() for v in got] == [v.hex() for v in _written_cubic(row, y, z)]


@pytest.mark.parametrize("degree", [1, 2, 4])
def test_generated_sums_at_other_degrees(degree):
    monomials = _monomials(degree)
    n = len(monomials)
    efgab = flow._polynomial_sums(monomials, 5)
    rng = np.random.default_rng(degree)
    for y, z in rng.uniform(-0.1, 0.1, (30, 2)).tolist() + [(0.0, -0.0), (-0.1, 0.1)]:
        row = rng.uniform(-1, 1, 5 * n).tolist()
        want = [sum(row[k + m] * y**i * z**j for m, (i, j) in enumerate(monomials)) for k in range(0, 5 * n, n)]
        got = efgab(None, 0.5, y, z, row)
        assert len(got) == 5
        for v, w in zip(got, want):
            assert abs(v - w) <= 1e-14 * max(1.0, abs(w))


def test_each_generated_function_has_its_own_file_name_for_a_profile():
    # cProfile keys a function by (file name, line, name): generated code under one
    # file name merges into one "<string>:1(<lambda>)" entry
    steps = [flow._step_function(n, with_rows) for n in range(9) for with_rows in (False, True)]
    names = [fn.__code__.co_filename for fn in steps]
    assert len(steps) == 18 and len(set(names)) == 18
    assert names[4:6] == ["<rk45 step 2>", "<rk45 step 2 with rows>"]
    assert names[-1] == "<rk45 step 8 with rows>"
    assert flow._step_function(8, True) is steps[-1]  # generated once per size
    assert ChartSpectralCache.efgab.__code__.co_filename == "<ChartSpectralCache.efgab>"
    # _track's rhs, per size, without and with rows of a cache's monomials; bind and the rhs it returns share one
    binds = [flow._rhs_function(n, monomials) for n in range(1, 5) for monomials in (None, flow._MONOMIALS)]
    binds.append(flow._rhs_function(4, ((0, 0), (0, 1), (1, 0))))
    rhs_names = [fn.__code__.co_filename for fn in binds]
    assert rhs_names[:2] == ["<_track rhs 1>", "<_track rhs 1 on 10 monomials>"]
    assert rhs_names[-1] == "<_track rhs 4 on 3 monomials>"
    assert len(set(rhs_names)) == 9 and not set(rhs_names) & set(names)
    assert [binds[-1](None, 1.0, [0.0] * 4).__code__.co_filename] == rhs_names[-1:]
    assert flow._rhs_function(4, flow._MONOMIALS) is binds[7]  # generated once per kind
    # a chart program is named after its field, or after the field's type when it has no name
    fields = [cli.resolve_field(name) for name in ("t1", "circle-example")]
    fields.append((construct.TubularField(fields[0][0].curve), fields[0][1]))
    programs = [tubular.ChartProgram() for _ in fields]
    for program, (field, chart) in zip(programs, fields):
        program.run(field, chart, 0.3, 0.01, -0.02)
    program_names = [program.code.__code__.co_filename for program in programs]
    assert program_names == ["<chart program t1>", "<chart program circle-example>", "<chart program TubularField>"]
    assert not set(program_names) & set(names + rhs_names)


def test_no_step_is_generated_at_import():
    # a run that integrates nothing (--help, the benchmark's set-up) pays no compile
    code = "import asymptotica.cli, asymptotica.flow as f; print(f._step_function.cache_info().currsize," \
           " f._rhs_function.cache_info().currsize)"
    src = str(Path(flow.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "0 0\n"


# -- the generated step attempt against the stage loop it replaced ------------


def _stage_sum(expression, rows):
    # lambda y, dh, ks: [expression for v, k_i, ... in zip(y, ks[i], ...)], {j} in expression
    # being the sum of w * k_i over the nonzero weights w of rows[j], as round-trip literals
    used = sorted({i for row in rows for i, w in enumerate(row) if w})
    sums = ["(" + " + ".join(f"{float(w)!r} * k{i}" for i, w in enumerate(row) if w) + ")" for row in rows]
    names, slopes = "".join(f", k{i}" for i in used), "".join(f", ks[{i}]" for i in used)
    return eval(f"lambda y, dh, ks: [{expression.format(*sums)} for v{names} in zip(y{slopes})]")


_STAGE_STATES = [None] + [_stage_sum("v + dh * {0}", [row]) for row in flow._A[1:]]
_UPDATE = _stage_sum("v + dh * {0}", [flow._B])
_ERRORS = _stage_sum("({0}, {1})", flow._ERR)


def _stage_loop(rhs, x, dh, y, f0, rows, atol, rtol):
    # rk45's step attempt as it was written before the generated one: the reference for its bits
    rows = [()] * 11 if rows is None else [(row,) for row in rows]
    ks = [f0] + [None] * 11
    for i in range(1, 12):
        ks[i] = rhs(x + dh * flow._C[i], _STAGE_STATES[i](y, dh, ks), *rows[i - 1])
    y1 = _UPDATE(y, dh, ks)
    err5 = err3 = 0.0
    for a, b, (u, w) in zip(y, y1, _ERRORS(y, dh, ks)):
        s = atol + rtol * max(abs(b), abs(a))
        u, w = (u / s, w / s) if s else (u * math.inf, w * math.inf)
        err5, err3 = err5 + u * u, err3 + w * w
    return y1, err5, err3


def _hex(values):
    return [float(v).hex() for v in values]


def _draws(rng, n):
    # magnitudes 1e-8 to 1e8 of either sign, with exact zeros of both signs, NaN and infinities
    values = (rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-8, 8, n)).tolist()
    for special in (0.0, -0.0, math.nan, math.inf, -math.inf):
        if rng.random() < 0.3:
            values[rng.integers(n)] = special
    return values


@pytest.mark.parametrize("with_rows", [False, True], ids=["no-rows", "rows"])
def test_generated_step_keeps_the_bits_of_the_stage_loop(with_rows):
    rng = np.random.default_rng(30)
    for n in range(1, 9):
        step = flow._step_function(n, with_rows)
        for atol, rtol in [(1e-12, 1e-10), (0.0, 0.0), (0.0, 1e-10), (1e-12, 0.0)] * 5:
            y, f0 = _draws(rng, n), _draws(rng, n)
            x, dh = rng.uniform(-5, 5), float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-6, 0))
            rows = rng.uniform(-2, 2, 11).tolist() if with_rows else None
            if with_rows and rng.random() < 0.3:
                rows[rng.integers(11)] = -0.0
            results, calls = [], []
            for attempt in (_stage_loop, step):
                seen = []

                def rhs(x, state, *row):
                    # each slope reads x, its entry, its neighbour and the row, so every stage state counts
                    seen.append(_hex([x, *state, *row]))
                    shift = row[0] if row else 0.0
                    return [(v - x) * 0.75 + state[j - 1] * 0.125 + shift for j, v in enumerate(state)]

                y1, err5, err3 = attempt(rhs, x, dh, list(y), list(f0), rows, atol, rtol)
                results.append(_hex([*y1, err5, err3]))
                calls.append(seen)
            assert results[0] == results[1] and calls[0] == calls[1]
            assert len(calls[1]) == 11


def test_rk45_runs_keep_the_bits_of_the_stage_loop(monkeypatch, t1_field, t1_chart):
    # whole runs on the stage loop against the generated steps: the Q integration (4 floats,
    # rows), the FD batch (8 floats, rows) and a chart path (2 floats, no rows)
    circle = _field_and_chart("circle-example", t1_field, t1_chart)

    def runs():
        result = monodromy.monodromy(t1_field, t1_chart, 2 * math.pi)
        fd = monodromy.fd_poincare_derivative(t1_field, t1_chart, 2 * math.pi, h=1e-5)
        path = integrate_asymptotic(*circle, (0.5, 8e-4, 2e-4), 2.0)
        stats = (result.stats, path.stats, path.status)
        return stats, [a.tobytes() for a in (result.Q, fd, path.xs, path.ys, path.zs, path.ps)]

    generated = runs()
    monkeypatch.setattr(flow, "_step_function", lambda n, with_rows: _stage_loop)
    assert runs() == generated
    assert (generated[0][0]["steps"], generated[0][0]["rejected"]) == (158, 44)


@pytest.mark.parametrize("coefficients", [None, lambda xs: xs], ids=["no-rows", "rows"])
def test_rk45_on_an_empty_state(coefficients):
    rhs = lambda x, y, *row: []
    x, y, stats = rk45(rhs, 0.0, 1.0, np.empty((0, 2)), coefficients=coefficients)
    assert x == 1.0 and y.shape == (0, 2) and stats["status"] == "reached"
    assert (stats["steps"], stats["rejected"]) == (9, 0)


# -- the generated right-hand side against the point loop it replaced ---------


def _reference_rhs_function(n, monomials):
    # _track's rhs as it was written before the generated one, as the same
    # bind(equation, radius, prev): the reference for its bits and its stops
    efgab = None if monomials is None else flow._polynomial_sums(monomials, 5)

    def bind(equation, radius, prev):
        data = equation if efgab is None else (lambda x, y, z, row: efgab(None, x, y, z, row))

        def rhs(x, state, *row):
            out = []
            for i, y, z in zip(range(n), state[0::2], state[1::2]):
                if abs(y) > radius or abs(z) > radius:
                    raise flow._Stop("tube-exit", f"|y| or |z| exceeded radius {radius} at x = {x}")
                try:
                    e, f, g, A, B = data(x, y, z, *row)
                    slopes, p = branch_slopes(e, f, g, prev[i])
                except (FlowError, tubular.ReductionSingular, DomainError) as exc:
                    at = f" at x = {x}" if type(exc) in (FlowError, DomainError) else ""
                    raise flow._Stop(flow._STATUS.get(type(exc), "singular"), f"{exc}{at}")
                if len(slopes) == 2 and abs(slopes[0] - slopes[1]) < flow.COLLISION_TOL * (1 + abs(p)):
                    raise flow._Stop("parabolic", "root branches collided")
                out += p, A + B * p
            return out

        return rhs

    return bind


def _rhs_outcomes(monomials, points, prev, radius, x, row=None):
    # (generated, reference): the hex of each slope, or a stop's (status, reason); points
    # holds each point's (y, z, data), data being (e, f, g, A, B) or an exception to raise
    outcomes = []
    for make in (flow._rhs_function, _reference_rhs_function):
        calls = iter([data for _, _, data in points])

        def equation(x, y, z):
            data = next(calls)
            if isinstance(data, Exception):
                raise data
            return data

        rhs = make(len(points), monomials)(equation if monomials is None else None, radius, list(prev))
        state = [v for y, z, _ in points for v in (y, z)]
        try:
            outcomes.append(_hex(rhs(x, state) if monomials is None else rhs(x, state, row)))
        except flow._Stop as stop:
            outcomes.append((stop.status, stop.reason))
    return outcomes


# one point of data (e, f, g, A, B), its tracked slope, and the outcome it must have
_RHS_CASES = {
    "hyperbolic": ((1.0, -3.0, 2.0, 0.5, -0.25), 0.0, "value"),
    "tie-keeps-the-first-root": ((-1.0, 0.0, 1.0, 1.0, 1.0), 0.0, "value"),
    "tie-at-signed-zeros": ((-1.0, -0.0, 1.0, -0.0, 0.0), -0.0, "value"),
    "tie-off-zero": ((0.0, -1.0, 1.0, 2.0, 3.0), 1.0, "value"),
    "linear": ((1.0, 0.5, 0.0, 1.0, 2.0), 0.3, "value"),
    "linear-negative-zero-g": ((-0.0, 0.5, -0.0, 1.0, 2.0), 0.0, "value"),
    "linear-at-the-threshold": ((1.0, 0.5, 1e-12, 1.0, 2.0), 0.0, "value"),
    "quadratic-above-the-threshold": ((1.0, 0.5, 1.0000000000000002e-12, 1.0, 2.0), 0.0, "value"),
    "non-finite-e": ((math.nan, 1.0, 1.0, 0.0, 0.0), 0.0, "singular"),
    "non-finite-g": ((1.0, 1.0, -math.inf, 0.0, 0.0), 0.0, "singular"),
    "all-zero": ((0.0, -0.0, 0.0, 1.0, 1.0), 0.0, "singular"),
    "vertical": ((1.0, 0.0, 0.0, 1.0, 1.0), 0.0, "vertical"),
    "vertical-relative": ((1.0, 1e-13, -1e-13, 1.0, 1.0), 0.0, "vertical"),
    "elliptic": ((1.0, 0.0, 1.0, 1.0, 1.0), 0.0, "elliptic"),
    "collision": ((1.0, -1.0, 1.0, 1.0, 1.0), 1.0, "parabolic"),
    "collision-at-a-zero-root": ((0.0, -0.0, 1.0, 1.0, 1.0), 0.0, "parabolic"),
    "roots-exactly-the-collision-distance-apart": ((0.0, -5e-7, 1.0, 1.0, 1.0), 0.0, "value"),  # 0 and 1e-6
    "domain-error": (DomainError("sqrt of a negative number"), 0.0, "singular"),
    "reduction-singular": (tubular.ReductionSingular("c = 0.0 at (x, y, z) = (0.5, 0.0, 0.0)"), 0.0, "singular"),
    "equation-elliptic": (EllipticStop("discriminant -2.0 < 0"), 0.0, "elliptic"),
}


@pytest.mark.parametrize("case", sorted(_RHS_CASES))
def test_generated_rhs_stops_and_chooses_as_the_point_loop(case):
    data, near, status = _RHS_CASES[case]
    good = ((1.0, -3.0, 2.0, 0.5, -0.25), 0.7)
    # the case alone, then between two good points, the last of which it must stop before
    for points, prev in [([(1e-3, -0.0, data)], [near]),
                         ([(0.0, 0.0, good[0]), (-1e-3, 2e-3, data), (0.0, 0.0, good[0])], [good[1], near, good[1]])]:
        generated, reference = _rhs_outcomes(None, points, prev, 0.01, 0.5)
        assert generated == reference
        assert (generated[0] if isinstance(generated, tuple) else "value") == status
    assert _rhs_outcomes(None, [(0.02, 0.0, data)], [near], 0.01, 0.5)[0][0] == "tube-exit"


def _draw(rng, scale=8):
    # magnitudes 1e-scale to 1e+scale of either sign, sometimes a signed zero
    if rng.random() < 0.1:
        return float(rng.choice([0.0, -0.0]))
    return float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-scale, scale))


def _random_point_data(rng):
    # (e, f, g, A, B) mostly of a hyperbolic or elliptic point, often of an edge case
    e, f, g, A, B = (_draw(rng) for _ in range(5))
    kind = rng.integers(8)
    if kind == 1:  # linear, or on either side of its threshold
        g = f * float(rng.choice([0.0, 1e-12, 1.0000000000000002e-12, 1e-13]))
    elif kind == 2:  # a double root, nudged: collisions and near collisions
        root = _draw(rng, 3)
        f, e = -g * root, g * root * root * (1 + _draw(rng, 1) * 1e-7)
    elif kind == 3:  # signed zeros in e and f
        e, f = float(rng.choice([0.0, -0.0])), float(rng.choice([0.0, -0.0, _draw(rng)]))
    elif kind == 4:  # a non-finite entry
        e, f, g = [float(rng.choice([math.nan, math.inf, -math.inf])) if rng.random() < 0.4 else v for v in (e, f, g)]
    elif kind == 5:  # symmetric roots +-sqrt(-e/g): a tie at a zero tracked slope
        e, f = -abs(e) * (1 if g > 0 else -1), float(rng.choice([0.0, -0.0]))
    return e, f, g, A, B


@pytest.mark.parametrize("degree", [None, 1, 3], ids=["equation", "degree-1-rows", "cubic-rows"])
def test_generated_rhs_keeps_the_bits_of_the_point_loop(degree):
    rng = np.random.default_rng(31 if degree is None else degree)
    monomials = None if degree is None else tuple(_monomials(degree))
    radius, seen = 0.01, set()
    for _ in range(600):
        n = int(rng.integers(1, 6))
        row = None
        if monomials is None:
            points = [(float(rng.uniform(-radius, radius)), float(rng.uniform(-radius, radius)), _random_point_data(rng))
                      for _ in range(n)]
        else:
            # the row's constant terms are one point's edge case; the other terms move it off that case
            row = [v * 10 ** rng.uniform(-6, 2) for v in _draws(rng, 5 * len(monomials))]
            for k, v in zip(range(0, len(row), len(monomials)), _random_point_data(rng)):
                row[k] = v
            points = [(float(rng.choice([0.0, -0.0])), float(rng.choice([0.0, -0.0])), None) if rng.random() < 0.5
                      else (float(rng.uniform(-radius, radius)), float(rng.uniform(-radius, radius)), None)
                      for _ in range(n)]
        if rng.random() < 0.1:  # on the tube's wall, past it, or NaN
            y = float(rng.choice([radius, -radius, 1.5 * radius, -1.5 * radius, math.nan]))
            points[rng.integers(n)] = (y, *points[rng.integers(n)][1:])
        prev = [float(rng.choice([0.0, -0.0])) if rng.random() < 0.3 else _draw(rng, 3) for _ in range(n)]
        generated, reference = _rhs_outcomes(monomials, points, prev, radius, float(rng.uniform(-5, 5)), row)
        assert generated == reference
        seen.add("value" if isinstance(generated, list) else (generated[0], generated[1].split(" ")[0]))
    # every stop that the draws can reach was reached
    assert {"value", ("tube-exit", "|y|"), ("singular", "non-finite"), ("elliptic", "discriminant"),
            ("parabolic", "root")} <= seen


def test_rk45_runs_keep_the_bits_of_the_point_loop(monkeypatch, t1_field, t1_chart):
    # whole runs on the point loop against the generated rhs: the t1 FD batch (4 points,
    # cubic rows), a circle-example path (1 point, the chart program) and a stop
    circle = _field_and_chart("circle-example", t1_field, t1_chart)

    def runs():
        fd = monodromy.fd_poincare_derivative(t1_field, t1_chart, 2 * math.pi, h=1e-5)
        path = integrate_asymptotic(*circle, (0.5, 8e-4, 2e-4), 2.0)
        stop = integrate_asymptotic(t1_field, t1_chart, (0.0, 0.008, 0.0), 2 * math.pi)
        stats = (path.stats, path.status, stop.stats, stop.status, stop.reason)
        return stats, [a.tobytes() for a in (fd, path.xs, path.ys, path.zs, path.ps, stop.xs, stop.ys, stop.ps)]

    generated = runs()
    monkeypatch.setattr(flow, "_rhs_function", _reference_rhs_function)
    assert runs() == generated


@pytest.mark.parametrize(
    "starts, shape",
    [([[1e-4, 0.0, 0.0]], "(1, 3)"), ([1e-4, 0.0], "(2,)"), (np.empty((0, 2)), "(0, 2)"), ([], "(0,)")],
    ids=["three-columns", "flat", "no-starts", "empty-list"],
)
def test_integrate_batch_rejects_malformed_starts_before_integrating(monkeypatch, t1_field, t1_chart, starts, shape):
    monkeypatch.setattr(flow, "rk45", lambda *args, **kwargs: pytest.fail("integrated a malformed batch"))
    with pytest.raises(ValueError, match=re.escape(f"shape (n, 2) with n >= 1, not {shape}")):
        integrate_batch(t1_field, t1_chart, starts, 0.0, 1.0)


def test_integrate_batch_rejects_a_batch_over_the_bound_before_generating_code(t1_field, t1_chart):
    # the generated step and rhs grow with the starts: a 512-start step compiles for over half a second
    before = flow._step_function.cache_info(), flow._rhs_function.cache_info()
    with pytest.raises(ValueError, match=f"^a batch takes at most MAX_BATCH = {flow.MAX_BATCH} starts, not 512$"):
        integrate_batch(t1_field, t1_chart, np.zeros((512, 2)), 0.0, 1.0)
    assert (flow._step_function.cache_info(), flow._rhs_function.cache_info()) == before
    ends = integrate_batch(t1_field, t1_chart, np.zeros((flow.MAX_BATCH, 2)), 0.0, 0.1)
    assert ends.shape == (flow.MAX_BATCH, 2)


def test_rk45_rejects_a_state_over_the_bound_before_generating_code():
    # the largest state the library makes is a full batch's (y, z) pairs; a
    # 64-float step compiled for 35-51 ms, growing linearly with the size
    before = flow._step_function.cache_info()
    limit = 2 * flow.MAX_BATCH
    with pytest.raises(ValueError, match=f"^rk45 takes a state of at most 2 \\* MAX_BATCH = {limit} floats, not 64$"):
        flow.rk45(lambda x, y: [0.0] * len(y), 0.0, 1.0, [0.0] * 64)
    assert flow._step_function.cache_info() == before
    _, y, stats = flow.rk45(lambda x, y: [1.0] * len(y), 0.0, 1.0, np.zeros(limit))
    assert stats["status"] == "reached" and np.allclose(y, 1.0)


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
        return [math.nan] if x > 0.5 else y

    x, y, stats = rk45(rhs, 0.0, 1.0, [1.0])
    assert stats["status"] == "singular"
    assert x <= 0.5 and y[0] == pytest.approx(math.exp(x), rel=1e-8)


@pytest.mark.parametrize(
    "rhs, y0, rtol, want",
    [
        # (u / scale)^2 past the float range: ** 2 would raise OverflowError
        (lambda x, y: [1e200 if x > 0.5 else 0.0], [0.0], 0.0, (0.49999999999998346, 40, 55)),
        # slopes past the float range: inf - inf is NaN in the stage sums
        (lambda x, y: [v * 1e300 for v in y], [1e10], 1e-10, (0.0, 0, 19)),
    ],
    ids=["squared-error", "slopes"],
)
def test_rk45_overflow_ends_in_a_singular_stop(rhs, y0, rtol, want):
    # an inf or NaN error norm rejects and shrinks the step, as the array norm did
    x, _, stats = rk45(rhs, 0.0, 1.0, y0, rtol=rtol)
    assert (x, stats["steps"], stats["rejected"]) == want
    assert stats["status"] == "singular" and stats["reason"].startswith("step size underflow")


def test_rk45_atol_zero():
    # a zero state is fine while the step's end is not zero
    x, y, stats = rk45(lambda x, y: [1.0], 0.0, 1.0, [0.0], atol=0.0)
    assert stats["status"] == "reached" and y.tolist() == [pytest.approx(1.0, rel=1e-14)]
    # a component pinned at 0 has scale 0: 0 / 0 is NaN, as numpy divides, and never raises
    x, y, stats = rk45(lambda x, y: [y[0], 0.0], 0.0, 1.0, [1.0, 0.0], atol=0.0)
    assert (x, stats["steps"], stats["status"]) == (0.0, 0, "singular")
    assert y.tolist() == [1.0, 0.0]


def test_rk45_state_is_a_list_of_floats_and_y_keeps_its_shape():
    seen = []

    def rhs(x, y):
        seen.append(y)
        return [-v for v in y]

    _, y, _ = rk45(rhs, 0.0, 1.0, np.eye(2), on_accept=lambda x, y: seen.append(y))
    assert {type(state) for state in seen} == {list} and {type(v) for state in seen for v in state} == {float}
    assert y.shape == (2, 2) and y == pytest.approx(np.eye(2) / math.e, rel=1e-9)


@pytest.mark.parametrize(
    "bad, stop",
    [
        ((0.0, 0.0, 0.0), FlowError),
        ((1.0, 0.0, 0.0), VerticalDirection),
        ((1.0, 0.0, 1.0), EllipticStop),
        ((1.0, math.nan, 1.0), FlowError),
    ],
)
def test_lockstep_batch_raises_the_point_stop(bad, stop):
    # a lockstep batch whose middle start is bad stops as that start alone;
    # the good starts (y = 0 and 0.25, slope 1/2) never reach y = 1, and
    # A = B = 0 keeps every z at 0
    good = (-1.0, 0.5, 2.0)

    def outcome(starts):
        equation = lambda x, y, z: (*(bad if y == 1.0 else good), 0.0, 0.0)
        with pytest.raises(stop) as info:
            _, _, _, stats = flow._track(equation, 0.0, 1.0, np.array(starts), math.inf, 1e-10, 1e-12)
            flow.require_reached(stats)
        return type(info.value), str(info.value)

    alone = outcome([[1.0, 0.0]])
    assert outcome([[0.0, 0.0], [1.0, 0.0], [0.25, 0.0]]) == alone
    assert alone[0] is stop


@pytest.mark.parametrize("name, start", [("t1", (0.3, 1e-4, -5e-5)), ("circle-example", (0.5, 8e-4, 2e-4))])
def test_one_start_batch_is_the_single_path(t1_field, t1_chart, name, start):
    # one tracker: a batch of one start makes integrate_asymptotic's steps, bit for bit
    field, chart = _field_and_chart(name, t1_field, t1_chart)
    x0, y0, z0 = start
    path = integrate_asymptotic(field, chart, start, x0 + 2.0, rtol=1e-10, atol=1e-12)
    assert path.reached
    ends = integrate_batch(field, chart, [[y0, z0]], x0, x0 + 2.0, rtol=1e-10, atol=1e-12)
    assert ends.tolist() == [[path.ys[-1], path.zs[-1]]]


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
    # tolerances accept every step, so n runs chained over uniform intervals
    # take the same 9 steps each, scaled by 1/n (16 against 32 runs reaches roundoff)
    errors = []
    for n in (2, 4):
        y = [1.0]
        edges = np.linspace(0, 2 * math.pi, n + 1).tolist()
        for a, b in zip(edges, edges[1:]):
            _, y, stats = rk45(lambda x, y: [v * math.cos(x) for v in y], a, b, y, rtol=1e10, atol=1e10)
            assert (stats["steps"], stats["rejected"]) == (9, 0)
        errors.append(abs(y[0] - 1.0))
    assert errors[0] >= 2**7 * errors[1] > 0


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

        def counted(x, y, z):
            points.append(x)
            return equation(x, y, z)

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
        return a(xs).tolist()

    y0 = [1.0, -2.0]
    scaled = lambda row, y: [c * v for c, v in zip(row, y)]
    _, per_stage, want = rk45(lambda x, y: scaled(a(x).tolist(), y), 0.0, 2 * math.pi, y0, rtol=1e-11, atol=1e-13)
    _, tabled, got = rk45(
        lambda x, y, row: scaled(row, y), 0.0, 2 * math.pi, y0, rtol=1e-11, atol=1e-13, coefficients=coefficients
    )
    assert (got["steps"], got["rejected"]) == (want["steps"], want["rejected"])
    assert np.all(np.abs(tabled - per_stage) <= 1e-14 * np.abs(per_stage))
    # the start row, then one table of the 11 abscissae of stages 1 to 11 per attempt
    assert table_calls == [()] + [(11,)] * (got["steps"] + got["rejected"])


def test_every_row_lies_at_the_abscissa_that_reads_it():
    # with the abscissa itself as the row, each stage and each accepted step
    # can check its row; a landing whose x + h rounds away from the end point
    # (as here) passes on_accept no row
    seen = []

    def rhs(x, y, row):
        assert row == x
        return [math.cos(x) * v for v in y]

    x1 = 0.0019439320867797743
    rk45(rhs, -0.061636570372949076, x1, [1.0], rtol=1e-6, coefficients=lambda xs: xs,
         on_accept=lambda x, y, *row: seen.append((x, row)))
    assert all(row == (x,) for x, row in seen if row)
    assert seen[-1] == (x1, ()) and any(row for _, row in seen)


@pytest.fixture
def series_calls(monkeypatch):
    """Counts TrigSeries evaluations; each rk45 run appends its stats and the
    number of evaluations made inside it."""
    calls, runs = [], []
    real_call, real_rk45 = TrigSeries.__call__, flow.rk45

    def counted(self, x):
        calls.append(np.shape(x))
        return real_call(self, x)

    def recorded(*args, **kwargs):
        before = len(calls)
        result = real_rk45(*args, **kwargs)
        runs.append((result[2], len(calls) - before))
        return result

    monkeypatch.setattr(TrigSeries, "__call__", counted)
    monkeypatch.setattr(flow, "rk45", recorded)
    return calls, runs


def test_cached_monodromy_evaluates_one_series_per_attempt(t1_field, t1_chart, series_calls):
    cache = monodromy.VariationalCache(t1_field, t1_chart, 2 * math.pi)
    calls, runs = series_calls
    del calls[:]
    monodromy.monodromy(t1_field, t1_chart, 2 * math.pi, cache=cache)
    ((stats, _),) = runs
    # the start row and the 64-point triangular sample are the two extra calls;
    # one call per stage made 2,382
    assert len(calls) <= stats["steps"] + stats["rejected"] + 2


def test_cached_fd_batch_evaluates_one_series_per_attempt(t1_field, t1_chart, series_calls):
    monodromy.fd_poincare_derivative(t1_field, t1_chart, 2 * math.pi)
    ((stats, inside),) = series_calls[1]
    # the tracked slope of an accepted step reads the last stage's row, so the
    # start row is the one extra call inside the run; one call per stage made
    # 2,270, and a series evaluation per accepted step would add steps
    assert inside <= stats["steps"] + stats["rejected"] + 1


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


# -- the chart program of a single chart path: one recording per run ---------


@pytest.mark.parametrize("name, start", [("t1", (0.3, 0.0, 0.0)), ("circle-example", (0.5, 8e-4, 2e-4))])
def test_single_path_records_once_and_multiplies_no_jet_after(monkeypatch, t1_field, t1_chart, name, start):
    field, chart = _field_and_chart(name, t1_field, t1_chart)
    events = []
    real_mul, real_compile = jets.Jet.__mul__, jets.Tape.compile

    def counted_mul(self, other):
        events.append("mul")
        return real_mul(self, other)

    def counted_compile(self, *args):
        events.append("compile")
        return real_compile(self, *args)

    monkeypatch.setattr(jets.Jet, "__mul__", counted_mul)
    monkeypatch.setattr(jets.Jet, "__rmul__", counted_mul)
    monkeypatch.setattr(jets.Tape, "compile", counted_compile)
    path = integrate_asymptotic(field, chart, start, start[0] + 2 * math.pi)
    assert path.reached and path.stats["steps"] > 5
    # the start point records the pipeline (its jet products); every later point replays it
    assert events.count("compile") == 1
    assert events.index("compile") == len(events) - 1 and events.count("mul") > 0


@pytest.mark.parametrize(
    "name, start", [("t1", (0.3, 0.0, 0.0)), ("circle-example", (0.5, 8e-4, 2e-4)), ("saddle", (0.0, 1e-4, 0.0))]
)
def test_single_path_stays_on_the_float_replay(monkeypatch, t1_field, t1_chart, saddle, name, start):
    # an np.float64 anywhere in the state or the replay's outputs would fail
    # chart_data's float test and send every later stage through the jet
    # pipeline, with the same output: only the recording may reduce
    field, chart = saddle if name == "saddle" else _field_and_chart(name, t1_field, t1_chart)
    reductions, types = [], set()
    real_reduce, real_equation = tubular._reduce, tubular.binary_equation_data

    def counted_reduce(*args):
        reductions.append(args[2:5])
        return real_reduce(*args)

    def typed_equation(field, chart):
        equation = real_equation(field, chart)

        def typed(x, y, z):
            out = equation(x, y, z)
            types.update(map(type, (x, y, z, *out)))
            return out

        return typed

    monkeypatch.setattr(tubular, "_reduce", counted_reduce)
    monkeypatch.setattr(tubular, "binary_equation_data", typed_equation)
    path = integrate_asymptotic(field, chart, start, start[0] + 2.0)
    assert path.reached and path.stats["steps"] > 5
    assert len(reductions) == 1 and types == {float}


def _jet_pipeline_only(self, field, chart, x, y, z):
    return tubular._reduce(field, chart, x, y, z, 0)


@pytest.mark.parametrize(
    "third, x1, reason",
    [
        ("0*sqrt(1-x)", 2.0, "sqrt of a negative value at x = "),
        ("0*exp(800*x)", 2.0, "non-finite chart data"),
        ("0/(x - 1)", 1.0, "division by zero at x = 1.0"),
    ],
    ids=["0*sqrt(1-x)", "0*exp(800*x)", "0/(x - 1)"],
)
def test_failing_curves_stop_as_the_jet_pipeline(monkeypatch, third, x1, reason):
    # a negative sqrt raises past x = 1 (the replay's guard trips), 0 * inf
    # is NaN past x = 0.887 (the replay's float exp is inf, as numpy's), and
    # the landing on x = 1 divides by zero: each stops "singular" with the
    # reason and the partial path of a run whose every point takes the jet pipeline
    curve = Curve.from_expressions(("cos(x)", "sin(x)", third), (0, 2 * math.pi))
    field, chart = circle_example_field(), tubular.TubularChart(curve)

    def outcome():
        with np.errstate(all="ignore"):
            path = integrate_asymptotic(field, chart, (0.0, 0.0, 0.0), x1)
        return path.status, path.reason, repr([path.xs.tolist(), path.ys.tolist(), path.zs.tolist(), path.ps.tolist()])

    replayed = outcome()
    monkeypatch.setattr(tubular.ChartProgram, "run", _jet_pipeline_only)
    assert outcome() == replayed
    assert replayed[0] == "singular"
    assert replayed[1].startswith(reason)


# circle-example's field as a document, on the unit circle with a third
# component that is 0 away from its pole at x = 1
POLE_DOCUMENT = json.dumps(
    {
        "xi": ["y*(x^2*z + y^2*z - x^2 - y^2 - 2*z + 1) + x*z", "-x*(x^2*z + y^2*z - x^2 - y^2 - 2*z + 1) + y*z",
               "-x^2 - y^2"],
        "curve": "cos(x),sin(x),0/(x - 1)",
    }
)


@pytest.mark.parametrize("document, to", [(POLE_DOCUMENT, "1"), (POLE_DOCUMENT.replace("0/(x - 1)", "0*exp(800*x)"), "2")])
def test_a_failing_document_exits_as_the_jet_pipeline(monkeypatch, capsys, document, to):
    # stdout, stderr and the exit code of integrate are those of a run whose
    # every point takes the jet pipeline
    def outcome():
        with np.errstate(all="ignore"):
            code = cli.main(["integrate", "--field", document, "--start", "0,0,0", "--to", to, "--format", "json"])
        return (code, *capsys.readouterr())

    replayed = outcome()
    monkeypatch.setattr(tubular.ChartProgram, "run", _jet_pipeline_only)
    assert outcome() == replayed
    assert replayed[0] == 3 and json.loads(replayed[1])["status"] == "singular"


def test_step_budget_stops_the_run_singular(monkeypatch):
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    _, _, stats = rk45(lambda x, y: [-v for v in y], 0.0, 10.0, [1.0])
    assert stats["status"] == "singular"
    assert stats["reason"].startswith("step budget of 3 attempts spent at x = ")
    assert stats["steps"] + stats["rejected"] == 3
