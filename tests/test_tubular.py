import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymptotica import cli, jets, tubular, verify
from asymptotica.construct import InflectionOfProjection, TubularField, build_lac, realize_t5, t1_curve
from asymptotica.curves import Curve
from asymptotica.exprlang import DomainError
from asymptotica.flow import integrate_asymptotic
from asymptotica.jets import Jet
from asymptotica.planefield import AmbientField, circle_example_field
from asymptotica.spectral import TrigSeries
from asymptotica.tubular import (
    PointClass,
    ReductionSingular,
    TubularChart,
    chart_data,
    classify,
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
        _, Y, Z = chart.expand(x, 0.0, 0.0, 1).frame
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


def test_a_path_past_the_radius_stops_at_tube_exit():
    # the tube test of the tracker: every accepted point lies inside the radius
    chart = circle_chart()
    path = integrate_asymptotic(circle_example_field(), chart, (0.0, 0.095, 0.0), -0.3)
    assert path.status == "tube-exit" and f"radius {chart.radius} " in path.reason
    assert max(np.max(np.abs(path.ys)), np.max(np.abs(path.zs))) <= chart.radius


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
        assert d.K == pytest.approx(-1.0, abs=1e-8)
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
    full = chart.expand(*seeds, 2)
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


# -- the chart program: a recorded order-0 pipeline, replayed --------------------


def _outcome(run):
    """run()'s reduced data as float.hex values, bit for bit, or the type and
    message of what it raised.  The replay gives Python floats where the jet
    pipeline gives np.float64, so the types are checked apart."""
    try:
        d = run()
    except Exception as exc:
        return type(exc), str(exc)
    return [float(v).hex() for v in (d.a, d.b, d.c, *d.L, d.e, d.f, d.g, d.A, d.B)]


def _through_one_program(field, chart, points):
    """The outcomes at points of one ChartProgram (the first records, the rest
    replay) and of the jet pipeline, and the program.  Every point that the
    recorded code carries without raising gives Python floats."""
    program = tubular.ChartProgram()
    replayed = [_outcome(lambda: chart_data(field, chart, *p, program=program)) for p in points]
    for p in points if program.code else ():
        try:
            a, b, c, L, *rest = program.code(*p)
        except Exception:
            continue
        assert {type(v) for v in (a, b, c, *L, *rest)} == {float}, p
    return replayed, [_outcome(lambda: tubular._reduce(field, chart, *p, 0)) for p in points], program


def _points(seed, n, xs=(-7.0, 7.0)):
    rng = np.random.default_rng(seed)
    columns = rng.uniform(*xs, n), rng.uniform(-0.1, 0.1, n), rng.uniform(-0.1, 0.1, n)
    return list(zip(*(c.tolist() for c in columns)))


# on the core curve and off it by signed zeros: where a coefficient's only
# term may be -0.0, and a unit factor or divisor the recording folds meets it
SIGNED_ZEROS = [(x, y, z) for x in (0.0, 1.3, -2.9) for y in (0.0, -0.0) for z in (0.0, -0.0)]


@pytest.mark.parametrize("name", ["t1", "circle-example"])
def test_replay_is_the_jet_pipeline_bit_for_bit(t1_field, t1_chart, name):
    field, chart = (t1_field, t1_chart) if name == "t1" else cli.resolve_field(name)
    # recorded off the curve, and at a signed zero
    for points in (_points(17, 1000) + SIGNED_ZEROS, SIGNED_ZEROS[::-1] + _points(18, 50)):
        replayed, plain, program = _through_one_program(field, chart, points)
        assert callable(program.code)
        assert replayed == plain


def _program_source(field, chart, point=(0.3, 0.01, -0.02)):
    """The source of the chart program recorded at point."""
    tape = jets.Tape()
    inputs = [tape.new(v) for v in point]
    d = tubular._reduce(field, chart, *inputs, 0)
    return tape.source(inputs, (d.a, d.b, d.c, d.L, d.e, d.f, d.g, d.A, d.B))


# 707 and 658 statements when every operation was a line, 186 and 141 of
# them sums seeded with 0; 95 and 59 measured, the return included.  The
# one 0 + left in the circle's program is the curve's: its third component
# 0*x is an exact 0, and 0 + y*0 makes the sign of the zero
@pytest.mark.parametrize("name, zero_sums, statements", [("t1", 0, 110), ("circle-example", 1, 66)])
def test_chart_programs_carry_no_zero_seeds_or_unit_factors(t1_field, t1_chart, name, zero_sums, statements):
    field, chart = (t1_field, t1_chart) if name == "t1" else cli.resolve_field(name)
    source = _program_source(field, chart)
    assert len(re.findall(r"(?<![\w.])0 \+ ", source)) == zero_sums
    assert not re.search(r"[*/] 1(\.0)?(?![\w.])|(?<![\w.])1(\.0)? \*", source)
    assert source.count("\n") - 1 <= statements


def test_an_unread_division_still_raises_in_the_replay():
    # a raising replay sends the point to the jet pipeline, which raises too
    tape = jets.Tape()
    x, y = tape.new(1.0), tape.new(2.0)
    x / y
    x * y - x  # unread and cannot raise: no line
    outputs = [x + 1.0]
    assert "*" not in tape.source([x, y], outputs)
    program = tape.compile([x, y], outputs, "<test program>")
    assert program(3.0, 2.0) == (4.0,)
    with pytest.raises(ZeroDivisionError):
        program(3.0, 0.0)


@pytest.mark.parametrize("error", [ZeroDivisionError, OverflowError])
def test_a_float_raise_in_the_replay_takes_the_jet_pipeline(error):
    # a float division by zero or ** past the float range raises where an
    # np.float64 gave inf or NaN: the point then reduces as the jet pipeline does
    field, chart = cli.resolve_field("circle-example")
    program = tubular.ChartProgram()
    chart_data(field, chart, 0.3, 0.01, -0.02, program=program)

    def raising(*point):
        raise error("float replay")

    program.code = raising
    point = (1.7, -0.03, 0.05)
    replayed = chart_data(field, chart, *point, program=program)
    assert _outcome(lambda: replayed) == _outcome(lambda: tubular._reduce(field, chart, *point, 0))
    assert program.code is raising


def test_a_long_sum_replays_under_the_nesting_cap():
    # each partial sum is read once; written into its reader without a cap,
    # 300 of them nest past the 200 parentheses CPython parses
    terms = " + ".join(f"{k}*x*y" for k in range(1, 301))
    field = AmbientField((f"z - y + {terms}", "1 + 0*x", "1 + y*y"))
    chart = TubularChart(Curve.from_expressions(("x", "x^2", "x^3"), (-1, 1)))
    replayed, plain, program = _through_one_program(field, chart, _points(5, 20, (-0.5, 0.5)))
    assert callable(program.code)
    assert replayed == plain


RECORDER_CURVES = ("circle", "t1", "x,x^2,x^3", "cos(x),sin(x),0*sqrt(1-x)")
GUARDED_TERMS = ("sqrt(x)", "1/(x - y)", "sqrt(2 + y) * exp(z)", "1/(sin(x) + 2)", "x^(-2)")


@st.composite
def recorder_cases(draw):
    """A built-in field or a field document with random components, and a seed for its points."""
    seeds = st.integers(0, 2**32 - 1)
    words = lambda: verify._random_expression(np.random.default_rng(draw(seeds)))
    xi = [
        f"{words()} + y*({words()}) - z*({draw(st.sampled_from(GUARDED_TERMS))})" if draw(st.booleans()) else words()
        for _ in range(3)
    ]
    document = json.dumps({"xi": xi, "curve": draw(st.sampled_from(RECORDER_CURVES))})
    return draw(st.sampled_from((document,) * 8 + ("t1", "circle-example"))), draw(seeds)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(case=recorder_cases())
def test_replay_matches_the_jet_pipeline_on_random_fields(case):
    document, seed = case
    field, chart = cli.resolve_field(document)
    with np.errstate(all="ignore"):
        replayed, plain, _ = _through_one_program(field, chart, _points(seed, 8, (-3.0, 3.0)))
    assert replayed == plain, document


def test_a_coefficient_calling_float_records_no_program():
    # math.cos of the plain value would fold into a constant of the recording
    curve = Curve.from_expressions(("cos(x)", "sin(x)", "0*x"), (0, 2 * math.pi), closed=True)
    field = TubularField(curve, coefficients={"k1": lambda t: math.cos(float(tubular.value_of(t))) * t})
    replayed, plain, program = _through_one_program(field, TubularChart(curve), _points(3, 5))
    assert program.code is False
    assert replayed == plain and all(isinstance(r, list) for r in replayed)


def test_a_tripped_sqrt_guard_falls_back_to_the_same_domain_error():
    # the ambient x is (1 + y) cos x on the circle's chart: sqrt(x) is recorded
    # at x = 0.3 and its guard trips at x = 2
    field, chart = AmbientField(("sqrt(x)", "y", "1 + z")), circle_chart()
    replayed, plain, program = _through_one_program(field, chart, [(0.3, 0.01, 0.02), (2.0, 0.01, 0.02)])
    with pytest.raises(tubular.jets.GuardTripped):
        program.code(2.0, 0.01, 0.02)
    assert replayed == plain
    assert replayed[1] == (DomainError, "sqrt of a negative value")


@pytest.mark.parametrize("H", [1, "2 + sin(x)"])
def test_build_lac_fields_record_and_replay_bit_for_bit(H):
    # k1's denominator test is a comparison of the recorded value, a guard
    curve = t1_curve()
    replayed, plain, program = _through_one_program(build_lac(curve, H=H), TubularChart(curve), _points(29, 300))
    assert callable(program.code)
    assert replayed == plain


def test_a_realize_t5_field_replays_into_the_same_inflection_error():
    # recorded at x = 0.2, the denominator guard trips at the inflection x = 0
    curve = Curve.from_expressions(("x", "x^3", "x^5"), (-0.5, 0.5))
    field, _ = realize_t5(curve)
    replayed, plain, program = _through_one_program(field, TubularChart(curve), [(0.2, 0.0, 0.0), (0.0, 0.0, 0.0)])
    assert callable(program.code)
    assert replayed == plain
    assert replayed[1] == (InflectionOfProjection, "k1 denominator vanishes at x = 0.0")


def _full_seed_partials(field, chart, x, y, z, order):
    """tubular._partials as it was with seeds of every x-degree and outputs on
    every monomial: the reference of the transverse outputs."""
    plain = lambda j: j.value if j.order == 0 else j
    point = chart.expand(*jets.seed((x, y, z), order + 1), field.curve_order)
    xi = field.chart_components(point)
    d_alpha = [[plain(c.partial(i)) if isinstance(c, Jet) else 0 for c in point.alpha] for i in range(3)]
    d_xi = [[plain(c.partial(i)) if isinstance(c, Jet) else 0 for c in xi] for i in range(3)]
    return [plain(c.truncated(order)) if isinstance(c, Jet) else c for c in xi], d_xi, d_alpha


def _outputs(d):
    return (d.a, d.b, d.c, *d.L, d.e, d.f, d.g, d.A, d.B)


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("name", ["t1", "circle-example", "saddle"])
def test_transverse_outputs_keep_the_bits_of_full_seeds(monkeypatch, name, order, t1_field, t1_chart, saddle):
    # seeds linear in x and outputs on the monomials free of x give every
    # transverse coefficient the same bytes as the full seeds, which also
    # carry (incomplete) x-coefficients that the pipeline no longer keeps
    field, chart = {"t1": (t1_field, t1_chart), "saddle": saddle}.get(name) or cli.resolve_field(name)
    for x in (0.7, np.linspace(0.1, 6.0, 23)):
        for y, z in ((0.0, 0.0), (0.01, -0.02)):
            got = _outputs(chart_data(field, chart, x, y, z, order=order))
            with monkeypatch.context() as m:
                m.setattr(tubular, "_partials", _full_seed_partials)
                want = _outputs(chart_data(field, chart, x, y, z, order=order))
            assert any(e[0] and np.any(w.coefficient(e)) for w in want for e in w._table.exponents)
            for g, w in zip(got, want):
                assert all(e[0] == 0 for e in g._table.exponents), "an output carries an x-monomial"
                for e in g._table.exponents:
                    c, ref = g.coefficient(e), w.coefficient(e)
                    assert type(c) is type(ref) and np.asarray(c).tobytes() == np.asarray(ref).tobytes(), (e, x, y)


@pytest.mark.parametrize("order, seed, reduction", [(0, 4, 1), (1, 9, 3), (2, 16, 6), (3, 25, 10)])
def test_passes_seed_x_to_first_degree_and_reduce_on_y_z(monkeypatch, order, seed, reduction, t1_field, t1_chart):
    # the seeds of an order-k pass hold x to first degree (35 monomials at
    # order 3 with full seeds), and the reduction's jets only the (y, z)
    # monomials to degree k (20 with x's)
    sizes = []
    expand = TubularChart.expand
    monkeypatch.setattr(
        TubularChart, "expand", lambda self, x, *rest: sizes.append(len(x._table.exponents)) or expand(self, x, *rest)
    )
    d = chart_data(t1_field, t1_chart, np.linspace(0.0, 6.0, 8), 0.0, 0.0, order=order)
    assert sizes == [seed]
    assert all(len(v._table.exponents) == reduction for v in _outputs(d)) if order else not _non_float_coefficients(d)


def test_order_one_chart_data_has_no_partial_in_x(t1_field, t1_chart):
    d = chart_data(t1_field, t1_chart, 0.7, 0.0, 0.0, order=1)
    with pytest.raises(ValueError, match="transverse partials only"):
        d.partial("e", "x")
    assert d.partial("e", "y") == d.e.deriv(0, 1, 0) and d.partial("A", "z") == d.A.deriv(0, 0, 1)
    plain = chart_data(t1_field, t1_chart, 0.7, 0.0, 0.0)
    for var in "xyz":  # order-0 data has no partials: an error, not a silent 0.0
        with pytest.raises(ValueError, match="order-0 chart data carries no partials"):
            plain.partial("e", var)
