"""The benchmark's own tests: deterministic op streams, the output checks
(including negative controls that must count as failed ops) and the tracer.

    python3 -m pytest bench/test_bench.py -q
"""

import copy
import math
import random
import sys
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from asymptotica import curves, tubular  # noqa: E402


def first_blocks(workload, seed, count=3):
    return list(islice(workloads.blocks(workload, seed), count))


def real_result(op):
    result = workloads.run_op(op)
    assert workloads.check_op(op, result) == []
    return result


def find(block, check, **params):
    return next(op for op in block if op["check"] == check and all(op.get(k) == v for k, v in params.items()))


# -- op streams ------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops(workload):
    assert first_blocks(workload, 7) == first_blocks(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_ops_but_not_the_mix(workload):
    streams = [first_blocks(workload, seed) for seed in range(6)]
    assert any(s != streams[0] for s in streams[1:])
    mixes = {tuple(sorted(op["check"] for op in block)) for s in streams for block in s}
    assert len(mixes) == 1


def test_localmodels_draws_only_from_the_documented_domain():
    for block in first_blocks("localmodels", 3, count=5):
        models = [op for op in block if op["check"] == "realize"]
        surfaces_ = [op for op in block if op["check"] == "arnold"]
        # every pair once per block in each op kind: nothing filtered out, nothing retried
        assert sorted((op["m"], op["n"]) for op in models) == list(workloads.ORDER_PAIRS)
        assert sorted((op["m"], op["n"]) for op in surfaces_) == list(workloads.ORDER_PAIRS)
        assert len(block) == 2 * len(workloads.ORDER_PAIRS)
        for op in models:
            m, n = op["m"], op["n"]
            assert 2 <= m < n <= 9
            x, y, z = op["series"]
            assert x == [0, 1] and len(y) == m + 2 and len(z) == n + 2
            assert y[m] != 0 and z[n] != 0
            assert all(isinstance(c, Fraction) for c in y[m:] + z[n:])


def test_every_generated_local_model_has_its_generated_symbol():
    (block,) = first_blocks("localmodels", 11, count=1)
    for op in block:
        if op["check"] == "realize":
            symbol = curves.finite_type_symbol(curves.Curve.from_series(op["series"]), 0)
            assert (symbol.m, symbol.n) == (op["m"], op["n"])


def test_every_op_of_a_localmodels_block_passes_its_checks():
    (block,) = first_blocks("localmodels", 5, count=1)
    records, _ = run.timed_loop(iter([block]), 0.0)
    assert [r for r in records if r["failures"]] == []
    assert len(records) == len(block)


# -- negative controls: a perturbed result must count as a failed op -------------


@pytest.fixture(scope="module")
def certify_block():
    return first_blocks("certify", 0, count=1)[0]


@pytest.fixture(scope="module")
def poincare_t1(certify_block):
    op = find(certify_block, "poincare_t1", fd=True)
    return op, real_result(op)


def perturbed(result, edit):
    code, doc = copy.deepcopy(result)
    edit(doc)
    return code, doc


def scale_matrix(key, factor):
    def edit(doc):
        doc[key] = [[v * factor for v in row] for row in doc[key]]

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        scale_matrix("fd_jacobian", 1.001),  # as verify-paper --perturb does
        scale_matrix("Q", 1.001),
        lambda doc: doc.update(fd_within_tolerance=False),
        lambda doc: doc.update(classification="NonHyperbolic"),
        lambda doc: doc["eigenvalues"][0].update(re=doc["eigenvalues"][0]["re"] * 1.001),
    ],
    ids=["fd*1.001", "Q*1.001", "fd-flag", "classification", "eigenvalue"],
)
def test_perturbed_certificate_fails(poincare_t1, edit):
    op, result = poincare_t1
    assert workloads.check_op(op, perturbed(result, edit))


def test_wrong_exit_code_fails(poincare_t1):
    op, (_, doc) = poincare_t1
    assert workloads.check_op(op, (1, doc))


@pytest.fixture(scope="module")
def trace_block():
    return first_blocks("trace", 0, count=1)[0]


def test_path_off_the_core_curve_fails(trace_block):
    op = find(trace_block, "integrate", field="t1")
    result = real_result(op)

    def edit(doc):
        doc["path"][len(doc["path"]) // 2][1] = 1e-6

    assert workloads.check_op(op, perturbed(result, edit))
    assert workloads.check_op(op, perturbed(result, lambda doc: doc.update(status="tube-exit")))
    assert workloads.check_op(op, perturbed(result, lambda doc: doc.update(max_residual=1e-8)))


def test_misclassified_core_point_fails(trace_block):
    op = find(trace_block, "classify")
    result = real_result(op)

    def edit(doc):
        on_curve = next(p for p in doc["points"] if p[1] == 0.0 and p[2] == 0.0)
        on_curve[3] = "Elliptic"
        doc["counts"]["Elliptic"] = doc["counts"].get("Elliptic", 0) + 1
        doc["counts"]["Hyperbolic"] -= 1

    assert workloads.check_op(op, perturbed(result, edit))
    assert workloads.check_op(op, perturbed(result, lambda doc: doc["points"].pop()))


def test_flipped_or_wrong_realization_certificate_fails():
    (block,) = first_blocks("localmodels", 2, count=1)
    op = find(block, "realize", m=3, n=5)
    cert = real_result(op)
    for key in ("C000_exact", "e_on_curve_zero", "f_on_curve_one"):
        assert workloads.check_op(op, dict(cert, **{key: False}))
    assert workloads.check_op(op, dict(cert, n=6))
    assert workloads.check_op(op, dict(cert, C000=cert["C000"] + 1))
    surface = find(block, "arnold", m=3, n=4)
    code, doc = real_result(surface)
    assert workloads.check_op(surface, (code, dict(doc, f00=doc["f00"] * (1 + 1e-6))))
    assert workloads.check_op(surface, (code, dict(doc, max_abs_e_on_curve=1e-8)))


def test_failed_and_raising_ops_are_counted():
    good = workloads.local_model(random.Random(0), 2, 3)
    # not of finite type within max_order: realize_t5 raises, which is a failure, not a skip
    raising = dict(good, series=[[0, 1], [0, 0, 1], [0, 0, 1]])

    def perturb(op):
        result = run.attempt(op)
        if op is good:
            cert = workloads.run_op(op)
            result["failures"] = workloads.check_op(op, dict(cert, f_on_curve_one=False))
        return result

    records, _ = run.timed_loop(iter([[good, raising]]), 0.0, execute=perturb)
    assert [bool(r["failures"]) for r in records] == [True, True]
    assert "raised" in records[1]["failures"][0]


# -- machine seconds -------------------------------------------------------------


def test_machine_seconds_follow_the_pace_of_each_stretch():
    meter = speed.Speedometer()
    nominal = speed.REFERENCE_NOMINAL_S
    # 2 s at the nominal pace, then 2 s at half the pace; one pass per 50 ms
    meter.starts = [k * 0.05 for k in range(80)]
    meter.passes = [nominal if k < 40 else 2 * nominal for k in range(80)]
    assert meter.sampling_s(0.0, 1.0) == pytest.approx(20 * nominal)
    assert meter.machine_s(0.0, 1.0) == pytest.approx(1.0 - 20 * nominal)
    assert meter.machine_s(3.0, 4.0) == pytest.approx((1.0 - 40 * nominal) / 2)
    # a short stretch is averaged over at least MIN_WINDOW_S about its middle
    assert meter.reference_s(1.0, 1.01) == pytest.approx(nominal)
    assert meter.reference_s(3.0, 3.01) == pytest.approx(2 * nominal)
    with pytest.raises(RuntimeError):
        meter.reference_s(5.0, 5.1)


def test_harrell_davis_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.harrell_davis(values, 0.5) == pytest.approx(3.0)  # symmetric sample: its middle
    assert run.harrell_davis([2.0] * 7, 0.9) == pytest.approx(2.0)
    assert 3.0 < run.harrell_davis(values, 0.9) < 5.0
    skewed = [1.0] * 30 + [2.0] * 10
    assert run.harrell_davis(skewed, 0.5) == pytest.approx(1.0, abs=1e-3)
    assert 1.5 < run.harrell_davis(skewed, 0.9) < 2.0


def test_speedometer_samples_during_a_busy_loop_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGPROF)
    with speed.Speedometer() as meter:
        t0 = speed.clock()
        while speed.clock() - t0 < 0.5:
            sum(range(1000))
    assert len(meter.passes) >= 5
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert 0 < meter.machine_s(t0, t0 + 0.5) < 10


# -- tracer ----------------------------------------------------------------------


def test_tracer_wraps_and_restores_the_library():
    from asymptotica import exprlang, flow, jets

    originals = (tubular.chart_data, flow.rk45, jets.Jet.__mul__, exprlang.evaluate)
    t = tracing.install()
    try:
        assert tubular.chart_data is not originals[0] and flow.rk45 is not originals[1]
        # the evaluator recurses per tree node; a span is one whole expression
        assert exprlang.evaluate(exprlang.parse("x*x + sin(x)"), {"x": 0.5}) == 0.25 + math.sin(0.5)
        assert t.calls["exprlang.evaluate"] == 1
    finally:
        t.uninstall()
    assert (tubular.chart_data, flow.rk45, jets.Jet.__mul__, exprlang.evaluate) == originals


def test_traced_op_spans_are_consistent_and_counted():
    op = workloads._integrate("circle-example", 0.0, 1e-4, 0.0)
    op["argv"][op["argv"].index("--to") + 1] = "0.5"
    t = tracing.install()
    try:
        _, failures, wall = run.traced_attempt(t, 0, op)
    finally:
        t.uninstall()
    assert failures == []
    assert tracing.consistency_problems(t, [wall], tracing.span_cost()) == []
    m = tracing.layer_metrics(t)
    assert m["flow.rk45.calls"][0] == 1
    assert m["flow.rk45.accept_evals"][0] == m["flow.rk45.steps"][0] > 0
    # one chart_data pass per right-hand side and per accepted step, plus the start point
    assert m["tubular.chart_data.scalar.calls"][0] == m["flow.rk45.rhs_evals"][0] + m["flow.rk45.steps"][0] + 1
    assert m["jets.mul.float.calls"][0] > 0
    assert 0 < m["flow.rk45.accept_ratio"][0] <= 1
