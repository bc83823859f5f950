import copy
import json
import math

import numpy as np
import pytest
from conftest import SADDLE

from asymptotica import cli, flow, tubular, verify
from asymptotica import monodromy as mono
from asymptotica.flow import FlowError
from asymptotica.curves import Curve
from asymptotica.monodromy import (
    ParabolicOnCurve,
    VariationalCache,
    eigenvalues_2x2,
    fd_poincare_derivative,
    variational_matrix,
)
from asymptotica.planefield import AmbientField, circle_example_field
from asymptotica.spectral import TrigSeries


def circle_setup():
    curve = Curve.from_expressions(("cos(x)", "sin(x)", "0*x"), (0, 2 * math.pi), closed=True)
    return circle_example_field(), tubular.TubularChart(curve)


def test_eigenvalues_identity():
    ev = eigenvalues_2x2(np.eye(2), 1.0)
    assert sorted(e.real for e in ev) == pytest.approx([1.0, 1.0])


def test_eigenvalues_diagonal():
    ev = eigenvalues_2x2(np.diag([3.0, -0.5]), -1.5)
    assert sorted(e.real for e in ev) == pytest.approx([-0.5, 3.0])


def test_eigenvalues_complex_pair():
    ev = eigenvalues_2x2(np.array([[0.0, -1.0], [1.0, 0.0]]), 1.0)
    assert ev[0] == pytest.approx(1j)
    assert ev[1] == pytest.approx(-1j)


def test_eigenvalues_small_root_accurate():
    # the small eigenvalue comes from det/large, not from trace cancellation
    Q = np.array([[1e8, 0.0], [123.0, 1e-8]])
    ev = eigenvalues_2x2(Q, 1.0)
    small = min(ev, key=abs)
    assert small.real == pytest.approx(1e-8, rel=1e-12)


def test_eigenvalues_take_det_from_the_caller():
    # the small root is det/large and a complex pair has modulus sqrt(det), whatever
    # det the entries of Q would give: monodromy passes Liouville's exp(int tr M)
    Q = np.array([[100.0, 3.0], [-3.0, 1e-3]])  # its own det is 9.1
    large, small = eigenvalues_2x2(Q, 2.0)
    assert large.real + small.real == pytest.approx(100.001, rel=1e-9)
    assert small.real == 2.0 / large.real and small.imag == 0.0
    pair = eigenvalues_2x2(np.array([[1.0, -2.0], [2.0, 1.0]]), 4.0)
    assert [abs(ev) for ev in pair] == pytest.approx([2.0, 2.0], rel=1e-15)
    assert pair[0] == pair[1].conjugate() and pair[0].real == 1.0


def test_eigenvalues_similarity_invariant(seeds):
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for _ in range(7):
            Q = rng.uniform(-2, 2, (2, 2))
            S = rng.uniform(-2, 2, (2, 2))
            if abs(np.linalg.det(S)) < 0.1:
                continue
            det = float(np.linalg.det(Q))
            ev1 = sorted(eigenvalues_2x2(Q, det), key=lambda e: (e.real, e.imag))
            ev2 = sorted(eigenvalues_2x2(S @ Q @ np.linalg.inv(S), det), key=lambda e: (e.real, e.imag))
            for a, b in zip(ev1, ev2):
                assert a == pytest.approx(b, abs=1e-9)


def test_variational_matrix_t1_structure(t1_field, t1_chart):
    M0 = variational_matrix(t1_field, t1_chart, 0.0)
    assert M0[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert M0[0, 1] == pytest.approx(0.0, abs=1e-9)
    assert M0[1, 1] == pytest.approx(-1.0, abs=1e-9)
    for x in (0.5, 2.0, 5.0):
        M = variational_matrix(t1_field, t1_chart, x)
        assert M[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert M[0, 1] == pytest.approx(0.0, abs=1e-8)


def test_variational_matrix_parabolic_raises():
    curve = Curve.from_expressions(("cos(x)", "sin(x)", "0*x"), (0, 2 * math.pi), closed=True)
    chart = tubular.TubularChart(curve)
    field = AmbientField(("0*x", "0*x", "1 + 0*x"))  # e = f = g = 0 in the chart
    with pytest.raises(ParabolicOnCurve):
        variational_matrix(field, chart, 0.3)


def test_variational_cache_matches_direct(t1_field, t1_chart):
    vc = VariationalCache(t1_field, t1_chart, 2 * math.pi)
    for x in (0.1, 1.7, 3.9, 6.0):
        assert np.allclose(vc.matrix(x), variational_matrix(t1_field, t1_chart, x), atol=1e-7)


def test_t1_monodromy_triangular_eigenvalues(t1_monodromy):
    r = t1_monodromy
    assert r.triangular
    assert r.hyperbolic
    assert r.classification == "Hyperbolic"
    evs = sorted(abs(e) for e in r.eigenvalues)
    assert evs[1] == pytest.approx(math.exp(2 * math.pi), rel=1e-6)
    assert evs[0] == pytest.approx(math.exp(-25 * math.pi / 8), rel=1e-6)


def _naive_small_eigenvalue(Q, det):
    # eigenvalues_2x2 with the small root as (tr - r) / 2, where the trace cancels
    tr = Q[0, 0] + Q[1, 1]
    r = math.sqrt(tr * tr - 4 * det)
    return complex((tr + r) / 2), complex((tr - r) / 2)


@pytest.mark.parametrize("naive", [False, True])
def test_t1_eigenvalues_row_fails_the_naive_small_eigenvalue(monkeypatch, naive):
    # measured: 1.16e-14 with det/large and Liouville's det, 4.19e-11 with the naive
    # root (and 4.01e-11 with det/large on Q's own det, the formula before Liouville's)
    if naive:
        monkeypatch.setattr(mono, "eigenvalues_2x2", _naive_small_eigenvalue)
    (label, measured, _), *_ = dict(verify.checks())["t1-eigenvalues"]()
    assert label == "max relative eigenvalue error" and (measured > 1e-13) == naive


def test_t1_monodromy_diagonal_integrals(t1_monodromy):
    ints = t1_monodromy.integrals
    assert ints["diag_first"] == pytest.approx(2 * math.pi, abs=1e-8)
    assert ints["diag_second"] == pytest.approx(-25 * math.pi / 8, abs=1e-8)
    assert ints["eigen_from_first"] == pytest.approx(math.exp(2 * math.pi), rel=1e-8)
    assert ints["eigen_from_second"] == pytest.approx(math.exp(-25 * math.pi / 8), rel=1e-8)


def test_t1_monodromy_liouville(t1_monodromy):
    assert t1_monodromy.det_residual <= 1e-6
    assert t1_monodromy.stats["steps"] > 0
    assert t1_monodromy.stats["det_nonpositive"] == 0


def test_t1_upper_right_entry_stays_zero(t1_monodromy):
    assert abs(t1_monodromy.Q[0, 1]) <= 1e-8


def test_monodromy_to_dict_round_trip(t1_monodromy):
    import json

    doc = json.loads(json.dumps(t1_monodromy.to_dict()))
    assert doc["classification"] == "Hyperbolic"
    assert len(doc["Q"]) == 2
    assert doc["eigenvalues"][0]["re"] != 0


def test_circle_example_nonhyperbolic():
    field, chart = circle_setup()
    r = mono.monodromy(field, chart, 2 * math.pi)
    assert np.allclose(r.Q, np.eye(2), atol=1e-7)
    assert not r.hyperbolic
    assert r.classification == "NonHyperbolic"


def test_circle_example_fd_agrees_with_variational():
    field, chart = circle_setup()
    r = mono.monodromy(field, chart, 2 * math.pi)
    D = fd_poincare_derivative(field, chart, 2 * math.pi)
    assert np.max(np.abs(D - r.Q)) <= 1e-6


def test_circle_monodromy_direct_matches_cached():
    field, chart = circle_setup()
    a = mono.monodromy(field, chart, 2 * math.pi)
    b = mono.monodromy(field, chart, 2 * math.pi, cache=False)
    assert np.allclose(a.Q, b.Q, atol=1e-8)


def test_fd_step_sweep_consistent():
    field, chart = circle_setup()
    jacs = [fd_poincare_derivative(field, chart, 2 * math.pi, h=h) for h in (1e-4, 1e-5)]
    assert np.max(np.abs(jacs[0] - jacs[1])) <= 1e-5


def test_fd_step_near_the_radius_stops_at_tube_exit():
    # a probe started half the tube radius off the curve leaves the tube
    field, chart = circle_setup()
    with pytest.raises(FlowError, match="^tube-exit:"):
        fd_poincare_derivative(field, chart, 2 * math.pi, h=0.5 * chart.radius)


def test_fd_rejects_bad_step(t1_field, t1_chart):
    with pytest.raises(ValueError):
        fd_poincare_derivative(t1_field, t1_chart, 2 * math.pi, h=1.0)
    with pytest.raises(ValueError):
        fd_poincare_derivative(t1_field, t1_chart, 2 * math.pi, h=1e-9)


def _subject(name, t1_field, t1_chart, tilted_saddle):
    """(field, chart, period) of a subject of the chopped-fit comparison."""
    if name == "t1":
        return t1_field, t1_chart, 2 * math.pi
    if name == "tilted saddle":
        return (*tilted_saddle, 3.0)
    field, chart = cli.resolve_field(json.dumps(SADDLE) if name == "saddle" else name)
    return field, chart, chart.curve.period


def _unchopped(cache, sample):
    """A copy of cache whose series is the whole interpolant of sample at its nodes."""
    whole = copy.copy(cache)
    whole.series = TrigSeries.from_samples(sample(np.arange(cache.nodes) * (cache.period / cache.nodes)), cache.period)
    kept = len(cache.series.cos_coeffs)
    assert kept < len(whole.series.cos_coeffs)
    assert np.array_equal(cache.series.cos_coeffs, whole.series.cos_coeffs[:kept])
    assert np.array_equal(cache.series.sin_coeffs, whole.series.sin_coeffs[:kept])
    return whole


@pytest.mark.parametrize("name, kept", [
    ("t1", (133, 103)), ("circle-example", (1, 1)), ("saddle", (1, 1)), ("tilted saddle", (11, 50)),
])
def test_chopped_fits_keep_q_and_the_fd_jacobian(t1_field, t1_chart, tilted_saddle, name, kept):
    # both caches as poincare --fd-check builds them (harmonics kept: chart cache, then
    # variational), against the same caches with the whole interpolant at the same nodes
    # (from_samples).  Measured, max |chopped - whole| / max(1, |entry|): Q 7.7e-14 (t1),
    # 5.0e-15 (circle-example), 5.4e-15 (saddle), 8.2e-15 (tilted saddle, whose Q's entries
    # reach 228); the FD Jacobian 2.2e-12, 5.3e-15, 5.6e-15, 1.1e-14.  The integrals read
    # the mean, which no chop drops: they keep their bits
    field, chart, period = _subject(name, t1_field, t1_chart, tilted_saddle)
    chart_cache = flow.ChartSpectralCache(field, chart, period)
    vc = mono.VariationalCache(field, chart, period, chart_cache)
    assert (len(chart_cache.series.cos_coeffs), len(vc.series.cos_coeffs)) == kept
    sampler = copy.copy(chart_cache)
    sampler.passes = []  # its own list: the chart cache keeps the passes of its fit only
    whole_chart = _unchopped(chart_cache, lambda xs: sampler._taylor_table(field, chart, xs))
    whole_vc = _unchopped(vc, lambda xs: variational_matrix(field, chart, xs).reshape(-1, 4))
    chopped, whole = (mono.monodromy(field, chart, period, cache=c) for c in (vc, whole_vc))
    assert np.max(np.abs(chopped.Q - whole.Q) / np.maximum(1.0, np.abs(whole.Q))) <= 1e-10
    assert chopped.integrals == whole.integrals
    fd, fd_whole = (fd_poincare_derivative(field, chart, period, cache=c) for c in (chart_cache, whole_chart))
    assert np.max(np.abs(fd - fd_whole) / np.maximum(1.0, np.abs(fd_whole))) <= 1e-10
