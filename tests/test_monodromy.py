import math

import numpy as np
import pytest

from asymptotica import monodromy as mono
from asymptotica import tubular
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


def circle_setup():
    curve = Curve.from_expressions(("cos(x)", "sin(x)", "0*x"), (0, 2 * math.pi), closed=True)
    return circle_example_field(), tubular.TubularChart(curve)


def test_eigenvalues_identity():
    ev = eigenvalues_2x2(np.eye(2))
    assert sorted(e.real for e in ev) == pytest.approx([1.0, 1.0])


def test_eigenvalues_diagonal():
    ev = eigenvalues_2x2(np.diag([3.0, -0.5]))
    assert sorted(e.real for e in ev) == pytest.approx([-0.5, 3.0])


def test_eigenvalues_complex_pair():
    ev = eigenvalues_2x2(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert ev[0] == pytest.approx(1j)
    assert ev[1] == pytest.approx(-1j)


def test_eigenvalues_small_root_accurate():
    # the small eigenvalue comes from det/large, not from trace cancellation
    Q = np.array([[1e8, 0.0], [123.0, 1e-8]])
    ev = eigenvalues_2x2(Q)
    small = min(ev, key=abs)
    assert small.real == pytest.approx(1e-8, rel=1e-12)


def test_eigenvalues_similarity_invariant(seeds):
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for _ in range(7):
            Q = rng.uniform(-2, 2, (2, 2))
            S = rng.uniform(-2, 2, (2, 2))
            if abs(np.linalg.det(S)) < 0.1:
                continue
            ev1 = sorted(eigenvalues_2x2(Q), key=lambda e: (e.real, e.imag))
            ev2 = sorted(eigenvalues_2x2(S @ Q @ np.linalg.inv(S)), key=lambda e: (e.real, e.imag))
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


def test_t1_monodromy_diagonal_integrals(t1_monodromy):
    ints = t1_monodromy.integrals
    assert ints["diag_first"] == pytest.approx(2 * math.pi, abs=1e-8)
    assert ints["diag_second"] == pytest.approx(-25 * math.pi / 8, abs=1e-8)
    assert ints["eigen_from_first"] == pytest.approx(math.exp(2 * math.pi), rel=1e-8)
    assert ints["eigen_from_second"] == pytest.approx(math.exp(-25 * math.pi / 8), rel=1e-8)


def test_t1_monodromy_liouville(t1_monodromy):
    assert t1_monodromy.det_residual <= 1e-6
    checkpoints = t1_monodromy.stats["checkpoints"]
    assert len(checkpoints) == 16
    for x, Q in checkpoints:
        assert np.linalg.det(Q) > 0


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
