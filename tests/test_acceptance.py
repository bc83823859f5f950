"""End-to-end acceptance checks at their stated tolerances.

Each test freezes an independently derived target: closed-form eigenvalues
and integrals for the worked example, exact rational certificates for the
polynomial local models, hand-derived values for the circle example and the
appendix surfaces, and finite-difference / gauge-invariance oracles that
never share code with the quantity they check.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from asymptotica import cli, construct, curves, flow, planefield, surfaces, tubular, verify
from asymptotica import monodromy as mono


# 1. closed worked example: return-map eigenvalues and runtime -----------------


def test_worked_example_eigenvalues_and_runtime(capsys):
    cli._t1_field.cache_clear()
    t0 = time.time()
    code = cli.main(["poincare", "--field", "t1"])
    elapsed = time.time() - t0
    out, _ = capsys.readouterr()
    assert code == 0
    doc = json.loads(out)
    got = sorted(abs(complex(ev["re"], ev["im"])) for ev in doc["eigenvalues"])
    want = sorted((math.exp(2 * math.pi), math.exp(-25 * math.pi / 8)))
    for g, w in zip(got, want):
        assert abs(g - w) / w <= 1e-4
    assert doc["classification"] == "Hyperbolic"
    assert elapsed < 5.0


# 2. closed worked example: the two diagonal integrals -------------------------


def test_worked_example_diagonal_integrals(t1_field, t1_chart):
    def entries(x):
        d = tubular.chart_data(t1_field, t1_chart, float(x), 0.0, 0.0, order=1)
        f = d.value("f")
        return -d.partial("e", "y") / (2 * f), d.partial("A", "z")

    upper = quad(lambda x: entries(x)[0], 0.0, 2 * math.pi, limit=200, epsabs=1e-12)[0]
    lower = quad(lambda x: entries(x)[1], 0.0, 2 * math.pi, limit=200, epsabs=1e-12)[0]
    assert abs(upper - 2 * math.pi) <= 1e-8
    assert abs(lower + 25 * math.pi / 8) <= 1e-8


# 3. variational solution vs finite-difference return map ----------------------


def test_variational_matches_finite_difference(t1_field, t1_chart, t1_monodromy):
    fd = mono.fd_poincare_derivative(t1_field, t1_chart, 2 * math.pi, h=1e-5)
    diff = np.abs(fd - t1_monodromy.Q)
    tol = np.maximum(1e-4 * np.abs(t1_monodromy.Q), 1e-8)
    assert np.all(diff <= tol), f"deviation {diff} exceeds {tol}"


# 4. parabolic-free construction with prescribed f = H -------------------------


@pytest.mark.parametrize("H_spec", [1, "2 + sin(x)"])
def test_prescribed_mixed_coefficient(H_spec):
    curve = construct.t1_curve()
    chart = tubular.TubularChart(curve)
    field = construct.build_lac(curve, H=H_spec)
    xs = np.linspace(0.0, 2 * math.pi, 128, endpoint=False)
    d = tubular.chart_data(field, chart, xs, 0.0, 0.0)
    e = np.asarray(d.value("e"))
    f = np.asarray(d.value("f"))
    g = np.asarray(d.value("g"))
    Hv = np.ones_like(xs) if H_spec == 1 else 2.0 + np.sin(xs)
    assert np.max(np.abs(e)) <= 1e-9
    assert np.max(np.abs(f - Hv)) <= 1e-9
    assert np.max(np.abs(e * g - f * f + Hv * Hv)) <= 1e-8


# 5. exact realization of polynomial local models ------------------------------


@pytest.mark.parametrize(
    "series, expected_C000",
    [
        ([[0, 1], [0, 0, 1], [0, 0, 0, 1]], 2),
        ([[0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 0, 1]], 6),
        ([[0, 1], [0, 0, 1], [0, 0, 0, 0, 1]], 2),
    ],
)
def test_local_model_realization(series, expected_C000):
    curve = curves.Curve.from_series(series)
    sym = curves.finite_type_symbol(curve, 0)
    field, cert = construct.realize_t5(curve)
    assert cert["C000"] == sym.m * (sym.m - 1)  # a_m = 1 in all three models
    assert cert["C000"] == expected_C000
    assert cert["C000_exact"]
    chart = tubular.TubularChart(curve)
    for x in np.linspace(-0.3, 0.3, 64):
        if abs(x) < 1e-9:
            continue
        K = tubular.chart_data(field, chart, float(x), 0.0, 0.0).K
        assert abs(K + 1.0) <= 1e-8


# 6. ruled model surfaces: on-curve coefficients -------------------------------


def test_model_surfaces_on_curve_coefficients():
    for m in (2, 3, 4, 5):
        _, rep = surfaces.arnold_surface(m, m + 1)
        assert abs(rep["f00"] - (m + 1) / (m - 1)) <= 1e-9
        assert rep["max_abs_e"] <= 1e-9
    _, rep = surfaces.arnold_surface(2, 4)
    assert abs(rep["f00"]) <= 1e-9


# 7. circle example: non-integrable field with a circular asymptotic line ------


def test_circle_example_joint_properties():
    xi = planefield.circle_example_field()
    for t in np.linspace(0.0, 2 * math.pi, 64, endpoint=False):
        p = (math.cos(t), math.sin(t), 0.0)
        dr = (-math.sin(t), math.cos(t), 0.0)
        assert abs(planefield.normal_curvature(xi, p, dr)) <= 1e-10
    assert abs(planefield.integrability_defect(xi, (1.0, 0.0, 0.0)) + 2.0) <= 1e-9
    circle = curves.Curve.from_expressions(("cos(x)", "sin(x)", "0*x"), (0, 2 * math.pi), closed=True)
    chart = tubular.TubularChart(circle)
    for t in np.linspace(0.0, 2 * math.pi, 16, endpoint=False):
        assert tubular.classify(xi, chart, (float(t), 0.0, 0.0)) is tubular.PointClass.HYPERBOLIC
    ok, _ = curves.is_starlike_projection(circle)
    assert ok


# 8. gauge invariance of the asymptotic direction field ------------------------


def test_gauge_invariance_of_root_slopes(seeds):
    rng = np.random.default_rng(seeds[0])
    xi = planefield.AmbientField(("z - y", "1 + 0*x", "1 + y*y"))
    circle = curves.Curve.from_expressions(("cos(x)", "sin(x)", "0*x"), (0, 2 * math.pi), closed=True)
    chart = tubular.TubularChart(circle)
    direct = tubular.binary_equation_data(xi, chart)
    phis = ("2 + sin(x)*cos(y) + z^2", "1 + x^2/20", "3 - cos(z)", "exp(y)", "2 + sin(x*y)")
    worst = 0.0
    for phi in phis:
        scaled = tubular.binary_equation_data(planefield.gauge_scale(xi, phi), chart)
        hits = 0
        while hits < 100:
            x = rng.uniform(0.0, 2 * math.pi)
            y = rng.uniform(-chart.radius, chart.radius)
            z = rng.uniform(-chart.radius, chart.radius)
            e1, f1, g1, _, _ = direct(x, y, z)
            s1, _ = flow.branch_slopes(e1, f1, g1)
            if len(s1) != 2:
                continue
            e2, f2, g2, _, _ = scaled(x, y, z)
            s2, _ = flow.branch_slopes(e2, f2, g2)
            assert len(s2) == 2
            hits += 1
            worst = max(worst, max(abs(a - b) for a, b in zip(sorted(s1), sorted(s2))))
    assert worst <= 1e-9


# 9. property suites under three seeds and full-suite runtime ------------------


# bounds frozen here; the rows' own bound and passed keys are never read
PROPERTY_BOUNDS = {
    "gauge": {"worst slope deviation": 1e-9, "selected slope not the root of least modulus": 0},
    "properties": {
        "round-trip failures": 0,
        "max jet/FD error / scale": 1e-6,
        "core-curve drift": 1e-9,
        "slope residual": 1e-9,
        "Liouville residual": 1e-6,
        "accepted Q steps with det Q <= 0": 0,
    },
}


def test_property_suites_three_seeds(seeds):
    for s in seeds:
        for name, fn in verify.checks(seed=s):
            if name not in PROPERTY_BOUNDS:
                continue
            measured = {label: value for label, value, _ in fn()}
            assert measured.keys() == PROPERTY_BOUNDS[name].keys()
            for label, bound in PROPERTY_BOUNDS[name].items():
                assert measured[label] <= bound, f"{name}: {label} = {measured[label]} > {bound} at seed {s}"


def test_full_verification_suite_runtime(capsys):
    t0 = time.time()
    code = cli.main(["verify-paper"])
    elapsed = time.time() - t0
    out, err = capsys.readouterr()
    assert code == 0, f"verification suite failed:\n{out}\n{err}"
    assert elapsed < 60.0
