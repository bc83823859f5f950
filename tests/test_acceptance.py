"""End-to-end acceptance checks at their stated tolerances.

Every row of `verify-paper` is frozen here with its bound: each check runs
directly (at three seeds where it draws at random), its row labels must be
the frozen ones, its measured values within the frozen bounds, and verify's
own bounds equal to them; the lac row's two prescribed H are each held to
its bounds, and each covered by it.  The other tests keep the oracles that verify
does not run: the `poincare` CLI document and its runtime gate, the diagonal
integrals by quadrature independent of the fit's mean, the exact C000
values of the polynomial local models, and the runtime gate of the suite.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from asymptotica import cli, construct, curves, planefield, tubular, verify


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


# 3. exact realization of polynomial local models ------------------------------


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


# 4. every verify-paper row at its frozen bound ---------------------------------


# bounds frozen here, one per row of each check; verify's own bounds must equal them
PROPERTY_BOUNDS = {
    "t1-eigenvalues": {
        "max relative eigenvalue error": 1e-4,
        "not hyperbolic": 0,
        "core points not Hyperbolic": 0,
        "Q step attempts": 225,
    },
    "t1-integrals": {"|int diag_first - 2 pi|": 1e-8, "|int diag_second + 25 pi/8|": 1e-8},
    "fd-oracle": {"max |FD - Q| / max(1e-4 |Q|, 1e-8)": 1},
    "lac": {"max |e|": 1e-9, "max |f - H|": 1e-9, "max |K + H^2|": 1e-8},
    "t5": {"certificate failures": 0, "max |K + 1|": 1e-8},
    "appendix": {
        "max |f(0,0) - (m+1)/(m-1)|, m = 2..5": 1e-9,
        "max |e(u,0)|, m = 2..5": 1e-9,
        "|f(0,0)| at (m,n) = (2,4)": 1e-9,
    },
    "circle": {
        "max |normal curvature|": 1e-10,
        "|integrability defect + 2|": 1e-9,
        "points not Hyperbolic": 0,
        "projection not starlike": 0,
    },
    "gauge": {
        "worst slope deviation": 1e-9,
        "selected slope not the root of least modulus": 0,
        "two-root points not two-root after the gauge": 0,
        "two-root points short of 100": 0,
    },
    "properties": {
        "round-trip failures": 0,
        "max jet/FD error / scale": 1e-6,
        "core-curve drift": 1e-9,
        "slope residual": 1e-9,
        "Liouville residual": 1e-6,
        "accepted Q steps with det Q <= 0": 0,
    },
}
SEEDED = ("gauge", "properties")  # the checks that draw at random run at all three seeds


def test_every_check_has_frozen_bounds():
    assert [name for name, _ in verify.checks()] == list(PROPERTY_BOUNDS)


@pytest.mark.parametrize("name", PROPERTY_BOUNDS)
def test_check_rows_within_frozen_bounds(seeds, name):
    frozen = PROPERTY_BOUNDS[name]
    for s in seeds if name in SEEDED else seeds[:1]:
        rows = dict(verify.checks(seed=s))[name]()  # called directly: a crash fails the test
        assert [label for label, _, _ in rows] == list(frozen)
        for label, measured, bound in rows:
            assert float(measured) <= frozen[label], f"{name}: {label} = {measured} > {frozen[label]} at seed {s}"
            assert bound == frozen[label], f"{name}: verify bounds {label} by {bound}, frozen at {frozen[label]}"


@pytest.mark.parametrize("H_spec", [1, "2 + sin(x)"])
def test_prescribed_mixed_coefficient(H_spec):
    # the lac row reports the worst of its two prescribed H; each H alone meets the row's bounds
    # and is covered by the row, so dropping an H from the row fails here
    frozen = PROPERTY_BOUNDS["lac"]
    row = {label: measured for label, measured, _ in dict(verify.checks())["lac"]()}
    for (label, bound), dev in zip(frozen.items(), verify.lac_deviations(H_spec)):
        assert dev <= bound, f"H = {H_spec}: {label} = {dev} > {bound}"
        assert dev <= row[label], f"H = {H_spec}: {label} = {dev} not covered by the lac row's {row[label]}"


def test_gauge_row_counts_two_root_points_the_gauge_makes_linear(seeds, monkeypatch):
    # a "gauge" that keeps the field where z > 0 and swaps in -y dx + x dy + (1 + x^2 + y^2) dz
    # where z < 0: its radial direction is asymptotic, so g = 0 in the circle's chart and
    # a point there has the one root of the linear case
    step = "z/sqrt(z^2)"
    linear = ("-y", "x", "1 + x^2 + y^2")

    def half_linear(field, phi):
        sources = (f"(1 + {step})*({a})/2 + (1 - {step})*({b})/2" for a, b in zip(field.sources, linear))
        return planefield.AmbientField(list(sources))

    monkeypatch.setattr(planefield, "gauge_scale", half_linear)
    rows = {label: measured for label, measured, _ in dict(verify.checks(seed=seeds[0]))["gauge"]()}
    assert 0 < rows["two-root points not two-root after the gauge"] < 5 * 100  # of the five gauges' hits


def test_full_verification_suite_runtime(capsys):
    t0 = time.time()
    code = cli.main(["verify-paper"])
    elapsed = time.time() - t0
    out, err = capsys.readouterr()
    assert code == 0, f"verification suite failed:\n{out}\n{err}"
    assert elapsed < 60.0
