"""A closed-form hyperbolic saddle whose M is not triangular.

The field is circle-example's rotation-invariant family with p = -1,
q = t = 1/2, s = 0: the adapted frame of the unit circle turns with the
point, so M(x) is the constant [[-3, 5], [-1, 2]] and Q = exp(2 pi M)
exactly, with eigenvalues exp(pi (-1 +- sqrt 5)).  Two metamorphic
relations reparametrize the circle: gamma(2x) keeps the eigenvalues over
its period pi, and gamma(-x) inverts them.  The bounds are the measured
deviations times a margin of at least 4.
"""

import json
import math

import numpy as np
import pytest
import scipy.linalg
from conftest import SADDLE

from asymptotica import cli, flow, monodromy, tubular
from asymptotica.curves import Curve

M = np.array([[-3.0, 5.0], [-1.0, 2.0]])  # the saddle fixture's M (tests/conftest.py)
ROOT5 = math.sqrt(5)


def test_saddle_variational_matrix_is_constant(saddle):
    # measured 1.8e-15
    xs = np.linspace(0.0, 2 * math.pi, 17)
    assert np.max(np.abs(monodromy.variational_matrix(*saddle, xs) - M)) <= 1e-14


@pytest.mark.parametrize("cache", [None, False])
def test_saddle_q_is_the_matrix_exponential(saddle, cache):
    # measured, relative to max |exp(2 pi M)|: 2.48e-12 cached, 2.48e-12 direct;
    # the large eigenvalue 2.46e-12 and 2.47e-12, the small one (det/large with
    # Liouville's det) 2.45e-12 on both; the trace integral exactly -2 pi on both
    result = monodromy.monodromy(*saddle, 2 * math.pi, cache=cache)
    want = scipy.linalg.expm(2 * math.pi * M)
    assert np.max(np.abs(result.Q - want)) <= 1e-11 * np.max(np.abs(want))
    large = math.exp(math.pi * (math.sqrt(5) - 1))
    assert abs(max(abs(ev) for ev in result.eigenvalues) - large) <= 1e-11 * large
    small = math.exp(-math.pi * (1 + math.sqrt(5)))
    assert abs(min(abs(ev) for ev in result.eigenvalues) - small) <= 1e-11 * small
    assert result.hyperbolic and not result.triangular
    assert abs(result.integrals["trace"] + 2 * math.pi) <= 1e-12
    assert result.stats["det_nonpositive"] == 0


def test_saddle_passes_the_fd_oracle(capsys):
    # the CLI's finite-difference check at its frozen tolerances; the largest
    # entry of |FD - Q| / max(1e-4 |Q|, 1e-8) measured 0.103
    code = cli.main(
        ["poincare", "--field", json.dumps(SADDLE), "--fd-check", "--fd-rtol", "1e-4", "--fd-atol", "1e-8", "--format", "json"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["fd_within_tolerance"]
    Q, fd = np.array(doc["Q"]), np.array(doc["fd_jacobian"])
    assert np.max(np.abs(fd - Q) / np.maximum(1e-4 * np.abs(Q), 1e-8)) <= 0.5


def _reparametrized_monodromy(saddle, sources, period, cache):
    """The saddle's monodromy along the unit circle given by these component
    expressions over one period, a closed curve (the CLI's expression curves
    are open)."""
    curve = Curve.from_expressions(sources, (0.0, period), closed=True)
    return monodromy.monodromy(saddle[0], tubular.TubularChart(curve), period, cache=cache)


def _assert_moduli(result, large, small, rel):
    moduli = sorted(abs(ev) for ev in result.eigenvalues)
    assert abs(moduli[1] - large) <= rel * large and abs(moduli[0] - small) <= rel * small, moduli
    assert result.hyperbolic and not result.triangular
    assert result.stats["det_nonpositive"] == 0


@pytest.mark.parametrize("cache", [None, False])
def test_saddle_at_double_speed_keeps_its_eigenvalues(saddle, cache):
    # gamma(2x) on (0, pi) with period pi: the same orbit, so the same
    # eigenvalues exp(pi (-1 +- sqrt 5)); measured 2.45e-12 relative cached,
    # 2.46e-12 direct, the trace integral exactly -2 pi on both
    result = _reparametrized_monodromy(saddle, ("cos(2*x)", "sin(2*x)", "0"), math.pi, cache)
    _assert_moduli(result, math.exp(math.pi * (ROOT5 - 1)), math.exp(-math.pi * (1 + ROOT5)), 1e-11)
    assert abs(result.integrals["trace"] + 2 * math.pi) <= 1e-12


@pytest.mark.parametrize("cache", [None, False])
def test_saddle_reversed_inverts_its_eigenvalues(saddle, cache):
    # gamma(-x) on (0, 2 pi): the orbit run backwards, so the return map's
    # inverse, with eigenvalues exp(pi (1 +- sqrt 5)) = 26014.4 and 0.0205844;
    # measured 7.62e-12 relative cached, 7.61e-12 direct, the trace integral
    # exactly 2 pi on both
    result = _reparametrized_monodromy(saddle, ("cos(-x)", "sin(-x)", "0"), 2 * math.pi, cache)
    _assert_moduli(result, math.exp(math.pi * (1 + ROOT5)), math.exp(math.pi * (1 - ROOT5)), 4e-11)
    assert abs(result.integrals["trace"] - 2 * math.pi) <= 1e-12


def _rotated(source):
    """source at R^T p, R the rotation by cos = 3/5, sin = 4/5 about the x axis."""
    return source.replace("y", "Y").replace("z", "((-4*y + 3*z)/5)").replace("Y", "((3*y + 4*z)/5)")


@pytest.fixture(scope="module")
def tilted_saddle():
    # the saddle turned by R (the field R xi(R^T p), the circle R gamma) and run at
    # period 3, which does not divide 2 pi: the adapted frame of the tilted circle does
    # not turn with the rotation, so M varies along it; the orbit and its eigenvalues
    # exp(pi (-1 +- sqrt 5)) stay
    xi1, xi2, xi3 = map(_rotated, SADDLE["xi"])
    field = cli.resolve_field(json.dumps({"xi": [xi1, f"(3*({xi2}) - 4*({xi3}))/5", f"(4*({xi2}) + 3*({xi3}))/5"]}))[0]
    curve = Curve.from_expressions(("cos(2*pi*x/3)", "3*sin(2*pi*x/3)/5", "4*sin(2*pi*x/3)/5"), (0.0, 3.0), closed=True)
    return field, tubular.TubularChart(curve)


@pytest.mark.parametrize("shared", [False, True])
def test_tilted_saddle_at_period_three_keeps_its_eigenvalues(tilted_saddle, shared):
    # the variational fit over its own passes, or over a chart cache's; a fit over 2 pi
    # in place of the period fails this.  Measured: each entry of M spreads by 6.9 to 30.4
    # along the curve; 3.31e-12 relative on both eigenvalues for both fits, the trace
    # integral -2 pi to 8.9e-16
    field, chart = tilted_saddle
    assert np.min(np.ptp(monodromy.variational_matrix(field, chart, np.linspace(0.0, 3.0, 13)), axis=0)) > 5
    chart_cache = flow.ChartSpectralCache(field, chart, 3.0) if shared else None
    vc = monodromy.VariationalCache(field, chart, 3.0, chart_cache)
    result = monodromy.monodromy(field, chart, 3.0, cache=vc)
    _assert_moduli(result, math.exp(math.pi * (ROOT5 - 1)), math.exp(-math.pi * (1 + ROOT5)), 1.5e-11)
    assert abs(result.integrals["trace"] + 2 * math.pi) <= 1e-12
