from fractions import Fraction

import numpy as np
import pytest

from asymptotica import jets, surfaces
from asymptotica.surfaces import (
    DegenerateNormal,
    arnold_k1,
    arnold_surface,
    f_on_curve,
    second_fundamental,
)


def test_plane_has_zero_second_fundamental():
    e, f, g = second_fundamental(lambda u, v: (u, v, 0 * u), 0.3, -0.7)
    assert (e, f, g) == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)


def test_hyperbolic_paraboloid_mixed_coefficient():
    e, f, g = second_fundamental(lambda u, v: (u, v, u * v), 0.0, 0.0)
    assert e == pytest.approx(0.0, abs=1e-14)
    assert g == pytest.approx(0.0, abs=1e-14)
    assert abs(f) == pytest.approx(1.0)
    assert e * g - f * f < 0


def test_graph_form_is_the_hessian_at_the_origin():
    # z = (u^2 + v^2)/2 + 1.5 uv has the unit normal (0, 0, 1) and Hessian
    # ((1, 1.5), (1.5, 1)) at the origin: the form is (1, 1.5, 1), hyperbolic
    e, f, g = second_fundamental(lambda u, v: (u, v, (u * u + v * v) / 2 + 1.5 * u * v), 0.0, 0.0)
    assert (e, f, g) == pytest.approx((1.0, 1.5, 1.0), abs=1e-15)
    assert e * g - f * f == pytest.approx(-1.25, abs=1e-15)


def test_sphere_of_radius_two_has_form_minus_one_half():
    # the upper hemisphere of radius 2 with the upward normal: e = g = -1/2, f = 0 at the pole
    e, f, g = second_fundamental(lambda u, v: (u, v, jets.sqrt(4 - u * u - v * v)), 0.0, 0.0)
    assert (e, f, g) == pytest.approx((-0.5, 0.0, -0.5), abs=1e-15)


def test_sphere_elliptic():
    e, f, g = second_fundamental(lambda u, v: (u, v, jets.sqrt(1 - u * u - v * v)), 0.1, 0.2)
    assert e * g - f * f > 0


def test_cylinder_parabolic():
    e, f, g = second_fundamental(lambda u, v: (jets.cos(u), jets.sin(u), v), 0.4, 1.0)
    assert e * g - f * f == pytest.approx(0.0, abs=1e-13)


def test_degenerate_normal_raises():
    with pytest.raises(DegenerateNormal):
        second_fundamental(lambda u, v: (u, u, 0 * u), 0.0, 0.0)


def test_surface_map_needs_three_components():
    with pytest.raises(ValueError, match="three components, got 2"):
        second_fundamental(lambda u, v: (u, v), 0.0, 0.0)


@pytest.mark.parametrize("s", [1e-12, 1e-8, 1.0, 1e8])
def test_degenerate_normal_test_is_scale_free(s):
    # (e, f, g) scale with the surface, and the degeneracy test with it
    def surface(k):
        return lambda u, v: (k * u, k * v, k * (u * v + u * u))

    unit = second_fundamental(surface(1.0), 0.1, 0.2)
    assert second_fundamental(surface(s), 0.1, 0.2) == pytest.approx(tuple(s * c for c in unit), rel=1e-12, abs=0)
    with pytest.raises(DegenerateNormal):
        second_fundamental(lambda u, v: (s * u, s * u, 0 * u), 0.1, 0.2)


def test_arnold_k1_values():
    assert arnold_k1(2, 3, 0.0) == 0.0
    assert arnold_k1(2, 3, Fraction(1)) == Fraction(9, 14)
    assert arnold_k1(2, 4, Fraction(1)) == Fraction(22, 21)


def test_f_on_curve_values():
    assert f_on_curve(2, 3, Fraction(0)) == 3
    assert f_on_curve(2, 4, Fraction(0)) == 0
    assert f_on_curve(2, 3, Fraction(1)) == 75


def test_bad_orders_rejected():
    for m, n in ((1, 2), (2, 2), (3, 2)):
        with pytest.raises(ValueError):
            arnold_k1(m, n, 0.0)
    with pytest.raises(ValueError):
        f_on_curve(2.5, 4, 0.0)


def test_surface_contains_model_curve():
    beta, _ = arnold_surface(2, 3)
    for u in (-0.4, 0.0, 0.25):
        assert np.allclose(beta(u, 0.0), [u, u ** 2, u ** 3], atol=1e-14)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_rotating_models_have_nonzero_f00(m):
    _, report = arnold_surface(m, m + 1)
    assert report["rotating"]
    assert report["f00"] == pytest.approx((m + 1) / (m - 1), abs=1e-9)
    assert report["max_abs_e"] <= 1e-9


def test_nonrotating_model_f00_zero():
    _, report = arnold_surface(2, 4)
    assert not report["rotating"]
    assert report["f00"] == pytest.approx(0.0, abs=1e-12)


def test_f_closed_form_matches_triple_product():
    for m, n in ((2, 3), (3, 4), (2, 4)):
        _, report = arnold_surface(m, n)
        assert report["max_rel_f_mismatch"] <= 1e-9


@pytest.mark.parametrize("m, n", [(2, 3), (3, 5), (2, 9), (8, 9)])
def test_arnold_report_matches_generic_path(m, n):
    # the report's one grid jet and one origin jet give the bits of the per-point path;
    # f is against the unnormalized normal: the triple product alpha_uv . (alpha_u ^ alpha_v)
    beta, report = arnold_surface(m, n)
    us = report["u"]
    e, _, _ = second_fundamental(beta, us, 0.0 * us)
    cj = beta(*jets.seed((us, 0.0 * us), 2))
    a_u, a_v, a_uv = (tuple(c.deriv(*k) for c in cj) for k in ((1, 0), (0, 1), (1, 1)))
    f = jets.dot(a_uv, jets.cross(a_u, a_v))
    _, f00, _ = second_fundamental(beta, 0.0, 0.0)
    closed = np.asarray(f_on_curve(m, n, us), dtype=float)
    mismatch = np.max(np.abs(f - closed) / np.maximum(np.abs(closed), 1.0))
    assert report["e_on_curve"].tobytes() == np.asarray(e, dtype=float).tobytes()
    assert report["f_on_curve"].tobytes() == np.asarray(f, dtype=float).tobytes()
    assert report["f_closed_form"].tobytes() == closed.tobytes()
    assert np.float64(report["f00"]).tobytes() == np.float64(f00).tobytes()
    assert np.float64(report["max_abs_e"]).tobytes() == np.max(np.abs(e)).tobytes()
    assert np.float64(report["max_rel_f_mismatch"]).tobytes() == mismatch.tobytes()


def test_arnold_surface_evaluates_the_model_twice(monkeypatch):
    # one model evaluation on the grid and one at the origin; the returned
    # surface is the model map, so each of its point sets evaluates it once
    calls = []

    def counted(m, n, u, _real=arnold_k1):
        calls.append(u)
        return _real(m, n, u)

    monkeypatch.setattr(surfaces, "arnold_k1", counted)
    for m, n in ((2, 3), (4, 7)):
        calls.clear()
        beta, _ = arnold_surface(m, n)
        assert len(calls) == 2
        us = np.linspace(-0.4, 0.4, 5)
        for probe in (lambda: second_fundamental(beta, us, 0.0 * us), lambda: beta(0.1, 0.2)):
            calls.clear()
            probe()
            assert len(calls) == 1
