"""Parametrized surfaces and the rotating-type local model.

A surface is one ring-generic map alpha(u, v) -> three components, evaluated
on two-variable jets; second_fundamental extracts the coefficients (e, f, g)
of the binary asymptotic equation e du^2 + 2 f du dv + g dv^2 = 0.  The
normal degenerates where |alpha_u ^ alpha_v| <= 1e-14 |alpha_u| |alpha_v|, a
test that does not depend on the surface's scale.

The rotating-type construction pairs the local curve model (u, u^m, u^n),
1 < m < n, with its planar normal N(u) = (m u^{m-1}, -1, 0) and the slope
profile k1(u) below to produce the ruled surface

    beta(u, v) = gamma(u) + v N(u) + k1(u) v (gamma' ^ N)(u),

whose v = 0 line is asymptotic (e(u, 0) = 0) and whose mixed coefficient
f(u, 0) has the closed form implemented in f_on_curve.  f(0, 0) is nonzero
exactly when n = m + 1, which is the rotating-type criterion.
arnold_surface evaluates beta once on a second-order jet of its u-grid: e
against the unit normal and f against alpha_u ^ alpha_v both come from that
jet, and f(0, 0) from one more jet at the origin.  The surface it returns is
beta itself, so each point set evaluates the model once.
"""

from __future__ import annotations

import numpy as np

from . import jets

U_MAX = 0.5  # arnold_surface samples |u| <= U_MAX


class DegenerateNormal(Exception):
    """|alpha_u ^ alpha_v| <= 1e-14 |alpha_u| |alpha_v| at the queried point: the tangents are parallel."""


def _second_partials(cj):
    """(alpha_uu, alpha_uv, alpha_vv), w = alpha_u ^ alpha_v and |alpha_u|^2 |alpha_v|^2 from component jets."""
    a_u = tuple(c.deriv(1, 0) for c in cj)
    a_v = tuple(c.deriv(0, 1) for c in cj)
    a_uu = tuple(c.deriv(2, 0) for c in cj)
    a_uv = tuple(c.deriv(1, 1) for c in cj)
    a_vv = tuple(c.deriv(0, 2) for c in cj)
    return (a_uu, a_uv, a_vv), jets.cross(a_u, a_v), jets.dot(a_u, a_u) * jets.dot(a_v, a_v)


def _unit_coefficients(second, w, tangents, u, v):
    """Dot products of second with the unit normal w/|w|, where tangents = |alpha_u|^2 |alpha_v|^2."""
    ww = jets.dot(w, w)
    norm = np.sqrt(ww)
    # |w| = |alpha_u| |alpha_v| sin(angle), so the test does not depend on the surface's scale
    if np.any(np.asarray(ww <= 1e-28 * tangents)):
        raise DegenerateNormal(f"|alpha_u ^ alpha_v| = {norm} <= 1e-14 |alpha_u| |alpha_v| at (u, v) = ({u}, {v})")
    n = tuple(wi / norm for wi in w)
    return tuple(jets.dot(a, n) for a in second)


def second_fundamental(alpha, u, v):
    """Coefficients (e, f, g) of the second fundamental form of the surface alpha at (u, v).

    e = <alpha_uu, N>, f = <alpha_uv, N>, g = <alpha_vv, N> with the unit
    normal N = (alpha_u ^ alpha_v)/|alpha_u ^ alpha_v|.  Accepts scalars or
    numpy arrays of parameter values.  Raises DegenerateNormal where the
    tangents are parallel (the module docstring gives the scale-free test).
    """
    cj = tuple(alpha(*jets.seed((u, v), 2)))
    if len(cj) != 3:
        raise ValueError(f"a surface map returns three components, got {len(cj)}")
    return _unit_coefficients(*_second_partials(cj), u, v)


# -- rotating-type local model ------------------------------------------------


def _check_orders(m, n):
    if not (isinstance(m, int) and isinstance(n, int) and 1 < m < n):
        raise ValueError(f"orders must be integers with 1 < m < n, got ({m}, {n})")


def arnold_k1(m, n, u):
    """Slope profile of the ruling direction for the (u, u^m, u^n) model.

    k1(u) = [(n-m) m^2 u^{2(m-1)} + n - 1] n u^{n-m}
            / ([1 + m^2 u^{2(m-1)} + n^2 u^{2(n-1)}] (m-1) m)

    Ring-generic: u may be a float, Fraction, numpy array, or jet.
    """
    _check_orders(m, n)
    num = ((n - m) * m * m * u ** (2 * (m - 1)) + (n - 1)) * n * u ** (n - m)
    den = (1 + m * m * u ** (2 * (m - 1)) + n * n * u ** (2 * (n - 1))) * (m - 1) * m
    return num / den


def f_on_curve(m, n, u):
    """Closed form of the mixed coefficient f(u, 0) of the model surface.

    f(u, 0) = (n-m)(n-1) n (1 + m^2 u^{2(m-1)})^2 u^{n-m-1} / ((m-1) m).
    Nonzero at u = 0 exactly when n = m + 1 (the rotating-type criterion);
    in that case f(0, 0) = (m+1)/(m-1).
    """
    _check_orders(m, n)
    return (n - m) * (n - 1) * n * (1 + m * m * u ** (2 * (m - 1))) ** 2 * u ** (n - m - 1) / ((m - 1) * m)


def arnold_surface(m, n, samples=64):
    """Surface beta(u, v) for the local model, plus an on-curve report.

    Returns (beta, report).  The report holds e(u, 0) and f(u, 0) samples
    over |u| <= U_MAX, the closed-form comparison for f, and f(0, 0).
    """
    _check_orders(m, n)

    def beta(u, v):
        # gamma(u) + v N(u) + k1(u) v (gamma' ^ N)(u) with N = (m u^{m-1}, -1, 0)
        # and gamma' ^ N for gamma' = (1, m u^{m-1}, n u^{n-1})
        g = (u, u ** m, u ** n)
        N = (m * u ** (m - 1), -1, 0)
        R = (n * u ** (n - 1), m * n * u ** (m + n - 2), -1 - m * m * u ** (2 * (m - 1)))
        k = arnold_k1(m, n, u)
        return tuple(g[i] + v * N[i] + k * v * R[i] for i in range(3))

    us = np.linspace(-U_MAX, U_MAX, samples)
    vs = 0.0 * us
    # one second-order jet of beta on the grid gives e (unit normal) and f
    # (alpha_u ^ alpha_v, the triple-product convention of the closed form)
    second, w, tangents = _second_partials(beta(*jets.seed((us, vs), 2)))
    e_s, _, _ = _unit_coefficients(second, w, tangents, us, vs)
    f_s = jets.dot(second[1], w)
    f_closed = f_on_curve(m, n, us)
    _, f00, _ = second_fundamental(beta, 0.0, 0.0)
    scale = np.maximum(np.abs(f_closed), 1.0)
    report = {
        "m": m,
        "n": n,
        "u": us,
        "e_on_curve": np.asarray(e_s, dtype=float),
        "f_on_curve": np.asarray(f_s, dtype=float),
        "f_closed_form": np.asarray(f_closed, dtype=float),
        "f00": float(f00),
        "f00_expected": (m + 1) / (m - 1) if n == m + 1 else 0.0,
        "rotating": n == m + 1,
        "max_abs_e": float(np.max(np.abs(e_s))),
        "max_rel_f_mismatch": float(np.max(np.abs(np.asarray(f_s) - f_closed) / scale)),
    }
    return beta, report
