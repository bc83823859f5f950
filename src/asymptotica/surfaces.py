"""Parametrized surfaces and the rotating-type local model.

A ParamSurface wraps three component functions of (u, v) evaluated through
two-variable jets; second_fundamental extracts the coefficients (e, f, g) of
the binary asymptotic equation e du^2 + 2 f du dv + g dv^2 = 0.

The rotating-type construction pairs the local curve model (u, u^m, u^n),
1 < m < n, with its planar normal N(u) = (m u^{m-1}, -1, 0) and the slope
profile k1(u) below to produce the ruled surface

    beta(u, v) = gamma(u) + v N(u) + k1(u) v (gamma' ^ N)(u),

whose v = 0 line is asymptotic (e(u, 0) = 0) and whose mixed coefficient
f(u, 0) has the closed form implemented in f_on_curve.  f(0, 0) is nonzero
exactly when n = m + 1, which is the rotating-type criterion.
"""

from __future__ import annotations

import numpy as np

from . import jets

U_MAX = 0.5  # arnold_surface samples |u| <= U_MAX


class DegenerateNormal(Exception):
    """alpha_u ^ alpha_v vanished at the queried point."""


class ParamSurface:
    """Surface (u, v) -> R^3 given by three ring-generic component functions."""

    def __init__(self, components, name=""):
        if len(components) != 3:
            raise ValueError("a surface needs exactly three component functions")
        self.components = tuple(components)
        self.name = name

    def point(self, u, v):
        return np.array([float(jets.value_of(c(u, v))) for c in self.components])

    def jet(self, u, v):
        """Component jets at (u, v) to second order, as far as second_fundamental reads."""
        uj, vj = jets.seed((u, v), 2)
        return tuple(c(uj, vj) for c in self.components)


def _second_partials(surface, u, v):
    """(alpha_uu, alpha_uv, alpha_vv) and w = alpha_u ^ alpha_v at (u, v)."""
    cj = surface.jet(u, v)
    a_u = tuple(c.deriv(1, 0) for c in cj)
    a_v = tuple(c.deriv(0, 1) for c in cj)
    a_uu = tuple(2 * c.deriv(2, 0) for c in cj)
    a_uv = tuple(c.deriv(1, 1) for c in cj)
    a_vv = tuple(2 * c.deriv(0, 2) for c in cj)
    return (a_uu, a_uv, a_vv), jets.cross(a_u, a_v)


def second_fundamental(surface, u, v):
    """Coefficients (e, f, g) of the second fundamental form at (u, v).

    e = <alpha_uu, N>, f = <alpha_uv, N>, g = <alpha_vv, N> with the unit
    normal N = (alpha_u ^ alpha_v)/|alpha_u ^ alpha_v|.  Accepts scalars or
    numpy arrays of parameter values.
    """
    second, w = _second_partials(surface, u, v)
    norm = np.sqrt(jets.dot(w, w))
    if np.any(np.asarray(norm) < 1e-14):
        raise DegenerateNormal(f"|alpha_u ^ alpha_v| = {norm} at (u, v) = ({u}, {v})")
    n = tuple(wi / norm for wi in w)
    return tuple(jets.dot(a, n) for a in second)


def second_fundamental_unnormalized(surface, u, v):
    """(e, f, g) against the *unnormalized* normal alpha_u ^ alpha_v.

    These are |alpha_u ^ alpha_v| times the classical coefficients; they
    define the same binary asymptotic equation (the common factor cancels)
    and match the closed forms quoted for the rotating-type model, which
    are triple products [alpha_u, alpha_v, alpha_**].
    """
    second, w = _second_partials(surface, u, v)
    return tuple(jets.dot(a, w) for a in second)


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

    Returns (surface, report).  The report holds e(u, 0) and f(u, 0) samples
    over |u| <= U_MAX, the closed-form comparison for f, and f(0, 0).
    """
    _check_orders(m, n)

    def gamma(u):
        return (u, u ** m, u ** n)

    def normal(u):
        return (m * u ** (m - 1), -1, 0)

    def ruling(u):
        # gamma' ^ N for gamma' = (1, m u^{m-1}, n u^{n-1})
        return (
            n * u ** (n - 1),
            m * n * u ** (m + n - 2),
            -1 - m * m * u ** (2 * (m - 1)),
        )

    def component(i):
        def comp(u, v):
            return gamma(u)[i] + v * normal(u)[i] + arnold_k1(m, n, u) * v * ruling(u)[i]

        return comp

    surface = ParamSurface([component(i) for i in range(3)], name=f"arnold:{m},{n}")

    us = np.linspace(-U_MAX, U_MAX, samples)
    e_s, _, _ = second_fundamental(surface, us, 0.0 * us)
    # the closed form is the triple-product (unnormalized) convention
    _, f_s, _ = second_fundamental_unnormalized(surface, us, 0.0 * us)
    f_closed = f_on_curve(m, n, us)
    _, f00, _ = second_fundamental(surface, 0.0, 0.0)
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
    return surface, report
