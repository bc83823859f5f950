"""The paper's verification suite as one table.

Each check returns rows (label, measured, bound): a magnitude is measured
directly, a condition that is not a magnitude counts its failures against a
bound of 0.  run() makes the one pass/fail decision, measured <= bound, so a
NaN never passes; a check that raises fails with an error key.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from . import construct, curves, exprlang, flow, jets, monodromy, planefield, surfaces, tubular


def run(name, fn):
    """Run one check; its document carries the rows, the verdict and the time."""
    t0, doc = time.time(), {"name": name}
    try:
        rows = [(label, float(m), float(b)) for label, m, b in fn()]
        rows = [{"label": label, "measured": m, "bound": b, "passed": m <= b} for label, m, b in rows]
    except Exception as exc:  # a crash is a failed check, not a crash of the suite
        rows, doc["error"] = [], repr(exc)
    passed = bool(rows) and all(r["passed"] for r in rows)
    return {**doc, "passed": passed, "measurements": rows, "seconds": round(time.time() - t0, 3)}


def lac_deviations(H):
    """max |e|, max |f - H| and max |K + H^2| on t1's core for the parabolic-free field with f = H."""
    curve = construct.t1_curve()
    xs = np.linspace(0.0, curve.period, 128, endpoint=False)
    d = tubular.chart_data(construct.build_lac(curve, H=H), tubular.TubularChart(curve), xs, 0.0, 0.0)
    e, f = (np.asarray(d.value(name)) for name in "ef")
    Hv = np.ones_like(xs) if H == 1 else 2.0 + np.sin(xs)
    return np.max(np.abs(e)), np.max(np.abs(f - Hv)), np.max(np.abs(d.K + Hv * Hv))


def checks(seed=0):
    """The acceptance checks as (name, callable) pairs; each callable returns rows."""
    from .cli import _circle_curve, _t1_field  # cli imports this module; t1 stays cached in cli

    @functools.lru_cache(maxsize=None)
    def t1():
        """The t1 field, its chart and its monodromy as `poincare` computes it, once per run."""
        field = _t1_field()
        chart = tubular.TubularChart(field.curve)
        return field, chart, monodromy.monodromy(field, chart, field.curve.period)

    def t1_eigenvalues():
        field, chart, result = t1()
        want = (math.exp(-25 * math.pi / 8), math.exp(2 * math.pi))
        rel = max(abs(a - b) / b for a, b in zip(sorted(abs(ev) for ev in result.eigenvalues), want))
        xs = np.linspace(0.0, field.curve.period, 64, endpoint=False)
        classes = tubular._classes(tubular.chart_data(field, chart, xs, 0.0, 0.0))
        # 202 attempts (158 accepted, 44 rejected); a DP5 step exponent -1/5 makes 256
        attempts = result.stats["steps"] + result.stats["rejected"]
        return [
            ("max relative eigenvalue error", rel, 1e-4), ("not hyperbolic", not result.hyperbolic, 0),
            ("core points not Hyperbolic", sum(c is not tubular.PointClass.HYPERBOLIC for c in classes), 0),
            ("Q step attempts", attempts, 225),
        ]

    def t1_integrals():
        integrals = t1()[2].integrals
        return [
            ("|int diag_first - 2 pi|", abs(integrals["diag_first"] - 2 * math.pi), 1e-8),
            ("|int diag_second + 25 pi/8|", abs(integrals["diag_second"] + 25 * math.pi / 8), 1e-8),
        ]

    def fd_oracle():
        field, chart, result = t1()
        fd = monodromy.fd_poincare_derivative(field, chart, field.curve.period, h=1e-5)
        tol = np.maximum(1e-4 * np.abs(result.Q), 1e-8)
        return [("max |FD - Q| / max(1e-4 |Q|, 1e-8)", np.max(np.abs(fd - result.Q) / tol), 1)]

    def lac():
        devs = [lac_deviations(H) for H in (1, "2 + sin(x)")]
        e_dev, f_dev, k_dev = (max(col) for col in zip(*devs))
        return [("max |e|", e_dev, 1e-9), ("max |f - H|", f_dev, 1e-9), ("max |K + H^2|", k_dev, 1e-8)]

    def t5():
        failures, worst = 0, 0.0
        # the last model has rational coefficients, so its series have unequal denominators
        models = (("x", "x^2", "x^3"), ("x", "x^3", "x^5"), ("x", "x^2", "x^4"), ("x", "3/7*x^2 - 1/6*x^3", "2/9*x^3"))
        for comps in models:
            curve = curves.Curve.from_expressions(comps, (-0.5, 0.5), name=",".join(comps))
            field, cert = construct.realize_t5(curve)
            failures += not (cert["C000_exact"] and cert["e_on_curve_zero"] and cert["f_on_curve_one"])
            d = tubular.chart_data(field, tubular.TubularChart(curve), np.linspace(-0.3, 0.3, 64), 0.0, 0.0)
            worst = max(worst, np.max(np.abs(d.K + 1)))
        return [("certificate failures", failures, 0), ("max |K + 1|", worst, 1e-8)]

    def appendix():
        reports = {m: surfaces.arnold_surface(m, m + 1)[1] for m in (2, 3, 4, 5)}
        f_dev = max(abs(r["f00"] - (m + 1) / (m - 1)) for m, r in reports.items())
        return [
            ("max |f(0,0) - (m+1)/(m-1)|, m = 2..5", f_dev, 1e-9),
            ("max |e(u,0)|, m = 2..5", max(r["max_abs_e"] for r in reports.values()), 1e-9),
            ("|f(0,0)| at (m,n) = (2,4)", abs(surfaces.arnold_surface(2, 4)[1]["f00"]), 1e-9),
        ]

    def circle():
        xi = planefield.circle_example_field()
        kmax = max(
            abs(planefield.normal_curvature(xi, (math.cos(t), math.sin(t), 0.0), (-math.sin(t), math.cos(t), 0.0)))
            for t in np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
        )
        chart = tubular.TubularChart(_circle_curve())
        ts = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
        classes = [tubular.classify(xi, chart, (float(t), 0.0, 0.0)) for t in ts]
        return [
            ("max |normal curvature|", kmax, 1e-10),
            ("|integrability defect + 2|", abs(planefield.integrability_defect(xi, (1.0, 0.0, 0.0)) + 2.0), 1e-9),
            ("points not Hyperbolic", sum(c is not tubular.PointClass.HYPERBOLIC for c in classes), 0),
            ("projection not starlike", not curves.is_starlike_projection(_circle_curve())[0], 0),
        ]

    def gauge():
        rng = np.random.default_rng(seed)
        xi = planefield.AmbientField(("z - y", "1 + 0*x", "1 + y*y"))
        chart = tubular.TubularChart(_circle_curve())
        direct = tubular.binary_equation_data(xi, chart)
        r, worst, far, lost = chart.radius, 0.0, 0, 0
        for phi in ("2 + sin(x)*cos(y) + z^2", "1 + x^2/20", "3 - cos(z)", "exp(y)", "2 + sin(x*y)"):
            scaled = tubular.binary_equation_data(planefield.gauge_scale(xi, phi), chart)
            hits = 0
            while hits < 100:
                point = (rng.uniform(0.0, 2 * math.pi), rng.uniform(-r, r), rng.uniform(-r, r))
                picks = [flow.branch_slopes(*efgab(*point)[:3]) for efgab in (direct, scaled)]
                (s1, _), (s2, _) = picks
                if len(s1) != 2:
                    continue
                hits += 1
                if len(s2) != 2:  # the gauge must keep a two-root point two-root
                    lost += 1
                    continue
                worst = max(worst, max(abs(a - b) for a, b in zip(sorted(s1), sorted(s2))))
                # without a previous slope every path starts on the root of least modulus
                far += sum(p != min(s, key=abs) for s, p in picks)
        return [
            ("worst slope deviation", worst, 1e-9), ("selected slope not the root of least modulus", far, 0),
            ("two-root points not two-root after the gauge", lost, 0),
        ]

    def properties():
        trips = jet_fd = drift = residual = 0.0
        field, chart, result = t1()
        for s in (seed, seed + 1, seed + 2):
            rng = np.random.default_rng(s)
            for _ in range(25):
                tree = exprlang.parse(_random_expression(rng))
                trips += exprlang.parse(exprlang.to_source(tree)) != tree
            for _ in range(25):
                tree = exprlang.parse(_random_expression(rng))
                x0 = rng.uniform(0.2, 1.2)
                j = exprlang.evaluate(tree, {"x": jets.Jet.variable(x0, 0, 1, 1)})
                d = j.coefficient((1,)) if isinstance(j, jets.Jet) else 0.0
                vp, vm = (exprlang.evaluate(tree, {"x": x0 + h}) for h in (1e-5, -1e-5))
                # the difference quotient loses |f| * eps / h to cancellation,
                # so the comparison scale includes the value magnitude
                scale = max(1.0, abs(d), abs(vp) * 1e-5)
                jet_fd = max(jet_fd, abs(d - (vp - vm) / 2e-5) / scale)
            x0 = rng.uniform(0.0, 1.0)
            path = flow.integrate_asymptotic(field, chart, (x0, 0.0, 0.0), x0 + field.curve.period)
            drift = max(drift, max(abs(path.ys).max(), abs(path.zs).max()) if path.reached else math.inf)
            residual = max(residual, path.stats["max_residual"])
        # every accepted step of the Q integration is a checkpoint; the row label is frozen
        return [
            ("round-trip failures", trips, 0), ("max jet/FD error / scale", jet_fd, 1e-6),
            ("core-curve drift", drift, 1e-9), ("slope residual", residual, 1e-9),
            ("Liouville residual", result.det_residual, 1e-6),
            ("accepted Q steps with det Q <= 0", result.stats["det_nonpositive"], 0),
        ]

    suite = (t1_eigenvalues, t1_integrals, fd_oracle, lac, t5, appendix, circle, gauge, properties)
    return [(fn.__name__.replace("_", "-"), fn) for fn in suite]


def _random_expression(rng):
    # the decimal atom (k/40, as 0.025 or 3.5) is a literal whose printed form must stay one atom
    atoms = ["x", "x", "pi", str(int(rng.integers(1, 9))), str(int(rng.integers(1, 400)) / 40)]
    expr = rng.choice(atoms)
    for _ in range(int(rng.integers(1, 4))):
        op = rng.choice(["+", "-", "*", "/"])
        term = rng.choice(atoms)
        if rng.random() < 0.5:
            term = f"{rng.choice(['sin', 'cos', 'exp'])}({term})"
        if rng.random() < 0.3:
            term = f"{term}^{int(rng.integers(2, 4))}"
        expr = f"{expr} {op} ({term} + 2)" if op == "/" else f"{expr} {op} {term}"
    return expr
