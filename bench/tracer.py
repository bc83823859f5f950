"""Span tracer that instruments the library from outside.

install() replaces public functions and methods of the asymptotica modules
with wrappers and returns a Tracer; uninstall() puts the originals back and
reinstall() the wrappers again.
Nothing in the library changes, and a plain (untraced) run never imports
this module's wrappers.

Two kinds of record:

* spans, for layer boundaries: name, start, end, parent span and op id,
  kept in memory and written out when the run ends.  A span's self time is
  its duration minus the time its child spans cover.
* aggregates, for the hot jet operators (one t1 period makes about 96k jet
  multiplies): a call count and an inclusive time per key, no span.

Counts of work the library does not report (right-hand-side evaluations,
on_accept passes, quadrature integrand evaluations) come from wrapping the
callables that are passed into flow.rk45 and monodromy.quad.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, op, parent index, start, end]
        self.op = None
        self._stack = []
        self._child = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = {}
        self._patches = []  # (owner, attribute, original, wrapper)

    # -- spans ---------------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self.op, parent, _clock(), 0.0])
        self._stack.append(index)
        self._child.append(0.0)
        return index

    def end(self, index):
        t = _clock()
        record = self.spans[index]
        record[4] = t
        duration = t - record[3]
        self._stack.pop()
        covered = self._child.pop()
        if self._child:
            self._child[-1] += duration
        name = record[0]
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - covered

    def count(self, name, amount=1):
        self.counts[name] += amount

    def record_max(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr], wrapper))
        setattr(owner, attr, wrapper)

    def patch_function(self, module, attr, make_wrapper):
        """Wrap module.attr everywhere the library holds a reference to it."""
        original = getattr(module, attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if (name == "asymptotica" or name.startswith("asymptotica.")) and mod.__dict__.get(attr) is original:
                self._patch(mod, attr, wrapper)

    def patch_method(self, cls, attr, make_wrapper):
        self._patch(cls, attr, functools.wraps(cls.__dict__[attr])(make_wrapper(cls.__dict__[attr])))

    def uninstall(self):
        """Put the library's own functions back; reinstall() wraps them again."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def reinstall(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    # -- wrapper factories -------------------------------------------------------

    def spanned(self, name, after=None, outermost=False):
        """A wrapper factory recording one span per call.

        after(result, args, kwargs) may add counts.  With outermost, recursive
        calls (the evaluator calls itself per tree node) run unrecorded.
        """
        def make(fn):
            depth = [0]

            def wrapper(*args, **kwargs):
                if outermost and depth[0]:
                    return fn(*args, **kwargs)
                depth[0] += 1
                index = self.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end(index)
                    depth[0] -= 1
                if after is not None:
                    after(result, args, kwargs)
                return result

            return wrapper

        return make

    def aggregated(self, prefix, key=None):
        """A wrapper factory recording calls and inclusive time under prefix, or prefix.key(args)."""
        def make(fn):
            def wrapper(*args, **kwargs):
                name = prefix if key is None else f"{prefix}.{key(*args)}"
                t = _clock()
                result = fn(*args, **kwargs)
                self.total[name] += _clock() - t
                self.calls[name] += 1
                return result

            return wrapper

        return make

    def counting(self, name, fn):
        """fn wrapped to count its calls under name; None stays None."""
        if fn is None:
            return None

        def wrapper(*args):
            self.counts[name] += 1
            return fn(*args)

        return wrapper


def _ring(value):
    if isinstance(value, np.ndarray):
        return "array"
    if isinstance(value, (Fraction, int)):
        return "exact"
    return "float"


def _jet_ring(a, b=None):
    """Ring of a jet operation, keyed by the type of the jets' values."""
    ring = _ring(a.value)
    if ring == "exact" and b is not None:
        other = _ring(getattr(b, "value", b))
        if other != "exact":
            return other
    return ring


def install():
    """Wrap the library's layer boundaries and return the recording Tracer."""
    from asymptotica import (
        cli, construct, curves, exprlang, flow, jets, monodromy, planefield, rational_series, spectral,
        surfaces, tubular,
    )

    t = Tracer()

    t.patch_function(construct, "build_t1", t.spanned("construct.build_t1"))
    t.patch_function(construct, "realize_t5", t.spanned("construct.realize_t5"))

    def chart_data(fn):
        scalar = t.spanned("tubular.chart_data.scalar")(fn)
        vector = t.spanned("tubular.chart_data.vector")(fn)

        def wrapper(field, chart, x, *args, **kwargs):
            if isinstance(x, np.ndarray):
                t.count("tubular.chart_data.vector.points", x.size)
                return vector(field, chart, x, *args, **kwargs)
            return scalar(field, chart, x, *args, **kwargs)

        return wrapper

    t.patch_function(tubular, "chart_data", chart_data)

    mul = t.aggregated("jets.mul", _jet_ring)
    t.patch_method(jets.Jet, "__mul__", mul)
    t.patch_method(jets.Jet, "__rmul__", mul)
    t.patch_method(jets.Jet, "_compose_scaled", t.aggregated("jets.compose", lambda jet, derivs: _jet_ring(jet)))

    t.patch_function(exprlang, "evaluate", t.spanned("exprlang.evaluate", outermost=True))
    t.patch_method(spectral.TrigSeries, "__call__", t.spanned("spectral.TrigSeries.eval"))
    t.patch_method(curves.Curve, "frame_vectors", t.spanned("curves.Curve.frame_vectors"))
    t.patch_function(curves, "finite_type_symbol", t.spanned("curves.finite_type_symbol"))
    t.patch_method(planefield.AmbientField, "chart_components", t.spanned("planefield.AmbientField.chart_components"))
    series_mul = t.aggregated("rational_series.PowerSeriesQ.mul")
    t.patch_method(rational_series.PowerSeriesQ, "__mul__", series_mul)
    t.patch_method(rational_series.PowerSeriesQ, "__rmul__", series_mul)

    def rk45(fn):
        def after(result, args, kwargs):
            stats = result[2]
            t.count("flow.rk45.steps", stats["steps"])
            t.count("flow.rk45.rejected", stats["rejected"])

        spanned = t.spanned("flow.rk45", after=after)(fn)

        def wrapper(rhs, *args, on_accept=None, **kwargs):
            rhs = t.counting("flow.rk45.rhs_evals", rhs)
            on_accept = t.counting("flow.rk45.accept_evals", on_accept)
            return spanned(rhs, *args, on_accept=on_accept, **kwargs)

        return wrapper

    t.patch_function(flow, "rk45", rk45)

    def cache_nodes(prefix):
        def after(result, args, kwargs):
            cache = args[0]
            t.record_max(f"{prefix}.nodes", cache.nodes)
            if hasattr(cache, "residual"):
                t.record_max(f"{prefix}.residual", cache.residual)

        return after

    for cls, name in (
        (flow.ChartSpectralCache, "flow.ChartSpectralCache"),
        (monodromy.VariationalCache, "monodromy.VariationalCache"),
    ):
        t.patch_method(cls, "__init__", t.spanned(name, after=cache_nodes(name)))
    t.patch_function(flow, "integrate_batch", t.spanned("flow.integrate_batch"))
    t.patch_function(flow, "branch_slopes", t.aggregated("flow.branch_slopes"))
    t.patch_function(monodromy, "monodromy", t.spanned("monodromy.monodromy"))
    t.patch_function(monodromy, "fd_poincare_derivative", t.spanned("monodromy.fd_poincare_derivative"))

    def quad(fn):
        spanned = t.spanned("monodromy.quad")(fn)

        def wrapper(func, *args, **kwargs):
            return spanned(t.counting("monodromy.quad.evals", func), *args, **kwargs)

        return wrapper

    t.patch_function(monodromy, "quad", quad)
    t.patch_function(surfaces, "arnold_surface", t.spanned("surfaces.arnold_surface"))

    def emit(fn):
        spanned = t.spanned("cli.emit")(fn)

        def wrapper(*args, **kwargs):
            out = sys.stdout
            before = out.tell()
            result = spanned(*args, **kwargs)
            t.count("cli.emit.bytes", out.tell() - before)
            return result

        return wrapper

    t.patch_function(cli, "emit", emit)
    return t


def span_cost(samples=2000):
    """Seconds one begin/end pair costs, measured on a throwaway tracer."""
    probe = Tracer()
    t0 = _clock()
    for _ in range(samples):
        probe.end(probe.begin("probe"))
    return (_clock() - t0) / samples


def consistency_problems(tracer, walls, cost):
    """Check that the spans nest and that each op's top-level span accounts for its wall time.

    walls[i] is op i's wall time measured around its span; the two may differ
    only by the cost of opening and closing that span, plus one scheduler tick.
    """
    problems = []
    if tracer._stack:
        problems.append(f"{len(tracer._stack)} spans still open")
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for name, _, parent, start, end in spans:
        if end < start:
            problems.append(f"span {name} ends before it starts")
        if parent >= 0:
            covered[parent] += end - start
    for index, (name, _, _, start, end) in enumerate(spans):
        if covered[index] > (end - start) + 1e-9:
            problems.append(f"children of span {index} ({name}) cover more than its duration")
    tolerance = 10 * cost + 1e-3
    tops = {op: end - start for name, op, parent, start, end in spans if name == "op" and parent == -1}
    for op, wall in enumerate(walls):
        gap = wall - tops.get(op, 0.0)
        if not 0.0 <= gap <= tolerance:
            problems.append(f"op {op}: wall {wall:.6f} s but its span covers {tops.get(op, 0.0):.6f} s")
    return problems


def layer_metrics(t):
    """The per-layer metrics, as name -> (value, unit)."""

    def calls(name):
        return t.calls.get(name, 0), "count"

    def inclusive(name):
        return t.total.get(name, 0.0), "s"

    def own(name):
        return t.self_time.get(name, 0.0), "s"

    def counted(name, unit="count"):
        return t.counts.get(name, 0), unit

    def largest(name, unit="count"):
        return t.maxima.get(name, 0), unit

    m = {
        "construct.build_t1.s": inclusive("construct.build_t1"),
        "construct.realize_t5.calls": calls("construct.realize_t5"),
        "construct.realize_t5.s": inclusive("construct.realize_t5"),
        "tubular.chart_data.scalar.calls": calls("tubular.chart_data.scalar"),
        "tubular.chart_data.scalar.s": own("tubular.chart_data.scalar"),
        "tubular.chart_data.vector.calls": calls("tubular.chart_data.vector"),
        "tubular.chart_data.vector.points": counted("tubular.chart_data.vector.points"),
        "tubular.chart_data.vector.s": own("tubular.chart_data.vector"),
    }
    for op in ("mul", "compose"):
        for ring in ("float", "array", "exact"):
            m[f"jets.{op}.{ring}.calls"] = calls(f"jets.{op}.{ring}")
            m[f"jets.{op}.{ring}.s"] = inclusive(f"jets.{op}.{ring}")
    for name in (
        "exprlang.evaluate",
        "spectral.TrigSeries.eval",
        "curves.Curve.frame_vectors",
        "planefield.AmbientField.chart_components",
        "rational_series.PowerSeriesQ.mul",
    ):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = inclusive(name)
    m["curves.finite_type_symbol.s"] = inclusive("curves.finite_type_symbol")

    steps, rejected = t.counts.get("flow.rk45.steps", 0), t.counts.get("flow.rk45.rejected", 0)
    m.update(
        {
            "flow.rk45.calls": calls("flow.rk45"),
            "flow.rk45.steps": (steps, "count"),
            "flow.rk45.rejected": (rejected, "count"),
            "flow.rk45.accept_ratio": (steps / (steps + rejected) if steps + rejected else 0.0, "ratio"),
            "flow.rk45.rhs_evals": counted("flow.rk45.rhs_evals"),
            "flow.rk45.accept_evals": counted("flow.rk45.accept_evals"),
            "flow.rk45.s": own("flow.rk45"),
            "flow.ChartSpectralCache.s": inclusive("flow.ChartSpectralCache"),
            "flow.ChartSpectralCache.nodes": largest("flow.ChartSpectralCache.nodes"),
            "flow.integrate_batch.s": inclusive("flow.integrate_batch"),
            "flow.branch_slopes.calls": calls("flow.branch_slopes"),
            "monodromy.VariationalCache.s": inclusive("monodromy.VariationalCache"),
            "monodromy.VariationalCache.nodes": largest("monodromy.VariationalCache.nodes"),
            "monodromy.VariationalCache.residual": largest("monodromy.VariationalCache.residual", "rel"),
            "monodromy.monodromy.s": own("monodromy.monodromy"),
            "monodromy.quad.calls": calls("monodromy.quad"),
            "monodromy.quad.evals": counted("monodromy.quad.evals"),
            "monodromy.fd_poincare_derivative.s": inclusive("monodromy.fd_poincare_derivative"),
            "surfaces.arnold_surface.calls": calls("surfaces.arnold_surface"),
            "surfaces.arnold_surface.s": inclusive("surfaces.arnold_surface"),
            "cli.emit.s": inclusive("cli.emit"),
            "cli.emit.bytes": counted("cli.emit.bytes", "bytes"),
        }
    )
    return m
