"""Command-line front end.

Subcommands wrap the library operations: classify a tube grid, compute the
return-map derivative, integrate asymptotic lines, evaluate curvature and
integrability, test the starlike projection, build the appendix surfaces,
and run the full verification suite.  Built-in names ("t1",
"circle-example", "arnold:m,n") make every check runnable without input
files.

Exit codes: 0 success, 1 check failure, 2 usage/parse error (an unreadable
field file, input nested too deeply and a grid of more than MAX_GRID_POINTS
points among them), 3 numerical failure.
With --format json each subcommand writes a single JSON document to stdout;
diagnostics go to stderr.  integrate --svg draws an SVG_WIDTH by SVG_HEIGHT
canvas with an SVG_MARGIN border.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import math
import os
import sys

import numpy as np

from . import construct, curves, exprlang, flow, monodromy, planefield, spectral, surfaces, tubular, verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

GRID_PASS_POINTS = 4096  # points per vector chart_data pass of a classify or curvature grid
MAX_GRID_POINTS = 10**6  # most points a command samples: --samples, times --rings squared for classify
SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN = 640, 480, 20  # integrate --svg's canvas, in pixels


class UsageError(Exception):
    pass


def default_seed():
    """$ASYMPTOTICA_SEED when it is a non-negative integer, else 0."""
    try:
        return non_negative_int(os.environ.get("ASYMPTOTICA_SEED", "0"))
    except ValueError:
        return 0


@functools.lru_cache(maxsize=1)
def _t1_field():
    return construct.build_t1()


def _circle_curve():
    return curves.Curve.from_expressions(
        ("cos(x)", "sin(x)", "0"), (0.0, 2.0 * math.pi), closed=True, name="circle"
    )


def resolve_curve(name):
    """A built-in curve name or comma-separated component expressions."""
    if name == "t1":
        return construct.t1_curve()
    if name == "circle":
        return _circle_curve()
    parts = [p.strip() for p in name.split(",")]
    if len(parts) != 3:
        raise UsageError(f"unknown curve {name!r}: use t1, circle, or three comma-separated expressions")
    try:
        return curves.Curve.from_expressions(parts, (0.0, 2.0 * math.pi), closed=False, name=name)
    except exprlang.ExprError as exc:
        raise UsageError(f"curve expression error: {exc}") from exc


def resolve_field(name):
    """A built-in field name, an inline JSON field document, or a JSON file."""
    if name == "t1":
        field = _t1_field()
        return field, tubular.TubularChart(field.curve)
    if name == "circle-example":
        return planefield.circle_example_field(), tubular.TubularChart(_circle_curve())
    if name.lstrip().startswith("{"):
        text = name
    elif os.path.isfile(name):
        try:
            with open(name, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"field file {name!r} cannot be read as UTF-8 text: {exc}") from exc
    else:
        raise UsageError(f"unknown field {name!r}: use t1, circle-example, a JSON document, or a file path")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"field document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("xi"), list) or len(doc["xi"]) != 3:
        raise UsageError('field document needs "xi": [three component expressions]')
    try:
        field = planefield.AmbientField(doc["xi"])
    except (exprlang.ExprError, planefield.FieldError) as exc:
        raise UsageError(f"field expression error: {exc}") from exc
    curve = doc.get("curve", "circle")
    if not isinstance(curve, str):
        raise UsageError('field document "curve" must be a string: t1, circle, or three comma-separated expressions')
    curve = resolve_curve(curve)
    return field, tubular.TubularChart(curve)


def parse_orders(spec):
    """The (m, n) pair of an "arnold:m,n" name or a bare "m,n"."""
    body = spec.split(":", 1)[1] if spec.startswith("arnold:") else spec
    try:
        m, n = (int(p) for p in body.split(","))
    except ValueError:
        raise UsageError(f"orders {spec!r}: expected arnold:m,n with integers 1 < m < n")
    return m, n


def positive_int(text):
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def non_negative_int(text):
    """argparse type for a seed, an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def finite_float(text):
    """argparse type for a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def positive_float(text):
    """argparse type for tolerances and steps that must be finite and positive."""
    value = finite_float(text)
    if value <= 0:
        raise ValueError(text)
    return value


def finite_point(text):
    """argparse type for a finite x,y,z triple."""
    point = tuple(finite_float(v) for v in text.split(","))
    if len(point) != 3:
        raise ValueError(text)
    return point


def open_output(path, option, mode="w"):
    """Open a file named on the command line for writing; failure is a usage error."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise UsageError(f"{option}: {exc}") from exc


def check_outputs(args):
    """Raise UsageError unless every --output and --svg target can be opened
    for writing, so an unwritable path fails before any computation.  The
    probe appends nothing and removes a file it had to create."""
    for option in ("output", "svg"):
        path = getattr(args, option, None)
        if path is None:
            continue
        existed = os.path.exists(path)
        open_output(path, f"--{option}", mode="a").close()
        if not existed:
            os.remove(os.path.realpath(path))  # a dangling symlink keeps its link


def emit(args, document, csv_rows=None, csv_header=None):
    """Write the result document (strict JSON: a non-finite float is null) or rows (CSV) to --output or stdout."""
    out = sys.stdout if args.output is None else open_output(args.output, "--output")
    try:
        if args.format == "csv":  # offered where there are rows
            if csv_header:
                out.write(",".join(csv_header) + "\n")
            for row in csv_rows:
                out.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n")
        else:
            document = json.loads(json.dumps(document), parse_constant=lambda token: None)
            json.dump(document, out, indent=2, allow_nan=False)
            out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()


def write_svg(path_obj, filename):
    """Minimal static polyline rendering of the (x, y) chart projection."""
    xs, ys = path_obj.xs, path_obj.ys
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    sx = (SVG_WIDTH - 2 * SVG_MARGIN) / max(x1 - x0, 1e-12)
    sy = (SVG_HEIGHT - 2 * SVG_MARGIN) / max(y1 - y0, 1e-12)
    pts = " ".join(
        f"{SVG_MARGIN + (x - x0) * sx:.2f},{SVG_HEIGHT - SVG_MARGIN - (y - y0) * sy:.2f}"
        for x, y in zip(xs, ys)
    )
    with open_output(filename, "--svg") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}">\n'
            f'  <polyline points="{pts}" fill="none" stroke="black" stroke-width="1"/>\n'
            "</svg>\n"
        )


# -- subcommands -------------------------------------------------------------


def check_grid_points(count):
    """Raise UsageError when a command would sample more than MAX_GRID_POINTS
    points, before anything is allocated."""
    if count > MAX_GRID_POINTS:
        raise UsageError(f"{count} sample points requested, at most {MAX_GRID_POINTS} allowed (--samples, --rings)")


def _grid_pass(field, chart, grid, read):
    """read(d) of the order-0 chart data d of each vector pass over the flat
    arrays grid = (xs, ys, zs), at most GRID_PASS_POINTS points a pass,
    concatenated in grid order."""
    out = []
    for s in range(0, grid[0].size, GRID_PASS_POINTS):
        out += read(tubular.chart_data(field, chart, *(v[s : s + GRID_PASS_POINTS] for v in grid)))
    return out


def cmd_classify(args):
    check_grid_points(args.samples * args.rings**2)
    field, chart = resolve_field(args.field)
    x0, x1 = chart.curve.interval
    xs = np.linspace(x0, x1, args.samples, endpoint=not chart.curve.closed)
    offsets = np.linspace(-args.offset, args.offset, args.rings) if args.rings > 1 else [0.0]
    grid = [v.ravel() for v in np.meshgrid(xs, offsets, offsets, indexing="ij")]
    classes = _grid_pass(field, chart, grid, tubular._classes)
    rows = [(*p, str(c)) for p, c in zip(zip(*(v.tolist() for v in grid)), classes)]
    emit(
        args,
        {"field": args.field, "counts": collections.Counter(r[3] for r in rows), "points": [list(r) for r in rows]},
        csv_rows=rows,
        csv_header=("x", "y", "z", "class"),
    )
    return EXIT_OK


def cmd_poincare(args):
    field, chart = resolve_field(args.field)
    if not chart.curve.closed:
        raise UsageError("the return map needs a closed core curve")
    if args.fd_check:
        try:
            monodromy.check_fd_step(args.h, chart)
        except ValueError as exc:
            raise UsageError(f"--h: {exc}") from exc
    period = chart.curve.period
    cache = failure = None
    if args.fd_check:  # one sampling of the curve: the variational fit reads the chart cache's passes
        try:
            cache = flow.ChartSpectralCache(field, chart, period)
        except Exception as exc:  # raised after the monodromy, whose own errors come first
            failure = exc
    variational = None if cache is None else monodromy.VariationalCache(field, chart, period, cache)
    result = monodromy.monodromy(field, chart, period, cache=variational)
    if failure is not None:
        raise failure
    fd = monodromy.fd_poincare_derivative(field, chart, period, h=args.h, cache=cache) if args.fd_check else None
    doc = result.to_dict()
    code = EXIT_OK
    if args.fd_check:
        diff = np.abs(fd - result.Q)
        tol = np.maximum(args.fd_rtol * np.abs(result.Q), args.fd_atol)
        doc["fd_jacobian"] = fd.tolist()
        doc["fd_max_deviation"] = float(np.max(diff))
        doc["fd_within_tolerance"] = bool(np.all(diff <= tol))
        if not doc["fd_within_tolerance"]:
            print(f"fd check failed: max deviation {doc['fd_max_deviation']} exceeds its tolerance", file=sys.stderr)
            code = EXIT_CHECK_FAILED
    emit(args, doc)
    return code


def cmd_integrate(args):
    field, chart = resolve_field(args.field)
    path = flow.integrate_asymptotic(field, chart, args.start, args.to, rtol=args.rtol, atol=args.atol)
    if args.svg:
        write_svg(path, args.svg)
    rows = list(zip(path.xs, path.ys, path.zs, path.ps))
    doc = {
        "status": path.status,
        "reason": path.reason,
        "endpoint": list(path.endpoint()),
        "samples": len(path.xs),
        "max_residual": path.stats.get("max_residual"),
    }
    if args.format == "json":
        doc["path"] = [list(map(float, r)) for r in rows]
    emit(args, doc, csv_rows=rows, csv_header=("x", "y", "z", "p"))
    if not path.reached:
        print(f"integration stopped: {path.status} ({path.reason})", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_curvature(args):
    check_grid_points(args.samples)
    field, chart = resolve_field(args.field)
    x0, x1 = chart.curve.interval
    xs = np.linspace(x0, x1, args.samples, endpoint=not chart.curve.closed)
    zeros = np.zeros_like(xs)
    K = _grid_pass(field, chart, (xs, zeros, zeros), lambda d: [e * g - f**2 for *_, e, f, g in tubular._efg_rows(d)])
    rows = list(zip(xs.tolist(), K))
    emit(
        args,
        {"field": args.field, "K": [list(r) for r in rows]},
        csv_rows=rows,
        csv_header=("x", "K"),
    )
    return EXIT_OK


def cmd_integrability(args):
    field, chart = resolve_field(args.field)
    if not hasattr(field, "components"):
        raise UsageError("integrability needs an ambient field (three expressions)")
    if args.point:
        pts = [args.point]
    else:
        check_grid_points(args.samples)
        x0, x1 = chart.curve.interval
        pts = [tuple(chart.point(x, 0.0, 0.0)) for x in np.linspace(x0, x1, args.samples, endpoint=False)]
    rows = [(p[0], p[1], p[2], float(planefield.integrability_defect(field, p))) for p in pts]
    emit(
        args,
        {"field": args.field, "defects": [list(r) for r in rows]},
        csv_rows=rows,
        csv_header=("x", "y", "z", "defect"),
    )
    return EXIT_OK


def cmd_starlike(args):
    curve = resolve_curve(args.curve)
    ok, witness = curves.is_starlike_projection(curve)
    point = [float(v) for v in witness] if witness is not None else None
    emit(args, {"curve": args.curve, "starlike": bool(ok), "kernel_point": point})
    return EXIT_OK


def cmd_arnold_surface(args):
    m, n = parse_orders(args.orders)
    check_grid_points(args.samples)
    try:
        _, report = surfaces.arnold_surface(m, n, samples=args.samples)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    doc = {
        "m": report["m"],
        "n": report["n"],
        "rotating": bool(report["rotating"]),
        "f00": float(report["f00"]),
        "f00_expected": float(report["f00_expected"]),
        "max_abs_e_on_curve": float(report["max_abs_e"]),
        "max_rel_f_mismatch": float(report["max_rel_f_mismatch"]),
    }
    emit(args, doc)
    return EXIT_OK


def cmd_verify_paper(args):
    seed = args.seed if args.seed is not None else default_seed()
    checks = verify.checks(seed=seed)
    results = [verify.run(name, fn) for name, fn in checks if not args.only or args.only in name]
    if not results:
        raise UsageError(f"--only {args.only!r} matched no checks")
    all_passed = all(r["passed"] for r in results)
    if args.format == "json":
        emit(args, {"seed": seed, "passed": all_passed, "checks": results})
    else:
        width = max(len(r["name"]) for r in results)
        for r in results:
            status = "PASS" if r["passed"] else "FAIL"
            print(f"{r['name']:<{width}}  {status}  {r['seconds']:>6.2f}s  {r.get('error', '')}".rstrip())
            column = max((len(m["label"]) for m in r["measurements"]), default=0)
            for m in r["measurements"]:
                print(f"    {m['label']:<{column}}  {m['measured']:.3g} {'<=' if m['passed'] else '>'} {m['bound']:g}")
        print(("all checks passed" if all_passed else "some checks FAILED"), file=sys.stderr)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


# -- argument parsing --------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="asymptotica",
        description="Asymptotic lines of plane fields in R^3: classification, return maps, verification.",
    )
    parser.add_argument("--seed", type=non_negative_int, help="random seed (default: $ASYMPTOTICA_SEED or 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *formats):  # the first format is the default
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", default=None, help="output file (default: stdout)")

    p = sub.add_parser("classify", help="classify a grid of tube points")
    p.add_argument("--field", default="t1")
    p.add_argument("--samples", type=positive_int, default=64)
    p.add_argument("--rings", type=positive_int, default=3, help="offsets per transverse direction")
    p.add_argument("--offset", type=finite_float, default=0.01, help="largest transverse offset")
    common(p, "csv", "json")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("poincare", help="return-map derivative over one period")
    p.add_argument("--field", default="t1")
    p.add_argument("--fd-check", action="store_true", help="cross-check with the finite-difference Jacobian")
    p.add_argument("--h", type=positive_float, default=1e-5, help="finite-difference step")
    p.add_argument("--fd-rtol", type=positive_float, default=1e-4)
    p.add_argument("--fd-atol", type=positive_float, default=1e-8)
    common(p, "json")
    p.set_defaults(fn=cmd_poincare)

    p = sub.add_parser("integrate", help="follow one asymptotic branch")
    p.add_argument("--field", default="t1")
    p.add_argument("--start", type=finite_point, default="0,0,0", help="x,y,z chart start point")
    p.add_argument("--to", type=finite_float, required=True, help="target x")
    p.add_argument("--rtol", type=positive_float, default=1e-10)
    p.add_argument("--atol", type=positive_float, default=1e-12)
    p.add_argument("--svg", default=None, help="write an SVG polyline of the (x, y) projection")
    common(p, "csv", "json")
    p.set_defaults(fn=cmd_integrate)

    p = sub.add_parser("curvature", help="Gaussian curvature along the core curve")
    p.add_argument("--field", default="t1")
    p.add_argument("--samples", type=positive_int, default=128)
    common(p, "csv", "json")
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("integrability", help="integrability defect of an ambient field")
    p.add_argument("--field", default="circle-example")
    p.add_argument("--point", type=finite_point, default=None, help="ambient x,y,z (default: sample along the curve)")
    p.add_argument("--samples", type=positive_int, default=32)
    common(p, "csv", "json")
    p.set_defaults(fn=cmd_integrability)

    p = sub.add_parser("starlike", help="starlike test for a closed curve's projection")
    p.add_argument("--curve", default="circle")
    common(p, "json")
    p.set_defaults(fn=cmd_starlike)

    p = sub.add_parser("arnold-surface", help="appendix surface report for a local model")
    p.add_argument("--orders", default="2,3", help="arnold:m,n or m,n")
    p.add_argument("--samples", type=positive_int, default=64)
    common(p, "json")
    p.set_defaults(fn=cmd_arnold_surface)

    p = sub.add_parser("verify-paper", help="run the full verification suite")
    p.add_argument("--only", default=None, help="run only checks whose name contains this string")
    common(p, "table", "json")
    p.set_defaults(fn=cmd_verify_paper)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        check_outputs(args)
        # a non-finite value stops a command through its own checks (a grid point's
        # class, a singular path, a periodic fit's FitError: exit 3), never with a
        # numpy warning
        with np.errstate(all="ignore"):
            return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        exprlang.DomainError,  # an expression evaluated outside its domain, not a parse error
        spectral.FitError,
        flow.FlowError,
        tubular.ReductionSingular,
        monodromy.ParabolicOnCurve,
        construct.ConstructError,
        curves.CurveError,
        planefield.FieldError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except exprlang.ExprError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError as exc:  # a document or expression nested deeper than Python's stack
        print(f"error: input nested too deeply: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
