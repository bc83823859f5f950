import contextlib
import inspect
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from conftest import SADDLE
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asymptotica import cli, exprlang, flow, jets, monodromy, planefield, rational_series, spectral, tubular, verify


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_classify_csv_default(capsys):
    code, out, _ = run(capsys, "classify", "--field", "circle-example", "--samples", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,z,class"
    assert all(len(line.split(",")) == 4 for line in lines[1:])
    assert any("Hyperbolic" in line for line in lines[1:])


def test_classify_json_counts(capsys):
    code, out, _ = run(
        capsys, "classify", "--field", "circle-example", "--samples", "8", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert sum(doc["counts"].values()) == len(doc["points"])


def test_classify_output_file(capsys, tmp_path):
    target = tmp_path / "grid.csv"
    code, out, _ = run(
        capsys, "classify", "--field", "circle-example", "--samples", "4", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("x,y,z,class")


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--output", "/nonexistent/x.csv"],
        ["integrate", "--to", "0.5", "--svg", "/nonexistent/x.svg"],
        ["poincare", "--output", "."],
    ],
)
def test_unwritable_target_fails_before_the_t1_build(capsys, monkeypatch, argv):
    def no_build():
        raise AssertionError("the t1 field was built before the output check")

    monkeypatch.setattr(cli, "_t1_field", no_build)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --")


def test_output_check_leaves_no_file_behind(capsys, tmp_path):
    target = tmp_path / "grid.csv"
    code, _, _ = run(capsys, "classify", "--field", "{bad", "--output", str(target))
    assert code == 2  # the check passed, then the field failed to parse
    assert not target.exists()
    link = tmp_path / "link.csv"
    link.symlink_to(target)  # dangling: the probe creates its target
    code, _, _ = run(capsys, "classify", "--field", "{bad", "--output", str(link))
    assert code == 2
    assert link.is_symlink() and not target.exists()


def test_poincare_circle_example(capsys):
    code, out, _ = run(capsys, "poincare", "--field", "circle-example")
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "NonHyperbolic"
    assert abs(doc["Q"][0][0] - 1.0) < 1e-6


def test_poincare_fd_check(capsys):
    code, out, _ = run(capsys, "poincare", "--field", "circle-example", "--fd-check")
    assert code == 0
    doc = json.loads(out)
    assert doc["fd_within_tolerance"] is True
    assert doc["fd_max_deviation"] <= 1e-6


class _OwnPasses(monodromy.VariationalCache):
    # the variational fit with chart passes of its own: the two caches built separately
    def __init__(self, field, chart, period, chart_cache=None):
        super().__init__(field, chart, period)


def _poincare_passes(capsys, monkeypatch, argv, separate=False):
    """(exit code, stdout, stderr, points of each vector chart_data pass) of one run."""
    passes, real = [], tubular.chart_data
    with monkeypatch.context() as patch:
        patch.setattr(
            tubular, "chart_data", lambda *a, **kw: isinstance(a[2], np.ndarray) and passes.append(a[2].size) or real(*a, **kw)
        )
        if separate:
            patch.setattr(monodromy, "VariationalCache", _OwnPasses)
        return (*run(capsys, "poincare", *argv), passes)


@pytest.mark.parametrize("field, passes", [("t1", [512, 512]), ("circle-example", [512]), ("saddle", [512])])
def test_fd_check_samples_the_curve_once(capsys, monkeypatch, field, passes):
    # both fits read the chart cache's passes: the same document as the two caches
    # built separately, with one chart pass per refinement level in place of 3 (t1) or 2
    cli._t1_field()  # built before the count
    argv = ["--field", json.dumps(SADDLE) if field == "saddle" else field, "--fd-check", "--format", "json"]
    code, out, err, shared = _poincare_passes(capsys, monkeypatch, argv)
    want = _poincare_passes(capsys, monkeypatch, argv, separate=True)
    assert (code, out, err) == want[:3] and code == 0 and out
    assert shared == passes and want[3] == [2 * monodromy.FIT_NODES] + passes


@pytest.mark.parametrize("xi, curve, message", [
    (["0*x", "0*x", "1 + 0*x"], "circle", "f(x,0,0) vanishes on the curve: |f| = 0.0 at x = 0.0"),
    (["0*x", "z/x", "1"], "circle", "f(x,0,0) vanishes on the curve: |f| = 0.0 at x = 0.0"),
    (["1/x", "z - y", "1"], "t1", "periodic fit sample not finite at x = 0.0"),
])
def test_fd_check_stops_with_the_variational_fits_line(capsys, monkeypatch, xi, curve, message):
    # f = 0 on the curve or a non-finite sample (1/x at x = 0): the chart cache's first
    # pass stops the run, and its points are the variational fit's first pass, so the
    # line is the one the two caches built separately give
    argv = ["--field", json.dumps({"xi": xi, "curve": curve}), "--fd-check"]
    code, out, err, _ = _poincare_passes(capsys, monkeypatch, argv)
    assert (code, out, err.splitlines()) == (3, "", [f"numerical failure: {message}"])
    assert (code, out, err) == _poincare_passes(capsys, monkeypatch, argv, separate=True)[:3]


def test_fd_check_reports_a_chart_cache_failure_before_the_monodromy(capsys, monkeypatch):
    def fail(*args):
        raise spectral.FitError("periodic fit residual 1 above 1e-09 at 1024 nodes")

    calls = []
    monkeypatch.setattr(flow, "ChartSpectralCache", fail)
    monkeypatch.setattr(monodromy, "monodromy", lambda *a, **kw: calls.append(a))
    code, out, err = run(capsys, "poincare", "--field", "circle-example", "--fd-check")
    assert (code, out, len(err.splitlines()), calls) == (3, "", 1, [])


@pytest.mark.parametrize("xi", [["0*x", "0*x", "1 + 0*x"], ["0*x", "z/x", "1"]])
def test_fd_check_stops_a_parabolic_curve_after_one_pass(capsys, monkeypatch, xi):
    # f = 0 at a point of the chart cache's first pass, whose points the variational
    # fit's first pass repeats: the run stops there, as it does without --fd-check, with
    # the same exit code, stderr line and one pass of 512 points (z/x made 4 passes of
    # 2,560 points before: its chart cache refined to 1,024 nodes, where its residual fails)
    argv = ["--field", json.dumps({"xi": xi, "curve": "circle"})]
    with_check, without = (_poincare_passes(capsys, monkeypatch, argv + fd) for fd in (["--fd-check"], []))
    message = "numerical failure: f(x,0,0) vanishes on the curve: |f| = 0.0 at x = 0.0\n"
    assert with_check == without == (3, "", message, [512])


def test_integrate_reached(capsys):
    code, out, _ = run(
        capsys,
        "integrate", "--field", "circle-example", "--start", "0,0,0", "--to", "1.0",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,z,p"
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(1.0)


def test_integrate_json_and_svg(capsys, tmp_path):
    svg = tmp_path / "path.svg"
    code, out, _ = run(
        capsys,
        "integrate", "--field", "circle-example", "--start", "0,0,0", "--to", "0.5",
        "--format", "json", "--svg", str(svg),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "reached"
    assert doc["path"][0] == [0.0, 0.0, 0.0, doc["path"][0][3]]
    assert svg.read_text().startswith("<svg")


def test_integrate_bad_start_is_usage_error(capsys):
    code, _, err = run(capsys, "integrate", "--field", "circle-example", "--start", "nope", "--to", "1")
    assert code == 2
    assert "error" in err


# a vertical core curve: its frame vanishes, so c = 0 and dz cannot be solved for
VERTICAL_CURVE_FIELD = json.dumps({"xi": ["1", "0", "0"], "curve": "0,0,x"})
# an overflow: e, f, g are not finite, which no sign test may call Parabolic
OVERFLOW_FIELD = json.dumps({"xi": ["1", "exp(800*y+800)", "0"]})


def deep_field(expression):
    return json.dumps({"xi": [expression, "1", "0"]})


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["poincare", "--field", "{bad"], 2),
        (["classify", "--field", json.dumps({"xi": 5})], 2),
        (["classify", "--field", "."], 2),
        (["classify", "--samples", "-3"], 2),
        (["integrate", "--field", "circle-example", "--to", "nan"], 2),
        (["integrability", "--field", json.dumps({"xi": ["sqrt(x - 5)", "1", "0"]}), "--point", "0,0,0"], 3),
        (["poincare", "--field", "circle-example", "--fd-check", "--h", "1.0"], 2),
        (["poincare", "--field", "circle-example", "--fd-check", "--h", "nan"], 2),
        (["poincare", "--field", "circle-example", "--fd-check", "--fd-rtol", "nan"], 2),
        (["poincare", "--field", "circle-example", "--fd-check", "--fd-atol", "-1"], 2),
        (["integrate", "--field", "t1", "--to", "0.5", "--rtol", "nan"], 2),
        (["integrate", "--field", "t1", "--to", "0.5", "--rtol", "0", "--atol", "0"], 2),
        (["integrate", "--field", "circle-example", "--to", "1", "--atol", "-1"], 2),
        (["classify", "--rings", "0"], 2),
        (["classify", "--rings", "-1"], 2),
        (["arnold-surface", "--samples", "0"], 2),
        (["integrability", "--point", "1,2"], 2),
        (["integrability", "--point", "a,b,c"], 2),
        (["integrability", "--point", "0,inf,0"], 2),
        (["integrate", "--field", "circle-example", "--start", "0,nan,0", "--to", "1"], 2),
        (["classify", "--field", "circle-example", "--samples", "2", "--output", "/nonexistent/x.csv"], 2),
        (["classify", "--field", "circle-example", "--offset", "nan", "--format", "json"], 2),
        (["integrate", "--field", "circle-example", "--to", "0.1", "--svg", "/nonexistent/x.svg"], 2),
        # an unbound variable is found when the field compiles, a zero
        # division when it is evaluated
        (["classify", "--field", json.dumps({"xi": ["u", "1", "0"]}), "--samples", "2"], 2),
        (["classify", "--field", json.dumps({"xi": ["1/(x-x)", "1", "0"]}), "--samples", "2"], 3),
        # a step inside the tube that still leaves it, and tolerances no FD
        # Jacobian meets
        (["poincare", "--field", "circle-example", "--fd-check", "--h", "0.05"], 3),
        (["poincare", "--field", "circle-example", "--fd-check", "--fd-rtol", "1e-300", "--fd-atol", "1e-300"], 1),
        (["classify", "--field", VERTICAL_CURVE_FIELD, "--samples", "2"], 3),
        (["classify", "--field", OVERFLOW_FIELD, "--samples", "2"], 3),
        (["curvature", "--field", OVERFLOW_FIELD, "--samples", "2"], 3),
        # a float overflow, or 0 to a negative power, is a domain error
        (["integrability", "--field", json.dumps({"xi": ["exp(800*x+800)", "1", "0"]}), "--point", "1,0,0"], 3),
        (["integrability", "--field", json.dumps({"xi": ["x^400", "1", "0"]}), "--point", "1e10,0,0"], 3),
        (["integrability", "--field", json.dumps({"xi": ["x^(-1)", "1", "0"]}), "--point", "0,0,0"], 3),
        # input nested deeper than the parser, the compiler or json can recurse
        (["classify", "--field", '{"xi": ' + "[" * 50_000 + "]" * 50_000 + "}"], 2),
        (["classify", "--field", deep_field("(" * 5000 + "x" + ")" * 5000)], 2),
        (["classify", "--field", deep_field("-" * 3000 + "x")], 2),
        (["classify", "--field", deep_field(" + ".join(["x"] * 990))], 2),
        # a seed is a non-negative integer; the negative control is a test, not a flag
        (["--seed", "-1", "verify-paper", "--only", "gauge"], 2),
        (["verify-paper", "--only", "fd-oracle", "--perturb"], 2),
        # the JSON-only subcommands offer no csv
        (["poincare", "--field", "circle-example", "--format", "csv"], 2),
        (["starlike", "--format", "csv"], 2),
        (["arnold-surface", "--format", "csv"], 2),
        # grids over cli.MAX_GRID_POINTS, rejected before anything is allocated
        (["classify", "--field", "t1", "--samples", "100000000"], 2),
        (["classify", "--field", "circle-example", "--samples", "111112", "--rings", "3"], 2),
        (["classify", "--field", "circle-example", "--samples", "2", "--rings", "100000000"], 2),
        (["curvature", "--field", "circle-example", "--samples", "100000000"], 2),
        (["curvature", "--field", "circle-example", "--samples", "1000001"], 2),
        (["integrability", "--samples", "100000000"], 2),
        (["arnold-surface", "--samples", "100000000"], 2),
    ],
)
def test_malformed_input_exit_codes(capsys, argv, expected):
    code, _, err = run(capsys, *argv)
    assert code == expected
    assert "Traceback" not in err


def test_a_grid_over_the_bound_is_one_usage_line(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_grid_pass", None)  # nothing may be evaluated
    code, out, err = run(capsys, "classify", "--field", "circle-example", "--samples", "1000", "--rings", "32")
    assert (code, out) == (2, "")
    assert err.strip().count("\n") == 0
    assert "1024000 sample points requested, at most 1000000" in err


# cheap subcommands only, each with its base argvs and the options it takes;
# no base or fragment names the t1 field, whose construction would dominate;
# the circle example again, as a closed JSON field document
CIRCLE_DOCUMENT = json.dumps({
    "xi": [
        "x^2*y*z + y^3*z - x^2*y - y^3 + x*z - 2*y*z + y",
        "x^3 - x^3*z - x*y^2*z + x*y^2 + 2*x*z + y*z - x",
        "-x^2 - y^2",
    ],
    "curve": "circle",
})
FUZZ_COMMANDS = {
    "classify": ((["--field", "circle-example", "--samples", "2"],), ("--field", "--samples", "--rings", "--offset")),
    "curvature": ((["--field", "circle-example", "--samples", "2"],), ("--field", "--samples")),
    "integrability": ((["--samples", "2"],), ("--field", "--samples", "--point")),
    "integrate": ((["--field", "circle-example", "--to", "0.1"],), ("--start", "--to", "--rtol", "--atol", "--svg")),
    "starlike": (([],), ("--curve",)),
    "arnold-surface": ((["--samples", "2"],), ("--orders", "--samples")),
    "poincare": (
        (["--field", "circle-example"], ["--field", CIRCLE_DOCUMENT]),
        ("--fd-check", "--h", "--fd-rtol", "--fd-atol"),
    ),
}
FUZZ_FLAGS = ("--fd-check",)  # options that take no value
# values each option accepts; an option draws one of these with high
# probability and junk otherwise, so most argvs get past parsing into the
# numerical paths and their stops (exit codes 1 and 3)
FUZZ_VALID = {
    "--field": ("circle-example", CIRCLE_DOCUMENT),
    "--samples": ("2", "3"),
    "--rings": ("1", "3"),
    "--offset": ("0", "0.01", "0.3"),
    "--point": ("1,0,0", "0.5,-0.5,0.2"),
    "--start": ("0,0,0", "0,1e-3,0", "0.5,8e-4,2e-4", "0,0.095,0"),  # the last leaves the tube backward
    "--to": ("0.1", "0.5", "-0.3"),
    "--rtol": ("1e-8", "1e-10", "0.5"),
    "--atol": ("1e-12", "1e-6"),
    "--svg": ("path.svg",),
    "--curve": ("circle", "x,x^2,0*x", "cos(x),sin(x),x"),
    "--orders": ("2,3", "arnold:3,5", "2,4", "3,3"),
    "--h": ("1e-5", "1e-4", "0.05"),
    "--fd-rtol": ("1e-4", "1e-12"),
    "--fd-atol": ("1e-8", "1e-300"),
    "--format": ("json", "csv"),
    "--output": ("out.txt",),
}
FUZZ_VALUES = (
    "", "nan", "inf", "-inf", "-1", "0", "2", "0.05", "1e309", "x", "1,2", "a,b,c", "0,0,0",
    "1,2,3", "0,1e-3,0", "x,x^2,0*x", "circle", "circle-example", "arnold:2,3", "9,8",
    "json", "csv", "table", "{", json.dumps({"xi": 5}), json.dumps({"xi": ["z - y", "1", "1 + y*y"]}),
    "/nonexistent/x", ".", "--", "-h",
)


def _fuzz_one(rnd, commands, junk=FUZZ_VALUES):
    """Run one random argv of one of these commands; assert the exit code contract."""
    command = rnd.choice(commands)
    bases, options = FUZZ_COMMANDS[command]
    argv = [command] + rnd.choice(bases)
    for option in rnd.sample(options + ("--format", "--output"), rnd.randint(1, 3)):
        argv.append(option)
        if option not in FUZZ_FLAGS:
            argv.append(rnd.choice(FUZZ_VALID[option] if rnd.random() < 0.9 else junk))
    if rnd.random() < 0.05:  # a stray positional argument
        argv.append(rnd.choice(junk))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rnd=st.randoms(use_true_random=True))
def test_fuzzed_argv_keeps_the_exit_code_contract(monkeypatch, tmp_path, rnd):
    monkeypatch.chdir(tmp_path)  # --output and --svg fragments write here
    _fuzz_one(rnd, sorted(FUZZ_COMMANDS))


# the mixed fuzz draws few poincare runs; this one adds more, and its junk
# is mostly numeric, so a junk value too reaches the FD check and its stops
POINCARE_VALUES = ("", "nan", "inf", "-1", "0", "2", "0.05", "0.5", "1e-5", "1e-9", "1e-300", "1e309", "json", "x")


@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rnd=st.randoms(use_true_random=True))
def test_fuzzed_poincare_keeps_the_exit_code_contract(monkeypatch, tmp_path, rnd):
    monkeypatch.chdir(tmp_path)
    _fuzz_one(rnd, ["poincare"], POINCARE_VALUES)


# the t1 return map with and without the FD check: --h inside and outside
# (1e-8, tube radius), tolerances the FD Jacobian meets and ones it cannot;
# --format takes only json (csv is a usage error, a malformed-input row), so
# every value parses and each run reaches the command
T1_POINCARE_OPTIONS = {
    "--h": ("1e-5", "3e-4", "1e-9", "1e-8", "0.1", "0.5"),
    "--fd-rtol": ("1e-4", "1e-2", "1e-14"),
    "--fd-atol": ("1e-8", "1e-300"),
    "--format": ("json",),
}


@settings(derandomize=True, max_examples=20, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rnd=st.randoms(use_true_random=True))
def test_fuzzed_t1_poincare_keeps_the_exit_code_contract(monkeypatch, t1_field, rnd):
    monkeypatch.setattr(cli, "_t1_field", lambda: t1_field)
    argv = ["poincare", "--field", "t1"] + (["--fd-check"] if rnd.random() < 0.8 else [])
    for option in rnd.sample(sorted(T1_POINCARE_OPTIONS), rnd.randint(1, 4)):
        argv += [option, rnd.choice(T1_POINCARE_OPTIONS[option])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), argv
    assert len(err.getvalue().splitlines()) == (code != 0), (argv, err.getvalue())


# field documents: JSON values of every type at "xi", at "curve" and at an
# unknown key, with expression strings from a short list and from the random
# expressions of verify-paper.  Finite but steep components such as
# exp(800*x) stay out: an integrate run takes thousands of tiny steps on them
DOCUMENT_EXPRESSIONS = (
    "x", "1", "0", "z - y", "1 + y*y", "-x^2 - y^2", "sqrt(1 - x)", "1/x", "exp(800*x + 800)", "x^400", "0*x", "sin(",
    "x^²", "٣ + x", "ｘ",
)
DOCUMENT_CURVES = ("circle", "t1", "x,x^2,0*x", "cos(x),sin(x),0*sqrt(1-x)", "cos(x),sin(x)", "nowhere")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
random_expressions = st.integers(0, 2**32 - 1).map(lambda s: verify._random_expression(np.random.default_rng(s)))
expressions = st.sampled_from(DOCUMENT_EXPRESSIONS) | random_expressions


@st.composite
def field_documents(draw):
    """A JSON field document; most draws are well formed, so that they reach the numerical paths."""
    doc = {}
    xi = draw(st.sampled_from(("expressions",) * 4 + ("mixed", "list", "any", "missing")))
    if xi in ("expressions", "mixed"):
        entries = expressions if xi == "expressions" else expressions | json_values
        doc["xi"] = draw(st.lists(entries, min_size=3, max_size=3))
    elif xi == "list":
        doc["xi"] = draw(st.lists(expressions, max_size=4))
    elif xi == "any":
        doc["xi"] = draw(json_values)
    curve = draw(st.sampled_from(("named",) * 3 + ("any", "missing")))
    if curve != "missing":
        doc["curve"] = draw(st.sampled_from(DOCUMENT_CURVES) if curve == "named" else json_values)
    if draw(st.booleans()):
        doc[draw(st.sampled_from(("name", "Curve", "")))] = draw(json_values)
    return json.dumps(doc)


DOCUMENT_COMMANDS = (
    ["classify", "--samples", "2", "--rings", "2"],
    ["integrate", "--to", "0.5"],
    ["curvature"],
    ["integrability"],
)


def _document_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = cli.main(argv)  # an exception escaping main would be a traceback
    assert code in (0, 1, 2, 3), argv
    assert len(err.getvalue().splitlines()) == (code != 0), (argv, err.getvalue())
    assert not seen, (argv, [str(w.message) for w in seen])


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(document=field_documents(), command=st.sampled_from(DOCUMENT_COMMANDS))
def test_fuzzed_field_documents_keep_the_exit_code_contract(document, command):
    _document_contract(command + ["--field", document])


# the return map on field documents: rk45 stops at flow.MAX_STEPS, and a
# periodic fit at its first non-finite sample; without --fd-check, since the
# FD batch's integrations would make each example several times longer
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(document=field_documents())
def test_fuzzed_field_documents_keep_the_poincare_exit_code_contract(document):
    _document_contract(["poincare", "--field", document])


@pytest.mark.parametrize("curve", [5, None, [1, 2], {"name": "circle"}])
def test_non_string_curve_is_usage_error(capsys, curve):
    field = json.dumps({"curve": curve, "xi": ["-y", "x", "1"]})
    code, out, err = run(capsys, "classify", "--field", field)
    assert code == 2 and out == ""
    assert err.splitlines() == ['error: field document "curve" must be a string: t1, circle, or three comma-separated expressions']


def test_unknown_field_is_usage_error(capsys):
    code, _, err = run(capsys, "classify", "--field", "no-such-field")
    assert code == 2
    assert "error" in err


def test_field_expression_error_is_usage_error(capsys):
    doc = json.dumps({"xi": ["tan(x)", "0", "1"]})
    code, _, err = run(capsys, "classify", "--field", doc)
    assert code == 2


@pytest.mark.parametrize("chain", ["2^-1", "9^9^9"])
@pytest.mark.parametrize("command", [["curvature"], ["classify"], ["integrability", "--point", "0.1,0.2,0.3"]])
def test_exponent_chain_error_is_one_usage_line(capsys, chain, command):
    doc = json.dumps({"xi": [f"y^{chain} + 1", "x", "z + 1"]})
    code, _, err = run(capsys, command[0], "--field", doc, *command[1:])
    assert code == 2 and len(err.splitlines()) == 1 and "exponent chain" in err


# a superscript 2 in a field component and in --curve, then an Arabic-Indic 3
# and a fullwidth x in the curve of every other command that reads a document
NON_ASCII_COMMANDS = {
    "curvature-superscript-2": ["curvature", "--field", '{"xi": ["x^²", "1", "0"]}'],
    "starlike-superscript-2": ["starlike", "--curve", "cos(x),sin(x),x^²"],
    **{
        f"{command}-{name}": [command, "--field", json.dumps({"xi": ["1", "0", "1"], "curve": curve}), *rest]
        for command, *rest in (["classify"], ["poincare"], ["integrate", "--to", "0.5"], ["integrability"])
        for name, curve in (("arabic-indic-3", "cos(x),sin(x),٣*x"), ("fullwidth-x", "cos(x),sin(x),ｘ"))
    },
}


@pytest.mark.parametrize("argv", NON_ASCII_COMMANDS.values(), ids=NON_ASCII_COMMANDS.keys())
def test_a_non_ascii_digit_or_letter_is_one_usage_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "unexpected character" in err


def test_inline_field_document(capsys):
    doc = json.dumps({"xi": ["z - y", "1 + 0*x", "1 + y*y"], "curve": "circle"})
    code, out, _ = run(capsys, "classify", "--field", doc, "--samples", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["counts"]


def test_starlike_circle(capsys):
    code, out, _ = run(capsys, "starlike", "--curve", "circle")
    assert code == 0
    doc = json.loads(out)
    assert doc["starlike"] is True
    assert doc["kernel_point"] == pytest.approx([0.0, 0.0], abs=1e-9)


def test_starlike_open_curve_is_numerical_error(capsys):
    code, _, err = run(capsys, "starlike", "--curve", "x, x^2, 0*x")
    assert code == 3


def test_arnold_surface_rotating(capsys):
    code, out, _ = run(capsys, "arnold-surface", "--orders", "arnold:2,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["rotating"] is True
    assert doc["f00"] == pytest.approx(3.0, abs=1e-9)


def test_arnold_surface_bad_orders(capsys):
    code, _, _ = run(capsys, "arnold-surface", "--orders", "1,2")
    assert code == 2
    code, _, _ = run(capsys, "arnold-surface", "--orders", "x,y")
    assert code == 2


def test_singular_grid_names_one_point(capsys):
    # a vector pass reports the first point where c vanishes, in one line
    code, out, err = run(capsys, "classify", "--field", VERTICAL_CURVE_FIELD, "--samples", "2")
    assert code == 3 and out == ""
    assert err.splitlines() == ["numerical failure: c = 0.0 at (x, y, z) = (0.0, -0.01, -0.01)"]


def test_non_finite_chart_data_stops_the_path_singular(capsys):
    # the start's e, f, g are NaN: a "singular" stop that says so, with no numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "integrate", "--field", OVERFLOW_FIELD, "--to", "0.1", "--format", "json")
    assert code == 3
    doc = json.loads(out)
    assert (doc["status"], doc["samples"]) == ("singular", 1)
    assert doc["reason"] == "non-finite chart data e, f, g = nan, nan, nan at x = 0.0"
    assert err.splitlines() == [f"integration stopped: singular ({doc['reason']})"]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("fd", [[], ["--fd-check"]])
def test_non_finite_fit_data_stop_in_one_line(capsys, fd):
    # the cache fits' vector passes meet the overflow: one line, no numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "poincare", "--field", OVERFLOW_FIELD, *fd)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("numerical failure: ")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_a_non_finite_fit_sample_stops_poincare_after_one_pass(capsys, monkeypatch):
    # 1/x is infinite at the first node, x = 0 on the t1 curve: the variational
    # fit's first chart pass stops the run, with no further doubling
    passes = []
    real = tubular.chart_data
    monkeypatch.setattr(tubular, "chart_data", lambda *a, **kw: passes.append(np.size(a[2])) or real(*a, **kw))
    code, out, err = run(capsys, "poincare", "--field", json.dumps({"xi": ["1/x", "z - y", "1"], "curve": "t1"}))
    assert (code, out) == (3, "")
    assert err.splitlines() == ["numerical failure: periodic fit sample not finite at x = 0.0"]
    assert passes == [2 * monodromy.FIT_NODES]


@pytest.mark.parametrize(
    "source, point, message",
    [
        ("exp(800*x+800)", "1,0,0", "exp(800 * x + 800) overflows the float range"),
        ("x^400", "1e10,0,0", "x^400 overflows the float range"),
    ],
)
def test_overflow_names_the_operation(capsys, source, point, message):
    code, _, err = run(capsys, "integrability", "--field", json.dumps({"xi": [source, "1", "0"]}), "--point", point)
    assert code == 3
    assert err.splitlines() == [f"numerical failure: {message}"]


# the circle example's field on curves whose third component fails past x = 1
# (a negative sqrt raises) or past x = 0.887 (0 * inf is NaN); the curve rows
# of a step attempt that meets the failure are dropped, so every stage expands
# the curve itself as an integration without rows does
FAILING_CURVES = {
    "cos(x),sin(x),0*sqrt(1-x)": "integration stopped: singular (sqrt of a negative value at x = ",
    "cos(x),sin(x),0*exp(800*x)": "integration stopped: singular (non-finite chart data e, f, g = nan, nan, ",
}


@pytest.mark.parametrize("curve", sorted(FAILING_CURVES))
def test_failing_curve_stops_in_one_line(capsys, curve):
    field = json.dumps({"xi": list(planefield.circle_example_field().sources), "curve": curve})
    code, out, err = run(capsys, "integrate", "--field", field, "--to", "2", "--format", "json")
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith(FAILING_CURVES[curve])
    doc = json.loads(out)  # the partial path is written before the stop is reported
    assert doc["status"] == "singular" and doc["reason"] in err and len(doc["path"]) == doc["samples"] > 1


def test_spent_step_budget_stops_integrate_in_one_line(capsys, monkeypatch):
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    code, out, err = run(capsys, "integrate", "--field", "t1", "--to", "6.28", "--format", "json")
    assert code == 3
    doc = json.loads(out)  # the partial path is written before the stop is reported
    assert doc["status"] == "singular" and doc["reason"].startswith("step budget of 3 attempts spent at x = ")
    assert err.splitlines() == [f"integration stopped: singular ({doc['reason']})"]
    assert len(doc["path"]) == doc["samples"] > 1


def test_non_finite_grid_names_one_point(capsys):
    code, _, err = run(capsys, "classify", "--field", OVERFLOW_FIELD, "--samples", "2")
    assert code == 3
    assert err.splitlines() == ["numerical failure: non-finite e, f, g = nan, nan, nan at (x, y, z) = (0.0, -0.01, -0.01)"]


@pytest.mark.parametrize("name", ["t1", "circle-example"])
def test_classify_grid_matches_pointwise_classify(capsys, monkeypatch, name):
    # the grid's vector passes give every point the class of tubular.classify;
    # passes of 7 points split the grid unevenly and leave the document unchanged
    field, chart = cli.resolve_field(name)
    for offset in ("0.003", "0.01", "0.02"):
        argv = ("classify", "--field", name, "--samples", "6", "--offset", offset, "--format", "json")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        points = json.loads(out)["points"]
        assert len(points) == 54
        for x, y, z, cls in points:
            assert cls == str(tubular.classify(field, chart, (x, y, z))), (x, y, z)
        monkeypatch.setattr(cli, "GRID_PASS_POINTS", 7)
        assert run(capsys, *argv)[1] == out
        monkeypatch.undo()


@pytest.mark.parametrize("name", ["t1", "circle-example"])
def test_curvature_matches_pointwise_gaussian_curvature(capsys, name):
    field, chart = cli.resolve_field(name)
    code, out, _ = run(capsys, "curvature", "--field", name, "--format", "json")
    assert code == 0
    rows = json.loads(out)["K"]
    assert len(rows) == 128
    for x, K in rows:
        want = tubular.chart_data(field, chart, x, 0.0, 0.0).K
        assert abs(K - want) <= 1e-13 * max(1.0, abs(want)), x


def test_curvature_csv(capsys):
    code, out, _ = run(capsys, "curvature", "--field", "circle-example", "--samples", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,K"
    Ks = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(K < 0 for K in Ks)


def test_integrability_point(capsys):
    code, out, _ = run(
        capsys,
        "integrability", "--field", "circle-example", "--point", "1,0,0", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["defects"][0][3] == pytest.approx(-2.0, abs=1e-9)


def _passed_by_rows(check):
    # strict JSON writes a non-finite measured value as null, a failing row
    rows = check["measurements"]
    return bool(rows) and all(row["measured"] is not None and row["measured"] <= row["bound"] for row in rows)


def test_verify_paper_single_check(capsys):
    code, out, _ = run(capsys, "verify-paper", "--only", "appendix")
    assert code == 0
    assert "appendix" in out and "PASS" in out
    assert "|f(0,0)| at (m,n) = (2,4)" in out and "<= 1e-09" in out


def test_verify_paper_table_goes_to_output(capsys, tmp_path):
    # --output receives the table that stdout shows without it, up to the timing column
    target = tmp_path / "table.txt"
    code, out, err = run(capsys, "verify-paper", "--only", "appendix", "--output", str(target))
    assert code == 0 and out == "" and err == "all checks passed\n"
    code, out, _ = run(capsys, "verify-paper", "--only", "appendix")
    assert code == 0
    untimed = [re.sub(r" +\d+\.\d\ds", "", line) for text in (target.read_text(), out) for line in text.splitlines()]
    assert len(untimed) == 8 and untimed[:4] == untimed[4:]


def test_verify_paper_json_format(capsys):
    code, out, _ = run(capsys, "verify-paper", "--only", "circle", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["checks"][0]["name"] == "circle"
    assert {row["label"] for row in doc["checks"][0]["measurements"]} >= {"max |normal curvature|"}
    assert all(check["passed"] == _passed_by_rows(check) for check in doc["checks"])


def test_verify_paper_certifies_the_q_that_poincare_prints(monkeypatch, capsys):
    # the t1 rows read a monodromy run identical to the one of `poincare --field t1`, bit for bit
    results = []

    def recorded(*args, _real=monodromy.monodromy, **kwargs):
        results.append(_real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(monodromy, "monodromy", recorded)
    code, out, _ = run(capsys, "poincare", "--field", "t1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    checks = dict(verify.checks())
    rows = {label: measured for name in ("t1-eigenvalues", "properties") for label, measured, _ in checks[name]()}
    printed, certified = results
    assert certified.Q.tobytes() == printed.Q.tobytes() and certified.Q.tolist() == doc["Q"]
    want = (math.exp(-25 * math.pi / 8), math.exp(2 * math.pi))
    moduli = sorted(abs(complex(ev["re"], ev["im"])) for ev in doc["eigenvalues"])
    assert rows["max relative eigenvalue error"] == max(abs(a - b) / b for a, b in zip(moduli, want))
    assert rows["Liouville residual"] == doc["det_residual"]


def _fd_times_1_001(*args, _real=monodromy.fd_poincare_derivative, **kwargs):
    # the FD Jacobian times 1.001, ten times the 1e-4 relative bound
    return _real(*args, **kwargs) * 1.001


def _f_without_abl6(A, B, L):
    # reduced_coefficients with f missing its A B L6 term
    L1, L2, L3, L4, L5, L6 = L
    e = L1 + A * L4 + A * A * L6
    f = jets._div(L2, 2) + jets._div(A * L5 + B * L4, 2)
    return e, f, L3 + B * L5 + B * B * L6


def _m_without_b(field, chart, x):
    # variational_matrix with the B terms of its second row dropped
    x = np.asarray(x, dtype=float)
    d = tubular.chart_data(field, chart, x if x.ndim else float(x), 0.0, 0.0, order=1)
    f2 = 2 * np.asarray(d.value("f"), dtype=float)
    entries = (-d.partial("e", "y") / f2, -d.partial("e", "z") / f2, d.partial("A", "y"), d.partial("A", "z"))
    return np.stack([np.broadcast_to(m, x.shape) for m in entries], axis=-1).reshape(x.shape + (2, 2))


def _sum_over_left_denominator(self, other, sign):
    # PowerSeriesQ._combine with both numerator lists read over the left operand's denominator
    pair = self._coerce(other)
    if pair is NotImplemented:
        return NotImplemented
    s, o = pair
    return rational_series._series([a + sign * b for a, b in zip(s._num, o._num)], s._den, s.order)


def _far_root(e, f, g, prev_p=None, _real=flow.branch_slopes):
    # branch_slopes selecting the other root of the quadratic
    slopes, selected = _real(e, f, g, prev_p)
    return slopes, slopes[-1] if selected == slopes[0] else slopes[0]


def _one_root(limit, _real=flow.branch_slopes):
    # branch_slopes keeping only the first root, so no point has two: the gauge check
    # runs out of draws (5 gauges x 1,000 draws x 2 calls = 10,000 calls).  Past limit
    # calls it raises, so a gauge that draws without a cap fails instead of hanging
    calls = iter(range(limit))

    def first_root(e, f, g, prev_p=None):
        if next(calls, None) is None:
            raise RuntimeError(f"branch_slopes called more than {limit} times")
        slopes, _ = _real(e, f, g, prev_p)
        return slopes[:1], slopes[0]

    return first_root


class _DegreeOneCache(flow.ChartSpectralCache):
    # the FD batch's cache with its (y, z) expansion cut at degree 1
    monomials = ((0, 0), (0, 1), (1, 0))
    efgab = flow._polynomial_sums(monomials, 5)


def _dp5_exponent_rk45():
    # rk45 with the step exponent -1/5 of a fifth-order pair in place of DOP853's -1/8
    source = inspect.getsource(flow.rk45)
    assert source.count("err ** -0.125") == 1
    scope = dict(vars(flow))
    exec(source.replace("err ** -0.125", "err ** -0.2"), scope)
    return scope["rk45"]


def _bare_quotient(v):
    # exprlang._literal printing a non-integer literal as bare p/q
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


# each mutant of the library: the check that has to catch it, and the patch
MUTANTS = {
    "bare-quotient-literal": ("properties", (exprlang, "_literal", _bare_quotient)),
    "dp5-step-exponent": ("t1-eigenvalues", (flow, "rk45", _dp5_exponent_rk45())),
    "wide-class-band": ("t1-eigenvalues", (tubular, "CLASS_TOL", 1e-2)),
    "degree-1-chart-cache": ("fd-oracle", (flow, "ChartSpectralCache", _DegreeOneCache)),
    "fd-times-1.001": ("fd-oracle", (monodromy, "fd_poincare_derivative", _fd_times_1_001)),
    "f-without-ABL6": ("gauge", (tubular, "reduced_coefficients", _f_without_abl6)),
    "far-root": ("gauge", (flow, "branch_slopes", _far_root)),
    "one-root": ("gauge", (flow, "branch_slopes", _one_root(10_000))),
    "M-without-B": ("fd-oracle", (monodromy, "variational_matrix", _m_without_b)),
    "series-sum-over-left-denominator": ("t5", (rational_series.PowerSeriesQ, "_combine", _sum_over_left_denominator)),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_verify_paper_fails_each_mutant(monkeypatch, capsys, mutant):
    check, patch = MUTANTS[mutant]
    monkeypatch.setattr(*patch)
    code, out, _ = run(capsys, "verify-paper", "--only", check, "--format", "json")
    (result,) = json.loads(out)["checks"]
    assert code == 1 and result["name"] == check and not result["passed"] and "error" not in result


def test_verify_paper_perturb_is_a_negative_control(monkeypatch, capsys):
    for mutated, expected in ((False, 0), (True, 1)):
        if mutated:
            monkeypatch.setattr(*MUTANTS["fd-times-1.001"][1])
        code, out, _ = run(capsys, "verify-paper", "--only", "fd-oracle", "--format", "json")
        assert code == expected
        (check,) = json.loads(out)["checks"]
        (row,) = check["measurements"]
        assert (row["measured"] > row["bound"]) == mutated
        assert check["passed"] == _passed_by_rows(check)
    assert row["measured"] == pytest.approx(10.0, rel=0.01) and row["bound"] == 1


def _no_bare_token(token):
    raise AssertionError(f"bare {token} token: the document is not strict JSON")


def test_verify_paper_row_contract(monkeypatch, capsys):
    def crash():
        raise RuntimeError("no rows")

    suite = [
        ("crash", crash),
        ("nan", lambda: [("nan row", float("nan"), 1.0)]),
        ("edge", lambda: [("at its bound", 1e-9, 1e-9), ("no failures", 0, 0)]),
    ]
    monkeypatch.setattr(verify, "checks", lambda seed=0: suite)
    code, out, err = run(capsys, "verify-paper", "--format", "json")
    assert code == 1 and "Traceback" not in err
    doc = json.loads(out, parse_constant=_no_bare_token)
    checks = {check["name"]: check for check in doc["checks"]}
    assert checks["crash"]["passed"] is False and "no rows" in checks["crash"]["error"]
    assert checks["nan"]["passed"] is False and checks["nan"]["measurements"][0]["measured"] is None
    assert checks["edge"]["passed"] is True
    assert doc["passed"] is False
    assert all(check["passed"] == _passed_by_rows(check) for check in doc["checks"] if "error" not in check)
    code, out, err = run(capsys, "verify-paper")
    assert code == 1 and "Traceback" not in err
    assert "crash  FAIL" in out and "nan row  nan > 1" in out and "at its bound  1e-09 <= 1e-09" in out


def test_verify_paper_unmatched_filter(capsys):
    code, _, err = run(capsys, "verify-paper", "--only", "zzz")
    assert code == 2


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_seed_environment_default(monkeypatch):
    monkeypatch.setenv("ASYMPTOTICA_SEED", "17")
    assert cli.default_seed() == 17
    monkeypatch.setenv("ASYMPTOTICA_SEED", "bogus")
    assert cli.default_seed() == 0
    monkeypatch.setenv("ASYMPTOTICA_SEED", "-3")  # not a seed, so unset
    assert cli.default_seed() == 0


def test_field_file_that_is_not_utf8_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    code, _, err = run(capsys, "classify", "--field", str(path))
    assert code == 2 and len(err.splitlines()) == 1 and "UTF-8" in err


def test_unreadable_field_file_is_usage_error(capsys, monkeypatch, tmp_path):
    # a test run as root reads a chmod 000 file, so open itself is made to refuse
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"xi": ["z - y", "1", "1 + y*y"]}))

    def refusing(name, *args, **kwargs):
        raise PermissionError(13, "Permission denied", name)

    monkeypatch.setattr(cli, "open", refusing, raising=False)
    code, _, err = run(capsys, "classify", "--field", str(path))
    assert code == 2 and len(err.splitlines()) == 1 and "Permission denied" in err


def test_input_nested_too_deeply_ends_in_one_line(capsys):
    code, _, err = run(capsys, "classify", "--field", deep_field("-" * 3000 + "x"))
    assert code == 2 and err.startswith("error: input nested too deeply") and len(err.splitlines()) == 1
