import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asymptotica import cli, planefield, tubular, verify


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
    ],
)
def test_malformed_input_exit_codes(capsys, argv, expected):
    code, _, err = run(capsys, *argv)
    assert code == expected
    assert "Traceback" not in err


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


# field documents: JSON values of every type at "xi", at "curve" and at an
# unknown key, with expression strings from a short list and from the random
# expressions of verify-paper.  poincare stays out, since rk45 has no step
# budget; so do finite but steep components such as exp(800*x), on which
# an integrate run takes thousands of tiny steps
DOCUMENT_EXPRESSIONS = (
    "x", "1", "0", "z - y", "1 + y*y", "-x^2 - y^2", "sqrt(1 - x)", "1/x", "exp(800*x + 800)", "x^400", "0*x", "sin(",
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


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(document=field_documents(), command=st.sampled_from(DOCUMENT_COMMANDS))
def test_fuzzed_field_documents_keep_the_exit_code_contract(document, command):
    argv = command + ["--field", document]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = cli.main(argv)  # an exception escaping main would be a traceback
    assert code in (0, 1, 2, 3), argv
    assert len(err.getvalue().splitlines()) == (code != 0), (argv, err.getvalue())
    assert not seen, (argv, [str(w.message) for w in seen])


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
        want = tubular.gaussian_curvature(field, chart, x, 0.0, 0.0)
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


def test_verify_paper_json_format(capsys):
    code, out, _ = run(capsys, "verify-paper", "--only", "circle", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["checks"][0]["name"] == "circle"
    assert {row["label"] for row in doc["checks"][0]["measurements"]} >= {"max |normal curvature|"}
    assert all(check["passed"] == _passed_by_rows(check) for check in doc["checks"])


def test_verify_paper_perturb_is_a_negative_control(capsys):
    # --perturb scales the FD Jacobian by 1.001, ten times the 1e-4 relative bound
    for extra, expected in (((), 0), (("--perturb",), 1)):
        code, out, _ = run(capsys, "verify-paper", "--only", "fd-oracle", "--format", "json", *extra)
        assert code == expected
        (check,) = json.loads(out)["checks"]
        (row,) = check["measurements"]
        assert (row["measured"] > row["bound"]) == bool(extra)
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
    monkeypatch.setattr(verify, "checks", lambda seed=0, perturb=False: suite)
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
