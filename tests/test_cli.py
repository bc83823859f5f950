import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asymptotica import cli, verify


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
        # a vertical core curve: its frame vanishes, so c = 0 and dz cannot be solved for
        (["classify", "--field", json.dumps({"xi": ["1", "0", "0"], "curve": "0,0,x"}), "--samples", "2"], 3),
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
