"""Seeded op streams for the three benchmark workloads, how to run one op,
and the output checks against the paper's frozen targets.

The targets and tolerances below are written out here on purpose: they are
never imported from the library, so a change that loosens a library
tolerance cannot loosen the benchmark's checks with it.

Each workload is a stream of blocks.  A block holds a fixed mix of op kinds;
the seed only chooses the order inside a block and the op parameters.  Runs
end on a block boundary, so every run measures the same mix and throughput
does not depend on which kinds a seed happened to draw.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np

WORKLOADS = ("certify", "trace", "localmodels")

# frozen targets (ROADMAP aim 3; tests/test_acceptance.py holds the same numbers)
T1_EIGEN_MODULI = (math.exp(2 * math.pi), math.exp(-25 * math.pi / 8))
T1_EIGEN_RTOL = 1e-4
FD_RTOL = 1e-4
FD_ATOL = 1e-8
CORE_CURVE_TOL = 1e-9
RESIDUAL_TOL = 1e-9
ARNOLD_TOL = 1e-9

# finite_type_symbol's documented max_order
MAX_ORDER = 9
ORDER_PAIRS = tuple((m, n) for m in range(2, MAX_ORDER + 1) for n in range(m + 1, MAX_ORDER + 1))

TWO_PI = 2 * math.pi
CLASSIFY_SAMPLES = 6
CLASSIFY_RINGS = 3


def setup(workload):
    """What every process of the workload pays before its first op."""
    from asymptotica import cli

    if workload in ("certify", "trace"):
        cli._t1_field()


# -- op generation -------------------------------------------------------------


def _cli(argv, check, **params):
    return {"kind": "cli", "argv": [str(a) for a in argv], "check": check, **params}


def _certify_block(rng):
    fd_t1 = ["poincare", "--field", "t1", "--fd-check"]
    block = [
        _cli(fd_t1, "poincare_t1", fd=True),
        _cli(fd_t1, "poincare_t1", fd=True),
        _cli(fd_t1, "poincare_t1", fd=True),
        _cli(["poincare", "--field", "t1"], "poincare_t1", fd=False),
        _cli(["poincare", "--field", "circle-example", "--fd-check"], "poincare_fd"),
    ]
    rng.shuffle(block)
    return block


def _integrate(field, x0, y0, z0):
    argv = [
        "integrate", "--field", field, "--start", f"{x0!r},{y0!r},{z0!r}", "--to", repr(x0 + TWO_PI),
        "--format", "json",
    ]
    return _cli(argv, "integrate", field=field)


def _classify(field, offset):
    argv = [
        "classify", "--field", field, "--samples", CLASSIFY_SAMPLES, "--rings", CLASSIFY_RINGS,
        "--offset", repr(offset), "--format", "json",
    ]
    return _cli(argv, "classify", points=CLASSIFY_SAMPLES * CLASSIFY_RINGS**2)


# steps the offset inside each stratum from one block to the next
GOLDEN = (math.sqrt(5) - 1) / 2


def _trace_blocks(rng):
    # by op time the block sorts as 2 grids < 4 t1 periods < 2 circle-example
    # periods: the median falls mid-way through the t1 periods and the 90th
    # percentile inside the circle-example ones, away from the gaps between kinds.
    # Start points are stratified: a block puts one t1 start in each quarter of
    # [0, 2pi), and one circle-example start in each half, with |y0| in one half
    # of [0, 1e-3] and |z0| in the other.  A circle-example period takes longer
    # the larger |y0| is.  Each offset inside its stratum starts seeded and
    # steps by the golden ratio from block to block, so the starts of a run
    # cover the strata evenly whatever number of blocks it holds, and the seed
    # moves a run's percentiles little.
    first = [rng.random() for _ in range(4)]
    for index in itertools.count():
        t1_x, circle_x, near, far = ((f + index * GOLDEN) % 1.0 for f in first)
        block = [_integrate("t1", TWO_PI * (k + t1_x) / 4, 0.0, 0.0) for k in range(4)]
        for k in range(2):
            y0 = rng.choice((-1e-3, 1e-3)) * (k + near) / 2
            z0 = rng.choice((-1e-3, 1e-3)) * (1 - k + far) / 2
            block.append(_integrate("circle-example", TWO_PI * (k + circle_x) / 2, y0, z0))
        block += [_classify("t1", rng.uniform(0.002, 0.02)), _classify("circle-example", rng.uniform(0.002, 0.02))]
        rng.shuffle(block)
        yield block


def _nonzero_rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def local_model(rng, m, n):
    """(x, a x^m + a' x^(m+1), b x^n + b' x^(n+1)) with a, b != 0: symbol {1, m, n}."""
    a, a1, b, b1 = _nonzero_rational(rng), _rational(rng), _nonzero_rational(rng), _rational(rng)
    return {
        "kind": "realize",
        "check": "realize",
        "m": m,
        "n": n,
        "series": [[0, 1], [0] * m + [a, a1], [0] * n + [b, b1]],
    }


def _localmodels_block(rng):
    # every (m, n) of the documented domain once per block, as a realization and
    # as a model surface, so no draw is ever filtered out or retried
    block = [local_model(rng, m, n) for m, n in ORDER_PAIRS]
    block += [_cli(["arnold-surface", "--orders", f"arnold:{m},{n}"], "arnold", m=m, n=n) for m, n in ORDER_PAIRS]
    rng.shuffle(block)
    return block


_BLOCKS = {"certify": _certify_block, "localmodels": _localmodels_block}


def blocks(workload, seed):
    """The endless, seed-determined stream of op blocks of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "trace":
        yield from _trace_blocks(rng)
    make = _BLOCKS[workload]
    while True:
        yield make(rng)


# -- running one op ------------------------------------------------------------


def run_cli(argv):
    """cli.main in process; returns (exit code, parsed JSON document or None)."""
    from asymptotica import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    text = out.getvalue()
    return code, (json.loads(text) if text.strip() else None)


def run_op(op):
    """Execute one op and return its raw result, for check_op."""
    if op["kind"] == "cli":
        return run_cli(op["argv"])
    from asymptotica import construct, curves

    curve = curves.Curve.from_series(op["series"])
    _, certificate = construct.realize_t5(curve)
    return certificate


# -- output checks -------------------------------------------------------------


def _fd_failures(doc):
    if doc.get("fd_within_tolerance") is not True:
        return ["fd_within_tolerance is not true"]
    Q = np.asarray(doc["Q"], dtype=float)
    fd = np.asarray(doc["fd_jacobian"], dtype=float)
    if not np.all(np.abs(fd - Q) <= np.maximum(FD_RTOL * np.abs(Q), FD_ATOL)):
        return [f"FD Jacobian deviates from Q by {float(np.max(np.abs(fd - Q))):.3e}"]
    return []


def check_poincare_t1(code, doc, fd):
    if code != 0 or doc is None:
        return [f"exit code {code}"]
    failures = []
    got = sorted(abs(complex(v)) for v in np.linalg.eigvals(np.asarray(doc["Q"], dtype=float)))
    want = sorted(T1_EIGEN_MODULI)
    rel = max(abs(g - w) / w for g, w in zip(got, want))
    if not rel <= T1_EIGEN_RTOL:
        failures.append(f"eigenvalue moduli off by {rel:.3e} relative")
    reported = sorted(math.hypot(ev["re"], ev["im"]) for ev in doc["eigenvalues"])
    if not max(abs(g - w) / w for g, w in zip(reported, want)) <= T1_EIGEN_RTOL:
        failures.append("reported eigenvalues disagree with the targets")
    if doc.get("classification") != "Hyperbolic":
        failures.append(f"classification {doc.get('classification')!r}")
    if fd:
        failures += _fd_failures(doc)
    return failures


def check_poincare_fd(code, doc):
    if code != 0 or doc is None:
        return [f"exit code {code}"]
    return _fd_failures(doc)


def check_integrate(code, doc, field):
    if code != 0 or doc is None:
        return [f"exit code {code}"]
    failures = []
    if doc.get("status") != "reached":
        failures.append(f"status {doc.get('status')!r}")
    residual = doc.get("max_residual")
    if residual is None or not residual <= RESIDUAL_TOL:
        failures.append(f"max_residual {residual}")
    if field == "t1":
        path = np.asarray(doc["path"], dtype=float)
        drift = float(np.max(np.abs(path[:, 1:3])))
        if not drift <= CORE_CURVE_TOL:
            failures.append(f"left the invariant core curve by {drift:.3e}")
    return failures


def check_classify(code, doc, points):
    if code != 0 or doc is None:
        return [f"exit code {code}"]
    failures = []
    if sum(doc["counts"].values()) != points or len(doc["points"]) != points:
        failures.append(f"counts {doc['counts']} do not sum to {points}")
    on_curve = [p for p in doc["points"] if p[1] == 0.0 and p[2] == 0.0]
    if not on_curve:
        failures.append("grid has no core-curve point")
    bad = [p for p in on_curve if p[3] != "Hyperbolic"]
    if bad:
        failures.append(f"{len(bad)} core-curve points not Hyperbolic")
    return failures


def check_realize(cert, op):
    m, n = op["m"], op["n"]
    a = Fraction(op["series"][1][m])
    failures = [k for k in ("C000_exact", "e_on_curve_zero", "f_on_curve_one") if cert.get(k) is not True]
    if (cert["m"], cert["n"]) != (m, n):
        failures.append(f"symbol ({cert['m']}, {cert['n']}) != ({m}, {n})")
    if cert["C000"] != a * m * (m - 1):
        failures.append(f"C000 {cert['C000']} != a m (m-1) = {a * m * (m - 1)}")
    if cert["K_series"].coeffs[0] != -1:
        failures.append(f"K series constant term {cert['K_series'].coeffs[0]} != -1")
    return failures


def check_arnold(code, doc, m, n):
    if code != 0 or doc is None:
        return [f"exit code {code}"]
    failures = []
    want = (m + 1) / (m - 1) if n == m + 1 else 0.0
    if not abs(doc["f00"] - want) <= ARNOLD_TOL:
        failures.append(f"f(0,0) = {doc['f00']} != {want}")
    if not doc["max_abs_e_on_curve"] <= ARNOLD_TOL:
        failures.append(f"max |e(u,0)| = {doc['max_abs_e_on_curve']}")
    return failures


def check_op(op, result):
    """The list of failed checks for one op's result; empty means correct."""
    check = op["check"]
    if check == "realize":
        return check_realize(result, op)
    code, doc = result
    if check == "poincare_t1":
        return check_poincare_t1(code, doc, op["fd"])
    if check == "poincare_fd":
        return check_poincare_fd(code, doc)
    if check == "integrate":
        return check_integrate(code, doc, op["field"])
    if check == "classify":
        return check_classify(code, doc, op["points"])
    return check_arnold(code, doc, op["m"], op["n"])
