#!/usr/bin/env python3
"""The asymptotica benchmark: one workload, one process, one closed-loop client.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a source checkout; it imports the library from
the checkout's src/ directory.  With --trace 0 it measures the end-to-end
metrics with no library code wrapped, converting every time to machine
seconds by the machine's pace during it (see speed.py).  With --trace 1 it installs the
span tracer (tracer.py), runs a fixed amount of work, replays the same ops
untraced to measure the tracing overhead, and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The full
record (machine, versions, per-op times, spans) is written under
.bench_build/bench/ in the checkout.  See README.md in this directory.
"""

import os

# BLAS must be pinned before numpy is imported, here and in the set-up probes
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARIABLES:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "bench"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import speed  # noqa: E402
from scipy.special import betainc  # noqa: E402
import workloads  # noqa: E402  (imports the library lazily, so a bare directory still fails cleanly in main)

# fresh processes timed per plain run; setup_s is their median
SETUP_PROBES = 3
# blocks of ops in a traced run: a fixed amount of work, so counts repeat exactly
TRACE_BLOCKS = {"certify": 1, "trace": 2, "localmodels": 4}

# a set-up probe samples the machine's pace from just after numpy's import to ready
_PROBE = (
    "import json, sys; sys.path[:0] = sys.argv[1:3]; import speed; meter = speed.Speedometer().start(); "
    "import workloads; workloads.setup(sys.argv[3]); meter.stop(); print(json.dumps(meter.summary()), flush=True)"
)


def machine_record(workload, seed, seconds, trace):
    """Where and on what the numbers were taken, so runs on different machines are not compared."""
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "asymptotica").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARIABLES},
    }


def describe(op):
    if op["kind"] == "cli":
        return " ".join(op["argv"])
    return f"realize_t5 m={op['m']} n={op['n']} series={[[str(c) for c in s] for s in op['series']]}"


def attempt(op):
    """Run and check one op.  An exception is a failure.

    Returns the op's CPU-time stretch (speed.clock) and wall time, both of
    run_op alone, and its failed checks.
    """
    w0, t0 = time.perf_counter(), speed.clock()
    try:
        result = workloads.run_op(op)
    except Exception as exc:  # a raising op counts as failed, never as skipped
        failures = [f"raised {exc!r}"]
    else:
        failures = None
    t1, w1 = speed.clock(), time.perf_counter()
    if failures is None:
        try:
            failures = workloads.check_op(op, result)
        except Exception as exc:
            failures = [f"check raised {exc!r}"]
    return {"start": t0, "end": t1, "wall_s": w1 - w0, "failures": failures}


def timed_loop(stream, seconds, execute=attempt):
    """Closed loop over whole blocks until `seconds` of wall time have passed.

    Returns the op records and the CPU-time stretch of the whole loop.
    """
    records = []
    w0, t0 = time.perf_counter(), speed.clock()
    for block in stream:
        for op in block:
            records.append({"op": describe(op), **execute(op)})
        if time.perf_counter() - w0 >= seconds:
            break
    return records, (t0, speed.clock())


def harrell_davis(values, p):
    """The Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all order statistics.

    On a run of 15-40 ops it moves less from seed to seed than the one or two
    order statistics statistics.quantiles interpolates between.
    """
    ordered = np.sort(values)
    n = len(ordered)
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ ordered)


def probe_setup(workload):
    """Machine seconds of a fresh interpreter from its start to the workload being ready for its first op."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _PROBE, str(SRC), str(BENCH), workload], cwd=ROOT, stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or not line.startswith("{"):
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    probe = json.loads(line)
    machine = (probe["cpu_s"] - probe["sampling_s"]) * speed.REFERENCE_NOMINAL_S / probe["reference_s"]
    return machine, dict(probe, wall_s=ready)


def plain_run(workload, seed, seconds):
    t0 = time.perf_counter()
    workloads.setup(workload)
    in_process = time.perf_counter() - t0
    probes = [probe_setup(workload) for _ in range(SETUP_PROBES)]
    wall = time.perf_counter()
    with speed.Speedometer() as meter:
        records, (begin, finish) = timed_loop(workloads.blocks(workload, seed), seconds)
    wall = time.perf_counter() - wall
    for r in records:
        r["seconds"] = meter.machine_s(r["start"], r["end"])
    times = [r["seconds"] for r in records]
    # throughput over the whole loop, checks included: each op's stretch runs to the next op's start
    stretches = [r["start"] for r in records[1:]] + [finish]
    loop_s = meter.machine_s(begin, records[0]["start"]) + sum(
        meter.machine_s(r["start"], end) for r, end in zip(records, stretches)
    )
    metrics = {
        "setup_s": (statistics.median(machine for machine, _ in probes), "s"),
        "ops_per_s": (len(records) / loop_s, "1/s"),
        "op_p50_s": (harrell_davis(times, 0.5), "s"),
        "op_p90_s": (harrell_davis(times, 0.9), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    walls = [r["wall_s"] for r in records]
    extra = {
        "wall_clock": {
            "setup_s": statistics.median(probe["wall_s"] for _, probe in probes),
            "ops_per_s": len(records) / wall,
            "op_p50_s": harrell_davis(walls, 0.5),
            "op_p90_s": harrell_davis(walls, 0.9),
        },
        "mean_reference_pass_s": statistics.fmean(meter.passes),
        "reference_passes": len(meter.passes),
        "sampling_s": sum(meter.passes),
        "setup_probes": [dict(probe, machine_s=machine) for machine, probe in probes],
        "setup_in_process_s": in_process,
        "loop_wall_s": wall,
        "loop_cpu_s": finish - begin,
    }
    return records, metrics, extra, None


def traced_attempt(tracer, number, op):
    """attempt(op) inside a top-level span; returns (seconds, failures, wall time around the span)."""
    tracer.op = number
    t0 = time.perf_counter()
    index = tracer.begin("op")
    try:
        result = attempt(op)
    finally:
        tracer.end(index)
    return result["wall_s"], result["failures"], time.perf_counter() - t0


def traced_run(workload, seed):
    import tracer as tracing

    tracer = tracing.install()
    cost = tracing.span_cost()
    tracer.op = "setup"
    index = tracer.begin("setup")
    try:
        workloads.setup(workload)
    finally:
        tracer.end(index)

    stream = workloads.blocks(workload, seed)
    ops = [op for _ in range(TRACE_BLOCKS[workload]) for op in next(stream)]
    records, walls, traced, plain = [], [], [], []
    for number, op in enumerate(ops):
        op_seconds, failures, wall = traced_attempt(tracer, number, op)
        walls.append(wall)
        traced.append(op_seconds)
        records.append({"op": describe(op), "seconds": op_seconds, "failures": failures})
        # the same op again right away with every wrapper removed: the tracing overhead
        tracer.uninstall()
        result = attempt(op)
        tracer.reinstall()
        op_seconds, failures = result["wall_s"], result["failures"]
        plain.append(op_seconds)
        records.append({"op": describe(op) + " (untraced)", "seconds": op_seconds, "failures": failures})
    tracer.uninstall()

    problems = tracing.consistency_problems(tracer, walls, cost)
    traced_s = sum(traced)
    metrics = tracing.layer_metrics(tracer)
    metrics.update(
        {
            "trace.ops_per_s": (len(ops) / traced_s, "1/s"),
            "trace.plain_ops_per_s": (len(ops) / sum(plain), "1/s"),
            "trace.overhead": (traced_s / sum(plain) - 1.0, "ratio"),
            "trace.spans": (len(tracer.spans), "count"),
            "trace.span_cost_s": (cost, "s"),
        }
    )
    extra = {"consistency_problems": problems}
    return records, metrics, extra, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "asymptotica" / "__init__.py").is_file():
        print(f"error: no asymptotica sources under {SRC}; run the benchmark inside a source checkout", file=sys.stderr)
        return 2
    if args.trace:
        records, metrics, extra, tracer = traced_run(args.workload, args.seed)
    else:
        records, metrics, extra, tracer = plain_run(args.workload, args.seed, args.seconds)

    attempted = len(records)
    failed = sum(1 for r in records if r["failures"])
    problems = extra.get("consistency_problems", [])
    correct = failed == 0 and not problems

    record = machine_record(args.workload, args.seed, args.seconds, args.trace)
    print("# " + " ".join(f"{k}={v}" for k, v in record.items()))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<12} {name:<48} {value:>14.6g} {unit}")
    print(f"{args.workload:<12} {'failed_ratio':<48} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    if "wall_clock" in extra:
        print(
            f"# times above are machine seconds: a reference pass took {extra['mean_reference_pass_s'] * 1e3:.3f} ms "
            f"on average ({extra['reference_passes']} passes), against {speed.REFERENCE_NOMINAL_S * 1e3:.3f} ms "
            "nominal; wall clock: "
            + ", ".join(f"{k}={v:.6g}" for k, v in extra["wall_clock"].items())
        )
    for r in records:
        for failure in r["failures"]:
            print(f"FAILED {r['op']}: {failure}")
    for problem in problems:
        print(f"TRACE INCONSISTENT: {problem}")

    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = dict(record, correct=correct, attempted=attempted, failed=failed, **extra)
    full["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    full["ops"] = records
    stem.with_suffix(".json").write_text(json.dumps(full, indent=1))
    if tracer is not None:
        spans = {"fields": ["name", "op", "parent", "start", "end"], "spans": tracer.spans}
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(spans))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
