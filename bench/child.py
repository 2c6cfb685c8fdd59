"""One pass over a workload, in a fresh process.

Usage: python3 bench/child.py --workload W --seed N [--trace FILE] [--setup-only]

A fresh process starts with the package's lru_caches empty, as a command-line
user's does.  The process imports the package and builds the CLI parser (the
set-up ``run.py`` times), prints {"setup": <monotonic time>}, then runs every
operation of the workload, checks the outputs and prints one JSON result line.
With --trace the pass runs with every public function wrapped and writes its
spans to FILE.

Each process also times a fixed loop of the benchmark's own (``calibrate``)
once, after the set-up with --setup-only and otherwise after the pass and its
peak memory are measured; run.py scales the run's times by it to take out
drift in host speed between runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tatecycles import cli  # noqa: E402

# the set-up a command-line user pays once per process; run.py times it from
# the spawn to this point
PARSER = cli.build_parser()
SETUP_AT = time.monotonic()

import contextlib  # noqa: E402
from fractions import Fraction  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import mpmath  # noqa: E402
from mpmath import mp  # noqa: E402

from tatecycles import cmlab  # noqa: E402
import workloads  # noqa: E402

REASONS_KEPT = 5
# sizes that give the two halves of calibrate() about equal time
CALIBRATION_ENTRIES = 80_000
CALIBRATION_TERMS = 1500
CALIBRATION_SUMS = 5


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop that no change to the package can
    speed up or slow down: building a dict of tuples and strings, then exact
    Fraction sums of 1/k^2.  This pair followed the host's speed on the
    workloads' passes more closely than an integer-only loop did."""
    start = time.perf_counter()
    table = {}
    for i in range(CALIBRATION_ENTRIES):
        table[i * 7919 % 1_000_003] = (i, str(i))
    for _ in range(CALIBRATION_SUMS):
        total = Fraction(0)
        for k in range(1, CALIBRATION_TERMS):
            total += Fraction(1, k * k)
    return time.perf_counter() - start


def environment(workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "tatecycles": cli.__version__,
        "workload": workload,
        "seed": seed,
    }


def run_cli(ops, tracer):
    """parse_args, the command and the report serialized exactly as the CLI's
    --json writes it; returns per-op latencies and the report texts."""
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    latencies, texts = [], []
    clock = time.perf_counter
    for argv in ops:
        start = clock()
        try:
            with span("cli.parse_args"):
                args = PARSER.parse_args(argv)
            with span("cli.report"):
                report = args.run(args)
            buf = io.StringIO()
            with span("cli.json"), contextlib.redirect_stdout(buf):
                cli._emit(report, True, args.human)
            text = buf.getvalue()
        except (Exception, SystemExit) as exc:
            text = exc
        latencies.append(clock() - start)
        texts.append(text)
    return latencies, texts


def run_fields(ops):
    latencies, results = [], []
    clock = time.perf_counter
    for name, *args in ops:
        start = clock()
        try:
            result = getattr(cmlab, name)(*args)
        except Exception as exc:
            result = exc
        latencies.append(clock() - start)
        results.append(result)
    return latencies, results


def fields_text(op, result) -> str:
    """Canonical text of a library result, for the digest."""
    name = op[0]
    if name == "fundamental_discriminants":
        record = result
    elif name == "least_nonsplit_search":
        record = {
            "D": result.D,
            "found_prime": result.found_prime,
            "satisfied": result.satisfied,
            "bound": result.bound.to_record(),
        }
    else:
        record = result.to_record()
    return json.dumps(record, sort_keys=True) + "\n"


def check_fields(op, result, expected_discs) -> str | None:
    name = op[0]
    if name == "fundamental_discriminants":
        return None if result == expected_discs else "fundamental discriminants differ"
    if name == "least_nonsplit_search":
        with mp.workprec(64):
            log_bound = float(result.theoretical_log_bound)
        return workloads.check_nonsplit(op[1], result.found_prime, result.satisfied, log_bound)
    return workloads.check_pik(op[1], op[2], result.count)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", metavar="FILE")
    ap.add_argument("--setup-only", action="store_true")
    opts = ap.parse_args()
    print(json.dumps({"setup": SETUP_AT}), flush=True)
    if opts.setup_only:
        print(json.dumps({"calibration_s": [calibrate()]}))
        return 0
    spec = workloads.build(opts.workload, opts.seed)
    ops = spec["ops"]
    print(json.dumps({"ops": len(ops)}), flush=True)

    tracer = None
    if opts.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        if spec["kind"] == "cli":
            latencies, outputs = run_cli(ops, tracer)
        else:
            latencies, outputs = run_fields(ops)
    finally:
        wall = time.perf_counter() - start
        if tracer:
            tracer.restore()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # after ru_maxrss is read, since the loop's dict would raise the peak
    calibration = [calibrate()]

    digest = hashlib.sha256()
    reasons = []
    polys = iter(spec.get("polys", ()))
    expected_discs = None
    if spec["kind"] == "fields":
        expected_discs = workloads.fundamental_discriminants(workloads.FIELDS_DISC_LIMIT)
    for op, out in zip(ops, outputs):
        poly = next(polys, None)
        if isinstance(out, BaseException):
            reasons.append(f"{op}: raised {type(out).__name__}: {out}")
            continue
        try:
            if spec["kind"] == "cli":
                text, reason = out, workloads.check_cli(op, out, poly)
            else:
                text, reason = fields_text(op, out), check_fields(op, out, expected_discs)
        except Exception as exc:  # a malformed output fails its operation
            reasons.append(f"{op}: output check raised {type(exc).__name__}: {exc}")
            continue
        digest.update(text.encode())
        if reason:
            reasons.append(reason)
    result = {
        "wall_s": wall,
        "latencies_s": latencies,
        "rss_mb": rss_mb,
        "calibration_s": calibration,
        "failed": len(reasons),
        "reasons": reasons[:REASONS_KEPT],
        "digest": digest.hexdigest(),
        "mix": spec["mix"],
        "env": environment(opts.workload, opts.seed),
    }
    if tracer:
        layers = tracer.aggregate()
        layers["cli.json.bytes"] = sum(len(t.encode()) for t in outputs if isinstance(t, str))
        result["layers"] = layers
        tracer.write(opts.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
