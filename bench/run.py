"""Benchmark for the tatecycles package.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are declared in BENCHMARK.json; inputs come from
bench/workloads.py.  One caller runs passes in a closed loop: each pass is a
fresh process (bench/child.py) that imports the package, builds the CLI
parser and runs every operation of the workload once, so every pass pays for
filling the package's lru_caches as a command-line user does.  Passes repeat
while another one fits in S seconds; each metric is the median over the passes.

Times are scaled to a reference host speed.  The speed of a shared host drifts
by tens of percent over minutes and moves a run's times together, so every
process of a run also times a fixed loop of the benchmark's own
(child.calibrate), and each time metric (unit s or ms) is multiplied by
REFERENCE_CALIBRATION_S over the median of those loop times.  The raw medians
are printed beside the result.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, each with the end-to-end
metric and workloads it should move (bench/layers.json).

Every operation's output is checked; an operation that raises, fails its
check or is cut by the pass deadline counts as failed.  For the default seed
the SHA-256 digest of the concatenated reports must equal the one recorded in
bench/baseline.json.  Results are printed with their environment (Python,
mpmath backend, nproc, seed) and compared with the baseline medians, unless
the mpmath backends differ.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 0
# about child.calibrate's median time on the host the baseline was taken on
# (2 cores, Python 3.11.7); it only sets the scale of the reported times
REFERENCE_CALIBRATION_S = 0.1
TIME_UNITS = ("s", "ms")
# a pass still running after this many seconds is killed
PASS_DEADLINE_S = 60
PROBE_DEADLINE_S = 30
CHILD_TAIL_CHARS = 2000


class PassError(RuntimeError):
    """A child process ended without a result."""


def _child(args: list[str], deadline: float) -> tuple[float, list[dict], bool]:
    """Run bench/child.py; returns the spawn time, its JSON lines and whether
    it met the deadline."""
    cmd = [sys.executable, str(BENCH / "child.py"), *args]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=deadline)
        in_time = True
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        in_time = False
    # a killed child may leave its result line cut short; its first two lines
    # (set-up time, operation count) were flushed before the pass started
    kept = out.splitlines() if in_time else out.splitlines()[:2]
    lines = [json.loads(line) for line in kept if line.startswith("{")]
    if in_time and proc.returncode != 0:
        raise PassError(f"{' '.join(cmd)} exited {proc.returncode}:\n{err[-CHILD_TAIL_CHARS:]}")
    if not lines:
        raise PassError(f"{' '.join(cmd)} printed nothing:\n{err[-CHILD_TAIL_CHARS:]}")
    return spawned, lines, in_time


def setup_probe(workload: str, seed: int) -> dict:
    spawned, lines, _ = _child(["--workload", workload, "--seed", str(seed), "--setup-only"], PROBE_DEADLINE_S)
    return {"setup_s": lines[0]["setup"] - spawned, "calibration_s": lines[-1].get("calibration_s", [])}


def one_pass(workload: str, seed: int, spans: Path | None) -> dict:
    """One pass.  A pass cut by the deadline counts every operation failed,
    since none of its outputs was checked."""
    args = ["--workload", workload, "--seed", str(seed)]
    if spans:
        args += ["--trace", str(spans)]
    spawned, lines, in_time = _child(args, PASS_DEADLINE_S)
    setup_s = lines[0]["setup"] - spawned
    ops = next((line["ops"] for line in lines if "ops" in line), None)
    if not in_time or "wall_s" not in lines[-1]:
        if ops is None:
            raise PassError(f"{workload} pass ended before listing its operations")
        return {"setup_s": setup_s, "ops": ops, "failed": ops, "timed_out": True}
    result = lines[-1]
    result.update(setup_s=setup_s, ops=ops, timed_out=False)
    return result


def _quantile(values: list[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule (the sample at rank ceil(q n))."""
    return sorted(values)[max(0, math.ceil(q * len(values)) - 1)]


def op_latency_ms(passes: list[dict], q: float) -> float:
    """Median over passes of each pass's q-quantile operation latency."""
    return statistics.median(_quantile([1000 * t for t in p["latencies_s"]], q) for p in passes)


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    done = [p for p in passes if not p["timed_out"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in done),
        "op_p95_ms": op_latency_ms(done, 0.95),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in done),
    }


def per_layer(untraced: list[dict], traced: list[dict], names: list[str]) -> dict:
    """Median over traced passes of each layer metric; trace.overhead_s is the
    median over rounds of the traced pass's wall_s minus that of the untraced
    pass run just before it, so that drift in host speed between rounds
    cancels."""
    done = [p for p in traced if not p["timed_out"]]
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = statistics.median(
                t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced) if not (u["timed_out"] or t["timed_out"])
            )
        else:
            out[name] = statistics.median(p["layers"].get(name, 0) for p in done)
    return out


def compare_baseline(workload: str, env: dict, metrics: dict, baseline: dict) -> list[str]:
    """Lines comparing these metrics with the recorded baseline medians;
    refused when the mpmath backend differs, since gmpy changes the
    mpmath-heavy layers by large factors."""
    base_env = baseline.get("env", {})
    if base_env.get("mpmath_backend") != env["mpmath_backend"]:
        return [
            f"baseline not compared: mpmath backend {env['mpmath_backend']} here, "
            f"{base_env.get('mpmath_backend')} in the baseline"
        ]
    ref = baseline.get("workloads", {}).get(workload, {}).get("end_to_end", {})
    lines = []
    for name, value in metrics.items():
        if ref.get(name):
            lines.append(f"vs baseline {name}: {value / ref[name]:.3f} x {ref[name]:.6g}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    if not (ROOT / "src" / "tatecycles" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if opts.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {opts.workload!r}", file=sys.stderr)
        return 2
    baseline = json.loads((BENCH / "baseline.json").read_text())
    layer_map = json.loads((BENCH / "layers.json").read_text())
    group = "per_layer" if opts.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}

    spans = None
    if opts.trace:
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        spans = ROOT / ".bench_out" / f"spans-{opts.workload}-{opts.seed}.jsonl"
    stop = time.monotonic() + opts.seconds
    try:
        probes, untraced, traced, rounds = [], [], [], []
        # start another round only if one of typical length still fits
        while not rounds or time.monotonic() + statistics.median(rounds) <= stop:
            started = time.monotonic()
            # one set-up-only process per round, so set-up is sampled all through the run
            probes.append(setup_probe(opts.workload, opts.seed))
            untraced.append(one_pass(opts.workload, opts.seed, None))
            if opts.trace:
                traced.append(one_pass(opts.workload, opts.seed, spans))
            rounds.append(time.monotonic() - started)
    except PassError as exc:
        print(exc, file=sys.stderr)
        return 3
    passes = untraced + traced
    setups = [p["setup_s"] for p in probes + passes]
    calibration = [c for p in probes + passes for c in p.get("calibration_s", [])]
    speed = REFERENCE_CALIBRATION_S / statistics.median(calibration)
    finished = [p for p in passes if not p["timed_out"]]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if all(p["timed_out"] for p in untraced) or (opts.trace and all(p["timed_out"] for p in traced)):
        print("no pass finished within the deadline", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 0

    env = finished[0]["env"]
    digests = {p["digest"] for p in finished}
    notes = []
    for p in passes:
        notes += p.get("reasons", [])
        if p["timed_out"]:
            notes.append(f"pass cut at {PASS_DEADLINE_S} s: {p['ops']} operations counted failed")
    if len(digests) > 1:
        notes.append("passes produced different reports")
    recorded = baseline.get("digests", {}).get(opts.workload)
    if opts.seed == DEFAULT_SEED and digests != {recorded}:
        notes.append(f"digest {sorted(digests)} differs from the recorded {recorded}")

    if opts.trace:
        raw = per_layer(untraced, traced, list(units))
    else:
        raw = end_to_end(passes, setups)
    metrics = {name: value * speed if units[name] in TIME_UNITS else value for name, value in raw.items()}
    print(json.dumps({"env": env, "mix": finished[0]["mix"]}))
    ops = finished[0]["ops"]
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; setups: {len(setups)}; "
          f"operations per pass: {ops} (the samples of each op quantile)")
    if ops < 20:
        print(f"op_p95_ms is the slowest of the {ops} operations of a pass (median over passes)")
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.6g}")
    print(f"host speed: calibration loop median {statistics.median(calibration):.6g} s over "
          f"{len(calibration)} samples; times scaled by {speed:.6g}")
    for name, value in metrics.items():
        moves = layer_map.get(name)
        where = f"  (moves {moves['moves']} on {', '.join(moves['workloads'])})" if moves else ""
        measured = f" (raw {raw[name]:.6g})" if units[name] in TIME_UNITS else ""
        print(f"{name}: {value:.6g} {units[name]}{measured}{where}")
    if not opts.trace:
        # the median operation is printed but not a metric: on cm-survey and
        # tate-heavy it is one of two or three commands per pass
        p50 = op_latency_ms(finished, 0.5)
        print(f"op_p50_ms: {p50 * speed:.6g} ms (raw {p50:.6g})")
        for line in compare_baseline(opts.workload, env, metrics, baseline):
            print(line)
    for note in notes:
        print(f"FAIL: {note}")
    result = {
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
