#!/usr/bin/env python3
"""Benchmark runner for the FlexPipe reproduction.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds the harness (this directory is a
Cargo package of its own) in release mode, then runs repetitions of the
workload, each in a fresh process, for about --seconds (at least
MIN_REPS of them). Every repetition generates the same inputs from
--seed. Prints a table of the metrics and, as the last line, one JSON
object with the keys "correct", "attempted", "failed" and "metrics".

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the per-layer ones. Each value is the median over the
repetitions, except the timings in FASTEST: their best repetition.

Exit status: 0 when every output check passed, 2 when one failed, 1 on a
usage or build error (no result is printed then).
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
# A repetition that runs this long has hung (they take about ten seconds
# at most); it is killed and fails.
REP_TIMEOUT_S = 60
# Contention from other tenants of the host only ever adds time, so the
# best repetition is the steadiest estimate of these timings. (On
# live-paced a host stall is also stretched by the time scale into
# virtual latency; offline TTFTs repeat exactly, so there the best is the
# median.) Every other metric, set-up time included, is the median over
# repetitions.
FASTEST = {"run_s", "cpu_s", "ttft_p50_s", "ttft_p99_s"}


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the harness and returns the path of its executable."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT).returncode != 0:
        die("build failed")
    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    if not target.is_absolute():
        target = ROOT / target
    exe = target / "release" / "perfbench"
    if not exe.is_file():
        die(f"no executable at {exe}")
    return exe


def run_rep(exe, workload, seed, traced):
    """Runs one repetition in a fresh process; returns its parsed result,
    or None when the process crashed, hung or printed no result."""
    cmd = [str(exe), workload, "--seed", str(seed)] + (["--traced"] if traced else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: repetition timed out after {REP_TIMEOUT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"perfbench: repetition exited {proc.returncode} without a result",
              file=sys.stderr)
        return None
    if proc.returncode != 0 and not rep["failures"]:
        rep["failures"] = [f"exit status {proc.returncode}"]
    return rep


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        die(f"unknown workload {args.workload!r}")
    exe = build()

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    traced = bool(args.trace)
    reps, attempted, failed, problems = [], 0, 0, []
    started = time.monotonic()
    for done in itertools.count(1):
        t = time.monotonic()
        rep = run_rep(exe, args.workload, args.seed, traced)
        rep_s = time.monotonic() - t
        if rep is None:
            attempted += 1
            failed += 1
            problems.append("a repetition crashed or hung")
        else:
            reps.append(rep)
            attempted += rep["sent"]
            failed += rep["failed"]
            problems += rep["failures"]
        if problems:
            break  # the run has failed; more repetitions cannot mend it
        # Start another repetition only if it should end within --seconds.
        if done >= MIN_REPS and time.monotonic() - started + rep_s > args.seconds:
            break

    # Every repetition generated the same inputs, so deterministic
    # reports must be byte-identical across repetitions.
    digests = {r["report_digest"] for r in reps}
    if len(digests) > 1:
        problems.append(f"reports differ across repetitions of one seed: {sorted(digests)}")
        failed = attempted

    metrics, rows = {}, []
    for m in declared:
        values = [r["metrics"][m["name"]] for r in reps if m["name"] in r["metrics"]]
        if len(values) < len(reps):
            problems.append(f"metric {m['name']} missing from a repetition")
        if not values:
            value = 0.0
        elif m["name"] in FASTEST:
            value = min(values)
        else:
            value = statistics.median(values)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        rows.append((m["name"], value, m["unit"], min(values, default=0.0),
                     max(values, default=0.0)))

    correct = not problems and failed == 0 and bool(reps)
    mode = "traced" if traced else "untraced"
    print(f"# {args.workload}, seed {args.seed}, {mode}: {len(reps)} repetitions "
          f"in {time.monotonic() - started:.1f} s")
    sent = sum(r["sent"] for r in reps)
    succeeded = sum(r["succeeded"] for r in reps)
    print(f"# requests: {sent} sent, {succeeded} succeeded, {failed} failed; "
          f"unfinished requests count as SLO misses, not failures")
    print(f"{'metric':<34} {'median':>14} {'unit':<6} {'min':>14} {'max':>14}")
    for name, value, unit, lo, hi in rows:
        print(f"{name:<34} {value:>14.6g} {unit:<6} {lo:>14.6g} {hi:>14.6g}")
    for p in problems:
        print(f"# CHECK FAILED: {p}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 2)


if __name__ == "__main__":
    main()
