#!/usr/bin/env python3
"""Seeded benchmark for qds: compile, stream and decide workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compile --seed 1 --seconds 12 --trace 0

This process generates the workload's inputs from the seed (``gen.py``),
then starts ``WORKERS`` single-threaded worker processes one after another.
Each worker imports qds from ``src/``, sets up, and runs a closed loop for
its share of ``--seconds``; set-up is therefore measured ``WORKERS`` times
and reported as the median. Every answer is checked against an oracle.

Standard output: one ``name value unit`` line per metric, then, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` the workers record spans around every
call into qds and the metrics are the per-layer ones (the per-layer table
and the tracing overhead are printed above the JSON line). Spans are
written under ``.perfbench/``. The exit code is 0 only when a result line
was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import summarize  # noqa: E402
import tracing  # noqa: E402

WORKERS = 3
RUN_LIMIT_S = 170  # the whole run, generation and every worker included
TAIL_BEYOND = 10  # a tail is the highest percentile with this many samples above it

# Workload-specific names for the uniform end-to-end metrics, printed
# beside them on the report lines.
ALIASES = {
    "compile": {"p50_ms": "compile_p50_ms", "tail_ms": "compile_tail_ms",
                "work_per_s": "compile_rows_per_s"},
    "stream": {"p50_ms": "stream_job_p50_ms", "tail_ms": "stream_job_tail_ms",
               "work_per_s": "member_sym_per_s"},
    "decide": {"p50_ms": "decide_p50_ms", "tail_ms": "decide_tail_ms",
               "work_per_s": "decide_rows_per_s"},
}
WORK_UNIT = {"compile": "rows", "stream": "symbols", "decide": "rows"}


class RunError(Exception):
    pass


def run_worker(workload, inputs, budget, start, trace_file, deadline):
    """Start one worker, feed it the inputs, return (set-up seconds, result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--budget", repr(budget), "--start", str(start)]
    if trace_file:
        cmd += ["--trace", "--trace-file", trace_file]
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMBA_NUM_THREADS"):
        env[var] = "1"
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            cwd=ROOT, env=env, text=True)
    watchdog = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    watchdog.start()
    try:
        try:
            proc.stdin.write(json.dumps(inputs))
            proc.stdin.close()
        except BrokenPipeError:
            pass
        first = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = rest.strip().splitlines()
    if code != 0 or first.strip() != "READY" or not lines:
        raise RunError(f"worker exited with code {code} (see its standard error)")
    return setup_s, json.loads(lines[-1])


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise RunError(f"only {n} samples; a tail needs more than {TAIL_BEYOND}")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def worker_tail(results):
    """(median over workers of each worker's tail, unit, report text). A slow
    spell of the shared host that falls on one worker moves that worker's
    tail, not the median."""
    per_worker = [[1000 * dt for _, dt, _ in r["samples"]] for r in results]
    tails = [tail(ms) for ms in per_worker]
    return statistics.median(v for v, _ in tails), "ms", (
        f"median of {len(tails)} worker tails: "
        + ", ".join(f"{v:.1f} (p{p:.1f} of {len(ms)})" for (v, p), ms in zip(tails, per_worker))
        + f" operations, {TAIL_BEYOND} beyond each")


def end_to_end(workload, items, setups, results):
    samples = [s for r in results for s in r["samples"]]
    ms = [1000 * dt for _, dt, _ in samples]
    busy = sum(dt for _, dt, _ in samples)
    work = sum(w for _, _, w in samples)
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} worker set-ups: "
                    + ", ".join(f"{s:.3f}" for s in setups)),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in results) / 1024, "MB",
                        f"median of {len(results)} worker peaks: "
                        + ", ".join(f"{r['maxrss_kb'] / 1024:.1f}" for r in results)),
        "p50_ms": (statistics.median(ms), "ms", f"median of {len(ms)} operations"),
        "tail_ms": worker_tail(results),
        "work_per_s": (work / busy, "1/s", f"{work} {WORK_UNIT[workload]} "
                       f"in {busy:.3f} s of operations"),
    }
    extras = [e for r in results for e in r["extras"]]
    report = {}
    if workload == "compile":
        states = [e["states_out"] for e in extras]
        report["qds_states_out"] = (statistics.fmean(states), "states",
                                    f"mean per compiled item, {len(states)} items")
    if workload == "decide":
        kinds = {"check_amb_p50_ms": "amb", "check_unamb_p50_ms": "unamb",
                 "minimal_p50_ms": "minimal"}
        for name, kind in kinds.items():
            part = [t for ix, t, _ in samples if items[ix]["kind"] == kind]
            report[name] = (1000 * statistics.median(part), "ms", f"median of {len(part)}")
        checks = [1000 * t for ix, t, _ in samples if items[ix]["kind"] != "minimal"]
        value, pct = tail(checks)
        report["check_tail_ms"] = (value, "ms", f"p{pct:.1f} of {len(checks)} checks, "
                                   f"{TAIL_BEYOND} beyond it")
    if workload == "stream":
        syms = sum(e["symbols"] for e in extras)
        report["member_short_msym_s"] = (
            syms / sum(e["short_s"] for e in extras) / 1e6, "Msym/s",
            f"{syms} symbols as words of {gen.STREAM_SHORT}")
        report["member_long_msym_s"] = (
            syms / sum(e["long_s"] for e in extras) / 1e6, "Msym/s",
            f"{syms} symbols as words of {gen.STREAM_LONG}")
    return metrics, report


def print_metric(name, value, unit, base):
    print(f"{name} {value!r} {unit}  # {base}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = perf_counter() + RUN_LIMIT_S

    if not os.path.isdir(os.path.join(ROOT, "src", "qds")):
        print(f"run: no qds sources under {ROOT}/src", file=sys.stderr)
        return 2
    inputs = gen.generate(args.workload, args.seed)
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)

    setups, results, trace_files = [], [], []
    start = 0
    try:
        for w in range(WORKERS):
            trace_file = None
            if args.trace:
                trace_file = os.path.join(
                    out_dir, f"trace-{args.workload}-s{args.seed}-w{w}.jsonl")
                trace_files.append(trace_file)
            setup_s, result = run_worker(args.workload, inputs, args.seconds / WORKERS,
                                         start, trace_file, deadline)
            setups.append(setup_s)
            results.append(result)
            start += result["attempted"]  # the next worker continues the cycle
        metrics, report = end_to_end(args.workload, inputs["items"], setups, results)
    except RunError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} workers={WORKERS} backend={results[0]['backend']}")
    for name, (value, unit, base) in metrics.items():
        alias = ALIASES[args.workload].get(name)
        print_metric(f"{name} ({alias})" if alias else name, value, unit, base)
    for name, (value, unit, base) in report.items():
        print_metric(name, value, unit, base)
    print_metric("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} operations")
    for r in results:
        for line in r["failures"]:
            print(f"# FAILED {line}")

    record = os.path.join(out_dir, f"run-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "setups": setups, "trace_files": trace_files, "results": results}, fh)

    if args.trace:
        metrics = summarize.print_table(tracing.load(trace_files), results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
