#!/usr/bin/env python3
"""Per-layer summary of a traced benchmark run.

    python3 perfbench/summarize.py .perfbench/run-compile-s1-t1.json

reads the run record ``run.py --trace 1`` leaves under ``.perfbench/`` (it
names the span files of its workers) and prints self time per layer, the
per-layer metrics, each with the base it is measured on, and the tracing
overhead: the median operation time with tracing on against the median of
the same operations, in the same workers, with tracing off.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from tracing import LAYERS, layer_metrics, load, self_times


def overhead(results):
    plain = [dt for r in results for _, dt, _ in r["samples"]]
    traced = [dt for r in results for dt in r["traced"]]
    p, t = statistics.median(plain), statistics.median(traced)
    return 100.0 * (t - p) / p, p, t, len(plain)


def per_layer(spans, results) -> dict[str, tuple[float, str, str]]:
    """Every per-layer metric as name -> (value, unit, base)."""
    m = layer_metrics(spans)
    imports = [r["import_s"] for r in results]
    m["qds.import_s"] = (statistics.median(imports), "s",
                         f"median of {len(imports)} worker imports")
    m["structure.peak_alloc_kib_long"] = (
        max(r["peak_alloc_kib_long"] for r in results), "KiB",
        "tracemalloc peak of one long-word membership call, per structure, highest")
    pct, p, t, n = overhead(results)
    m["trace.overhead_pct"] = (pct, "%", f"traced p50 {t * 1000:.3f} ms vs "
                               f"untraced p50 {p * 1000:.3f} ms, {n} paired operations")
    return m


def print_table(spans, results) -> dict[str, tuple[float, str, str]]:
    """Print self time per layer and every per-layer metric; return those."""
    own = self_times(spans)
    root = sum(s[5] - s[4] for s in spans if s[2] is None)
    calls = {}
    for s in spans:
        layer = s[1].split(".", 1)[0]
        calls[layer] = calls.get(layer, 0) + 1
    print(f"# self time per layer, of {root:.3f} s in traced spans (set-up and operations)")
    print(f"# {'layer':<10} {'self_s':>10} {'share':>7} {'spans':>8}")
    for layer in ("bench",) + LAYERS:
        t = own.get(layer, 0.0)
        print(f"# {layer:<10} {t:>10.4f} {100 * t / root if root else 0:>6.1f}% "
              f"{calls.get(layer, 0):>8}")
    metrics = per_layer(spans, results)
    for name, (value, unit, base) in sorted(metrics.items()):
        print(f"{name} {value!r} {unit}  # {base}")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("run_record", help="the run-*-t1.json file of a traced run")
    args = ap.parse_args()
    with open(args.run_record) as fh:
        record = json.load(fh)
    if not record.get("trace_files"):
        print("summarize: not a traced run record", file=sys.stderr)
        return 2
    print_table(load(record["trace_files"]), record["results"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
