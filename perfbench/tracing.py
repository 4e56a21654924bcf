"""Spans around calls into the qds modules, recorded from outside the package.

The tracer replaces public functions on their modules with timing wrappers
while it is installed. Calls the package makes internally through a module
attribute (``find_minimal_kl`` reaching ``kernels.find_bad_row`` through
``kl_witness``, ``trim_qds`` reaching ``build_path_dfa``) therefore nest
under the caller's span. Spans stay in memory; the worker writes them out
once, when it exits. Nothing under ``src/`` is changed.

A span is ``[id, name, parent id, item, start, end, counters]``; times are
``time.perf_counter`` seconds. ``name`` is ``<layer>.<function>`` and the
layer is the qds module name (``bench`` for the benchmark's own spans).
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("formats", "kl", "kernels", "build", "trim", "reduction",
          "structure", "nfa", "family")
SHORT_MAX = 256    # qds_membership calls up to this many symbols are "short"
LONG_MIN = 4096    # and from this many on, "long"


def _bad_row_counters(args, result):
    a, k = args[0], args[1]
    rows = len(a.states) * len(a.alphabet) ** k
    if result is None:
        return {"rows": rows, "ambiguous": 0}
    q, w = result
    sym = {x: i for i, x in enumerate(a.alphabet)}
    rank = a.states.index(q)
    for x in w:
        rank = rank * len(a.alphabet) + sym[x]
    return {"rows": rows, "ambiguous": 1, "rank": rank}


def _states_in_out(args, result):
    return {"in": len(args[0].states), "out": len(result.states)}


COUNTERS = {
    "formats": {
        "parse_nfa": lambda args, r: {"bytes": len(args[0].encode())},
        "parse_qds": lambda args, r: {"bytes": len(args[0].encode())},
        "serialize_qds": lambda args, r: {"bytes": len(r.encode())},
    },
    "kl": {
        "exists_kl": None,
        "square_automaton": lambda args, r: {"pairs": len(r.states)},
        "find_minimal_kl": None,
        "is_kl_unambiguous": None,
        "kl_witness": None,
        "step_table": lambda args, r: {"rows": len(r.entries)},
    },
    "kernels": {"find_bad_row": _bad_row_counters},
    "build": {
        "build_qds": lambda args, r: {"states": len(r.states)},
        "prune_unreachable": _states_in_out,
    },
    "trim": {
        "trim_qds": _states_in_out,
        "build_path_dfa": lambda args, r: {"states": len(r.states)},
    },
    "reduction": {
        "equiv_fixpoint": lambda args, r: {"steps": r.steps},
        "quotient": _states_in_out,
    },
    "structure": {
        "qds_membership": lambda args, r: {
            "symbols": len(args[1]), "reads": r.reads, "shifts": r.shifts},
    },
    "nfa": {
        "nfa_membership": lambda args, r: {"symbols": len(args[1])},
        "determinize": lambda args, r: {"states": len(r.states)},
        "minimize_dfa": lambda args, r: {"states": len(r.states)},
    },
    "family": {"gen_sk_qds": lambda args, r: {"states": len(r.states)}},
}


class Tracer:
    """Records spans while installed; `install`/`uninstall` swap the module
    attributes so untraced work runs the unwrapped functions."""

    def __init__(self, modules: dict):
        self.modules = modules  # layer name -> module object
        self.spans: list[list] = []
        self.item = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, funcs in COUNTERS.items():
            module = self.modules[layer]
            for name, counter in funcs.items():
                fn = getattr(module, name)
                self._originals.append((module, name, fn))
                setattr(module, name, self._wrap(f"{layer}.{name}", fn, counter))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._originals):
            setattr(module, name, fn)
        self._originals.clear()

    def _open(self, name: str) -> list:
        span = [len(self.spans), name, self._stack[-1] if self._stack else None,
                self.item, perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _wrap(self, name, fn, counter):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                self._stack.pop()
            if counter is not None:
                span[6] = counter(args, result)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str, counters: dict | None = None):
        span = self._open(name)
        try:
            yield span
        finally:
            span[5] = perf_counter()
            self._stack.pop()
            if counters is not None:
                span[6] = counters

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(paths) -> list[list]:
    """Spans from several worker files, ids made unique across files."""
    spans = []
    for path in paths:
        base = len(spans)
        with open(path) as fh:
            for line in fh:
                s = json.loads(line)
                s[0] += base
                if s[2] is not None:
                    s[2] += base
                spans.append(s)
    return spans


def self_times(spans) -> dict[str, float]:
    """Self time per layer: each span's duration minus its children's."""
    child = {}
    for s in spans:
        if s[2] is not None:
            child[s[2]] = child.get(s[2], 0.0) + s[5] - s[4]
    out: dict[str, float] = {}
    for s in spans:
        layer = s[1].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (s[5] - s[4]) - child.get(s[0], 0.0)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics as name -> (value, unit, base). Each is taken over
    the calls made inside measured operations; a function the loop never
    calls is measured on its set-up and warm-up calls instead."""
    parent = {s[0]: s[2] for s in spans}
    name = {s[0]: s[1] for s in spans}
    root: dict[int, int] = {}
    for s in spans:  # parents come before children, so one pass suffices
        p = parent[s[0]]
        root[s[0]] = s[0] if p is None else root[p]
    by_all: dict[str, list] = {}
    by_op: dict[str, list] = {}
    for s in spans:
        by_all.setdefault(s[1], []).append(s)
        if name[root[s[0]]] == "bench.op":
            by_op.setdefault(s[1], []).append(s)
    by = {fn: by_op.get(fn) or group for fn, group in by_all.items()}

    def dur(name):
        return [s[5] - s[4] for s in by.get(name, [])]

    def cnt(name, key):
        return [s[6][key] for s in by.get(name, []) if s[6] is not None]

    def mean_dur(name):
        d = dur(name)
        return statistics.fmean(d) if d else 0.0

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    m = {}
    ops = len(by.get("bench.op", []))
    root = sum(s[5] - s[4] for s in spans if s[2] is None)
    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = (_ratio(own.get(layer, 0.0), root), "ratio",
                                   f"self time / {root:.3f} s traced")

    all_scans = [s for s in by_all.get("kernels.find_bad_row", []) if s[6] is not None]
    scans = [s for s in by.get("kernels.find_bad_row", []) if s[6] is not None]

    def verdict(ambiguous):  # operations' scans with this verdict, else any
        return ([s for s in scans if s[6]["ambiguous"] == ambiguous]
                or [s for s in all_scans if s[6]["ambiguous"] == ambiguous])

    unamb, amb = verdict(0), verdict(1)
    m["kernels.scan_s"] = (mean_dur("kernels.find_bad_row"), "s", f"mean of {len(scans)} scans")
    m["kernels.calls"] = (_ratio(len(scans), ops), "count", f"scans per op, {ops} ops")
    m["kernels.rows"] = (mean(cnt("kernels.find_bad_row", "rows")), "count", "rows per scan")
    m["kernels.rows_per_s"] = (
        _ratio(sum(s[6]["rows"] for s in unamb), sum(s[5] - s[4] for s in unamb)),
        "1/s", f"{len(unamb)} unambiguous scans")
    m["kernels.witness_frac"] = (
        mean([(s[6]["rank"] + 1) / s[6]["rows"] for s in amb]), "ratio",
        f"(rank+1)/rows, mean of {len(amb)} ambiguous scans")

    m["kl.exists_s"] = (mean_dur("kl.exists_kl"), "s", "mean per exists_kl")
    m["kl.square_pairs"] = (mean(cnt("kl.square_automaton", "pairs")), "count",
                            "pair states per square automaton")
    m["kl.minimal_s"] = (mean_dur("kl.find_minimal_kl"), "s", "mean per find_minimal_kl")
    minimal_ids = {s[0] for s in by.get("kl.find_minimal_kl", [])}
    nested = 0
    for s in all_scans:
        p = s[2]
        while p is not None and p not in minimal_ids:
            p = parent.get(p)
        nested += p is not None
    m["kl.minimal_scans"] = (_ratio(nested, len(minimal_ids)), "count",
                             f"scans per search, {len(minimal_ids)} searches")
    m["kl.step_table_s"] = (mean_dur("kl.step_table"), "s", "mean per step_table")
    m["kl.step_rows_per_s"] = (_ratio(sum(cnt("kl.step_table", "rows")), sum(dur("kl.step_table"))),
                               "1/s", "rows tabulated / step_table time")

    m["build.build_s"] = (mean_dur("build.build_qds"), "s", "mean per build_qds")
    m["build.states"] = (mean(cnt("build.build_qds", "states")), "count", "states per build")
    m["build.states_per_s"] = (_ratio(sum(cnt("build.build_qds", "states")), sum(dur("build.build_qds"))),
                               "1/s", "states built / build time")
    m["build.prune_s"] = (mean_dur("build.prune_unreachable"), "s", "mean per prune")
    m["build.reachable_frac"] = (_ratio(sum(cnt("build.prune_unreachable", "out")),
                                        sum(cnt("build.prune_unreachable", "in"))),
                                 "ratio", "states kept / states in, over prunes")

    m["trim.trim_s"] = (mean_dur("trim.trim_qds"), "s", "mean per trim_qds")
    m["trim.path_dfa_states"] = (mean(cnt("trim.build_path_dfa", "states")), "count",
                                 "path-DFA states per trim")
    m["trim.kept_frac"] = (_ratio(sum(cnt("trim.trim_qds", "out")), sum(cnt("trim.trim_qds", "in"))),
                           "ratio", "states kept / states in, over trims")

    reduces = len(by.get("reduction.quotient", []))
    m["reduction.reduce_s"] = (
        _ratio(sum(dur("reduction.equiv_fixpoint")) + sum(dur("reduction.quotient")), reduces),
        "s", f"fixpoint + quotient, mean of {reduces}")
    m["reduction.refine_steps"] = (mean(cnt("reduction.equiv_fixpoint", "steps")), "count",
                                   "refinement steps per fixpoint")
    m["reduction.merged_frac"] = (1 - _ratio(sum(cnt("reduction.quotient", "out")),
                                             sum(cnt("reduction.quotient", "in"))),
                                  "ratio", "1 - states out / states in, over quotients")
    m["reduction.states_out"] = (mean(cnt("reduction.quotient", "out")), "count",
                                 "states per reduced structure")

    member = [s for s in by.get("structure.qds_membership", []) if s[6] is not None]
    short = [s for s in member if s[6]["symbols"] <= SHORT_MAX]
    long_ = [s for s in member if s[6]["symbols"] >= LONG_MIN]

    def ns_per_sym(group):
        return 1e9 * _ratio(sum(s[5] - s[4] for s in group), sum(s[6]["symbols"] for s in group))

    short_ns, long_ns = ns_per_sym(short), ns_per_sym(long_)
    m["structure.ns_per_sym_short"] = (short_ns, "ns/sym", f"{len(short)} calls of <= {SHORT_MAX} symbols")
    m["structure.ns_per_sym_long"] = (long_ns, "ns/sym", f"{len(long_)} calls of >= {LONG_MIN} symbols")
    m["structure.growth"] = (_ratio(long_ns, short_ns), "ratio", "long / short ns per symbol")
    symbols = sum(s[6]["symbols"] for s in member)
    m["structure.reads_per_sym"] = (_ratio(sum(s[6]["reads"] for s in member), symbols), "ratio",
                                    f"reads / {symbols} symbols")
    m["structure.shifts_per_sym"] = (_ratio(sum(s[6]["shifts"] for s in member), symbols), "ratio",
                                     f"shifts / {symbols} symbols")

    def msym_s(name):
        return 1e-6 * _ratio(sum(cnt(name, "symbols")), sum(dur(name)))

    m["nfa.member_msym_s"] = (msym_s("nfa.nfa_membership"), "Msym/s", "nfa_membership symbols / time")
    m["nfa.dfa_msym_s"] = (msym_s("nfa.dfa_run"), "Msym/s", "minimal-DFA run symbols / time")
    m["nfa.determinize_s"] = (mean_dur("nfa.determinize"), "s", "mean per determinize")
    m["nfa.minimize_s"] = (mean_dur("nfa.minimize_dfa"), "s", "mean per minimize_dfa")
    m["nfa.dfa_states"] = (mean(cnt("nfa.minimize_dfa", "states")), "count", "minimal DFA states")

    m["family.sk_states"] = (mean(cnt("family.gen_sk_qds", "states")), "count", "states per S_K")
    m["family.gen_s"] = (mean_dur("family.gen_sk_qds"), "s", "mean per gen_sk_qds")

    parses = dur("formats.parse_nfa") + dur("formats.parse_qds")
    m["formats.parse_s"] = (mean(parses), "s", f"mean of {len(parses)} parses")
    m["formats.serialize_s"] = (mean_dur("formats.serialize_qds"), "s", "mean per serialize_qds")
    m["formats.bytes"] = (mean(cnt("formats.serialize_qds", "bytes")), "count",
                          "bytes per serialized structure")
    return m
