"""One benchmark worker process.

It reads the generated inputs (JSON) from stdin, imports qds from the
checkout's ``src/``, sets the workload up, prints ``READY``, then runs a
closed loop: one caller, the next operation starts when the previous one
returns, until the operations have used ``--budget`` seconds. Every answer
is checked against an oracle outside the timed region. The last line of
stdout is one JSON object with the samples and counts. ``run.py`` starts
the workers one after another; this file is not meant to be run by hand.

With ``--trace``, every operation runs twice, untraced and traced in
alternating order, so the tracing overhead is measured on the same inputs;
the spans go to ``--trace-file`` when the worker exits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import traceback
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_OPS = 11  # per worker, so every worker has a tail to report (10 beyond it)
MAX_FAILURES_SHOWN = 20

q = None  # the imported qds submodules, set in main()


class Fail(Exception):
    """An answer that disagrees with its oracle."""


def dfa_run(d, w) -> bool:
    """Membership by stepping the (partial) minimal DFA: the baseline."""
    state = d.initial
    for x in w:
        state = d.step(state, x)
        if state is None:
            return False
    return state in d.finals


def row_violates(a, state, w, l) -> bool:
    """The (k,l) definition for one row, via the plain subset function."""
    for i in range(1, l + 1):
        live = {r for r in q.nfa.delta_word(a, {state}, w[:i])
                if q.nfa.delta_word(a, {r}, w[i:])}
        if len(live) < 2:
            return False
    return True


def compile_path(a, k, l):
    """NFA -> reduced structure, the compiler's stage order."""
    table = q.kl.step_table(a, k, l)
    s = q.build.build_qds(a, k, l, table)
    s = q.build.prune_unreachable(s)
    s = q.trim.trim_qds(s)
    return q.reduction.quotient(s, q.reduction.equiv_fixpoint(s))


class Compile:
    """Text in, text out: parse, decide, search the minimal pair, tabulate,
    build, prune, trim, reduce, serialize."""

    def __init__(self, items, span):
        self.items = items

    def work(self, ix):
        return self.items[ix]["rows"]

    def run(self, ix):
        item = self.items[ix]
        a = q.formats.parse_nfa(item["nfa"])
        exists = q.kl.exists_kl(a).exists
        pair = q.kl.find_minimal_kl(a)
        r = compile_path(a, item["k"], pair[1])
        return a, exists, pair, r, q.formats.serialize_qds(r)

    def check(self, ix, result):
        item = self.items[ix]
        a, exists, pair, r, text = result
        if not exists:
            raise Fail("exists_kl says no window works")
        if list(pair) != item["minimal"]:
            raise Fail(f"minimal pair {pair}, expected {tuple(item['minimal'])}")
        for w in item["words"]:
            if q.structure.qds_membership(r, w).accepted != q.nfa.nfa_membership(a, w):
                raise Fail(f"structure and NFA disagree on {w!r}")
        if q.formats.parse_qds(text) != r:
            raise Fail("serialized structure parses back different")
        return {"states_out": len(r.states)}


class Stream:
    """One job streams a long word through each structure, then the same
    symbols again as 64 short words."""

    def __init__(self, inputs, span):
        self.structures = []
        self.lk_nfa = None
        for st in inputs["structures"]:
            if "nfa" in st:
                a = q.formats.parse_nfa(st["nfa"])
                pair = q.kl.find_minimal_kl(a)
                if list(pair) != st["minimal"]:
                    raise Fail(f"{st['name']}: minimal pair {pair}, expected {st['minimal']}")
                r = compile_path(a, st["k"], pair[1])
                s = q.formats.parse_qds(q.formats.serialize_qds(r))
                if s != r:
                    raise Fail(f"{st['name']}: serialized structure parses back different")
                if st["lk"] is not None:
                    self.lk_nfa = a
            else:
                a = None
                s = q.family.gen_sk_qds(st["sk"])
            self.structures.append((s, a, st["lk"]))
        cut = inputs["short"]
        self.items = [[(word, [word[i:i + cut] for i in range(0, len(word), cut)])
                       for word in job] for job in inputs["jobs"]]
        # baselines: subset simulation and the minimal DFA on the same words
        w = self.items[0][0][0]
        lk = inputs["structures"][0]["lk"]
        expected = q.family.lk_predicate(lk, tuple(w))
        got = [q.nfa.nfa_membership(self.lk_nfa, w)]
        d = q.nfa.minimize_dfa(q.nfa.determinize(self.lk_nfa))
        with span("nfa.dfa_run", {"symbols": len(w)}):
            got.append(dfa_run(d, w))
        if got != [expected, expected]:
            raise Fail(f"baselines answer {got} on a word where L_{lk} says {expected}")
        self.expected = {}

    def work(self, ix):
        return sum(2 * len(word) for word, _ in self.items[ix])

    def run(self, ix):
        long_s = short_s = 0.0
        answers = []
        for (s, _, _), (word, shorts) in zip(self.structures, self.items[ix]):
            t0 = perf_counter()
            answers.append(q.structure.qds_membership(s, word))
            t1 = perf_counter()
            answers += [q.structure.qds_membership(s, u) for u in shorts]
            long_s += t1 - t0
            short_s += perf_counter() - t1
        return answers, long_s, short_s

    def _oracle(self, ix):
        if ix not in self.expected:
            answers = []
            for (_, a, lk), (word, shorts) in zip(self.structures, self.items[ix]):
                for w in [word] + shorts:
                    if lk is None:
                        answers.append(q.nfa.nfa_membership(a, w))
                        continue
                    by_def = q.family.lk_predicate(lk, tuple(w))
                    if q.nfa.nfa_membership(self.lk_nfa, w) != by_def:
                        raise Fail("oracles disagree: lk_predicate and nfa_membership")
                    answers.append(by_def)
            self.expected[ix] = answers
        return self.expected[ix]

    def check(self, ix, result):
        answers, long_s, short_s = result
        got = [r.accepted for r in answers]
        want = self._oracle(ix)
        if got != want:
            bad = next(i for i, (x, y) in enumerate(zip(got, want)) if x != y)
            per = len(want) // len(self.structures)
            raise Fail(f"job {ix}, structure {bad // per}, word {bad % per} "
                       f"({'long' if bad % per == 0 else 'short'}) answered {got[bad]}")
        return {"long_s": long_s, "short_s": short_s,
                "symbols": sum(len(word) for word, _ in self.items[ix])}


class Decide:
    """One (k,l) check near the enumeration guard, or one minimal-pair
    search on a relabelled L_K."""

    def __init__(self, items, span):
        self.items = items
        self.nfas = [q.formats.parse_nfa(item["nfa"]) for item in items]
        self.verified = set()  # items whose once-only oracle work is done

    def work(self, ix):
        return self.items[ix]["rows"]

    def run(self, ix):
        item = self.items[ix]
        if item["kind"] == "minimal":
            return q.kl.find_minimal_kl(self.nfas[ix])
        return q.kl.kl_witness(self.nfas[ix], item["k"], item["l"])

    def _verify_once(self, ix):
        """Per item, once: the scan backend against the plain-Python
        reference at a small k; for an unambiguous check, exists_kl and a
        reference scan at a window that implies the checked one; for a
        search, a re-checked bad row just below the minimal window."""
        a, item = self.nfas[ix], self.items[ix]
        if item["kind"] == "minimal":
            k = item["minimal"][0] - 1
            row = q.kl.kl_witness(a, k, k)
            if row is None or not row_violates(a, row[0], row[1], k):
                raise Fail(f"no valid bad row at ({k},{k})")
            return
        k = item["small_k"]
        for l in (1, k):
            got = q.kernels.find_bad_row(a, k, l)
            ref = q.kernels._python_witness(a, k, l)
            if got != ref:
                raise Fail(f"backend {got} and reference {ref} differ at ({k},{l})")
        if item["kind"] == "unamb":
            if not q.kl.exists_kl(a).exists:
                raise Fail("unambiguous verdict but exists_kl says no window works")
            l = 1 if item["l"] == 1 else k
            if q.kernels._python_witness(a, k, l) is not None:
                raise Fail(f"reference finds a bad row at ({k},{l}), below the checked window")

    def check(self, ix, result):
        item = self.items[ix]
        if ix not in self.verified:
            self._verify_once(ix)
            self.verified.add(ix)
        if item["kind"] == "minimal":
            if result is None or list(result) != item["minimal"]:
                raise Fail(f"minimal pair {result}, expected {tuple(item['minimal'])}")
        elif item["kind"] == "amb":
            if result is None:
                raise Fail("no bad row reported; the square graph has a diagonal-free cycle")
            state, w = result
            if len(w) != item["k"] or not row_violates(self.nfas[ix], state, w, item["l"]):
                raise Fail(f"reported row ({state}, {''.join(w)}) is not bad")
        elif result is not None:
            raise Fail(f"bad row {result} reported; a smaller window is unambiguous")
        return {}


WORKLOADS = {"compile": Compile, "stream": Stream, "decide": Decide}


def warmup(tour, span):
    """A small pass through every stage the workloads use, so lazy set-up in
    the program is done before timing and every layer shows in a trace."""
    K = tour["K"]
    a = q.formats.parse_nfa(tour["nfa"])
    q.kl.exists_kl(a)
    k0, l = q.kl.find_minimal_kl(a)
    r = q.formats.parse_qds(q.formats.serialize_qds(compile_path(a, k0 + 1, l)))
    long_word = "ab" * 2048
    got = [q.structure.qds_membership(r, long_word[:64]).accepted,
           q.structure.qds_membership(r, long_word).accepted,
           q.kl.kl_witness(a, k0 - 1, k0 - 1) is not None,
           q.kl.kl_witness(a, k0, l) is None,
           q.nfa.nfa_membership(a, long_word)]
    d = q.nfa.minimize_dfa(q.nfa.determinize(a))
    with span("nfa.dfa_run", {"symbols": len(long_word)}):
        got.append(dfa_run(d, long_word))
    sk = q.family.gen_sk_qds(K)
    got.append(q.structure.qds_membership(sk, long_word[:64]).accepted)
    want = q.family.lk_predicate(K, tuple(long_word))
    if got != [want, want, True, True, want, want, want]:
        raise Fail(f"warm-up answers {got}")
    return r


def peak_alloc_kib(structures) -> float:
    """Peak traced allocation of one long-word membership call, per structure."""
    import tracemalloc

    word = "ab" * 2048
    peak = 0
    for s in structures:
        tracemalloc.start()
        try:
            q.structure.qds_membership(s, word)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 1024


def main() -> int:
    global q
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args()
    inputs = json.load(sys.stdin)

    t0 = perf_counter()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import qds
        from qds import build, family, formats, kernels, kl, nfa, reduction, structure, trim
    except ImportError as exc:
        print(f"worker: cannot import qds from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(qds.__file__).startswith(src + os.sep):
        print(f"worker: qds imported from {qds.__file__}, not {src}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0
    q = SimpleNamespace(build=build, family=family, formats=formats, kernels=kernels,
                        kl=kl, nfa=nfa, reduction=reduction, structure=structure, trim=trim)

    tracer = None
    span = lambda name, counters=None: contextlib.nullcontext()  # noqa: E731
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(vars(q))
        span = tracer.span
        tracer.install()
    try:
        with span("bench.setup"):
            tour_structure = warmup(inputs["warmup"], span)
            workload = WORKLOADS[args.workload](inputs["items"], span)
    except Fail as exc:
        print(f"worker: wrong answer during set-up: {exc}", file=sys.stderr)
        return 3
    if tracer:
        tracer.uninstall()
    print("READY", flush=True)

    items = workload.items
    samples, traced, extras, failures = [], [], [], []
    attempted = failed = 0
    busy = 0.0
    wall_limit = perf_counter() + 3 * args.budget + 30
    i = args.start
    while (busy < args.budget or attempted < MIN_OPS) and perf_counter() < wall_limit:
        ix = i % len(items)
        i += 1
        attempted += 1
        try:
            runs = []
            order = [False]
            if tracer:  # the same input untraced and traced, alternating which goes first
                order = [False, True] if attempted % 2 else [True, False]
            for traced_run in order:
                if traced_run:
                    tracer.item = ix
                    tracer.install()
                    try:
                        with tracer.span("bench.op"):
                            t = perf_counter()
                            result = workload.run(ix)
                            dt = perf_counter() - t
                    finally:
                        tracer.uninstall()
                    traced.append(dt)
                else:
                    t = perf_counter()
                    result = workload.run(ix)
                    dt = perf_counter() - t
                    samples.append((ix, dt, workload.work(ix)))
                busy += dt
                runs.append(result)
            for result in runs:
                extra = workload.check(ix, result)
            extras.append(extra)
        except Fail as exc:
            failed += 1
            failures.append(f"item {ix}: {exc}")
        except Exception as exc:  # an operation that raises counts as failed
            failed += 1
            failures.append(f"item {ix}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)

    out = {
        "import_s": import_s,
        "backend": q.kernels.backend_name(),
        "samples": samples,
        "traced": traced,
        "extras": extras,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:MAX_FAILURES_SHOWN],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        structures = [s for s, _, _ in getattr(workload, "structures", [])]
        out["peak_alloc_kib_long"] = peak_alloc_kib(structures or [tour_structure])
        tracer.dump(args.trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
