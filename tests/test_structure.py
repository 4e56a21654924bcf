import random
import re
import tracemalloc
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, fields
from itertools import chain, cycle, islice, repeat
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qds import (
    InputError,
    MembershipResult,
    PreconditionError,
    Qds,
    build_qds,
    determinize,
    dfa_to_qds,
    equiv_fixpoint,
    gen_lk_nfa,
    gen_sk_qds,
    minimize_dfa,
    prune_unreachable,
    qds_membership,
    qds_stats,
    quotient,
    random_nfa,
    trim_qds,
)
from qds import structure
from qds.formats import parse_nfa, parse_qds, serialize_qds
from qds.structure import format_trace
from tests import test_trim
from tests.conftest import mk_nfa, window_cases
from tests.reference_structure import QdsEdge, analyze_path, counted_run, extended_delta
from tests.words import words_up_to

DATA = Path(__file__).resolve().parent.parent / "data"


def all_shiftable_path_ends(s: Qds, q1: str, w, cap=None):
    """Brute enumeration oracle: endpoints of shiftable paths from q1 whose
    label is w. DFS over raw edge sequences, pruning on the committed label
    prefix; every candidate is re-validated through analyze_path."""
    w = tuple(w)
    if cap is None:
        cap = (len(w) + 2) * s.m
    out_edges: dict[str, list[QdsEdge]] = {}
    for (p, x), q in s.delta.items():
        out_edges.setdefault(p, []).append(QdsEdge(p, x, q))
    for p, (target, shift) in s.gamma.items():
        if target is not None:
            out_edges.setdefault(p, []).append(QdsEdge(p, shift, target))
    ends = set()

    def committed_label(path):
        # symbols not masked by any shift window seen so far
        mask_until = 0
        label = []
        for pos, e in enumerate(path, start=1):
            if e.is_shift:
                mask_until = max(mask_until, pos + s.m - 1 - e.label)
            elif pos > mask_until:
                label.append(e.label)
        return tuple(label)

    def rec(path, node):
        label = committed_label(path)
        if label == w:
            result = analyze_path(s, path, start=q1)
            if result.shiftable and result.label == w:
                ends.add(node)
        if len(path) >= cap or label[: len(w)] != w[: len(label)]:
            return
        if len(label) > len(w):
            return
        for e in out_edges.get(node, ()):
            rec(path + [e], e.dst)

    rec([], q1)
    return ends


# --- extended transition function ----------------------------------------


def test_extended_delta_worked_example(two_lane_qds):
    assert extended_delta(two_lane_qds, "1", "bbbaabab") == "7"
    assert extended_delta(two_lane_qds, "1", "") == "1"
    assert extended_delta(two_lane_qds, "1", "a") == "2"


def test_extended_delta_bottom_cases(two_lane_qds):
    # too-long word whose first window image is undefined
    s = two_lane_qds
    assert extended_delta(s, "6", "abab") is None  # delta(7,b) is bottom
    with pytest.raises(PreconditionError):
        extended_delta(s, "2", "ab")  # not a layer-1 state
    with pytest.raises(InputError):
        extended_delta(s, "1", "ax")


def test_membership_matches_extended_delta_everywhere(two_lane_qds, three_state_dfa):
    structures = [two_lane_qds, dfa_to_qds(three_state_dfa)]
    sm = mk_nfa(
        "ab",
        ["1", "2", "3"],
        ["1"],
        ["3"],
        [("1", "a", "1"), ("1", "b", "1"), ("1", "a", "2"), ("2", "a", "3"), ("2", "b", "3")],
    )
    structures.append(prune_unreachable(build_qds(sm, 3, 3)))
    structures.append(gen_sk_qds(2))
    rng = random.Random(11)
    for s in structures:
        # long words: the definition runs as a loop, so no recursion limit
        long = [tuple(rng.choice(s.alphabet) for _ in range(20_000)) for _ in range(3)]
        for w in [*words_up_to(s.alphabet, 12 if len(s.alphabet) < 3 else 7), *long]:
            r = qds_membership(s, w)
            assert (r.terminal, r.reads, r.shifts) == counted_run(s, s.initial, w)[:3]
            assert r.accepted == (r.terminal in s.finals if r.terminal else False)


def test_membership_worked_example(two_lane_qds):
    r = qds_membership(two_lane_qds, "bbbaabab", want_trace=True)
    assert r.accepted and r.terminal == "7" and r.shifts == 4
    assert [st.state for st in r.trace.steps] == ["1", "1", "1", "6", "6"]
    assert not qds_membership(two_lane_qds, "").accepted
    b = qds_membership(two_lane_qds, "b")
    assert not b.accepted and b.terminal == "3"


def test_unknown_symbol_after_bottom_still_raises(two_lane_qds):
    w = "abbb" + "a" * 10_000  # the run hits bottom on the fourth symbol
    r = qds_membership(two_lane_qds, w)
    assert r.terminal is None and r.reads == 4
    with pytest.raises(InputError, match="unknown symbol 'x'"):
        qds_membership(two_lane_qds, w + "x")
    with pytest.raises(InputError, match="unknown symbol 'x'"):
        qds_membership(gen_sk_qds(2), "ab" * 5_000 + "x")


def test_cached_tables_leave_equality_alone(two_lane_qds):
    """A structure equals, hashes and serializes the same before and after
    a membership call caches its encoder table."""
    for t in (gen_sk_qds(3), two_lane_qds, build_qds(gen_lk_nfa(2), 4, 1)):
        text, fresh, before = serialize_qds(t), parse_qds(serialize_qds(t)), hash(t)
        qds_membership(t, "abba" * 10)
        assert {"tables", "symbol_bytes"} <= vars(t).keys()
        assert "symbol_bytes" not in vars(fresh)
        assert fresh == t and t == fresh
        assert hash(t) == before == hash(fresh)
        assert serialize_qds(t) == text


def test_structures_are_set_members_and_dict_keys(two_lane_qds):
    """Equal structures, built or parsed, are one set member and one key."""
    sk2 = gen_sk_qds(2)
    parsed = parse_qds(serialize_qds(sk2))
    qds_membership(parsed, "ab")
    made = {sk2, parsed, gen_sk_qds(2), gen_sk_qds(3), two_lane_qds,
            parse_qds(serialize_qds(two_lane_qds))}
    assert len(made) == 3 and parsed in made
    names = {sk2: "S_2", two_lane_qds: "lanes"}
    assert names[parsed] == "S_2" and names[parse_qds(serialize_qds(two_lane_qds))] == "lanes"
    assert gen_sk_qds(3) not in names


def test_reads_bound(two_lane_qds, three_state_dfa):
    rng = random.Random(5)
    for s in (two_lane_qds, dfa_to_qds(three_state_dfa)):
        min_shift = qds_stats(s).min_shift
        for trial in range(200):
            n = rng.randrange(0, 40) if trial % 4 else rng.randrange(1_000, 5_000)
            w = tuple(rng.choice(s.alphabet) for _ in range(n))
            r = qds_membership(s, w)
            bound = s.window * (-(-len(w) // min_shift)) + s.window
            assert r.reads <= bound


def count_corpus():
    """The data structures, S_1..S_5, and seeded random NFAs compiled at
    every stage: as built, pruned, trimmed and reduced."""
    for path in sorted(DATA.glob("*.qds")):
        yield parse_qds(path.read_text())
    for K in range(1, 6):
        yield gen_sk_qds(K)
    for a, k, l in window_cases(60):
        try:
            s = build_qds(a, k, l)
        except PreconditionError:
            continue
        pruned = prune_unreachable(s)
        trimmed = trim_qds(pruned)
        yield from (s, pruned, trimmed, quotient(trimmed, equiv_fixpoint(trimmed)))


def count_words(s: Qds, rng: random.Random):
    """The empty word, random words up to three windows and two long ones,
    every prefix of a word grown while its run lives, and each such prefix
    with the symbol that kills it."""
    if not s.alphabet:
        return [()]
    words = [tuple(rng.choice(s.alphabet) for _ in range(n))
             for n in [*range(3 * s.m + 3)] * 2 + [500, 5_000]]
    live: tuple = ()
    for _ in range(3 * s.m + 3):
        words.append(live)
        longer = [live + (a,) for a in s.alphabet]
        alive = [w for w in longer if counted_run(s, s.initial, w).terminal is not None]
        words += [w for w in longer if w not in alive]
        if not alive:
            break
        live = rng.choice(alive)
    return words


def test_membership_counts_match_reference():
    """Accepted, terminal, reads and shifts are exactly the definition's, on
    the word as a str, a tuple and an iterator."""
    rng = random.Random(16)
    ends = set()
    structures = 0
    for s in count_corpus():
        structures += 1
        for w in count_words(s, rng):
            want = counted_run(s, s.initial, w)
            # each window before the last is read whole, k symbols
            mid = want.end == "delta" and want.reads - s.window * want.shifts < s.window
            ends.add("empty" if not w else "mid-window" if mid else want.end)
            forms = [w, iter(w)] + (["".join(w)] if all(len(a) == 1 for a in w) else [])
            for form in forms:
                r = qds_membership(s, form)
                assert (r.accepted, r.terminal, r.reads, r.shifts) == (
                    want.terminal in s.finals, want.terminal, want.reads, want.shifts), (s, w)
    assert structures >= 100
    assert ends == {"empty", "mid-window", "delta", "gamma", "full", "partial"}


def peak_alloc(s: Qds, w) -> int:
    tracemalloc.start()
    try:
        qds_membership(s, w)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_membership_space_is_the_encoded_copy():
    """From 4,096 to 65,536 symbols the peak allocation of one call grows by
    the encoded copy alone: one byte a code, and for a str its latin-1
    bytes beside them while they are translated."""
    for s in (gen_sk_qds(4), prune_unreachable(build_qds(gen_lk_nfa(3), 5, 1))):
        for form in (str, tuple):
            short, long = (form("ab" * (n // 2)) for n in (4_096, 65_536))
            assert qds_membership(s, long).reads >= len(long)  # the run reads it all
            growth = peak_alloc(s, long) - peak_alloc(s, short)
            assert growth <= 2 * (len(long) - len(short)) + 4_096, (form, growth)


def window_edge_qds() -> Qds:
    """Window 3 with every way a window can end: `c` and `d` kill on layers
    1 and 2, `b` on layer 3 and an `a` read from r, so bottom can fall on
    the first, the middle or the last symbol of a window, after a shift
    too; t shifts 1 to r, v shifts 1 to p and u's gamma is bottom."""
    return Qds(("a", "b", "c", "d"), (("p", "r"), ("x",), ("y",), ("t", "u", "v")), "p",
               {"p", "x", "t"},
               {("p", "a"): "x", ("p", "b"): "x", ("r", "b"): "x", ("x", "a"): "y",
                ("x", "b"): "y", ("y", "a"): "t", ("y", "c"): "u", ("y", "d"): "v"},
               {"t": ("r", 1), "u": (None, 2), "v": ("p", 1)})


def assert_trace_is_the_run(s: Qds, w, r) -> None:
    """Each step reads w[offset:offset+k] from the layer-1 state the shifts
    before it reached, by the names; the last step has no shift."""
    steps, k = r.trace.steps, s.window
    assert len(steps) == r.shifts + 1 and steps[-1].shift is None
    offset, state = 0, s.initial
    for step in steps:
        assert (step.offset, step.state, step.consumed) == (offset, state, tuple(w[offset:offset + k]))
        if step.shift is None:
            break
        end = state
        for a in step.consumed:
            end = s.delta[(end, a)]
        state, shift = s.gamma[end]
        assert shift == step.shift
        offset += shift
    assert r.trace.terminal == r.terminal


def test_membership_at_window_edges_matches_reference():
    """Every word up to 6 symbols over `window_edge_qds`, and up to 9 over
    S_2, as a str, a tuple and an iterator, with and without a trace: the
    counts are the definition's and the trace is the run, wherever in its
    window the run ends."""
    ends = set()
    for s, n in ((window_edge_qds(), 6), (gen_sk_qds(2), 9)):
        k = s.window
        for w in words_up_to(s.alphabet, n):
            want = counted_run(s, s.initial, w)
            at = want.reads - k * want.shifts  # 1-based place of the last read in its window
            where = {1: "first", k: "last"}.get(at, "middle") if want.end == "delta" else want.end
            ends.add(("empty" if not w else where, want.shifts > 0))
            expected = (want.terminal in s.finals, want.terminal, want.reads, want.shifts)
            runs = [qds_membership(s, form, want_trace=trace)
                    for trace in (False, True) for form in ("".join(w), w, iter(w))]
            for r in runs:
                assert (r.accepted, r.terminal, r.reads, r.shifts) == expected, (s, w)
            for r in runs[3:]:
                assert_trace_is_the_run(s, w, r)
            assert len({r.trace for r in runs[3:]}) == 1
    assert ends == {("empty", False)} | {(end, shifted) for shifted in (False, True)
                                          for end in ("first", "middle", "last",
                                                      "gamma", "full", "partial")}


def test_iterator_chunks_match_reference(monkeypatch):
    """An iterator word read `_CHUNK` symbols at a time, for every chunk
    size from 1 to k+1, runs as the definition does, counts and trace
    included, wherever a window meets a chunk edge."""
    rng = random.Random(22)
    for s in (window_edge_qds(), gen_sk_qds(4), prune_unreachable(build_qds(gen_lk_nfa(3), 5, 1))):
        k = s.window
        words = [*words_up_to(s.alphabet, 5 if len(s.alphabet) > 2 else 9), *count_words(s, rng)]
        wants = [counted_run(s, s.initial, w) for w in words]
        for chunk in range(1, k + 2):
            monkeypatch.setattr(structure, "_CHUNK", chunk)
            for w, want in zip(words, wants):
                expected = (want.terminal in s.finals, want.terminal, want.reads, want.shifts)
                for trace in (False, True):
                    r = qds_membership(s, iter(w), want_trace=trace)
                    assert (r.accepted, r.terminal, r.reads, r.shifts) == expected, (s, w, chunk)
                assert_trace_is_the_run(s, w, r)
            # an unknown symbol chunks after the start raises, on window_edge_qds
            # also after `c` has sent the run to bottom on its first read
            late = ("a",) * (3 * chunk) + ("x",) + ("a",) * chunk
            for head in [()] + [("c",)] * ("c" in s.alphabet):
                if head:
                    r = qds_membership(s, iter(head + late[:3 * chunk]))
                    assert (r.terminal, r.reads) == (None, 1)
                with pytest.raises(InputError, match="^unknown symbol 'x'$"):
                    qds_membership(s, iter(head + late))


def stride_qds(k: int) -> Qds:
    """Window k over {a, b}, every window read whole and shifted by k, so
    each symbol is read once."""
    return Qds("ab", [(f"p{i}",) for i in range(k + 1)], "p0", {f"p{k}"},
               {(f"p{i}", a): f"p{i + 1}" for i in range(k) for a in "ab"},
               {f"p{k}": ("p0", k)})


def test_iterator_space_is_constant():
    """An iterator word takes the same bounded working space at 1 M and at
    4 M symbols: the buffer holds at most k + `_CHUNK` codes. So does the
    rest of a word after its run has died, which is only checked for
    unknown symbols."""
    runs = [(stride_qds(32), lambda n: islice(cycle("ab"), n), (True, "p32")),
            (window_edge_qds(), lambda n: chain("c", repeat("a", n)), (False, None))]
    for s, word, (accepted, terminal) in runs:
        for n in (1 << 20, 1 << 22):
            tracemalloc.start()
            try:
                r = qds_membership(s, word(n))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (r.accepted, r.terminal) == (accepted, terminal)
            assert r.reads == (n if accepted else 1)
            assert peak <= 32 * 1024, (n, peak)


def parity_qds(alphabet) -> Qds:
    """Window 2: a window's first symbol leads to x or y by the parity of its
    place in `alphabet`, x shifts 1 and y shifts 2, so every code shows in
    the run; the last symbol of `alphabet` is never read."""
    live = alphabet[:-1]
    return Qds(alphabet, (("p",), ("x", "y"), ("t", "u")), "p", {"t"},
               {**{("p", a): "xy"[i % 2] for i, a in enumerate(live)},
                **{("x", a): "t" for a in live}, **{("y", a): "u" for a in live}},
               {"t": ("p", 1), "u": ("p", 2)})


def test_encoder_edges():
    """Symbols outside latin-1, multi-character symbols, an alphabet too
    wide for a byte code, \\xff known and unknown, and the empty word run as
    the definition does in every word form; an unknown symbol raises the
    definition's error, naming the first one."""
    wide = tuple("abcdefghijklmnopqrstuvwxyz") + tuple(chr(0x100 + i) for i in range(274))
    cases = [(("a", "b", "c"), ("\xff", "α")), (("α", "b", "c"), ("x", "\xff")),
             (("a", "\xff", "b"), ("x", "α")), (("ab", "c", "d"), ("a", "cd")), (wide, ("?", "\xff"))]
    rng = random.Random(7)
    for alphabet, unknown in cases:
        s = parity_qds(alphabet)
        assert "symbol_bytes" not in vars(s)
        words = [(), *(tuple(rng.choice(alphabet) for _ in range(rng.randrange(1, 9)))
                       for _ in range(300))]
        for w in words:
            want = counted_run(s, s.initial, w)
            forms = [w, list(w), iter(w)] + (["".join(w)] if all(len(a) == 1 for a in w) else [])
            for form, trace in [(f, False) for f in forms] + [(w, True), (iter(w), True)]:
                r = qds_membership(s, form, want_trace=trace)
                assert (r.accepted, r.terminal, r.reads, r.shifts) == (
                    want.terminal in s.finals, want.terminal, want.reads, want.shifts), (w, form)
            for x in unknown:
                for at in (0, len(w)):
                    bad = w[:at] + (x,) + w[at:] + (unknown[1],)
                    with pytest.raises(InputError) as err:
                        counted_run(s, s.initial, bad)
                    assert str(err.value) == f"unknown symbol {x!r}"
                    forms = [bad, iter(bad)] + (["".join(bad)] if all(len(a) == 1 for a in bad) else [])
                    for form in forms:
                        with pytest.raises(InputError) as err:
                            qds_membership(s, form)
                        assert str(err.value) == f"unknown symbol {x!r}", (bad, form)
        table = s.symbol_bytes
        if len(alphabet) >= 255:
            assert table is None
        else:
            assert table == bytes(s.tables.code.get(chr(b), 255) for b in range(256))


def test_membership_result_is_a_frozen_value(two_lane_qds):
    """A result compares, hashes and prints as its fields, the trace left out
    of equality, and takes no assignment."""
    r = qds_membership(two_lane_qds, "bbbaabab", want_trace=True)
    plain = MembershipResult(True, "7", 4, r.reads)
    assert r == plain and hash(r) == hash(plain) and r.trace is not None
    assert repr(r) == repr(MembershipResult(True, "7", 4, r.reads, r.trace))
    assert repr(qds_membership(two_lane_qds, "bbbaabab")) == repr(plain)
    with pytest.raises(FrozenInstanceError):
        r.reads = 0


def test_trace_renders(two_lane_qds):
    r = qds_membership(two_lane_qds, "bbbaabab", want_trace=True)
    text = format_trace(r)
    assert "offset\tstate\twindow\tshift" in text
    assert "terminal\t7" in text


def test_trace_table_is_the_same_for_every_word_form(two_lane_qds):
    """The table comes from the result alone; an iterator word is read once,
    by the membership call."""
    table = ("offset\tstate\twindow\tshift\n0\t1\tbb\t2\n2\t1\tba\t2\n4\t1\tab\t1\n"
             "5\t6\tba\t2\n7\t6\tb\t-\nterminal\t7")
    for w in ("bbbaabab", tuple("bbbaabab"), iter("bbbaabab")):
        assert format_trace(qds_membership(two_lane_qds, w, want_trace=True)) == table
    with pytest.raises(InputError, match="want_trace=True"):
        format_trace(qds_membership(two_lane_qds, "bbbaabab"))


# --- paths ----------------------------------------------------------------


def test_analyze_path_worked_example(two_lane_qds):
    p = [
        QdsEdge("1", "a", "2"),
        QdsEdge("2", "b", "4"),
        QdsEdge("4", 1, "6"),
        QdsEdge("6", "b", "7"),
        QdsEdge("7", "a", "8"),
        QdsEdge("8", 2, "6"),
        QdsEdge("6", "b", "7"),
    ]
    r = analyze_path(two_lane_qds, p)
    assert r.shiftable and r.successful and r.label == ("a", "b", "a", "b")


def test_analyze_path_truncated_shift_fails(two_lane_qds):
    p = [QdsEdge("1", "a", "2"), QdsEdge("2", "b", "4"), QdsEdge("4", 1, "6")]
    r = analyze_path(two_lane_qds, p)
    assert not r.shiftable and not r.successful and r.label is None


def test_analyze_path_empty(two_lane_qds):
    r = analyze_path(two_lane_qds, [], start="1")
    assert r.shiftable and not r.successful and r.label == ()
    with pytest.raises(InputError):
        analyze_path(two_lane_qds, [])


def test_analyze_path_rejects_foreign_edges(two_lane_qds):
    with pytest.raises(InputError):
        analyze_path(two_lane_qds, [QdsEdge("1", "a", "3")])
    with pytest.raises(InputError):
        analyze_path(
            two_lane_qds, [QdsEdge("1", "a", "2"), QdsEdge("3", "a", "5")]
        )


def test_overlap_mismatch_is_not_shiftable(two_lane_qds):
    # gamma(4) shifts 1 and owes a matching overlap symbol: after (2,b,4) the
    # re-read must be b, so continuing with (6,a,7) breaks the overlap
    p = [
        QdsEdge("1", "a", "2"),
        QdsEdge("2", "b", "4"),
        QdsEdge("4", 1, "6"),
        QdsEdge("6", "a", "7"),
        QdsEdge("7", "a", "8"),
    ]
    assert not analyze_path(two_lane_qds, p).shiftable


def test_extended_delta_equals_shiftable_path_labels(two_lane_qds, three_state_dfa):
    structures = [two_lane_qds, dfa_to_qds(three_state_dfa)]
    for s in structures:
        for q1 in s.layers[0]:
            for w in words_up_to(s.alphabet, 5):
                ends = all_shiftable_path_ends(s, q1, w)
                got = extended_delta(s, q1, w)
                if got is None:
                    assert ends == set()
                else:
                    assert ends == {got}


# --- stats and the shift range ------------------------------------------------


def test_stats_values(two_lane_qds, three_state_dfa):
    st = qds_stats(two_lane_qds)
    assert (st.total_states, st.m, st.min_shift) == (8, 3, 1)
    emb = qds_stats(dfa_to_qds(three_state_dfa))
    assert (emb.total_states, emb.min_shift) == (6, 1)
    assert qds_stats(gen_sk_qds(0)).total_states == 5


# The smallest structures on which a shift of m, one past the window, made
# trim (the first) and the fixpoint quotient (the second) change the
# language: both accept "aa", and rejected it after that stage.
FULL_SHIFT_TEXTS = (
    "@type qds\n@alphabet a\n@layers 2\n@layer 1 q0 q1 q2\n@layer 2 q3\n"
    "@initial q0\n@final q0 q2\nq0 a q3\nq1 a q3\n@gamma q3 q0 2\n",
    "@type qds\n@alphabet a\n@layers 2\n@layer 1 q0 q1\n@layer 2 q2\n"
    "@initial q0\n@final q1\nq0 a q2\n@gamma q2 q1 2\n",
)


@pytest.mark.parametrize("text", FULL_SHIFT_TEXTS, ids=["trim", "reduce"])
def test_full_window_shift_is_refused(text):
    """Shifts lie in 1..m-1: one of m would skip a symbol unread."""
    with pytest.raises(InputError, match=r"gamma shift at 'q\d' out of range 1\.\.1"):
        parse_qds(text)
    ok = parse_qds(text[:-2] + "1\n")
    (top, (target, _)), = ok.gamma.items()
    with pytest.raises(InputError, match=r"gamma shift at 'q\d' out of range 1\.\.1"):
        Qds(ok.alphabet, ok.layers, ok.initial, ok.finals, ok.delta, {top: (target, 2)})


def test_qds_refuses_repeated_alphabet_symbol():
    """As `Nfa` does: the tables give each symbol its own column."""
    with pytest.raises(InputError, match="duplicate alphabet symbols"):
        Qds(("a", "a"), (("p",), ("r",)), "p", {"r"}, {("p", "a"): "r"}, {"r": ("p", 1)})


def test_qds_validation_errors():
    def two_layers(**changes):
        fields = dict(alphabet=("a",), layers=(("p",), ("q",)), initial="p",
                      finals=frozenset(), delta={}, gamma={"q": ("p", 1)})
        return Qds(**{**fields, **changes})

    with pytest.raises(InputError, match="at least two layers"):
        Qds(("a",), (("p",),), "p", frozenset(), {}, {})
    with pytest.raises(InputError, match="'p' appears in two layers"):
        two_layers(layers=(("p",), ("p",)), gamma={"p": ("p", 1)})
    with pytest.raises(InputError, match="initial state must sit in layer 1"):
        two_layers(initial="q")
    with pytest.raises(InputError, match="final states not all declared"):
        two_layers(finals=frozenset({"r"}))
    with pytest.raises(InputError, match=r"delta edge \(p,a,r\) must advance exactly one layer"):
        Qds(
            ("a",),
            (("p",), ("q",), ("r",)),
            "p",
            frozenset(),
            {("p", "a"): "r"},
            {"r": ("p", 1)},
        )
    with pytest.raises(InputError, match="delta symbol 'b' not in alphabet"):
        two_layers(delta={("p", "b"): "q"})
    with pytest.raises(InputError, match=r"delta endpoint not declared: \(p,a,r\)"):
        two_layers(delta={("p", "a"): "r"})
    with pytest.raises(InputError, match="gamma must be defined on exactly the last layer"):
        two_layers(gamma={})
    with pytest.raises(InputError, match=r"gamma shift at 'q' out of range 1\.\.1"):
        two_layers(gamma={"q": ("p", 3)})
    with pytest.raises(InputError, match="gamma target of 'r' must sit in layer 1"):
        Qds(("a",), (("p",), ("q",), ("r",)), "p", frozenset(), {}, {"r": ("q", 1)})
    for bad in ("_", "a b", "\t", "", "@x", "@", "a#b", "#"):
        with pytest.raises(InputError, match=re.escape(f"bad state id {bad!r}")):
            two_layers(layers=(("p", bad), ("q",)))
        with pytest.raises(InputError, match=re.escape(f"bad symbol token {bad!r}")):
            two_layers(alphabet=("a", bad))


# --- the names read off the tables ---------------------------------------


@contextmanager
def constructions():
    """Every structure `Qds(...)` makes while active, with the name-keyed
    arguments it was given: (structure, initial, finals, delta, gamma)."""
    made = []
    init = Qds.__init__

    def recording(self, alphabet, layers, initial, finals, delta, gamma):
        finals, delta, gamma = frozenset(finals), dict(delta), dict(gamma)
        init(self, alphabet, layers, initial, finals, delta, gamma)
        made.append((self, initial, finals, delta, gamma))

    Qds.__init__ = recording
    try:
        yield made
    finally:
        Qds.__init__ = init


def assert_names_round_trip(made) -> None:
    """The names read off each structure's tables are the ones it was made
    from, and `delta` runs in (declared state, declared symbol) order."""
    assert made
    for s, initial, finals, delta, gamma in made:
        assert s.initial == initial
        assert s.finals == finals and type(s.finals) is frozenset
        assert s.delta == delta and s.gamma == gamma
        assert list(s.delta) == sorted(
            delta, key=lambda e: (s.states.index(e[0]), s.alphabet.index(e[1])))


def test_qds_stores_only_its_tables():
    assert [f.name for f in fields(Qds)] == ["alphabet", "layers", "tables"]


def test_names_round_trip_on_parsed_and_embedded_structures(
        three_state_dfa, window4_nfa, suffix_marker_nfa):
    texts = [path.read_text() for path in sorted(DATA.glob("*.qds"))]
    dfas = [three_state_dfa, determinize(window4_nfa), determinize(suffix_marker_nfa)]
    dfas += [minimize_dfa(determinize(parse_nfa(path.read_text())))
             for path in sorted(DATA.glob("*.nfa"))]
    dfas += [determinize(random_nfa(seed, 4, 2, 0.3, 0.4)) for seed in range(10)]
    with constructions() as made:
        for text in texts:
            parse_qds(text)
        for K in range(7):
            gen_sk_qds(K)
        for d in dfas:
            dfa_to_qds(d)
    assert len(made) == len(texts) + 7 + len(dfas)
    assert_names_round_trip(made)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_names_round_trip_on_generated_structures(data):
    """Bottom targets and shifts up to m-1 included."""
    with constructions() as made:
        data.draw(test_trim.structures())
    assert_names_round_trip(made)
