from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qds import (
    InputError,
    Qds,
    accessible_part,
    build_path_dfa,
    build_qds,
    determinize,
    dfa_to_qds,
    equiv_fixpoint,
    exists_kl,
    find_minimal_kl,
    gen_sk_qds,
    is_kl_unambiguous,
    prune_unreachable,
    qds_membership,
    quotient,
    random_nfa,
    trim,
    trim_qds,
)
from qds.cli import main
from qds.formats import parse_automaton, serialize_qds
from qds.trim import PathDfaState
from tests.reference_trim import (
    graph_useful,
    path_dfa_step,
    reference_path_dfa,
    reference_trim,
    reference_useful,
)
from tests.words import words_up_to

DATA = Path(__file__).resolve().parent.parent / "data"


def small_corpus(three_state_dfa, trim_demo_qds, dead_lane_qds, two_lane_qds):
    yield two_lane_qds
    yield trim_demo_qds
    yield dead_lane_qds
    yield dfa_to_qds(three_state_dfa)


# --- path-DFA construction ------------------------------------------------


def test_path_dfa_accessible_part(trim_demo_qds):
    pdfa = build_path_dfa(trim_demo_qds)
    got = {(p.base, p.u, p.v) for p in pdfa.states}
    assert got == {
        ("1", (), ()),
        ("2", ("a",), ()),
        ("3", ("a", "b"), ()),
        ("3", ("a", "c"), ()),
        ("4", (), ("b",)),
        ("4", (), ("c",)),
        ("5", ("b",), ("b",)),
        ("6", ("b", "b"), ("b",)),
    }
    finals = {(p.base, p.u, p.v) for p in pdfa.finals}
    assert finals == {("2", ("a",), ()), ("6", ("b", "b"), ("b",))}


def test_path_dfa_initial(two_lane_qds):
    pdfa = build_path_dfa(two_lane_qds)
    assert pdfa.initial == PathDfaState(two_lane_qds.initial, (), ())


def test_path_dfa_of_embedding_has_no_obligations(three_state_dfa):
    s = dfa_to_qds(three_state_dfa)
    pdfa = build_path_dfa(s)
    assert all(p.v == () for p in pdfa.states)


def test_path_dfa_shift_rule(trim_demo_qds):
    s = trim_demo_qds
    src = PathDfaState("3", ("a", "b"), ())
    assert path_dfa_step(s, src, 1) == PathDfaState("4", (), ("b",))
    assert path_dfa_step(s, src, 2) is None  # shift token must match gamma
    assert path_dfa_step(s, src, "a") is None  # top layer reads no symbols
    blocked = PathDfaState("4", (), ("c",))
    assert path_dfa_step(s, blocked, "b") is None  # obligation says c, not b


# --- usefulness -----------------------------------------------------------


def kept(s):
    """`trim_qds(s)` as (states, delta edges, gamma edges with a target,
    finals): what the path-DFA found useful."""
    t = trim_qds(s)
    return (set(t.states), {(p, x, q) for (p, x), q in t.delta.items()},
            {(p, shift, q) for p, (q, shift) in t.gamma.items() if q is not None},
            set(t.finals))


def test_useful_report_demo(trim_demo_qds):
    states, delta, gamma, finals = kept(trim_demo_qds)
    assert states == {"1", "2", "3", "4", "5", "6"}
    assert ("2", "c", "3") not in delta
    assert ("2", "b", "3") in delta
    assert "5" not in finals
    assert finals == {"2", "6"}
    assert gamma == {("3", 1, "4"), ("6", 1, "4")}


def test_useful_dead_lane(dead_lane_qds):
    states, delta, gamma, finals = kept(dead_lane_qds)
    assert states == {"1", "2"}
    assert delta == {("1", "a", "2")}
    assert finals == {"2"}
    assert gamma == set()


def test_useful_initial_always_kept():
    s = mk_trivial_reject()
    states, _, _, _ = kept(s)
    assert "p" in states


def mk_trivial_reject():
    from qds import Qds

    return Qds(
        alphabet=("a",),
        layers=(("p",), ("q",)),
        initial="p",
        finals=frozenset(),
        delta={("p", "a"): "q"},
        gamma={"q": (None, 1)},
    )


def test_useful_initial_finality_survives():
    from qds import Qds

    s = Qds(
        alphabet=("a",),
        layers=(("p",), ("q",)),
        initial="p",
        finals=frozenset({"p"}),
        delta={},
        gamma={"q": (None, 1)},
    )
    _, _, _, finals = kept(s)
    assert "p" in finals
    t = trim_qds(s)
    assert qds_membership(t, "").accepted


# --- trimming -------------------------------------------------------------


def test_trim_demo_matches_expected(trim_demo_qds):
    t = trim_qds(trim_demo_qds)
    assert set(t.states) == {"1", "2", "3", "4", "5", "6"}
    assert ("2", "c") not in t.delta
    assert t.finals == {"2", "6"}
    assert t.gamma == {"3": ("4", 1), "6": ("4", 1)}


def test_trim_dead_lane(dead_lane_qds):
    t = trim_qds(dead_lane_qds)
    assert set(t.states) == {"1", "2"}
    assert t.delta == {("1", "a"): "2"}
    assert t.finals == {"2"}


def test_trim_preserves_membership_and_idempotent(
    three_state_dfa, trim_demo_qds, dead_lane_qds, two_lane_qds
):
    for s in small_corpus(three_state_dfa, trim_demo_qds, dead_lane_qds, two_lane_qds):
        t = trim_qds(s)
        assert trim_qds(t) == t
        limit = 10 if len(s.alphabet) < 3 else 7
        for w in words_up_to(s.alphabet, limit):
            assert qds_membership(t, w).accepted == qds_membership(s, w).accepted


def test_trim_already_trim_is_identity(two_lane_qds):
    t = trim_qds(two_lane_qds)
    assert trim_qds(t) == t


# --- path-DFA soundness ----------------------------------------------------


def enumerate_paths(s, start, max_len):
    from tests.reference_structure import QdsEdge

    out_edges = {}
    for (p, x), q in s.delta.items():
        out_edges.setdefault(p, []).append(QdsEdge(p, x, q))
    for p, (target, shift) in s.gamma.items():
        if target is not None:
            out_edges.setdefault(p, []).append(QdsEdge(p, shift, target))
    stack = [(start, [])]
    while stack:
        node, path = stack.pop()
        if path:
            yield path
        if len(path) < max_len:
            for e in out_edges.get(node, ()):
                stack.append((e.dst, path + [e]))


def test_shiftable_iff_traceable_from_compatible_starts(
    three_state_dfa, trim_demo_qds, dead_lane_qds, two_lane_qds
):
    """A path from a layer-1 state is shiftable iff, from every start
    (p1, eps, v) with v a proper symbol prefix of the token word, the
    path-DFA traces the whole token word and ends with the obligation
    strictly discharged (v' a proper prefix of u')."""
    from tests.reference_structure import analyze_path
    from tests.reference_trim import _proper_prefix

    for s in small_corpus(three_state_dfa, trim_demo_qds, dead_lane_qds, two_lane_qds):
        for p1 in s.layers[0]:
            for path in enumerate_paths(s, p1, 6):
                tokens = [e.label for e in path]
                shiftable = analyze_path(s, path, start=p1).shiftable
                prefixes = []
                for n in range(min(len(tokens), s.m - 1) + 1):
                    v = tuple(tokens[:n])
                    if n < len(tokens) and all(isinstance(t, str) for t in v):
                        prefixes.append(v)
                traceable = True
                for v in prefixes:
                    state = PathDfaState(p1, (), v)
                    for tok in tokens:
                        state = path_dfa_step(s, state, tok)
                        if state is None:
                            traceable = False
                            break
                    if state is not None and not _proper_prefix(state.v, state.u):
                        traceable = False
                    if not traceable:
                        break
                assert shiftable == traceable, (s.initial, p1, tokens)


def test_successful_iff_path_dfa_accepts(
    three_state_dfa, trim_demo_qds, dead_lane_qds, two_lane_qds
):
    """w is accepted iff the run's token word (window symbols with shift
    tokens interleaved) drives the path-DFA into a final state; empty words
    are decided by the initial state's own finality."""
    for s in small_corpus(three_state_dfa, trim_demo_qds, dead_lane_qds, two_lane_qds):
        pdfa = build_path_dfa(s)
        limit = 9 if len(s.alphabet) < 3 else 6
        for w in words_up_to(s.alphabet, limit):
            if not w:
                continue
            r = qds_membership(s, w, want_trace=True)
            tokens = []
            if r.terminal is not None:
                for st in r.trace.steps:
                    tokens.extend(st.consumed)
                    if st.shift is not None:
                        tokens.append(st.shift)
            state = pdfa.initial
            for tok in tokens:
                state = path_dfa_step(s, state, tok) if state is not None else None
            accepted_by_pdfa = (
                r.terminal is not None and state is not None and state in pdfa.finals
            )
            assert accepted_by_pdfa == r.accepted, (w, tokens)


def test_every_noninitial_trimmed_state_on_successful_path(
    three_state_dfa, trim_demo_qds, dead_lane_qds, two_lane_qds
):
    for s in small_corpus(three_state_dfa, trim_demo_qds, dead_lane_qds, two_lane_qds):
        t = trim_qds(s)
        pdfa = build_path_dfa(t)
        reverse = {}
        for (src, tok), dst in pdfa.transitions.items():
            reverse.setdefault(dst, []).append(src)
        coacc = set(pdfa.finals)
        stack = list(pdfa.finals)
        while stack:
            q = stack.pop()
            for p in reverse.get(q, ()):
                if p not in coacc:
                    coacc.add(p)
                    stack.append(p)
        witnessed = {p.base for p in pdfa.states if p in coacc}
        for q in t.states:
            if q != t.initial:
                assert q in witnessed, (q, t)


# --- corpus-built structures ----------------------------------------------


def test_trim_random_built_structures():
    checked = 0
    for seed in range(40):
        a = accessible_part(random_nfa(seed, 1 + seed % 4, 1 + seed % 2, 0.3, 0.4))
        if not a.states:
            continue
        k_min = exists_kl(a).k_min
        if k_min is None or k_min > 3:
            continue
        s = prune_unreachable(build_qds(a, *find_minimal_kl(a)))
        t = trim_qds(s)
        assert trim_qds(t) == t
        for w in words_up_to(a.alphabet, 7):
            assert qds_membership(t, w).accepted == qds_membership(s, w).accepted
        checked += 1
    assert checked >= 10


# --- the integer walk against the reference -------------------------------


def built_corpus():
    """Random NFAs built at their minimal (k,l), one window above it as
    `compile` does, and at a larger l where the NFA allows it, so that
    shifts exceed 1."""
    for seed in range(300):
        a = accessible_part(random_nfa(seed, 2 + seed % 5, 1 + seed % 3, 0.3, 0.4))
        if not a.states or not 1 <= (exists_kl(a).k_min or 9) <= 4:
            continue
        k, l = find_minimal_kl(a)
        yield build_qds(a, k, l)
        yield build_qds(a, k + 1, l)
        for kk, ll in ((k, k), (k + 1, k + 1)):
            if ll > l and is_kl_unambiguous(a, kk, ll):
                yield build_qds(a, kk, ll)


def data_corpus():
    """The structures under data/, and those the NFAs there compile to."""
    for path in sorted(DATA.iterdir()):
        obj = parse_automaton(path.read_text())
        yield obj if isinstance(obj, Qds) else build_qds(obj, *find_minimal_kl(obj))


def assert_walk_is_reference(s):
    assert serialize_qds(trim_qds(s)) == serialize_qds(reference_trim(s))
    useful = reference_useful(s)
    assert kept(s) == (useful.useful_states, useful.useful_delta, useful.useful_gamma,
                       useful.useful_finalities)
    pdfa, ref = build_path_dfa(s), reference_path_dfa(s)
    assert tuple(pdfa.states) == ref.states and len(pdfa.states) == len(ref.states)
    assert pdfa.initial == ref.initial and pdfa.finals == ref.finals
    assert list(pdfa.transitions.items()) == list(ref.transitions.items())


def test_trim_is_reference_on_built_structures():
    shifts = set()
    for s in built_corpus():
        assert_walk_is_reference(s)
        shifts |= {shift for target, shift in s.gamma.values() if target is not None}
    assert max(shifts) >= 3


def test_trim_is_reference_on_data():
    for s in data_corpus():
        assert_walk_is_reference(s)


def test_graph_usefulness_then_trim_is_trim():
    """Graph usefulness reads no window, so it can keep states the exact
    trim drops; trimming what it keeps gives the exact trim on the built
    structures, data/ and S_0..S_5. It drops states on some of them, and
    trim drops more on some."""
    graph_dropped = trim_dropped = 0
    for s in [*built_corpus(), *data_corpus(), *map(gen_sk_qds, range(6))]:
        g = graph_useful(s)
        trimmed = trim_qds(g)
        assert trimmed == trim_qds(s)
        graph_dropped += len(g.states) < len(s.states)
        trim_dropped += len(trimmed.states) < len(g.states)
    assert graph_dropped and trim_dropped


def converging_corpus():
    """Structures where paths converge: `built_corpus` is a forest, no row
    with two delta in-edges, but its quotients are not. The quotients in
    the compile stage order, their re-trims, and the embeddings of the
    DFAs of random NFAs."""
    for s in built_corpus():
        trimmed = trim_qds(s)
        reduced = quotient(trimmed, equiv_fixpoint(trimmed))
        yield reduced
        yield trim_qds(reduced)
    for seed in range(40):
        a = accessible_part(random_nfa(seed, 2 + seed % 4, 1 + seed % 3, 0.35, 0.4))
        if a.states:
            yield dfa_to_qds(determinize(a))


def test_trim_is_reference_where_paths_converge():
    """The walk meets a node again along a second delta edge: trim, the
    node order and the edge order stay the reference's."""
    rows = nodes = 0
    for s in converging_corpus():
        assert_walk_is_reference(s)
        sink = len(s.tables.delta) - s.tables.width
        heads = [r for r in s.tables.delta if r != sink]
        rows += len(set(heads)) < len(heads)
        nodes += any(entry < len(s.tables.delta) for _, _, entry in build_path_dfa(s).cross)
    assert rows >= 100 and nodes >= 50


@st.composite
def structures(draw):
    """2-4 layers of 1-3 states over one or two symbols with a partial
    delta; gamma targets are layer-1 states or bottom, shifts 1..m-1, the
    range `Qds` admits."""
    m = draw(st.integers(2, 4))
    alphabet = ("a", "b")[: draw(st.integers(1, 2))]
    sizes = [draw(st.integers(1, 3)) for _ in range(m)]
    names = iter(f"q{i}" for i in range(sum(sizes)))
    layers = [tuple(next(names) for _ in range(size)) for size in sizes]
    delta = {(p, x): draw(st.sampled_from(nxt))
             for layer, nxt in zip(layers, layers[1:])
             for p in layer for x in alphabet if draw(st.booleans())}
    gamma = {p: (draw(st.sampled_from(layers[0] + (None,))), draw(st.integers(1, m - 1)))
             for p in layers[-1]}
    finals = draw(st.sets(st.sampled_from(sum(layers, ()))))
    return Qds(alphabet, layers, layers[0][0], finals, delta, gamma)


@settings(max_examples=300, deadline=None)
@given(structures())
def test_trim_is_reference_on_generated_structures(s):
    assert_walk_is_reference(s)


@settings(max_examples=300, deadline=None)
@given(structures())
def test_stages_preserve_the_language_on_generated_structures(s):
    """Prune, trim, the fixpoint quotient and trim then reduce each accept
    exactly the words `s` accepts, every word up to length 7."""
    trimmed = trim_qds(s)
    stages = [prune_unreachable(s), trimmed, quotient(s, equiv_fixpoint(s)),
              quotient(trimmed, equiv_fixpoint(trimmed))]
    for w in words_up_to(s.alphabet, 7):
        want = qds_membership(s, w).accepted
        assert [qds_membership(t, w).accepted for t in stages] == [want] * 4, w


def test_integer_transitions_are_path_dfa_step():
    """At every node, each of the |alphabet| + m tokens goes where
    `path_dfa_step` says, the ones the walk does not try included."""
    for s in [*data_corpus(), *built_corpus()]:
        pdfa = build_path_dfa(s)
        moves = pdfa.transitions
        tokens = (*s.alphabet, *range(1, s.m + 1))
        for p in pdfa.states:
            for tok in tokens:
                assert moves.get((p, tok)) == path_dfa_step(s, p, tok), (p, tok)


@pytest.mark.parametrize("command", [["pathdfa"], ["pathdfa", "--dot"], ["trim", "--report"]])
def test_cli_output_is_reference(tmp_path, monkeypatch, capsys, command):
    """`qds pathdfa` and `qds trim --report` print the same bytes as with
    the reference construction patched in, where paths converge too."""
    for i, s in enumerate([*data_corpus(), *islice(converging_corpus(), 0, None, 7)]):
        path = tmp_path / f"{i}.qds"
        path.write_text(serialize_qds(s))
        assert main(command + [str(path)]) == 0
        got = capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(trim, "build_path_dfa", reference_path_dfa)
            patch.setattr(trim, "trim_qds", reference_trim)
            assert main(command + [str(path)]) == 0
        assert capsys.readouterr() == got


def test_path_dfa_built_once(tmp_path, monkeypatch, capsys, trim_demo_qds):
    """`trim_qds` and `qds trim --report` build the path-DFA once, through
    the module attribute a tracer wraps."""
    calls = []
    inner = trim.build_path_dfa
    monkeypatch.setattr(trim, "build_path_dfa", lambda s: calls.append(s) or inner(s))
    trim_qds(trim_demo_qds)
    assert len(calls) == 1
    path = tmp_path / "t.qds"
    path.write_text(serialize_qds(trim_demo_qds))
    assert main(["trim", "--report", str(path)]) == 0
    assert len(calls) == 2
    assert "finality\t5" in capsys.readouterr().err  # the report goes beside stdout


def test_path_dfa_size_budget(tmp_path, monkeypatch, capsys, trim_demo_qds):
    """Each path-DFA state counts m cells. The demo's path-DFA has 8 states
    of m = 3, so a budget of 24 cells lets it through and 23 refuse it;
    `trim` and `pathdfa` then exit 2 with one error line."""
    path = tmp_path / "t.qds"
    path.write_text(serialize_qds(trim_demo_qds))
    monkeypatch.setattr(trim, "SIZE_BUDGET", 8 * 3)
    assert len(build_path_dfa(trim_demo_qds).states) == 8
    assert main(["pathdfa", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(trim, "SIZE_BUDGET", 8 * 3 - 1)
    with pytest.raises(InputError, match=r"states\*m = 8\*3 cells is over the size budget 23"):
        build_path_dfa(trim_demo_qds)
    for command in (["trim"], ["trim", "--report"], ["pathdfa"]):
        assert main(command + [str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "size budget" in err
        assert err.count("\n") == 1
