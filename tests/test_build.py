import tracemalloc

import pytest

from qds import (
    InputError,
    PreconditionError,
    build_qds,
    dfa_to_qds,
    determinize,
    nfa_membership,
    prune_unreachable,
    qds_membership,
    random_nfa,
    step_table,
)
from qds.cli import main
from qds.formats import parse_nfa, serialize_nfa, serialize_qds
from qds.nfa import closure
from qds.words import words_of_length
from tests.conftest import mk_nfa, window_cases
from tests.reference_build import reference_build
from tests.words import words_up_to


@pytest.fixture
def suffix_qds(suffix_marker_nfa):
    return build_qds(suffix_marker_nfa, 3, 3)


def sources(a, k, l):
    """The initial state and every step successor reachable from it."""
    rows = [(q, w) for q in a.states for w in words_of_length(a.alphabet, k)]
    arcs = [(q, a.states[t]) for (q, _), (_, t) in zip(rows, step_table(a, k, l).entries)
            if t >= 0]
    return closure(a.initials, arcs)


def test_size_formula(suffix_marker_nfa, suffix_qds):
    """Every step successor of Sigma* a Sigma is state 1, the initial, so
    the build is one tree of 2^4 - 1 pairs; over all three states the
    construction has three."""
    assert sources(suffix_marker_nfa, 3, 3) == {"1"}
    assert len(suffix_qds.states) == 1 * (2**4 - 1) // (2 - 1) == 15
    assert len(reference_build(suffix_marker_nfa, 3, 3).states) == 3 * 15 == 45
    assert suffix_qds.m == 4


def test_size_formula_unary():
    a = mk_nfa("a", ["0", "1", "2"], ["0"], ["1"],
               [("0", "a", "1"), ("1", "a", "1"), ("2", "a", "1")])
    s = build_qds(a, 2, 2)
    assert sources(a, 2, 2) == {"0", "1"}
    assert len(s.states) == 2 * (2 + 1)  # |R| * (k+1) on a one-letter alphabet
    assert len(reference_build(a, 2, 2).states) == 3 * (2 + 1)  # |Q| * (k+1)


def test_size_formula_random_instances():
    from qds import accessible_part, exists_kl, find_minimal_kl

    built = 0
    for seed in range(30):
        a = accessible_part(random_nfa(seed, 1 + seed % 4, 1 + seed % 2, 0.3, 0.4))
        if not a.states:
            continue
        k_min = exists_kl(a).k_min
        if k_min is None or k_min > 4:
            continue
        k, l = find_minimal_kl(a)
        s = build_qds(a, k, l)
        sigma = len(a.alphabet)
        tree = k + 1 if sigma == 1 else (sigma ** (k + 1) - 1) // (sigma - 1)
        assert len(s.states) == len(sources(a, k, l)) * tree
        assert len(reference_build(a, k, l).states) == len(a.states) * tree
        built += 1
    assert built >= 8


def test_build_is_pruned_reference_build():
    """The reachable build prints byte for byte as the pruned construction
    over every state, fails with the same error where that fails, and
    pruning leaves it as it is."""
    built = 0
    for a, k, l in window_cases(600):
        try:
            want = serialize_qds(prune_unreachable(reference_build(a, k, l)))
        except PreconditionError as exc:
            with pytest.raises(PreconditionError) as err:
                build_qds(a, k, l)
            assert str(err.value) == str(exc)
            continue
        s = build_qds(a, k, l)
        assert serialize_qds(s) == want, (a, k, l)
        assert prune_unreachable(s) == s
        built += 1
    assert built >= 300


def test_prune_matches_figure(suffix_qds):
    pruned = prune_unreachable(suffix_qds)
    assert len(pruned.states) == 15
    assert all(q.startswith("1|") for q in pruned.states)
    shifts = [pruned.gamma[f"1|{w}"][1] for w in
              ("aaa", "aab", "aba", "abb", "baa", "bab", "bba", "bbb")]
    assert shifts == [1, 1, 2, 3, 1, 1, 2, 3]
    assert all(t == "1|_" for t, _ in pruned.gamma.values())
    finals = {q for q in pruned.states if q in pruned.finals}
    assert finals == {"1|aa", "1|ab", "1|aaa", "1|aab", "1|baa", "1|bab"}


def test_language_preserved(suffix_marker_nfa, suffix_qds):
    pruned = prune_unreachable(suffix_qds)
    for w in words_up_to("ab", 8):
        want = nfa_membership(suffix_marker_nfa, w)
        assert qds_membership(suffix_qds, w).accepted == want
        assert qds_membership(pruned, w).accepted == want


def test_build_fails_fast_with_witness():
    bad = mk_nfa(
        "a",
        ["0", "1", "2"],
        ["0"],
        ["1"],
        [("0", "a", "1"), ("0", "a", "2"), ("1", "a", "1"), ("2", "a", "2")],
    )
    with pytest.raises(PreconditionError) as err:
        build_qds(bad, 2, 2)
    assert "0" in str(err.value)  # names the offending state


def test_build_rejects_stale_table(suffix_marker_nfa):
    table = step_table(suffix_marker_nfa, 3, 3)
    with pytest.raises(PreconditionError):
        build_qds(suffix_marker_nfa, 3, 1, table=table)


def test_build_rejects_table_of_another_automaton(three_state_dfa):
    """A table with the right (k,l) but not |Q|*|alphabet|^k rows is
    refused before any row is read."""
    two = mk_nfa("ab", ["0", "1"], ["0"], ["1"], [("0", "a", "1")])
    for a, b in ((two, three_state_dfa), (three_state_dfa, two)):
        with pytest.raises(PreconditionError, match="rows"):
            build_qds(a, 1, 1, step_table(b, 1, 1))


def test_build_dfa_small_window(three_state_dfa):
    s = build_qds(three_state_dfa, 1, 1)
    for w in words_up_to("ab", 6):
        assert qds_membership(s, w).accepted == nfa_membership(three_state_dfa, w)


def test_build_wide_alphabet_long_random_words():
    import random

    from qds import accessible_part, determinize, random_nfa

    d = determinize(accessible_part(random_nfa(11, 3, 3, 0.4, 0.5)))
    s = build_qds(d, 1, 1)
    rng = random.Random(2)
    for _ in range(200):
        w = tuple(rng.choice(d.alphabet) for _ in range(rng.randrange(0, 101)))
        assert qds_membership(s, w).accepted == nfa_membership(d, w)


def test_prune_is_identity_when_reachable(two_lane_qds, suffix_qds):
    assert prune_unreachable(two_lane_qds) == two_lane_qds
    pruned = prune_unreachable(suffix_qds)
    assert prune_unreachable(pruned) == pruned


def test_prune_drops_layers_beyond_dead_gamma():
    from qds import Qds

    s = Qds(
        alphabet=("a",),
        layers=(("p",), ("q",), ("r",)),
        initial="p",
        finals=frozenset({"q"}),
        delta={("p", "a"): "q"},  # r is never reached
        gamma={"r": ("p", 1)},
    )
    pruned = prune_unreachable(s)
    assert pruned.m == 2
    assert pruned.gamma == {"q": (None, 1)}
    for w in words_up_to("a", 6):
        assert qds_membership(pruned, w).accepted == qds_membership(s, w).accepted


def test_dfa_embedding_matches_printed_structure(three_state_dfa):
    s = dfa_to_qds(three_state_dfa)
    assert len(s.states) == 6
    assert [len(layer) for layer in s.layers] == [3, 3]
    assert s.initial == "1.1"
    assert s.finals == {"1.1", "1.2", "3.1", "3.2"}
    assert s.delta == {
        ("1.1", "a"): "2.2",
        ("2.1", "a"): "2.2",
        ("2.1", "b"): "3.2",
        ("3.1", "b"): "2.2",
    }
    assert s.gamma == {"1.2": ("1.1", 1), "2.2": ("2.1", 1), "3.2": ("3.1", 1)}


def test_dfa_embedding_trivial_loop():
    d = mk_nfa("a", ["0"], ["0"], ["0"], [("0", "a", "0")])
    s = dfa_to_qds(d)
    assert len(s.states) == 2
    for w in words_up_to("a", 8):
        assert qds_membership(s, w).accepted


def test_dfa_embedding_rejects_nondeterministic(suffix_marker_nfa):
    with pytest.raises(PreconditionError):
        dfa_to_qds(suffix_marker_nfa)


def test_dfa_embedding_random_agreement():
    for seed in range(40):
        d = determinize(random_nfa(seed, 1 + seed % 4, 1 + seed % 2, 0.35, 0.4))
        s = dfa_to_qds(d)
        for w in words_up_to(d.alphabet, 8 if len(d.alphabet) < 2 else 7):
            assert qds_membership(s, w).accepted == nfa_membership(d, w)


def test_build_respects_declared_word_order(suffix_qds):
    layer2 = [q for q in suffix_qds.layers[1] if q.startswith("1|")]
    assert layer2 == ["1|a", "1|b"]
    layer3 = [q for q in suffix_qds.layers[2] if q.startswith("1|")]
    assert layer3 == ["1|aa", "1|ab", "1|ba", "1|bb"]


COLLIDING_PAIRS = """@type nfa
@alphabet b a|b
@states x x|a
@initial x
@final x|a
x a|b x|a
x b x
x|a b x|a
"""


def test_build_refuses_colliding_pair_names():
    """(x, a|b) and (x|a, b) both print as x|a|b, in the same layer; the
    build names both pairs instead of a misleading layer error."""
    a = parse_nfa(COLLIDING_PAIRS)
    with pytest.raises(InputError) as err:
        build_qds(a, 1, 1)
    assert str(err.value) == ("pairs ('x', ('a|b',)) and ('x|a', ('b',)) "
                              "are both named x|a|b")


def test_build_counts_the_characters_of_its_names(monkeypatch):
    """A name holds its whole word, so on one letter the names spell about
    |R|*k^2/2 characters while the step table has |R|*k cells. They are
    counted exactly, before any is spelled: a budget of the exact count
    lets the build through and one less refuses it."""
    from qds import build

    mixed = mk_nfa(["a", "bc"], ["0", "long"], ["0"], ["long"],
                   [("0", "a", "long"), ("0", "bc", "0"), ("long", "a", "0")])
    s = build_qds(mixed, 3, 1)
    chars = sum(map(len, s.states))
    monkeypatch.setattr(build, "SIZE_BUDGET", chars)
    assert build_qds(mixed, 3, 1) == s
    monkeypatch.setattr(build, "SIZE_BUDGET", chars - 1)
    with pytest.raises(InputError, match=f"spell {chars} characters, over the size budget"):
        build_qds(mixed, 3, 1)


def test_build_refuses_long_names_in_bounded_memory(tmp_path, capsys):
    """Two sources at k = 6,000 would spell 36 M characters: refused with
    one error line, and the refusal stays small."""
    unary = mk_nfa("a", ["0", "1"], ["0"], ["1"], [("0", "a", "1"), ("1", "a", "0")])
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="spell 36030006 characters, over the size budget"):
            build_qds(unary, 6000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    path = tmp_path / "unary.nfa"
    path.write_text(serialize_nfa(unary))
    assert main(["build-qds", "--k", "6000", "--l", "1", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
