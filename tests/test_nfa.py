import re

import pytest

from qds import (
    Dfa,
    InputError,
    accessible_part,
    delta_word,
    determinize,
    minimize_dfa,
    nfa_membership,
    random_nfa,
)
from qds.nfa import Nfa, _restrict, accessible_states, coaccessible_states
from tests.conftest import mk_nfa
from tests.reference_reduction import reference_minimize
from tests.words import words_up_to


def trim_nfa(a: Nfa) -> Nfa:
    """Sub-automaton of accessible-and-coaccessible states; language
    unchanged, idempotent; may be empty."""
    return _restrict(a, accessible_states(a) & coaccessible_states(a))


def test_delta_word_fork(window4_nfa):
    assert delta_word(window4_nfa, {"0"}, "a") == {"1", "2"}


def test_delta_word_identity_on_empty(window4_nfa, suffix_marker_nfa):
    for a in (window4_nfa, suffix_marker_nfa):
        for q in a.states:
            assert delta_word(a, {q}, "") == {q}


def test_delta_word_two_steps(suffix_marker_nfa):
    assert delta_word(suffix_marker_nfa, {"1"}, "aa") == {"1", "2", "3"}


def test_delta_word_unknown_symbol(suffix_marker_nfa):
    with pytest.raises(InputError):
        delta_word(suffix_marker_nfa, {"1"}, "ax")
    # an empty result is a value, not an error
    assert delta_word(suffix_marker_nfa, {"3"}, "a") == frozenset()


def test_delta_word_splits(suffix_marker_nfa, window4_nfa):
    for a in (suffix_marker_nfa, window4_nfa):
        for w in words_up_to(a.alphabet, 4):
            whole = delta_word(a, a.initials, w)
            for cut in range(len(w) + 1):
                via = delta_word(a, delta_word(a, a.initials, w[:cut]), w[cut:])
                assert via == whole


def test_membership_examples(suffix_marker_nfa):
    assert not nfa_membership(suffix_marker_nfa, "ba")
    assert nfa_membership(suffix_marker_nfa, "ab")
    assert not nfa_membership(suffix_marker_nfa, "")


def test_trim_idempotent_and_removals():
    a = mk_nfa(
        "ab",
        ["0", "1", "dead", "unreachable"],
        ["0"],
        ["1", "unreachable"],
        [("0", "a", "1"), ("0", "b", "dead"), ("dead", "a", "dead")],
    )
    t = trim_nfa(a)
    assert set(t.states) == {"0", "1"}
    assert trim_nfa(t) == t
    for w in words_up_to("ab", 5):
        assert nfa_membership(a, w) == nfa_membership(t, w)


def test_trim_can_empty():
    a = mk_nfa("a", ["0"], ["0"], [], [("0", "a", "0")])
    t = trim_nfa(a)
    assert t.states == ()


def test_accessible_part():
    a = mk_nfa("a", ["0", "1", "2"], ["0"], ["2"], [("0", "a", "1")])
    assert set(accessible_part(a).states) == {"0", "1"}


def test_determinize_subsets(suffix_marker_nfa):
    d = determinize(suffix_marker_nfa)
    assert set(d.states) == {"{1}", "{1,2}", "{1,2,3}", "{1,3}"}
    assert d.is_deterministic
    for w in words_up_to("ab", 8):
        assert nfa_membership(d, w) == nfa_membership(suffix_marker_nfa, w)


def test_determinize_deterministic_input_is_isomorphic(three_state_dfa):
    d = determinize(three_state_dfa)
    assert len(d.states) == len(three_state_dfa.states)
    for w in words_up_to("ab", 6):
        assert nfa_membership(d, w) == nfa_membership(three_state_dfa, w)


def test_minimize_merges_equivalent_states():
    d = Dfa(
        alphabet=("a",),
        states=("0", "1"),
        initials=frozenset({"0"}),
        finals=frozenset({"0", "1"}),
        transitions=(("0", "a", "1"), ("1", "a", "0")),
    )
    assert len(minimize_dfa(d).states) == 1


def test_minimize_keeps_minimal(three_state_dfa):
    m = minimize_dfa(three_state_dfa)
    assert len(m.states) == len(three_state_dfa.states)
    for w in words_up_to("ab", 8):
        assert nfa_membership(m, w) == nfa_membership(three_state_dfa, w)


def test_minimize_empty_language_single_state():
    d = Dfa(
        alphabet=("a",),
        states=("0", "1"),
        initials=frozenset({"0"}),
        finals=frozenset(),
        transitions=(("0", "a", "1"),),
    )
    m = minimize_dfa(d)
    assert len(m.states) == 1 and not m.finals


def test_minimize_distinguishes_right_languages():
    # no two surviving states accept the same word set, enumerating words up
    # to 2|Q|; instances kept small so the enumeration stays tractable
    checked = 0
    for seed in range(20):
        a = random_nfa(seed, 3, 2, 0.3, 0.4)
        m = minimize_dfa(determinize(a))
        if len(m.states) > 5:
            continue
        checked += 1
        langs = []
        for q in m.states:
            lang = frozenset(
                w
                for w in words_up_to(m.alphabet, 2 * len(m.states))
                if delta_word(m, {q}, w) & m.finals
            )
            langs.append(lang)
        assert len(langs) == len(set(langs))
    assert checked >= 10


def test_determinize_refuses_colliding_subset_names():
    # {1,2} names both the subset of 1 and 2 and the singleton of `1,2`
    a = mk_nfa("ab", ["0", "1", "2", "1,2"], ["0"], ["1"],
               [("0", "a", "1"), ("0", "a", "2"), ("0", "b", "1,2")])
    message = r"\['1', '2'\] and \['1,2'\] are both named \{1,2\}"
    with pytest.raises(InputError, match=message):
        determinize(a)


def _renamed(d: Dfa, names) -> Dfa:
    name = dict(zip(d.states, names))
    return Dfa(d.alphabet, [name[q] for q in d.states],
               {name[q] for q in d.initials}, {name[q] for q in d.finals},
               [(name[p], x, name[q]) for p, x, q in d.transitions])


def test_minimize_equals_reference():
    """Names, state order and transitions match the sink-completed Moore
    refinement, also where states are named like its sink."""
    dead = sinks = 0
    for seed in range(1200):
        a = random_nfa(seed, 1 + seed % 7, 1 + seed % 3, (0.1, 0.25, 0.4)[seed % 3],
                       (0.05, 0.2, 0.4)[seed // 3 % 3])
        d = determinize(a)
        if seed % 4 == 0:
            d = _renamed(d, ["sink" + "!" * i for i in range(len(d.states))])
            sinks += 1
        want = reference_minimize(d)
        assert minimize_dfa(d) == want, seed
        dead += not want.finals
    assert sinks == 300 and 50 <= dead <= 1000


def test_random_nfa_reproducible():
    assert random_nfa(7, 4, 2, 0.5, 0.5) == random_nfa(7, 4, 2, 0.5, 0.5)
    assert random_nfa(7, 4, 2, 0.5, 0.5) != random_nfa(8, 4, 2, 0.5, 0.5)


def test_random_nfa_density_bounds():
    assert random_nfa(1, 3, 2, 0.0, 0.5).transitions == ()
    assert len(random_nfa(1, 3, 2, 1.0, 0.5).transitions) == 9 * 2


def test_random_nfa_validation():
    with pytest.raises(InputError):
        random_nfa(0, 0, 1, 0.5, 0.5)
    with pytest.raises(InputError):
        random_nfa(0, 1, 0, 0.5, 0.5)


def test_pipeline_preserves_membership_on_random_corpus():
    for seed in range(25):
        a = random_nfa(seed, 1 + seed % 6, 1 + seed % 3, 0.25, 0.4)
        d = determinize(a)
        t = trim_nfa(a)
        m = minimize_dfa(d)
        for w in words_up_to(a.alphabet, 8 if len(a.alphabet) < 3 else 5):
            want = nfa_membership(a, w)
            assert nfa_membership(d, w) == want
            assert nfa_membership(t, w) == want
            assert nfa_membership(m, w) == want


def test_nfa_validation_errors():
    with pytest.raises(InputError):
        mk_nfa("ab", ["0", "0"], ["0"], [], [])
    with pytest.raises(InputError):
        mk_nfa("ab", ["0"], ["1"], [], [])
    with pytest.raises(InputError):
        mk_nfa("ab", ["0"], ["0"], [], [("0", "c", "0")])
    with pytest.raises(InputError):
        mk_nfa("ab", ["_"], ["_"], [], [])
    # tokens the text formats would read as a directive or a comment
    for bad in ("@x", "a#b"):
        with pytest.raises(InputError, match=re.escape(f"bad state id {bad!r}")):
            mk_nfa("a", [bad], [bad], [bad], [(bad, "a", bad)])
        with pytest.raises(InputError, match=re.escape(f"bad symbol token {bad!r}")):
            mk_nfa(["a", bad], ["0"], ["0"], [], [])
    with pytest.raises(InputError):
        Dfa(("a",), ("0", "1"), frozenset({"0", "1"}), frozenset(), ())
    with pytest.raises(InputError):
        Dfa(
            ("a",),
            ("0", "1"),
            frozenset({"0"}),
            frozenset(),
            (("0", "a", "0"), ("0", "a", "1")),
        )
