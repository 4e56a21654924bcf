import random
from functools import lru_cache
from pathlib import Path

import pytest

from qds import (
    InputError,
    PreconditionError,
    QdsError,
    accessible_part,
    exists_kl,
    find_minimal_kl,
    gen_lk_nfa,
    is_k_lookahead_deterministic,
    is_kl_unambiguous,
    kl_witness,
    random_nfa,
    square_automaton,
    step,
    step_table,
)
from qds import StepEntry, kernels, kl
from qds.formats import parse_nfa
from qds.kernels import _python_witness
from qds.words import words_of_length
from tests.conftest import mk_nfa, window_cases
from tests.enumeration import scan_witness
from tests.reference_kl import reference_exists, reference_square


@pytest.fixture
def ambiguous_loop_nfa():
    """Two forever-indistinguishable a-loops: no window ever helps."""
    return mk_nfa(
        "a",
        ["0", "1", "2"],
        ["0"],
        ["1"],
        [("0", "a", "1"), ("0", "a", "2"), ("1", "a", "1"), ("2", "a", "2")],
    )


def corpus(n_items, max_states=4, max_syms=2):
    for seed in range(n_items):
        a = accessible_part(
            random_nfa(
                seed,
                1 + seed % max_states,
                1 + seed % max_syms,
                (0.1, 0.2, 0.35, 0.5, 0.75)[seed % 5],
                0.4,
            )
        )
        if a.states:
            yield a


# --- square automaton ---------------------------------------------------


def test_square_deterministic_only_diagonal(three_state_dfa):
    sq = square_automaton(three_state_dfa)
    assert all(p.first == p.second for p in sq.states)


def test_square_contains_fork_pair(suffix_marker_nfa):
    sq = square_automaton(suffix_marker_nfa)
    names = {(p.first, p.second) for p in sq.states}
    assert ("1", "2") in names or ("2", "1") in names


def test_square_no_transitions():
    a = mk_nfa("a", ["0"], ["0"], [], [])
    sq = square_automaton(a)
    assert len(sq.states) == 1 and not sq.transitions


def test_square_follows_product_rule(window4_nfa):
    sq = square_automaton(window4_nfa)
    for src, sym, dst in sq.transitions:
        assert dst.first in window4_nfa.successors(src.first, sym)
        assert dst.second in window4_nfa.successors(src.second, sym)


def test_square_rejects_multiple_initials():
    a = mk_nfa("a", ["0", "1"], ["0", "1"], [], [])
    with pytest.raises(PreconditionError):
        square_automaton(a)


# --- existence ----------------------------------------------------------


def test_exists_on_window4(window4_nfa):
    report = exists_kl(window4_nfa)
    assert report.exists and report.k_min == 4


def test_exists_on_deterministic(three_state_dfa):
    report = exists_kl(three_state_dfa)
    assert report.exists and report.k_min == 1


def test_exists_counterexample_certificate(ambiguous_loop_nfa):
    report = exists_kl(ambiguous_loop_nfa)
    assert not report.exists and report.k_min is None
    cycle = report.certificate
    assert cycle and all(p.first != p.second for p in cycle)
    # the certificate replays under the product rule, closing the loop
    a = ambiguous_loop_nfa
    closed = list(cycle) + [cycle[0]]
    for src, dst in zip(closed, closed[1:]):
        assert any(
            dst.first in a.successors(src.first, sym)
            and dst.second in a.successors(src.second, sym)
            for sym in a.alphabet
        )


def _relabelled(a, seed):
    """`a` with names whose printed order differs from the declared one:
    multi-character names, commas and brackets in names, quotes in
    symbols."""
    rng = random.Random(seed)
    names = {q: rng.choice(["x", "q(", "a,b", "10"]) + q for q in a.states}
    syms = {x: rng.choice(["a", "it's", "b2"]) + str(i) for i, x in enumerate(a.alphabet)}
    return mk_nfa([syms[x] for x in a.alphabet], [names[q] for q in a.states],
                  [names[q] for q in a.initials], [names[q] for q in a.finals],
                  [(names[p], syms[x], names[q]) for p, x, q in a.transitions])


def _square_corpus():
    """Seeded accessible NFAs with 1-9 states over 1-3 symbols, each
    followed by a relabelling."""
    for seed in range(300):
        a = accessible_part(random_nfa(seed, 1 + seed % 9, 1 + seed % 3,
                                       (0.1, 0.2, 0.35)[seed % 3], 0.5))
        yield a
        yield _relabelled(a, seed)


def test_exists_matches_square_automaton():
    """Same verdict, k_min and certificate, pair for pair, as the name-keyed
    product and search of `tests/reference_kl.py`, on seeded NFAs and on
    relabellings whose printed order differs from the declared one."""
    for a in _square_corpus():
        assert exists_kl(a) == reference_exists(a)


def test_square_automaton_matches_reference():
    """The pair-id graph lifted to names is the name-keyed product, pairs
    and transitions, on the seeded NFAs and their relabellings and on an
    empty alphabet; several initial states are refused with one message."""
    for a in _square_corpus():
        assert square_automaton(a) == reference_square(a)
    bare = mk_nfa("", ["0", "1"], ["0"], ["1"], [])
    assert square_automaton(bare) == reference_square(bare)
    assert square_automaton(bare).states == {kl.PairState("0", "0")}
    multi = mk_nfa("a", ["0", "1"], ["0", "1"], [], [("0", "a", "1")])
    errors = []
    for construct in (square_automaton, reference_square):
        with pytest.raises(PreconditionError) as info:
            construct(multi)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def test_exists_requires_accessible():
    """The unreachable states are named in sorted order; several initial
    states are refused first."""
    a = mk_nfa("a", ["0", "2", "1"], ["0"], [], [("1", "a", "2")])
    with pytest.raises(PreconditionError, match=r"unreachable: \['1', '2'\]\)"):
        exists_kl(a)
    multi = mk_nfa("a", ["0", "1", "2"], ["0", "1"], [], [])
    with pytest.raises(PreconditionError, match="single initial state"):
        exists_kl(multi)


# --- the (k,l) check ----------------------------------------------------


def test_window4_checks(window4_nfa):
    assert not is_kl_unambiguous(window4_nfa, 3, 3)
    assert not is_kl_unambiguous(window4_nfa, 4, 2)
    assert is_kl_unambiguous(window4_nfa, 4, 3)
    assert is_kl_unambiguous(window4_nfa, 4, 4)


def test_suffix_marker_is_3_1(suffix_marker_nfa):
    assert is_kl_unambiguous(suffix_marker_nfa, 3, 1)


def test_witness_row_is_genuine(window4_nfa):
    from qds import delta_word

    q, w = kl_witness(window4_nfa, 3, 3)
    for i in range(1, 4):
        live = {
            r
            for r in delta_word(window4_nfa, {q}, w[:i])
            if delta_word(window4_nfa, {r}, w[i:])
        }
        assert len(live) >= 2


def test_kl_parameter_validation(suffix_marker_nfa):
    with pytest.raises(PreconditionError):
        is_kl_unambiguous(suffix_marker_nfa, 2, 3)
    with pytest.raises(PreconditionError):
        is_kl_unambiguous(suffix_marker_nfa, 2, 0)
    multi = mk_nfa("a", ["0", "1"], ["0", "1"], [], [])
    with pytest.raises(PreconditionError):
        is_kl_unambiguous(multi, 1, 1)


def test_monotone_in_l_on_corpus():
    for a in corpus(40):
        for k in (1, 2, 3):
            for l in range(1, k):
                if is_kl_unambiguous(a, k, l):
                    assert is_kl_unambiguous(a, k, l + 1)


def test_deterministic_is_1_1(three_state_dfa):
    assert is_kl_unambiguous(three_state_dfa, 1, 1)


# --- lookahead ----------------------------------------------------------


def test_lookahead_examples(suffix_marker_nfa, window4_nfa, three_state_dfa):
    assert is_k_lookahead_deterministic(suffix_marker_nfa, 3)
    assert is_k_lookahead_deterministic(three_state_dfa, 1)
    for k in range(1, 9):
        assert not is_k_lookahead_deterministic(window4_nfa, k)


def lookahead_by_futures(a, k):
    """k-lookahead determinism off its definition: two out-transitions of a
    state toward distinct targets have disjoint symbol-prefixed
    length-(k-1) futures."""

    @lru_cache(maxsize=None)
    def futures(q, d):
        if d == 0:
            return frozenset({()})
        return frozenset(
            (sym,) + rest
            for sym in a.alphabet
            for nxt in a.successors(q, sym)
            for rest in futures(nxt, d - 1)
        )

    for p in a.states:
        for sym in a.alphabet:
            targets = sorted(a.successors(p, sym))
            for i, q1 in enumerate(targets):
                for q2 in targets[i + 1:]:
                    if futures(q1, k - 1) & futures(q2, k - 1):
                        return False
    return True


def test_lookahead_equivalent_to_k1_on_corpus():
    for a in corpus(40):
        for k in range(1, 5):
            assert is_k_lookahead_deterministic(a, k) == lookahead_by_futures(a, k)
            assert is_k_lookahead_deterministic(a, k) == is_kl_unambiguous(a, k, 1)


# --- step tables --------------------------------------------------------


def test_step_values(suffix_marker_nfa):
    assert step(suffix_marker_nfa, 3, 3, "1", "baa") == StepEntry(1, "1")
    assert step(suffix_marker_nfa, 3, 3, "1", "aba").index == 2
    assert step(suffix_marker_nfa, 3, 3, "1", "bbb").index == 3
    for w in words_of_length("ab", 3):
        e = step(suffix_marker_nfa, 3, 1, "1", w)
        assert (e.index, e.successor) == (1, "1")


def test_step_errors(suffix_marker_nfa, ambiguous_loop_nfa):
    with pytest.raises(InputError):
        step(suffix_marker_nfa, 3, 3, "1", "ab")
    with pytest.raises(PreconditionError):
        step(ambiguous_loop_nfa, 2, 2, "0", "aa")


def test_step_table_shape(suffix_marker_nfa, three_state_dfa):
    t = step_table(suffix_marker_nfa, 3, 3)
    assert len(t.entries) == 3 * 8
    one = suffix_marker_nfa.states.index("1")
    assert all(succ in (one, -1) for _, succ in t.entries)
    t1 = step_table(three_state_dfa, 1, 1)
    assert len(t1.entries) == 3 * 2
    rows = [(q, w) for q in three_state_dfa.states for w in words_of_length("ab", 1)]
    for (q, w), (j, succ) in zip(rows, t1.entries, strict=True):
        name = None if succ < 0 else three_state_dfa.states[succ]
        assert StepEntry(j, name) == StepEntry(1, three_state_dfa.step(q, w[0]))


def _rows_or_error(tabulate):
    try:
        return list(tabulate())
    except QdsError as exc:
        return type(exc), str(exc)


def test_step_table_is_step_on_every_row():
    """The bitmask table equals `step` row by row, in (state, word) order,
    with states as numbers, and a table with a bad row raises the error
    `step` raises on the first one."""
    clean = 0
    for a, k, l in window_cases(600):
        got = _rows_or_error(lambda: step_table(a, k, l).entries)
        want = _rows_or_error(lambda: [
            (e.index, -1 if e.successor is None else a.states.index(e.successor))
            for e in (step(a, k, l, q, w)
                      for q in a.states for w in words_of_length(a.alphabet, k))
        ])
        assert got == want, (a, k, l)
        clean += isinstance(got, list)
    assert clean >= 300


# --- minimal pair search ------------------------------------------------


def test_find_minimal_examples(window4_nfa, three_state_dfa, ambiguous_loop_nfa):
    assert find_minimal_kl(window4_nfa) == (4, 3)
    assert find_minimal_kl(three_state_dfa) == (1, 1)
    assert find_minimal_kl(ambiguous_loop_nfa) is None


def test_find_minimal_scans_once(monkeypatch):
    calls = []
    scan = kernels.find_bad_row

    def counting(a, k, l):
        calls.append((k, l))
        return scan(a, k, l)

    monkeypatch.setattr(kernels, "find_bad_row", counting)
    assert find_minimal_kl(gen_lk_nfa(8)) == (10, 1)
    assert calls == [(10, 1)]


def test_exists_agrees_with_bounded_search_small_corpus():
    for a in corpus(60, max_states=4, max_syms=2):
        n = len(a.states)
        bound = n * (n - 1) + 1  # off-diagonal pairs, plus one
        clean = any(scan_witness(a, k, k) is None for k in range(1, bound + 1))
        assert exists_kl(a).exists == clean


def k_min_corpus():
    data = Path(__file__).resolve().parent.parent / "data"
    for name in ("fork9.nfa", "suffix2.nfa"):
        yield parse_nfa((data / name).read_text())
    for k in range(6):
        yield gen_lk_nfa(k)
    for seed in range(1200):
        a = accessible_part(
            random_nfa(
                seed,
                1 + seed % 7,
                1 + seed % 3,
                (0.1, 0.15, 0.25, 0.4, 0.6)[seed % 5],
                0.5,
            )
        )
        if a.states:
            yield a


def test_k_min_is_smallest_clean_window():
    """k_min from the square graph against the row enumeration: the oracle
    finds (k_min, k_min) clean, and the walk's bad row at (k_min - 1,
    k_min - 1) is the one the python reference finds."""
    with_pair = 0
    for a in k_min_corpus():
        report = exists_kl(a)
        if not report.exists:
            assert report.k_min is None
            continue
        with_pair += 1
        k = report.k_min
        assert scan_witness(a, k, k) is None
        assert kl_witness(a, k, k) is None
        if k > 1:
            bad = kl_witness(a, k - 1, k - 1)
            assert bad is not None
            assert _python_witness(a, k - 1, k - 1) == bad
    assert with_pair >= 600
