"""End-to-end acceptance suite.

Each test prints one PASS line (visible under `pytest -s` or in the captured
output); a failure raises before the line is printed. All expectations are
exact: sizes, verdicts and state sets are pinned numbers, and the timing
budgets are generous on commodity hardware.
"""

from __future__ import annotations

import random

import pytest

from qds import (
    accessible_part,
    build_qds,
    determinize,
    dfa_to_qds,
    equiv_fixpoint,
    exists_kl,
    find_minimal_kl,
    gen_lk_nfa,
    gen_sk_qds,
    is_k_lookahead_deterministic,
    is_kl_unambiguous,
    kl_witness,
    minimize_dfa,
    nfa_membership,
    prune_unreachable,
    qds_membership,
    qds_stats,
    quotient,
    random_nfa,
    trim_qds,
)
from qds.family import lk_predicate
from tests.reference_build import reference_build
from tests.reference_reduction import _refine, is_identity
from tests.reference_reduction import verify_right_invariant as reference_verify
from tests.enumeration import scan_witness
from tests.words import words_up_to


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def corpus_nfa(seed: int):
    n = 1 + seed % 5
    sigma = 1 + (seed // 5) % 2
    density = (0.08, 0.15, 0.25, 0.35, 0.5, 0.7, 0.9)[seed % 7]
    final_prob = (0.25, 0.5, 0.75)[seed % 3]
    return accessible_part(random_nfa(seed, n, sigma, density, final_prob))


def dfa_accepts(d, w) -> bool:
    st = d.initial
    for sym in w:
        st = d.step(st, sym)
        if st is None:
            return False
    return st in d.finals


def test_acceptance_1_exponential_gap():
    """Minimal DFAs double while the layered structures grow quadratically,
    and the three recognizers decide the same language."""
    for k in range(9):
        nfa = gen_lk_nfa(k)
        sk = gen_sk_qds(k)
        dfa = minimize_dfa(determinize(nfa))
        assert len(dfa.states) == 2 ** (k + 1), k
        assert len(sk.states) == 2 * (k + 1) ** 2 + k + 3, k
        if k == 0:
            assert len(sk.states) == 5
        # exhaustive agreement; beyond k=6 the word space outgrows the
        # budget and the seeded random sample below carries the check
        if k <= 6:
            for w in words_up_to("ab", 2 * k + 4):
                want = lk_predicate(k, w)
                assert nfa_membership(nfa, w) == want, (k, w)
                assert dfa_accepts(dfa, w) == want, (k, w)
                assert qds_membership(sk, w).accepted == want, (k, w)
        rng = random.Random(1000 + k)
        for _ in range(1000):
            w = tuple(rng.choice("ab") for _ in range(rng.randrange(0, 201)))
            want = lk_predicate(k, w)
            assert nfa_membership(nfa, w) == want
            assert dfa_accepts(dfa, w) == want
            assert qds_membership(sk, w).accepted == want
    report(1, "2^(k+1) DFA vs 2(k+1)^2+k+3 structure, all recognizers agree, k<=8")


@pytest.fixture
def window4(window4_nfa):
    return window4_nfa


def test_acceptance_2_worked_fork_example(window4):
    assert not is_kl_unambiguous(window4, 3, 3)
    assert not is_kl_unambiguous(window4, 4, 2)
    assert is_kl_unambiguous(window4, 4, 3)
    assert is_kl_unambiguous(window4, 4, 4)
    for k in range(1, 9):
        assert not is_k_lookahead_deterministic(window4, k)
    assert exists_kl(window4).exists
    report(2, "9-state fork: (3,3)/(4,2) no, (4,3)/(4,4) yes, never lookahead")


def test_acceptance_3_window_table_construction(suffix_marker_nfa):
    assert len(reference_build(suffix_marker_nfa, 3, 3).states) == 45
    s = build_qds(suffix_marker_nfa, 3, 3)
    assert len(s.states) == 15
    pruned = prune_unreachable(s)
    assert pruned == s
    shifts = [
        pruned.gamma[f"1|{w}"][1]
        for w in ("aaa", "aab", "aba", "abb", "baa", "bab", "bba", "bbb")
    ]
    assert shifts == [1, 1, 2, 3, 1, 1, 2, 3]
    for w in words_up_to("ab", 8):
        assert qds_membership(pruned, w).accepted == nfa_membership(
            suffix_marker_nfa, w
        )
    report(3, "15-state build (45 over every state), shifts 1,1,2,3,1,1,2,3, same language")


def test_acceptance_4_windowed_membership(two_lane_qds, three_state_dfa, suffix_marker_nfa):
    r = qds_membership(two_lane_qds, "bbbaabab")
    assert r.accepted and r.terminal == "7" and r.shifts == 4
    # read counter stays under (m-1)*ceil(|w|/s) + (m-1) across the corpus
    corpus = [
        two_lane_qds,
        dfa_to_qds(three_state_dfa),
        prune_unreachable(build_qds(suffix_marker_nfa, 3, 3)),
        gen_sk_qds(0),
        gen_sk_qds(2),
        gen_sk_qds(4),
    ]
    rng = random.Random(4)
    for s in corpus:
        min_shift = qds_stats(s).min_shift
        words = list(words_up_to(s.alphabet, 6))
        words += [
            tuple(rng.choice(s.alphabet) for _ in range(rng.randrange(0, 80)))
            for _ in range(100)
        ]
        for w in words:
            run = qds_membership(s, w)
            bound = s.window * (-(-len(w) // min_shift)) + s.window
            assert run.reads <= bound, (w, run.reads, bound)
    report(4, "accepts bbbaabab in state 7 with 4 shifts; read bound holds corpus-wide")


def test_acceptance_5_trimming(trim_demo_qds, dead_lane_qds, two_lane_qds, three_state_dfa):
    t = trim_qds(trim_demo_qds)
    assert set(t.states) == {"1", "2", "3", "4", "5", "6"}
    assert ("2", "c") not in t.delta
    assert ("2", "b") in t.delta
    assert t.finals == {"2", "6"}
    t2 = trim_qds(dead_lane_qds)
    assert set(t2.states) == {"1", "2"}
    assert t2.delta == {("1", "a"): "2"}
    corpus = [trim_demo_qds, dead_lane_qds, two_lane_qds, dfa_to_qds(three_state_dfa)]
    for s in corpus:
        trimmed = trim_qds(s)
        assert trim_qds(trimmed) == trimmed
        limit = 10 if len(s.alphabet) < 3 else 7
        for w in words_up_to(s.alphabet, limit):
            assert qds_membership(trimmed, w).accepted == qds_membership(s, w).accepted
    report(5, "trim figures exact ((2,c,3) and 5's finality gone), idempotent, language kept")


def test_acceptance_6_reduction(rigid_pair_qds, slack_pair_qds):
    assert is_identity(equiv_fixpoint(rigid_pair_qds))
    p = equiv_fixpoint(slack_pair_qds)
    assert [set(layer) for layer in p.layers] == [
        {frozenset({"1"})},
        {frozenset({"2", "4"})},
        {frozenset({"3", "5"})},
    ]
    q = quotient(slack_pair_qds, p)
    assert len(q.states) == 3
    assert q.gamma == {"{3,5}": ("{1}", 2)}

    made = 0
    seed = 0
    while made < 200 and seed < 4000:
        a = corpus_nfa(seed)
        seed += 1
        if not a.states:
            continue
        k_min = exists_kl(a).k_min
        if k_min is None or k_min > 3:
            continue
        made += 1
        s = prune_unreachable(build_qds(a, *find_minimal_kl(a)))
        partition = equiv_fixpoint(s)
        assert partition.steps <= min(len(layer) for layer in s.layers)
        prev = _refine(s, None)
        for _ in range(partition.steps + 1):
            nxt = _refine(s, prev)
            prev_cls = {st: cls for layer in prev for cls in layer for st in cls}
            for layer in nxt:
                for cls in layer:
                    for st in cls:
                        assert cls <= prev_cls[st]
            prev = nxt
        assert reference_verify(s, partition)
        reduced = quotient(s, partition)
        limit = 10 if len(s.alphabet) < 2 else 8
        for w in words_up_to(s.alphabet, limit):
            assert qds_membership(reduced, w).accepted == qds_membership(s, w).accepted
    assert made == 200
    report(6, "identity vs {1}/{2,4}/{3,5} reduction; 200 built structures reduce soundly")


def oracle_row(a, k: int, l: int):
    """The enumeration oracle's first bad (k,l) row; the square-graph walk
    must return the same row."""
    row = scan_witness(a, k, l)
    assert kl_witness(a, k, l) == row, (k, l)
    return row


def test_acceptance_7_oracle_equivalence():
    """The square-automaton criterion, the row enumeration, the compiler and
    the lookahead check all tell one consistent story on 500 random NFAs.
    The bounded (k,k)/(k,l) search and the lookahead comparison take their
    verdicts from the enumeration oracle, never from the square-graph walk
    they check; the walk must return the oracle's row at every cell searched."""
    agreements = 0
    for seed in range(500):
        a = corpus_nfa(seed)
        if not a.states:
            continue
        n = len(a.states)
        bound = n * (n - 1) + 1  # off-diagonal pairs, plus one
        verdict = exists_kl(a)
        found = None
        for k in range(1, bound + 1):
            if oracle_row(a, k, k) is None:
                for l in range(1, k + 1):
                    if oracle_row(a, k, l) is None:
                        found = (k, l)
                        break
                break
        assert verdict.exists == (found is not None), seed
        if found is not None:
            assert found[0] == verdict.k_min, seed
        assert find_minimal_kl(a) == found, seed
        agreements += 1
        for k in range(1, 5):
            assert is_k_lookahead_deterministic(a, k) == (scan_witness(a, k, 1) is None)
        if found is not None:
            s = prune_unreachable(build_qds(a, *found))
            for w in words_up_to(a.alphabet, found[0] + 4):
                assert qds_membership(s, w).accepted == nfa_membership(a, w)
    assert agreements >= 450  # a few seeds degenerate to the empty automaton
    report(7, f"square criterion == bounded row search on {agreements} NFAs; builds agree")


def test_acceptance_8_dfa_embedding(three_state_dfa):
    s = dfa_to_qds(three_state_dfa)
    assert len(s.states) == 6
    assert [len(layer) for layer in s.layers] == [3, 3]
    assert s.finals == {"1.1", "1.2", "3.1", "3.2"}
    assert s.gamma == {"1.2": ("1.1", 1), "2.2": ("2.1", 1), "3.2": ("3.1", 1)}
    checked = 0
    for seed in range(100):
        d = determinize(random_nfa(seed, 1 + seed % 4, 1 + seed % 2, 0.4, 0.4))
        emb = dfa_to_qds(d)
        for w in words_up_to(d.alphabet, 8):
            assert qds_membership(emb, w).accepted == nfa_membership(d, w)
        checked += 1
    assert checked == 100
    report(8, "printed 6-state embedding exact; 100 random DFAs embed faithfully")
