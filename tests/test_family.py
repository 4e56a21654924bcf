import random

import pytest

from qds import (
    InputError,
    build_qds,
    determinize,
    equiv_fixpoint,
    gap_report,
    gen_lk_nfa,
    gen_sk_qds,
    minimize_dfa,
    nfa_membership,
    prune_unreachable,
    qds_membership,
    quotient,
    trim_qds,
)
from qds.family import family_instance, lk_predicate
from tests.words import words_up_to


def dfa_accepts(d, w):
    st = d.initial
    for sym in w:
        st = d.step(st, sym)
        if st is None:
            return False
    return st in d.finals


def test_gen_lk_shapes():
    a0 = gen_lk_nfa(0)
    assert len(a0.states) == 2 and a0.finals == {"1"}
    a2 = gen_lk_nfa(2)
    assert len(a2.states) == 4
    with pytest.raises(InputError):
        gen_lk_nfa(-1)


def test_lk_nfa_matches_predicate():
    rng = random.Random(99)
    for k in (0, 2, 5):
        a = gen_lk_nfa(k)
        for _ in range(200):
            n = rng.randrange(0, 25)
            w = tuple(rng.choice("ab") for _ in range(n))
            assert nfa_membership(a, w) == lk_predicate(k, w)


def test_minimal_dfa_sizes():
    for k in range(9):
        d = minimize_dfa(determinize(gen_lk_nfa(k)))
        assert len(d.states) == 2 ** (k + 1), k


def test_lk_compiled_size_depends_on_the_input():
    """Observed, with no proof. L_K at (K+2, 1), K = 0..7, compiled by
    build, prune, trim, reduce and by build, reduce, trim, reduce: from its
    NFA both orders give 4K+5 states; from its minimal DFA, the same
    language, the second order gives 2K²+6K+1 for K >= 1 and the first
    2K²+10K+9. So neither order reaches a size that depends only on the
    language and the window."""

    def reduce(s):
        return quotient(s, equiv_fixpoint(s))

    def sizes(a, K):
        s = build_qds(a, K + 2, 1)
        return (len(reduce(trim_qds(prune_unreachable(s))).states),
                len(reduce(trim_qds(reduce(s))).states))

    from_nfa, from_dfa = [], []
    for K in range(8):
        a = gen_lk_nfa(K)
        from_nfa.append(sizes(a, K))
        from_dfa.append(sizes(minimize_dfa(determinize(a)), K))
    assert from_nfa == [(4 * K + 5, 4 * K + 5) for K in range(8)]
    assert [prune_first for prune_first, _ in from_dfa] == [9, 21, 37, 57, 81, 109, 141, 177]
    assert [reduce_first for _, reduce_first in from_dfa] == [5, 9, 21, 37, 57, 81, 109, 141]


def test_sk_counts():
    assert len(gen_sk_qds(0).states) == 5
    assert len(gen_sk_qds(3).states) == 38
    for k in range(9):
        assert len(gen_sk_qds(k).states) == 2 * (k + 1) ** 2 + k + 3
    with pytest.raises(InputError):
        gen_sk_qds(-1)


def test_s0_structure():
    s = gen_sk_qds(0)
    assert [len(layer) for layer in s.layers] == [1, 2, 2]
    assert s.initial == "1_1"
    assert s.finals == {"1_2", "1_3"}
    assert s.gamma == {"1_3": ("1_1", 1), "2_3": ("1_1", 2)}
    assert s.delta == {
        ("1_1", "a"): "1_2",
        ("1_1", "b"): "1_2p",
        ("1_2", "a"): "1_3",
        ("1_2", "b"): "2_3",
        ("1_2p", "a"): "1_3",
        ("1_2p", "b"): "2_3",
    }


def test_sk_language_exhaustive():
    for k in range(4):
        s = gen_sk_qds(k)
        for w in words_up_to("ab", 2 * k + 4):
            assert qds_membership(s, w).accepted == lk_predicate(k, w), (k, w)


def test_sk_language_random_long_words():
    rng = random.Random(8)
    for k in (5, 7, 10):
        s = gen_sk_qds(k)
        for _ in range(300):
            n = rng.randrange(0, 201)
            w = tuple(rng.choice("ab") for _ in range(n))
            assert qds_membership(s, w).accepted == lk_predicate(k, w)


def test_three_recognizers_agree():
    for k in (0, 1, 3):
        inst = family_instance(k)
        d = minimize_dfa(determinize(inst.nfa))
        for w in words_up_to("ab", 2 * k + 4):
            want = lk_predicate(k, w)
            assert nfa_membership(inst.nfa, w) == want
            assert dfa_accepts(d, w) == want
            assert qds_membership(inst.sk, w).accepted == want


def test_gap_report_rows():
    report = gap_report(4, seed=3)
    by_k = {r.k: r for r in report.rows}
    assert by_k[0].nfa_states == 2
    assert by_k[0].sk_states == 5
    assert by_k[0].dfa_states == 2
    assert by_k[4].dfa_states == 32
    assert by_k[4].sk_states == 57
    for r in report.rows:
        assert r.sk_after_trim <= r.sk_states
        assert r.sk_after_reduce <= r.sk_after_trim
        assert r.membership_reads_per_symbol > 0
    assert report.crossover_k is None  # the structure wins from k=6 on


def test_gap_report_crossover():
    report = gap_report(6, seed=0)
    assert report.crossover_k == 6
    csv = report.as_csv()
    assert csv.splitlines()[0].startswith("k,nfa_states,")
    assert len(csv.splitlines()) == 8


def test_trim_and_reduce_preserve_lk():
    from qds import equiv_fixpoint, quotient, trim_qds

    for k in (0, 1, 2):
        s = gen_sk_qds(k)
        t = trim_qds(s)
        q = quotient(t, equiv_fixpoint(t))
        for w in words_up_to("ab", 2 * k + 4):
            want = lk_predicate(k, w)
            assert qds_membership(t, w).accepted == want
            assert qds_membership(q, w).accepted == want


def test_reads_bound_on_sk():
    rng = random.Random(17)
    for k in (0, 2, 4):
        s = gen_sk_qds(k)
        for _ in range(100):
            n = rng.randrange(0, 120)
            w = tuple(rng.choice("ab") for _ in range(n))
            r = qds_membership(s, w)
            bound = s.window * (-(-len(w) // 1)) + s.window  # min shift is 1
            assert r.reads <= bound
