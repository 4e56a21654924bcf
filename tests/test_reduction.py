import re

import pytest
from hypothesis import given, settings

from qds import (
    InputError,
    PreconditionError,
    Qds,
    accessible_part,
    build_qds,
    dfa_to_qds,
    equiv_fixpoint,
    exists_kl,
    find_minimal_kl,
    gen_lk_nfa,
    gen_sk_qds,
    minimize_dfa,
    prune_unreachable,
    qds_membership,
    quotient,
    random_nfa,
    trim_qds,
)
from qds.nfa import refine
from qds.reduction import LayeredPartition
from tests import test_trim
from tests.reference_reduction import _refine, identity_partition, is_identity, reference_fixpoint
from tests.reference_reduction import verify_right_invariant as reference_verify
from tests.words import words_up_to


def built_corpus(n_structures, kcap=3):
    made = 0
    seed = 0
    while made < n_structures and seed < 50 * n_structures:
        a = accessible_part(random_nfa(seed, 1 + seed % 4, 1 + seed % 2, 0.3, 0.45))
        seed += 1
        if not a.states:
            continue
        k_min = exists_kl(a).k_min
        if k_min is None or k_min > kcap:
            continue
        made += 1
        yield prune_unreachable(build_qds(a, *find_minimal_kl(a)))


# --- the fixpoint -----------------------------------------------------------


def test_rigid_pair_not_reducible(rigid_pair_qds):
    assert is_identity(equiv_fixpoint(rigid_pair_qds))


def test_slack_pair_classes(slack_pair_qds):
    p = equiv_fixpoint(slack_pair_qds)
    got = [set(map(frozenset, layer)) for layer in p.layers]
    assert got == [
        {frozenset({"1"})},
        {frozenset({"2", "4"})},
        {frozenset({"3", "5"})},
    ]


def test_fixpoint_on_minimal_dfa_embedding(three_state_dfa):
    d = minimize_dfa(three_state_dfa)
    s = prune_unreachable(dfa_to_qds(d))
    assert is_identity(equiv_fixpoint(s))


def test_refinement_chain_properties():
    for s in built_corpus(25):
        min_layer = min(len(layer) for layer in s.layers)
        partition = equiv_fixpoint(s)
        assert partition.steps <= min_layer
        # monotone: each step refines the previous one
        prev = _refine(s, None)
        for _ in range(partition.steps + 1):
            nxt = _refine(s, prev)
            prev_class = {q: cls for layer in prev for cls in layer for q in cls}
            nxt_class = {q: cls for layer in nxt for cls in layer for q in cls}
            for q, cls in nxt_class.items():
                assert cls <= prev_class[q]
            prev = nxt
        assert reference_verify(s, partition)
        # finality never mixes outside layer 1
        for layer in partition.layers[1:]:
            for cls in layer:
                assert len({q in s.finals for q in cls}) == 1


def test_fixpoint_equals_reference_chain():
    """Classes, their order and `steps` all match the chain on names, also
    on the compile stage order (built at and above the minimal window,
    pruned, trimmed), where refine stops in the pass that splits nothing."""
    corpus = list(built_corpus(60))
    corpus += [trim_qds(s) for s in corpus]
    corpus += [trim_qds(prune_unreachable(s)) for s in test_trim.built_corpus()]
    corpus += [gen_sk_qds(k) for k in range(7)]
    corpus += [build_qds(gen_lk_nfa(k), k + 2, 1) for k in range(9)]
    for s in corpus:
        assert equiv_fixpoint(s) == reference_fixpoint(s)
    assert max(reference_fixpoint(s).steps for s in corpus) >= 2


@settings(max_examples=300, deadline=None)
@given(test_trim.structures())
def test_fixpoint_equals_reference_chain_on_generated_structures(s):
    assert equiv_fixpoint(s) == reference_fixpoint(s)


class CountedRows(list):
    """Successor rows that record which states' rows are read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read: list[int] = []

    def __getitem__(self, q):
        self.read.append(q)
        return super().__getitem__(q)


def test_refine_stops_after_the_first_group():
    """The first group reads the second's classes of the pass before, the
    second reads the first's of its own pass. The pass that changes
    nothing splits the first group alone."""
    succ = CountedRows([[2], [3], [0], [1]])
    block, passes = refine([None, None, True, False], succ, [range(0, 2), range(2, 4)])
    assert (block, passes) == ([0, 1, 2, 3], 3)
    assert [succ.read.count(q) for q in range(4)] == [3, 3, 2, 2]


def test_fixpoint_base_step_ignores_gamma_targets():
    """The top-layer states 2 and 3 differ only in a bottom against a real
    gamma target: the base step merges them and step 1 splits them."""
    s = Qds(
        alphabet=("a", "b"),
        layers=(("1",), ("2", "3")),
        initial="1",
        finals=frozenset({"2", "3"}),
        delta={("1", "a"): "2", ("1", "b"): "3"},
        gamma={"2": ("1", 1), "3": (None, 1)},
    )
    assert _refine(s, None)[1] == (frozenset({"2", "3"}),)
    p = equiv_fixpoint(s)
    assert p == reference_fixpoint(s)
    assert p.steps == 1 and is_identity(p)


# --- right invariance, checked by quotient ----------------------------------


def test_identity_is_right_invariant(two_lane_qds, slack_pair_qds):
    for s in (two_lane_qds, slack_pair_qds):
        assert len(quotient(s, identity_partition(s)).states) == len(s.states)


def test_mixed_shift_merge_rejected(rigid_pair_qds):
    bad = LayeredPartition(
        layers=(
            (frozenset({"1"}),),
            (frozenset({"2"}), frozenset({"4"})),
            (frozenset({"3", "5"}),),  # shifts differ: 1 vs 2
        ),
        steps=0,
    )
    with pytest.raises(PreconditionError, match=re.escape("witness ('3', '5', 2)")):
        quotient(rigid_pair_qds, bad)


def test_delta_violation_reported(two_lane_qds):
    bad = LayeredPartition(
        layers=(
            (frozenset({"1", "6"}),),  # delta(1,a)=2 vs delta(6,a)=7
            (frozenset({"2"}), frozenset({"3"}), frozenset({"7"})),
            (frozenset({"4"}), frozenset({"5"}), frozenset({"8"})),
        ),
        steps=0,
    )
    with pytest.raises(PreconditionError, match=re.escape("witness ('1', '6', 'a')")):
        quotient(two_lane_qds, bad)


def test_partition_must_cover_layers(two_lane_qds):
    short = LayeredPartition(layers=((frozenset({"1"}),),), steps=0)
    with pytest.raises(InputError, match="layer count"):
        quotient(two_lane_qds, short)
    # 4 in two classes, then an empty class: neither is a partition of layer 3
    lower = (frozenset({"1"}), frozenset({"6"})), tuple(frozenset({q}) for q in "237")
    for top in [(frozenset({"4", "5"}), frozenset({"4"}), frozenset({"8"})),
                (frozenset({"4"}), frozenset({"5"}), frozenset({"8"}), frozenset())]:
        bad = LayeredPartition(layers=(*lower, top), steps=0)
        for check in (quotient, reference_verify):
            with pytest.raises(InputError, match="does not cover layer 3 exactly"):
                check(two_lane_qds, bad)


# --- quotient ----------------------------------------------------------------


def test_quotient_of_slack_pair(slack_pair_qds):
    q = quotient(slack_pair_qds, equiv_fixpoint(slack_pair_qds))
    assert q.states == ("{1}", "{2,4}", "{3,5}")
    assert [len(layer) for layer in q.layers] == [1, 1, 1]
    assert q.finals == {"{1}", "{2,4}", "{3,5}"}
    assert q.gamma == {"{3,5}": ("{1}", 2)}
    assert q.delta == {
        ("{1}", "a"): "{2,4}",
        ("{1}", "b"): "{2,4}",
        ("{2,4}", "a"): "{3,5}",
        ("{2,4}", "b"): "{3,5}",
    }


def test_quotient_by_identity_is_isomorphic(two_lane_qds):
    q = quotient(two_lane_qds, identity_partition(two_lane_qds))
    assert len(q.states) == len(two_lane_qds.states)
    for w in words_up_to("ab", 8):
        assert (
            qds_membership(q, w).accepted == qds_membership(two_lane_qds, w).accepted
        )


def test_quotient_of_rigid_pair_is_isomorphic(rigid_pair_qds):
    q = quotient(rigid_pair_qds, equiv_fixpoint(rigid_pair_qds))
    assert len(q.states) == len(rigid_pair_qds.states)


def test_quotient_rejects_non_invariant_partition(rigid_pair_qds):
    bad = LayeredPartition(
        layers=(
            (frozenset({"1"}),),
            (frozenset({"2", "4"}),),
            (frozenset({"3", "5"}),),
        ),
        steps=0,
    )
    with pytest.raises(PreconditionError):
        quotient(rigid_pair_qds, bad)


def test_quotient_rejects_mixed_finality():
    s = Qds(
        alphabet=("a",),
        layers=(("p",), ("q", "r")),
        initial="p",
        finals=frozenset({"q"}),
        delta={("p", "a"): "q"},
        gamma={"q": ("p", 1), "r": ("p", 1)},
    )
    mixed = LayeredPartition(
        layers=((frozenset({"p"}),), (frozenset({"q", "r"}),)), steps=0
    )
    with pytest.raises(PreconditionError):
        quotient(s, mixed)
    # r also in a class of its own: no partition, though every state's own
    # class is pure
    overlap = LayeredPartition(
        layers=((frozenset({"p"}),), (frozenset({"q", "r"}), frozenset({"r"}))), steps=0
    )
    with pytest.raises(InputError, match="does not cover layer 2 exactly"):
        quotient(s, overlap)


def test_quotient_refuses_colliding_class_names(comma_name_qds):
    s = comma_name_qds
    assert qds_membership(s, "aa").accepted and not qds_membership(s, "ca").accepted
    p = equiv_fixpoint(s)
    assert frozenset({"1", "2"}) in p.layers[1] and frozenset({"1,2"}) in p.layers[1]
    with pytest.raises(InputError, match=r"both named \{1,2\}"):
        quotient(s, p)


def test_quotient_preserves_membership_on_corpus():
    for s in built_corpus(20):
        p = equiv_fixpoint(s)
        q = quotient(s, p)
        limit = 10 if len(s.alphabet) < 2 else 8
        for w in words_up_to(s.alphabet, limit):
            assert qds_membership(q, w).accepted == qds_membership(s, w).accepted
        # reduction is exhaustive: re-running it finds nothing to merge
        assert is_identity(equiv_fixpoint(q))


def test_quotient_layer_valid_on_corpus():
    for s in built_corpus(10):
        q = quotient(s, equiv_fixpoint(s))
        for (p_, a), t in q.delta.items():
            assert q.layer_of[t] == q.layer_of[p_] + 1
        assert set(q.gamma) == set(q.layers[-1])
