"""The package's public names, listed in full so that any addition or
removal shows in the diff of this file."""

import qds


def test_public_names():
    assert set(qds.__all__) == {
        "Dfa", "FamilyInstance", "GapReport", "InputError", "KlReport",
        "LayeredPartition", "MembershipResult", "Nfa", "PairState", "PathDfa",
        "PreconditionError", "Qds", "QdsError", "RunTrace", "SquareAutomaton",
        "StepEntry", "StepTable", "accessible_part", "build_path_dfa",
        "build_qds", "delta_word", "determinize", "dfa_to_qds", "equiv_fixpoint",
        "exists_kl", "find_minimal_kl", "gap_report", "gen_lk_nfa", "gen_sk_qds",
        "is_k_lookahead_deterministic", "is_kl_unambiguous", "kl_witness",
        "minimize_dfa", "nfa_membership", "prune_unreachable", "qds_membership",
        "qds_stats", "quotient", "random_nfa", "square_automaton", "step",
        "step_table", "trim_qds",
    }
