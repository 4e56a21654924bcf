"""Window-lookahead unambiguity of NFAs and quasi-deterministic structures:
deciding (k,l)-unambiguity, compiling unambiguous automata into layered
sliding-window recognizers, trimming and reducing them, and measuring the
size gap against minimal DFAs."""

from .build import build_qds, dfa_to_qds, prune_unreachable
from .errors import InputError, PreconditionError, QdsError
from .family import FamilyInstance, GapReport, gap_report, gen_lk_nfa, gen_sk_qds
from .kl import (
    KlReport,
    PairState,
    SquareAutomaton,
    StepEntry,
    StepTable,
    exists_kl,
    find_minimal_kl,
    is_k_lookahead_deterministic,
    is_kl_unambiguous,
    kl_witness,
    square_automaton,
    step,
    step_table,
)
from .nfa import (
    Dfa,
    Nfa,
    accessible_part,
    delta_word,
    determinize,
    minimize_dfa,
    nfa_membership,
    random_nfa,
)
from .reduction import (
    LayeredPartition,
    equiv_fixpoint,
    quotient,
)
from .structure import (
    MembershipResult,
    Qds,
    RunTrace,
    qds_membership,
    qds_stats,
)
from .trim import PathDfa, build_path_dfa, trim_qds

import types as _types

__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]
