"""The construction over every state, the oracle for `qds.build.build_qds`.

The library builds only the part of the QDS reachable from the initial pair.
This is the construction straight off the paper, with a pair (q, w) for
every state q and every word w of length at most k, unreachable pairs
included; `prune_unreachable` of it is what `build_qds` must return.
"""

from __future__ import annotations

from qds.build import pair_name
from qds.errors import PreconditionError
from qds.kl import StepTable, step_table
from qds.nfa import Nfa, delta_word
from qds.structure import GammaEntry, Qds
from qds.words import Word, words_of_length


def reference_build(a: Nfa, k: int, l: int, table: StepTable | None = None) -> Qds:
    """The QDS associated with a (k,l)-unambiguous automaton.

    Layer j holds a state (q, w) for every source state q and every word w
    of length j-1; delta appends one symbol, and gamma on the full windows
    applies the precomputed step index / step successor. The step table is
    computed first, so a non-(k,l)-unambiguous input fails fast with the
    offending (state, window) row. Unreachable pairs are kept: the state
    count is exactly |Q| * (|alphabet|^(k+1)-1)/(|alphabet|-1); use
    `prune_unreachable` afterwards.
    """
    if table is None:
        table = step_table(a, k, l)  # raises with a witness row if ambiguous
    elif (table.k, table.l) != (k, l):
        raise PreconditionError("step table was computed for different (k,l)")

    layers = tuple(
        tuple(
            pair_name(q, w)
            for q in a.states
            for w in words_of_length(a.alphabet, j)
        )
        for j in range(k + 1)
    )
    initial = pair_name(next(iter(a.initials)), ())
    delta: dict[tuple[str, str], str] = {}
    finals: set[str] = set()
    for q in a.states:
        reach: dict[Word, frozenset[str]] = {(): frozenset({q})}
        for j in range(k + 1):
            for w in words_of_length(a.alphabet, j):
                if w not in reach:  # extend the parent's reach set by one symbol
                    reach[w] = delta_word(a, reach[w[:-1]], w[-1:])
                if reach[w] & a.finals:
                    finals.add(pair_name(q, w))
                if j < k:
                    for sym in a.alphabet:
                        delta[(pair_name(q, w), sym)] = pair_name(q, w + (sym,))
    gamma: dict[str, GammaEntry] = {}
    for (q, w), entry in table.entries.items():
        target = pair_name(entry.successor, ()) if entry.successor is not None else None
        gamma[pair_name(q, w)] = (target, entry.index)
    return Qds(
        alphabet=a.alphabet,
        layers=layers,
        initial=initial,
        finals=frozenset(finals),
        delta=delta,
        gamma=gamma,
    )
