"""Compilers into quasi-deterministic structures: the window-table
construction from a (k,l)-unambiguous NFA, reachability pruning, and the
width-1 embedding of a DFA."""

from __future__ import annotations

from .errors import PreconditionError
from .kl import StepTable, step_table
from .nfa import Dfa, Nfa, closure, delta_word
from .structure import GammaEntry, Qds, restrict_qds
from .words import Word, word_str, words_of_length


def pair_name(q: str, w: Word) -> str:
    """Stable printable name for a (state, read-so-far) pair."""
    return f"{q}|{word_str(w)}"


def build_qds(a: Nfa, k: int, l: int, table: StepTable | None = None) -> Qds:
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


def prune_unreachable(s: Qds) -> Qds:
    """Restrict to states reachable from the initial along delta edges and
    non-bottom gamma targets; trailing layers left empty are dropped (a
    fresh top layer gets all-bottom gamma). Language unchanged."""
    arcs = [(p, q) for (p, _), q in s.delta.items()]
    arcs += [(p, t) for p, (t, _) in s.gamma.items() if t is not None]
    keep = closure({s.initial}, arcs)
    delta = {(p, x): q for (p, x), q in s.delta.items() if p in keep}
    return restrict_qds(s, keep, delta, s.gamma, s.finals & keep)


def dfa_to_qds(d: Nfa) -> Qds:
    """Embed a DFA as a window-1 QDS: two copies of every state, each symbol
    step lands in layer 2, and gamma hops back to the layer-1 copy of the
    state just reached, shifting by one."""
    if not d.is_deterministic:
        raise PreconditionError("dfa_to_qds needs a deterministic automaton")
    if not isinstance(d, Dfa):
        d = Dfa(d.alphabet, d.states, d.initials, d.finals, d.transitions)
    lo = {q: f"{q}.1" for q in d.states}
    hi = {q: f"{q}.2" for q in d.states}
    return Qds(
        alphabet=d.alphabet,
        layers=(
            tuple(lo[q] for q in d.states),
            tuple(hi[q] for q in d.states),
        ),
        initial=lo[d.initial],
        finals=frozenset(lo[q] for q in d.finals) | frozenset(hi[q] for q in d.finals),
        delta={(lo[p], x): hi[q] for p, x, q in d.transitions},
        gamma={hi[q]: (lo[q], 1) for q in d.states},
    )
