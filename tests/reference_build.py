"""The construction over every state, the oracle for `qds.build.build_qds`.

The library builds only the part of the QDS reachable from the initial pair.
This is the construction straight off the paper, with a pair (q, w) for
every state q and every word w of length at most k, unreachable pairs
included; `prune_unreachable` of it is what `build_qds` must return.

`restrict_qds` and `prune_unreachable` are the name-keyed restriction and
reachability pruning, the oracles for the library's versions on
`Qds.tables`: both must give equal structures and serialisations.
"""

from __future__ import annotations

from typing import Container, Iterable, Mapping

from qds.kl import step
from qds.nfa import Nfa, closure, delta_word
from qds.structure import GammaEntry, Qds
from qds.words import Word, word_str, words_of_length


def pair_name(q: str, w: Word) -> str:
    """Stable printable name for a (state, read-so-far) pair."""
    return f"{q}|{word_str(w)}"


def reference_build(a: Nfa, k: int, l: int) -> Qds:
    """The QDS associated with a (k,l)-unambiguous automaton.

    Layer j holds a state (q, w) for every source state q and every word w
    of length j-1; delta appends one symbol, and gamma on the full windows
    applies the step index / step successor that `step` gives for the row,
    so the oracle reads no step table. A non-(k,l)-unambiguous input fails
    with the first offending (state, window) row. Unreachable pairs are
    kept: the state count is exactly |Q| * (|alphabet|^(k+1)-1)/(|alphabet|-1);
    use `prune_unreachable` afterwards.
    """
    gamma: dict[str, GammaEntry] = {}
    for q in a.states:  # first, so a bad row fails before anything is built
        for w in words_of_length(a.alphabet, k):
            entry = step(a, k, l, q, w)
            target = pair_name(entry.successor, ()) if entry.successor is not None else None
            gamma[pair_name(q, w)] = (target, entry.index)
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
    return Qds(
        alphabet=a.alphabet,
        layers=layers,
        initial=initial,
        finals=frozenset(finals),
        delta=delta,
        gamma=gamma,
    )


def restrict_qds(
    s: Qds,
    keep: Container[str],
    delta: Mapping[tuple[str, str], str],
    gamma: Mapping[str, GammaEntry],
    finals: Iterable[str],
) -> Qds:
    """`s` cut down to the states in `keep`, with the given delta, gamma and
    finals. Trailing layers left empty are dropped (keeping at least two); a
    top-layer state missing from `gamma` gets a bottom target and shift 1."""
    layers = [tuple(q for q in layer if q in keep) for layer in s.layers]
    while len(layers) > 2 and not layers[-1]:
        layers.pop()
    return Qds(
        alphabet=s.alphabet,
        layers=tuple(layers),
        initial=s.initial,
        finals=frozenset(finals),
        delta=delta,
        gamma={p: gamma.get(p, (None, 1)) for p in layers[-1]},
    )


def prune_unreachable(s: Qds) -> Qds:
    """Restrict to states reachable from the initial along delta edges and
    non-bottom gamma targets; trailing layers left empty are dropped (a
    fresh top layer gets all-bottom gamma). Language unchanged. The identity
    on what `build_qds` returns; it is for parsed structures."""
    arcs = [(p, q) for (p, _), q in s.delta.items()]
    arcs += [(p, t) for p, (t, _) in s.gamma.items() if t is not None]
    keep = closure({s.initial}, arcs)
    if len(keep) == len(s.states) and s.layers[-1]:
        return s  # nothing to drop, as on every structure `build_qds` returns
    delta = {(p, x): q for (p, x), q in s.delta.items() if p in keep}
    return restrict_qds(s, keep, delta, s.gamma, s.finals & keep)
