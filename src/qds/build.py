"""Compilers into quasi-deterministic structures: the window-table
construction from a (k,l)-unambiguous NFA (its reachable part),
reachability pruning, and the width-1 embedding of a DFA."""

from __future__ import annotations

from . import kernels
from .errors import PreconditionError
from .kl import StepTable, step_table
from .nfa import Dfa, Nfa, closure
from .structure import GammaEntry, Qds, restrict_qds
from .words import Word, word_str, words_of_length


def pair_name(q: str, w: Word) -> str:
    """Stable printable name for a (state, read-so-far) pair."""
    return f"{q}|{word_str(w)}"


def build_qds(a: Nfa, k: int, l: int, table: StepTable | None = None) -> Qds:
    """The reachable part of the QDS associated with a (k,l)-unambiguous
    automaton.

    The source states are the initial state and every step successor
    reachable from it. Layer j holds a state (q, w) for every source state
    q and every word w of length j-1, in (state, lexicographic word) order;
    delta appends one symbol, and gamma on the full windows applies the
    precomputed step index / step successor. A pair is final when w leads
    from q to a final state. The step table is computed first, so a
    non-(k,l)-unambiguous input fails fast with the offending (state,
    window) row. With R the source states the state count is
    |R| * (|alphabet|^(k+1)-1)/(|alphabet|-1), and the result equals
    `prune_unreachable` of the construction over every state.
    """
    if table is None:
        table = step_table(a, k, l)  # raises with a witness row if ambiguous
    elif (table.k, table.l) != (k, l):
        raise PreconditionError("step table was computed for different (k,l)")

    initial = next(iter(a.initials))
    arcs = [(q, e.successor) for (q, _), e in table.entries.items()
            if e.successor is not None]
    sources = a.state_order(closure({initial}, arcs))
    ix = {q: i for i, q in enumerate(a.states)}
    final_mask = sum(1 << ix[q] for q in a.finals)
    succ, _ = kernels.masks(a)
    spelled = [[word_str(w) for w in words_of_length(a.alphabet, j)]
               for j in range(k + 1)]
    windows = list(words_of_length(a.alphabet, k))

    layers: list[list[str]] = [[] for _ in range(k + 1)]
    finals: list[str] = []
    delta: dict[tuple[str, str], str] = {}
    gamma: dict[str, GammaEntry] = {}
    for q in sources:
        names = [[f"{q}|{w}" for w in level] for level in spelled]  # pair_name
        reached = kernels.fronts(succ, 1 << ix[q], k)
        for j, level in enumerate(names):
            layers[j] += level
            finals += [p for p, f in zip(level, reached[j]) if f & final_mask]
            if j < k:
                edges = ((p, x) for p in level for x in a.alphabet)
                delta.update(zip(edges, names[j + 1]))
        for p, w in zip(names[k], windows):
            entry = table.entries[q, w]
            target = None if entry.successor is None else pair_name(entry.successor, ())
            gamma[p] = (target, entry.index)
    while len(layers) > 2 and not layers[-1]:  # an empty alphabet reads no window
        layers.pop()
    return Qds(
        alphabet=a.alphabet,
        layers=tuple(tuple(layer) for layer in layers),
        initial=pair_name(initial, ()),
        finals=frozenset(finals),
        delta=delta,
        gamma=gamma,
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
