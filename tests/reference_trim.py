"""Trim on names, the oracle for `qds.trim`.

The library walks the path-DFA on `Qds.tables` and tries only the tokens
that can fire at a node. This is the construction straight off the
definition: every state tries every symbol and every shift length 1..m-1
through `path_dfa_step`, which is also the per-step oracle of the walk,
and usefulness is lifted over the string-keyed states.
`reference_trim` must serialise byte-identically to `trim_qds`.

`graph_useful` is the cheaper restriction that reads no window: a state is
kept iff the plain graph of delta and non-bottom gamma edges leads to it
from the initial state and from it to a final state. Trimming after it must
give the exact trim; that is the hypothesis of running it as trim's first
stage.
"""

from __future__ import annotations

from dataclasses import dataclass

from qds.nfa import closure
from qds.structure import Qds
from qds.trim import PathDfaState, Token
from qds.words import Word
from tests.reference_build import restrict_qds


@dataclass(frozen=True)
class ReferencePathDfa:
    source: Qds
    states: tuple[PathDfaState, ...]
    initial: PathDfaState
    finals: frozenset[PathDfaState]
    transitions: dict[tuple[PathDfaState, Token], PathDfaState]


def path_dfa_step(s: Qds, state: PathDfaState, token: Token) -> PathDfaState | None:
    """One transition of the path-DFA; None where it is undefined.

    Symbol tokens extend u while it stays prefix-comparable with v; a shift
    token matching gamma resets u and turns the unread tail of the old
    window into the new obligation v.
    """
    base, u, v = state
    if isinstance(token, int):
        if s.layer_of[base] != s.m:
            return None
        target, shift = s.gamma[base]
        if target is None or shift != token:
            return None
        return PathDfaState(target, (), u[shift:])
    if s.layer_of[base] == s.m:
        return None
    nxt = s.delta.get((base, token))
    if nxt is None:
        return None
    ua = u + (token,)
    if ua[: len(v)] != v[: len(ua)]:  # one is not a prefix of the other
        return None
    return PathDfaState(nxt, ua, v)


def _proper_prefix(a: Word, b: Word) -> bool:
    return len(a) < len(b) and b[: len(a)] == a


def _is_final(s: Qds, state: PathDfaState) -> bool:
    return state.base in s.finals and _proper_prefix(state.v, state.u)


def reference_path_dfa(s: Qds) -> ReferencePathDfa:
    """Breadth first from (initial, eps, eps), every token at every state."""
    start = PathDfaState(s.initial, (), ())
    tokens: tuple[Token, ...] = tuple(s.alphabet) + tuple(range(1, s.m))
    order = [start]
    seen = {start}
    transitions: dict[tuple[PathDfaState, Token], PathDfaState] = {}
    frontier = [start]
    while frontier:
        state = frontier.pop(0)
        for token in tokens:
            nxt = path_dfa_step(s, state, token)
            if nxt is None:
                continue
            transitions[(state, token)] = nxt
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                frontier.append(nxt)
    return ReferencePathDfa(
        source=s,
        states=tuple(order),
        initial=start,
        finals=frozenset(p for p in order if _is_final(s, p)),
        transitions=transitions,
    )


@dataclass(frozen=True)
class UsefulReport:
    """Components of a QDS lying on some successful path (the initial state
    is always retained; its finality survives iff it is final, witnessed by
    the empty successful path)."""

    useful_states: frozenset[str]
    useful_delta: frozenset[tuple[str, str, str]]
    useful_gamma: frozenset[tuple[str, int, str]]
    useful_finalities: frozenset[str]


def reference_useful(s: Qds) -> UsefulReport:
    pdfa = reference_path_dfa(s)
    useful = closure(pdfa.finals, ((dst, src) for (src, _), dst in pdfa.transitions.items()))
    states = {p.base for p in useful} | {s.initial}
    delta_edges: set[tuple[str, str, str]] = set()
    gamma_edges: set[tuple[str, int, str]] = set()
    for (src, token), dst in pdfa.transitions.items():
        if src not in useful or dst not in useful:
            continue
        if isinstance(token, int):
            gamma_edges.add((src.base, token, dst.base))
        else:
            delta_edges.add((src.base, token, dst.base))
    finalities = {p.base for p in useful if p in pdfa.finals}
    if s.initial in s.finals:
        finalities.add(s.initial)
    return UsefulReport(
        useful_states=frozenset(states),
        useful_delta=frozenset(delta_edges),
        useful_gamma=frozenset(gamma_edges),
        useful_finalities=frozenset(finalities),
    )


def reference_trim(s: Qds) -> Qds:
    report = reference_useful(s)
    return restrict_qds(
        s,
        report.useful_states,
        {(p, x): q for p, x, q in report.useful_delta},
        {p: (q, l) for p, l, q in report.useful_gamma},
        report.useful_finalities,
    )


def graph_useful(s: Qds) -> Qds:
    """`s` restricted to the states that lie on a path from the initial
    state to a final state along delta and non-bottom gamma edges; the
    initial state is always kept. A gamma target that is dropped becomes
    bottom, and trailing layers left empty are dropped, as in
    `restrict_qds`."""
    arcs = [(p, q) for (p, _), q in s.delta.items()]
    arcs += [(p, t) for p, (t, _) in s.gamma.items() if t is not None]
    keep = closure({s.initial}, arcs) & closure(s.finals, [(q, p) for p, q in arcs])
    keep.add(s.initial)
    return restrict_qds(
        s,
        keep,
        {(p, x): q for (p, x), q in s.delta.items() if p in keep and q in keep},
        {p: (t, shift) for p, (t, shift) in s.gamma.items() if p in keep and t in keep},
        s.finals & keep,
    )
