"""Trimming a QDS via its path-DFA.

Plain graph accessibility is not enough to trim a QDS: a state can be
reachable by edges yet lie on no shiftable path, because the window contents
carried across a shift constrain which edges can actually fire. The path-DFA
tracks exactly that context: each of its states is (base state, symbols read
since the last shift, pending overlap still owed by that shift). Useful
components of the structure are read off the accessible-and-coaccessible
part of this DFA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .nfa import closure
from .structure import Qds, restrict_qds
from .words import Word

Token = str | int  # extended alphabet: symbols plus shift lengths


class PathDfaState(NamedTuple):
    base: str
    u: Word  # read since the last shift, |u| <= m-1
    v: Word  # overlap obligation left by that shift, a prefix constraint on u

    def __repr__(self) -> str:
        return f"({self.base},{'.'.join(self.u) or '_'},{'.'.join(self.v) or '_'})"


def _prefix(a: Word, b: Word) -> bool:
    return len(a) <= len(b) and b[: len(a)] == a


def _proper_prefix(a: Word, b: Word) -> bool:
    return len(a) < len(b) and b[: len(a)] == a


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
    if not (_prefix(ua, v) or _prefix(v, ua)):
        return None
    return PathDfaState(nxt, ua, v)


def _is_final(s: Qds, state: PathDfaState) -> bool:
    return state.base in s.finals and _proper_prefix(state.v, state.u)


@dataclass(frozen=True)
class PathDfa:
    """Accessible part of the path-DFA of a QDS, over the extended alphabet
    of symbols and shift lengths."""

    source: Qds
    states: tuple[PathDfaState, ...]
    initial: PathDfaState
    finals: frozenset[PathDfaState]
    transitions: dict[tuple[PathDfaState, Token], PathDfaState]


def build_path_dfa(s: Qds) -> PathDfa:
    """Explore the path-DFA lazily from (initial, eps, eps); only accessible
    states are materialized."""
    start = PathDfaState(s.initial, (), ())
    tokens: tuple[Token, ...] = tuple(s.alphabet) + tuple(range(1, s.m + 1))
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
    finals = frozenset(p for p in order if _is_final(s, p))
    return PathDfa(
        source=s,
        states=tuple(order),
        initial=start,
        finals=finals,
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


def compute_useful(s: Qds) -> UsefulReport:
    """Lift usefulness from the path-DFA: a path-DFA state is useful iff it
    is accessible and coaccessible; states, edges and finalities of the QDS
    are useful iff some useful instance witnesses them."""
    pdfa = build_path_dfa(s)
    # all built states are accessible, so the coaccessible ones are useful
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
        finalities.add(s.initial)  # the empty path is successful
    return UsefulReport(
        useful_states=frozenset(states),
        useful_delta=frozenset(delta_edges),
        useful_gamma=frozenset(gamma_edges),
        useful_finalities=frozenset(finalities),
    )


def trim_qds(s: Qds) -> Qds:
    """Keep only useful states, transitions and finalities; language
    unchanged, idempotent. Gamma entries whose edge is useless collapse to
    bottom; trailing layers left empty are dropped (keeping at least two)."""
    report = compute_useful(s)
    return restrict_qds(
        s,
        report.useful_states,
        {(p, x): q for p, x, q in report.useful_delta},
        {p: (q, l) for p, l, q in report.useful_gamma},
        report.useful_finalities,
    )
