"""Nondeterministic finite automata with an explicit alphabet, plus the
deterministic constructions (subset construction, minimization) the rest of
the package uses as baselines and test oracles.

Transition functions are partial: a missing (state, symbol) edge simply
yields no successors. Completion with a sink happens only inside
`minimize_dfa` and the sink never appears in returned automata.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, TypeVar

from .errors import SIZE_BUDGET, InputError, PreconditionError
from .words import as_word, check_token

Transition = tuple[str, str, str]
Node = TypeVar("Node", bound=Hashable)


@dataclass(frozen=True)
class Nfa:
    """A 5-tuple (alphabet, states, initials, finals, transitions).

    `alphabet` and `states` are ordered; declared order fixes word
    enumeration order and serialization order. State ids are opaque
    non-whitespace strings.
    """

    alphabet: tuple[str, ...]
    states: tuple[str, ...]
    initials: frozenset[str]
    finals: frozenset[str]
    transitions: tuple[Transition, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "initials", frozenset(self.initials))
        object.__setattr__(self, "finals", frozenset(self.finals))
        state_set = set(self.states)
        alpha_set = set(self.alphabet)
        if len(self.states) != len(state_set):
            raise InputError("duplicate state ids")
        if len(self.alphabet) != len(alpha_set):
            raise InputError("duplicate alphabet symbols")
        for tok in self.alphabet:
            check_token(tok, "symbol token")
        for q in self.states:
            check_token(q, "state id")
        if not self.initials <= state_set:
            raise InputError("initial states not all declared")
        if not self.finals <= state_set:
            raise InputError("final states not all declared")
        triples = tuple(self.transitions)
        if len(triples) != len(set(triples)):
            raise InputError("duplicate transitions")
        for p, a, q in triples:
            if p not in state_set or q not in state_set:
                raise InputError(f"transition endpoint not declared: ({p},{a},{q})")
            if a not in alpha_set:
                raise InputError(f"transition symbol not in alphabet: ({p},{a},{q})")
        # canonical storage order: (src, symbol, dst) by declared indices
        si = {q: i for i, q in enumerate(self.states)}
        ai = {a: i for i, a in enumerate(self.alphabet)}
        object.__setattr__(
            self,
            "transitions",
            tuple(sorted(triples, key=lambda t: (si[t[0]], ai[t[1]], si[t[2]]))),
        )

    @cached_property
    def _succ(self) -> dict[tuple[str, str], frozenset[str]]:
        table: dict[tuple[str, str], set[str]] = {}
        for p, a, q in self.transitions:
            table.setdefault((p, a), set()).add(q)
        return {k: frozenset(v) for k, v in table.items()}

    def successors(self, state: str, symbol: str) -> frozenset[str]:
        if symbol not in self.alphabet:
            raise InputError(f"unknown symbol {symbol!r}")
        return self._succ.get((state, symbol), frozenset())

    @property
    def is_deterministic(self) -> bool:
        return len(self.initials) == 1 and all(
            len(v) <= 1 for v in self._succ.values()
        )

    def state_order(self, states: Iterable[str]) -> tuple[str, ...]:
        """The given states in declared order."""
        chosen = set(states)
        return tuple(q for q in self.states if q in chosen)


class Dfa(Nfa):
    """An Nfa with exactly one initial state and at most one successor per
    (state, symbol); the transition function may still be partial."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.initials) != 1:
            raise InputError("DFA must have exactly one initial state")
        if any(len(v) > 1 for v in self._succ.values()):
            raise InputError("DFA has a nondeterministic transition")

    @property
    def initial(self) -> str:
        return next(iter(self.initials))

    def step(self, state: str, symbol: str) -> str | None:
        succ = self.successors(state, symbol)
        return next(iter(succ)) if succ else None


def delta_word(a: Nfa, start: Iterable[str], w: Iterable[str]) -> frozenset[str]:
    """Extended transition function: the set of states reachable from `start`
    by reading `w`; the empty word is the identity."""
    current = frozenset(start)
    if not current <= set(a.states):
        raise InputError("start set contains undeclared states")
    for sym in as_word(w):
        if sym not in a.alphabet:
            raise InputError(f"unknown symbol {sym!r}")
        nxt: set[str] = set()
        for q in current:
            nxt |= a._succ.get((q, sym), frozenset())
        current = frozenset(nxt)
    return current


def nfa_membership(a: Nfa, w: Iterable[str]) -> bool:
    """True iff `w` is accepted, by direct subset simulation."""
    return bool(delta_word(a, a.initials, w) & a.finals)


def _restrict(a: Nfa, keep: set[str]) -> Nfa:
    return Nfa(
        alphabet=a.alphabet,
        states=a.state_order(keep),
        initials=a.initials & keep,
        finals=a.finals & keep,
        transitions=tuple(
            (p, x, q) for p, x, q in a.transitions if p in keep and q in keep
        ),
    )


def closure(start: Iterable[Node], arcs: Iterable[tuple[Node, Node]]) -> set[Node]:
    """Every node reachable from `start` along the (source, target) arcs."""
    succ: dict[Node, list[Node]] = {}
    for p, q in arcs:
        succ.setdefault(p, []).append(q)
    seen = set(start)
    stack = list(seen)
    while stack:
        for q in succ.get(stack.pop(), ()):
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def accessible_states(a: Nfa) -> set[str]:
    return closure(a.initials, ((p, q) for p, _, q in a.transitions))


def coaccessible_states(a: Nfa) -> set[str]:
    return closure(a.finals, ((q, p) for p, _, q in a.transitions))


def accessible_part(a: Nfa) -> Nfa:
    """Sub-automaton of states reachable from the initials; language unchanged."""
    return _restrict(a, accessible_states(a))


def trim_nfa(a: Nfa) -> Nfa:
    """Sub-automaton of accessible-and-coaccessible states; language
    unchanged, idempotent; may be empty."""
    return _restrict(a, accessible_states(a) & coaccessible_states(a))


def subset_name(members: Iterable[str]) -> str:
    return "{" + ",".join(sorted(members)) + "}"


def determinize(a: Nfa) -> Dfa:
    """Accessible part of the powerset automaton. Subset states carry
    canonical, order-independent names so results are reproducible. Each
    subset found counts |Q| cells; the construction is refused once the
    count passes SIZE_BUDGET."""
    start = frozenset(a.initials)
    names: dict[frozenset[str], str] = {start: subset_name(start)}
    order = [start]
    transitions: list[Transition] = []
    frontier = [start]
    while frontier:
        current = frontier.pop(0)
        for sym in a.alphabet:
            nxt: set[str] = set()
            for q in current:
                nxt |= a._succ.get((q, sym), frozenset())
            if not nxt:
                continue
            target = frozenset(nxt)
            if target not in names:
                if (len(order) + 1) * len(a.states) > SIZE_BUDGET:
                    raise InputError(
                        f"subset construction subsets*|Q| = {len(order) + 1}*"
                        f"{len(a.states)} cells is over the size budget {SIZE_BUDGET}"
                    )
                names[target] = subset_name(target)
                order.append(target)
                frontier.append(target)
            transitions.append((names[current], sym, names[target]))
    return Dfa(
        alphabet=a.alphabet,
        states=tuple(names[s] for s in order),
        initials=frozenset({names[start]}),
        finals=frozenset(names[s] for s in order if s & a.finals),
        transitions=tuple(transitions),
    )


def minimize_dfa(d: Dfa) -> Dfa:
    """Minimal DFA for L(d), up to isomorphism.

    The input is completed with a sink internally; the sink (and any states
    merged with it) is stripped from the result again unless it carries the
    initial state, so reported sizes never count the completion sink.
    Merged states are named after their least member.
    """
    if not isinstance(d, Dfa):
        raise PreconditionError("minimize_dfa needs a deterministic automaton")
    acc = accessible_part(d)
    d = Dfa(acc.alphabet, acc.states, acc.initials, acc.finals, acc.transitions)

    sink = "sink"
    while sink in d.states:
        sink += "!"
    states = list(d.states) + [sink]
    step: dict[tuple[str, str], str] = {(sink, a): sink for a in d.alphabet}
    for q in d.states:
        for a in d.alphabet:
            succ = d._succ.get((q, a), frozenset())
            step[(q, a)] = next(iter(succ)) if succ else sink

    # Moore refinement from the finality split.
    block = {q: (q in d.finals) for q in states}
    while True:
        sig = {
            q: (block[q], tuple(block[step[(q, a)]] for a in d.alphabet))
            for q in states
        }
        ids = {s: i for i, s in enumerate(sorted(set(sig.values()), key=repr))}
        new_block = {q: ids[sig[q]] for q in states}
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block

    classes: dict[int, set[str]] = {}
    for q in states:
        classes.setdefault(block[q], set()).add(q)
    sink_class = block[sink]

    def class_name(cid: int) -> str:
        members = classes[cid] - {sink}
        return min(members)

    keep = [
        cid
        for cid in classes
        if cid != sink_class or d.initial in classes[cid]
    ]
    # order classes by the declared position of their earliest member
    pos = {q: i for i, q in enumerate(d.states)}
    keep.sort(key=lambda cid: min(pos[q] for q in classes[cid] - {sink}))

    transitions = []
    for cid in keep:
        if cid == sink_class:
            continue  # a dead initial keeps its state but no transitions
        rep = class_name(cid)
        for a in d.alphabet:
            tgt = block[step[(rep, a)]]
            if tgt in keep:
                transitions.append((class_name(cid), a, class_name(tgt)))
    return Dfa(
        alphabet=d.alphabet,
        states=tuple(class_name(cid) for cid in keep),
        initials=frozenset({class_name(block[d.initial])}),
        finals=frozenset(
            class_name(cid) for cid in keep if classes[cid] & d.finals
        ),
        transitions=tuple(transitions),
    )


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def random_nfa(
    seed: int,
    n: int,
    alphabet_size: int,
    density: float,
    final_prob: float,
) -> Nfa:
    """Seed-reproducible random NFA: states "0".."n-1", single initial "0",
    each possible transition present independently with probability
    `density`, each state final with probability `final_prob`."""
    if n < 1:
        raise InputError("need at least one state")
    if alphabet_size < 1:
        raise InputError("need at least one symbol")
    if not (0.0 <= density <= 1.0 and 0.0 <= final_prob <= 1.0):
        raise InputError("probabilities must lie in [0,1]")
    if alphabet_size <= len(_LETTERS):
        alphabet = tuple(_LETTERS[:alphabet_size])
    else:
        alphabet = tuple(f"s{i}" for i in range(alphabet_size))
    states = tuple(str(i) for i in range(n))
    rng = random.Random(seed)
    transitions = tuple(
        (p, a, q)
        for p in states
        for a in alphabet
        for q in states
        if rng.random() < density
    )
    finals = frozenset(q for q in states if rng.random() < final_prob)
    return Nfa(alphabet, states, frozenset({"0"}), finals, transitions)
