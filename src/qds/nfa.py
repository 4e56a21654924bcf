"""Nondeterministic finite automata with an explicit alphabet, plus the
deterministic constructions (subset construction, minimization) the rest of
the package uses as baselines and test oracles.

Transition functions are partial: a missing (state, symbol) edge simply
yields no successors. `refine`, the partition refinement behind
`minimize_dfa` and `reduction.equiv_fixpoint`, has one rule for bottom: it
is state n of n states, the slot whose class stays -1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, TypeVar

from .errors import SIZE_BUDGET, InputError, PreconditionError
from .words import check_token

Transition = tuple[str, str, str]
Node = TypeVar("Node", bound=Hashable)


@dataclass(frozen=True)
class Nfa:
    """A 5-tuple (alphabet, states, initials, finals, transitions).

    `alphabet` and `states` are ordered; declared order fixes word
    enumeration order and serialization order. State ids are opaque
    non-whitespace strings. The integer form, `arcs` and `masks`, is built
    on first read and kept, outside equality and hashing.
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

    @cached_property
    def arcs(self) -> tuple[tuple[int, int, int], ...]:
        """(p, x, q) for every transition, in declared order, with states and
        symbols numbered in declared order."""
        ix = {q: i for i, q in enumerate(self.states)}
        sym = {x: j for j, x in enumerate(self.alphabet)}
        return tuple((ix[p], sym[x], ix[q]) for p, x, q in self.transitions)

    @cached_property
    def masks(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """(succ, pred) on the numbering of `arcs`: succ[x][p] is the bitmask
        of p's x-successors, pred[x][r] that of r's x-predecessors."""
        n, s = len(self.states), len(self.alphabet)
        succ = [[0] * n for _ in range(s)]
        pred = [[0] * n for _ in range(s)]
        for p, x, q in self.arcs:
            succ[x][p] |= 1 << q
            pred[x][q] |= 1 << p
        return tuple(map(tuple, succ)), tuple(map(tuple, pred))

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
    for sym in w:
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


def refine(
    key: list, succ: list[list[int]], groups: list[range]
) -> tuple[list[int], int]:
    """Coarsest partition of states 0..n-1 stable under `succ` (state n is
    bottom), refined from the classes of `key`; returns (class per state,
    passes).

    Each pass re-splits `groups` in order: a state's signature is its key
    plus the current class of each successor. Bottom's class is -1 in every
    pass, and a class not yet computed reads -1 too. A group therefore sees
    the classes earlier groups got in the same pass. Precondition: every
    group after the first reads
    only groups before it in the same pass (the first may read any group,
    itself included). Then, as every pass refines the one before, a pass in
    which the first group keeps its class count repeats the previous pass
    group by group, so the routine stops there, after the first group: that
    pass is the first that changes nothing, and it is counted.
    """
    block = [-1] * (len(key) + 1)  # block[n], bottom's slot, stays -1
    current = block.__getitem__

    def split(group: range, total: int) -> int:
        # all signatures before any write: a state's successors may sit in
        # its own group
        sigs = [(key[q], *map(current, succ[q])) for q in group]
        ids: dict[tuple, int] = {}
        for q, sig in zip(group, sigs):
            block[q] = ids.setdefault(sig, total + len(ids))
        return total + len(ids)

    head, *rest = groups
    count, passes = -1, 0
    while True:
        passes += 1
        total = split(head, 0)
        if total == count:
            return block[:len(key)], passes
        count = total
        for group in rest:
            total = split(group, total)


def accessible_states(a: Nfa) -> set[str]:
    return closure(a.initials, ((p, q) for p, _, q in a.transitions))


def coaccessible_states(a: Nfa) -> set[str]:
    return closure(a.finals, ((q, p) for p, _, q in a.transitions))


def accessible_part(a: Nfa) -> Nfa:
    """Sub-automaton of states reachable from the initials; language unchanged."""
    return _restrict(a, accessible_states(a))


def subset_name(members: Iterable[str]) -> str:
    return "{" + ",".join(sorted(members)) + "}"


def subset_names(sets: Iterable[frozenset[str]]) -> list[str]:
    """`subset_name` of each of the distinct `sets`, in order. A state id may
    contain a comma, so two sets can get one name; that is an InputError
    naming both."""
    owner: dict[str, frozenset[str]] = {}
    for members in sets:
        other = owner.setdefault(subset_name(members), members)
        if other != members:
            raise InputError(
                f"state sets {sorted(other)} and {sorted(members)} "
                f"are both named {subset_name(members)}"
            )
    return list(owner)


def determinize(a: Nfa) -> Dfa:
    """Accessible part of the powerset automaton. Subset states carry
    canonical, order-independent names so results are reproducible. Each
    subset found counts |Q| cells; the construction is refused once the
    count passes SIZE_BUDGET."""
    start = frozenset(a.initials)
    order = [start]
    index = {start: 0}
    arcs: list[tuple[int, str, int]] = []
    for i, current in enumerate(order):  # breadth first: `order` grows
        for sym in a.alphabet:
            nxt: set[str] = set()
            for q in current:
                nxt |= a._succ.get((q, sym), frozenset())
            if not nxt:
                continue
            target = frozenset(nxt)
            if target not in index:
                if (len(order) + 1) * len(a.states) > SIZE_BUDGET:
                    raise InputError(
                        f"subset construction subsets*|Q| = {len(order) + 1}*"
                        f"{len(a.states)} cells is over the size budget {SIZE_BUDGET}"
                    )
                index[target] = len(order)
                order.append(target)
            arcs.append((i, sym, index[target]))
    names = subset_names(order)
    return Dfa(
        alphabet=a.alphabet,
        states=tuple(names),
        initials=frozenset({names[0]}),
        finals=frozenset(n for n, s in zip(names, order) if s & a.finals),
        transitions=tuple((names[p], sym, names[q]) for p, sym, q in arcs),
    )


def minimize_dfa(d: Dfa) -> Dfa:
    """Minimal DFA for L(d), up to isomorphism.

    `refine` splits the accessible, co-accessible states from their
    finality; a missing or dead successor reads as bottom, so no sink is
    added. Merged states are named after their least member, in the
    declared order of their earliest one. A dead initial state leaves one
    non-final state without transitions, named after the least accessible
    state.
    """
    if not isinstance(d, Dfa):
        raise PreconditionError("minimize_dfa needs a deterministic automaton")
    acc = accessible_states(d)
    live = d.state_order(acc & coaccessible_states(d))
    index = {q: i for i, q in enumerate(live)}
    if d.initial not in index:
        dead = min(acc)
        return Dfa(d.alphabet, (dead,), frozenset({dead}), frozenset(), ())
    col = {a: j for j, a in enumerate(d.alphabet)}
    succ = [[len(live)] * len(col) for _ in live]  # bottom is state len(live)
    arcs = [(index[p], a, index[q]) for p, a, q in d.transitions
            if p in index and q in index]
    for p, a, q in arcs:
        succ[p][col[a]] = q
    block, _ = refine([q in d.finals for q in live], succ, [range(len(live))])
    members: dict[int, list[str]] = {}
    for q, b in zip(live, block):  # classes in the order of their first member
        members.setdefault(b, []).append(q)
    name = {b: min(ms) for b, ms in members.items()}
    return Dfa(
        alphabet=d.alphabet,
        states=tuple(name.values()),
        initials=frozenset({name[block[index[d.initial]]]}),
        finals=frozenset(name[block[index[q]]] for q in d.finals if q in index),
        transitions=tuple({(name[block[p]], a, name[block[q]]) for p, a, q in arcs}),
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
