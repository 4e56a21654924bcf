"""Window-lookahead analysis of NFAs.

Everything here reads the square automaton, the product of an automaton
with itself. "Can a bounded window ever disambiguate this automaton?" holds
iff every cycle of the accessible pair graph visits a diagonal state. A
single (k,l) is decided by a walk: state q has a bad (k,l) row (q, w) iff
the square graph has a walk labelled w from (q,q) whose pairs at positions
1..l are off-diagonal. Such a walk gives two runs on w that differ at every
split up to l; conversely a bad row has two live states at each of those
splits, and Menger's theorem turns that trellis of live states into two
vertex-disjoint runs. `kernels.find_bad_row` runs that walk;
`kernels._python_witness`, which enumerates every (state, window) row
against the defining cardinality condition, is the oracle the tests hold it
to.

The same argument at l = k gives the minimal window: a (k,k) bad row exists
iff the diagonal-free square graph has a path of k nodes, hence k_min = 1 +
the longest such path.

Constructions whose size grows with k are checked against SIZE_BUDGET
before anything is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .errors import InputError, PreconditionError
from .nfa import Nfa, accessible_states, delta_word
from .words import Word, as_word, words_of_length

SIZE_BUDGET = 1 << 24  # walk steps or step-table cells one call may take


@dataclass(frozen=True)
class PairState:
    first: str
    second: str

    @property
    def is_diagonal(self) -> bool:
        return self.first == self.second

    def __repr__(self) -> str:
        return f"({self.first},{self.second})"


@dataclass(frozen=True)
class SquareAutomaton:
    """Accessible part of the product of an automaton with itself."""

    states: frozenset[PairState]
    transitions: frozenset[tuple[PairState, str, PairState]]


@dataclass(frozen=True)
class StepEntry:
    """Largest disambiguating split of a window, and the lone survivor."""

    index: int
    successor: str | None


@dataclass(frozen=True)
class StepTable:
    k: int
    l: int
    entries: dict[tuple[str, Word], StepEntry]


@dataclass(frozen=True)
class KlReport:
    exists: bool
    certificate: tuple[PairState, ...] | None  # diagonal-free cycle when exists=False
    k_min: int | None  # smallest k with (k,k)-unambiguity; None when exists=False


def _require_single_initial(a: Nfa) -> str:
    if len(a.initials) != 1:
        raise PreconditionError("operation needs a single initial state")
    return next(iter(a.initials))


def square_automaton(a: Nfa) -> SquareAutomaton:
    """Pair graph from (i,i) under the product rule
    delta'((p,q),a) = delta(p,a) x delta(q,a)."""
    init = _require_single_initial(a)
    start = PairState(init, init)
    seen = {start}
    frontier = [start]
    transitions: set[tuple[PairState, str, PairState]] = set()
    while frontier:
        pair = frontier.pop()
        for sym in a.alphabet:
            left = a.successors(pair.first, sym)
            right = a.successors(pair.second, sym)
            for p in left:
                for q in right:
                    target = PairState(p, q)
                    transitions.add((pair, sym, target))
                    if target not in seen:
                        seen.add(target)
                        frontier.append(target)
    return SquareAutomaton(frozenset(seen), frozenset(transitions))


def _cycle_or_longest_path(
    nodes: set[PairState], edges: dict[PairState, list[PairState]]
) -> tuple[tuple[PairState, ...] | None, int]:
    """Depth-first search of the given subgraph: (cycle, 0) for the first
    directed cycle met, as a node sequence whose last element loops back to
    the first; (None, n) when acyclic, n the node count of a longest path."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {v: WHITE for v in nodes}
    depth: dict[PairState, int] = {}  # nodes on a longest path from a finished node
    for root in sorted(nodes, key=repr):
        if color[root] != WHITE:
            continue
        stack: list[tuple[PairState, int]] = [(root, 0)]
        path = [root]
        color[root] = GREY
        while stack:
            node, idx = stack[-1]
            succs = edges.get(node, [])
            if idx < len(succs):
                stack[-1] = (node, idx + 1)
                nxt = succs[idx]
                if color[nxt] == GREY:
                    return tuple(path[path.index(nxt):]), 0
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, 0))
                    path.append(nxt)
            else:
                color[node] = BLACK
                depth[node] = 1 + max((depth[t] for t in succs), default=0)
                stack.pop()
                path.pop()
    return None, max(depth.values(), default=0)


def exists_kl(a: Nfa) -> KlReport:
    """Does any (k,l) make `a` unambiguous, and from which k on?

    True iff deleting the diagonal states from the accessible square
    automaton leaves an acyclic graph; a surviving cycle is returned as the
    certificate. Otherwise k_min = 1 + the node count of a longest path in
    that graph (1 when it is empty): a (k,k) bad row exists iff some path
    has k nodes, see the module docstring. Runs in time polynomial in
    |Q|^2 x |alphabet|.
    """
    _require_single_initial(a)
    missing = set(a.states) - accessible_states(a)
    if missing:
        raise PreconditionError(
            f"automaton must be accessible (unreachable: {sorted(missing)}); "
            "restrict to the accessible part first"
        )
    square = square_automaton(a)
    nodes = {p for p in square.states if not p.is_diagonal}
    edges: dict[PairState, list[PairState]] = {p: [] for p in nodes}
    for s, _, t in sorted(square.transitions, key=repr):
        if s in nodes and t in nodes and t not in edges[s]:
            edges[s].append(t)
    cycle, longest = _cycle_or_longest_path(nodes, edges)
    if cycle is not None:
        return KlReport(exists=False, certificate=cycle, k_min=None)
    return KlReport(exists=True, certificate=None, k_min=1 + longest)


def kl_witness(a: Nfa, k: int, l: int) -> tuple[str, Word] | None:
    """The first (state, window) row violating the (k,l) condition in
    (state, lexicographic word) order, or None.

    Decided by the square-graph walk of `kernels.find_bad_row` in
    O(k x |Q|^2 x |alphabet|) steps, refused above SIZE_BUDGET.
    """
    if not (1 <= l <= k):
        raise PreconditionError(f"need 1 <= l <= k, got k={k}, l={l}")
    _require_single_initial(a)
    n, s = len(a.states), max(len(a.alphabet), 1)
    if k * n * n * s > SIZE_BUDGET:
        raise InputError(
            f"square-graph walk k*|Q|^2*|alphabet| = {k}*{n}^2*{s} is over "
            f"the size budget {SIZE_BUDGET}"
        )
    return kernels.find_bad_row(a, k, l)


def is_kl_unambiguous(a: Nfa, k: int, l: int) -> bool:
    """True iff for every state q and window w of length k some split
    i <= l leaves at most one state that can still read the rest of w."""
    return kl_witness(a, k, l) is None


def is_k_lookahead_deterministic(a: Nfa, k: int) -> bool:
    """True iff any two out-transitions of a state toward distinct targets
    have disjoint symbol-prefixed length-(k-1) futures, which is exactly
    (k,1)-unambiguity."""
    if k < 1:
        raise PreconditionError("lookahead needs k >= 1")
    return kl_witness(a, k, 1) is None


def step(a: Nfa, k: int, l: int, q: str, w) -> StepEntry:
    """Step index and step successor of state `q` for window `w`.

    The index is the largest j <= l whose split leaves at most one live
    state; the successor is that state, or None when nothing survives.
    Raises when no j qualifies, i.e. when (q,w) witnesses ambiguity.
    """
    if not (1 <= l <= k):
        raise PreconditionError(f"need 1 <= l <= k, got k={k}, l={l}")
    _require_single_initial(a)
    w = as_word(w)
    if len(w) != k:
        raise InputError(f"window must have length {k}, got {len(w)}")
    if q not in a.states:
        raise InputError(f"unknown state {q!r}")
    for j in range(l, 0, -1):
        live = {
            r for r in delta_word(a, {q}, w[:j]) if delta_word(a, {r}, w[j:])
        }
        if len(live) <= 1:
            return StepEntry(index=j, successor=next(iter(live)) if live else None)
    raise PreconditionError(
        f"no split of window {''.join(w)!r} at state {q!r} disambiguates: "
        f"automaton is not ({k},{l})-unambiguous"
    )


def step_table(a: Nfa, k: int, l: int) -> StepTable:
    """Tabulate `step` over every (state, window) row."""
    _require_single_initial(a)
    n, s = len(a.states), max(len(a.alphabet), 1)
    # each row holds a k-symbol window; s ** k is capped at k = 25: from
    # there on it is over the budget anyway
    if n * s ** min(k, SIZE_BUDGET.bit_length()) * k > SIZE_BUDGET:
        raise InputError(
            f"step table |Q|*|alphabet|^k*k = {n}*{s}^{k}*{k} cells is over "
            f"the size budget {SIZE_BUDGET}"
        )
    entries = {
        (q, w): step(a, k, l, q, w)
        for q in a.states
        for w in words_of_length(a.alphabet, k)
    }
    return StepTable(k=k, l=l, entries=entries)


def find_minimal_kl(a: Nfa) -> tuple[int, int] | None:
    """Lexicographically smallest (k,l) making `a` unambiguous; None exactly
    when no pair exists.

    k is `exists_kl(a).k_min`: no smaller k works even at l = k, and
    (k_min, k_min) does by the square-graph theorem, so only l = 1..k_min is
    checked at that single k.
    """
    k = exists_kl(a).k_min
    if k is None:
        return None
    return next((k, l) for l in range(1, k + 1) if is_kl_unambiguous(a, k, l))
