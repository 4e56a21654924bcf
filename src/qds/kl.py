"""Window-lookahead analysis of NFAs.

Everything here reads the square automaton, the product of an automaton
with itself. "Can a bounded window ever disambiguate this automaton?" holds
iff every cycle of the accessible pair graph visits a diagonal state. A
single (k,l) is decided by a walk: state q has a bad (k,l) row (q, w) iff
the square graph has a walk labelled w from (q,q) whose pairs at positions
1..l are off-diagonal. Such a walk gives two runs on w that differ at every
split up to l; conversely a bad row has two live states at each of those
splits, and Menger's theorem turns that trellis of live states into two
vertex-disjoint runs. `kernels.find_bad_row` runs that walk, taking the
image of each row of a pair set from byte tables;
`kernels._python_witness`, which enumerates every (state, window) row
against the defining cardinality condition, is the oracle the tests hold it
to.

The same argument at l = k gives the minimal window: a (k,k) bad row exists
iff the diagonal-free square graph has a path of k nodes, hence k_min = 1 +
the longest such path.

The step table reads the same bitmasks: a row's live states at split j are
the front of its j-symbol prefix intersected with the states that can read
the rest (`kernels.fronts`, `kernels.can_read`), each tabulated once for
every state and word, a set's image taking one byte-table read per 8
states. `_split` states the row rule once, off the definition: `step`
reads it for one row, as the table's oracle that raises its errors, and
`kernels._python_witness` for every row, as the walk's oracle.

Constructions whose size grows with k are checked against SIZE_BUDGET
(`errors.SIZE_BUDGET`) before anything is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from . import kernels
from .errors import SIZE_BUDGET, InputError, PreconditionError
from .nfa import Nfa, Node, accessible_states, delta_word
from .words import Word, words_of_length


@dataclass(frozen=True)
class PairState:
    first: str
    second: str

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
    """Row i*|alphabet|^k + rank(w) holds (step index, step successor's
    state number or -1) of the i-th state and window w."""

    k: int
    l: int
    entries: list[tuple[int, int]]


@dataclass(frozen=True)
class KlReport:
    exists: bool
    certificate: tuple[PairState, ...] | None  # diagonal-free cycle when exists=False
    k_min: int | None  # smallest k with (k,k)-unambiguity; None when exists=False


def _require_single_initial(a: Nfa) -> str:
    if len(a.initials) != 1:
        raise PreconditionError("operation needs a single initial state")
    return next(iter(a.initials))


def _check_request(a: Nfa, k: int, l: int) -> None:
    """The contract of a (k,l) question: 1 <= l <= k, one initial state."""
    if not (1 <= l <= k):
        raise PreconditionError(f"need 1 <= l <= k, got k={k}, l={l}")
    _require_single_initial(a)


def _split(a: Nfa, l: int, q: str, w: Word) -> tuple[int, str | None] | None:
    """The (k,l) row rule: (j, survivor) for the largest split j <= l of `w`
    at `q` leaving at most one live state (reached by w[:j], able to read
    w[j:]), survivor None if none is; None when no split does: a bad row."""
    for j in range(l, 0, -1):
        live = {r for r in delta_word(a, {q}, w[:j]) if delta_word(a, {r}, w[j:])}
        if len(live) <= 1:
            return j, next(iter(live), None)
    return None


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
    roots: list[Node], edges: dict[Node, list[Node]]
) -> tuple[list[Node] | None, int]:
    """Depth-first search of a graph, started from `roots` in order:
    (cycle, 0) for the first directed cycle met, as a node sequence whose
    last element loops back to the first; (None, n) when acyclic, n the node
    count of a longest path."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(roots, WHITE)
    depth: dict[Node, int] = {}  # nodes on a longest path from a finished node
    for root in roots:
        if color[root] != WHITE:
            continue
        stack: list[tuple[Node, int]] = [(root, 0)]
        path = [root]
        color[root] = GREY
        while stack:
            node, idx = stack[-1]
            succs = edges[node]
            if idx < len(succs):
                stack[-1] = (node, idx + 1)
                nxt = succs[idx]
                if color[nxt] == GREY:
                    return path[path.index(nxt):], 0
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
    |Q|^2 x |alphabet|. The graph is walked on pair ids p*|Q| + r, roots
    and edges in the order of the printed pairs and transitions
    (`repr` of `PairState` and of the transition triple), the order the
    certificate is found in.
    """
    init = _require_single_initial(a)
    missing = set(a.states) - accessible_states(a)
    if missing:
        raise PreconditionError(
            f"automaton must be accessible (unreachable: {sorted(missing)}); "
            "restrict to the accessible part first"
        )
    n = len(a.states)
    succ, _ = kernels.masks(a)
    start = a.states.index(init) * (n + 1)
    arcs: dict[int, list[tuple[str, int]]] = {start: []}  # accessible pair -> (symbol, pair)
    stack = [start]
    while stack:
        pair = stack.pop()
        p, r = divmod(pair, n)
        for x, fwd in zip(a.alphabet, succ):
            for t in kernels.bits(fwd[p]):
                for u in kernels.bits(fwd[r]):
                    target = t * n + u
                    arcs[pair].append((x, target))
                    if target not in arcs:
                        arcs[target] = []
                        stack.append(target)
    spelled = {
        pair: f"({a.states[pair // n]},{a.states[pair % n]})"
        for pair in arcs if pair // n != pair % n
    }
    edges: dict[int, list[int]] = {}
    for pair, text in spelled.items():
        out = edges[pair] = []
        for _, t in sorted(
            ((x, t) for x, t in arcs[pair] if t in spelled),
            key=lambda xt: f"({text}, {xt[0]!r}, {spelled[xt[1]]})",
        ):
            if t not in out:
                out.append(t)
    cycle, longest = _cycle_or_longest_path(sorted(spelled, key=spelled.get), edges)
    if cycle is not None:
        certificate = tuple(PairState(a.states[c // n], a.states[c % n]) for c in cycle)
        return KlReport(exists=False, certificate=certificate, k_min=None)
    return KlReport(exists=True, certificate=None, k_min=1 + longest)


def kl_witness(a: Nfa, k: int, l: int) -> tuple[str, Word] | None:
    """The first (state, window) row violating the (k,l) condition in
    (state, lexicographic word) order, or None.

    Decided by the square-graph walk of `kernels.find_bad_row` in
    O(k x |Q|^2 x |alphabet|) steps, refused above SIZE_BUDGET.
    """
    _check_request(a, k, l)
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
    """Step index and step successor of state `q` for window `w`, by the
    row rule `_split`. Raises when no split qualifies, i.e. when (q,w)
    witnesses ambiguity."""
    _check_request(a, k, l)
    w = tuple(w)
    if len(w) != k:
        raise InputError(f"window must have length {k}, got {len(w)}")
    if q not in a.states:
        raise InputError(f"unknown state {q!r}")
    split = _split(a, l, q, w)
    if split is None:
        raise PreconditionError(
            f"no split of window {''.join(w)!r} at state {q!r} disambiguates: "
            f"automaton is not ({k},{l})-unambiguous"
        )
    return StepEntry(*split)


def step_table(a: Nfa, k: int, l: int) -> StepTable:
    """`step` over every (state, window) row, in (state, lexicographic
    word) order, with states as numbers.

    Entry j of a row is the largest split whose live set, the prefix front
    AND the can-read set of the suffix, has at most one bit; the fronts are
    tabulated once per (state, word) and the can-read sets once per word,
    so no row reruns `delta_word`. A row where no j qualifies is handed to
    `step`, which raises the error naming it.
    """
    _require_single_initial(a)
    n, s = len(a.states), max(len(a.alphabet), 1)
    # each row holds a k-symbol window; s ** k is capped at k = 25: from
    # there on it is over the budget anyway
    if n * s ** min(k, SIZE_BUDGET.bit_length()) * k > SIZE_BUDGET:
        raise InputError(
            f"step table |Q|*|alphabet|^k*k = {n}*{s}^{k}*{k} cells is over "
            f"the size budget {SIZE_BUDGET}"
        )
    _check_request(a, k, l)
    if not a.alphabet:  # no window to read: no rows
        return StepTable(k=k, l=l, entries=[])
    succ, pred = kernels.masks(a)
    live_after = kernels.can_read(pred, (1 << n) - 1, k - 1)
    reached = kernels.fronts(succ, [1 << i for i in range(n)], l)
    # row r = i*s^k + c splits at j into the prefix front r // s^(k-j) of
    # state i and the suffix can-read set r % s^(k-j)
    splits = [(s ** (k - j), j, reached[j], live_after[k - j]) for j in range(l, 0, -1)]
    entries = []
    for r in range(n * s ** k):
        for cut, j, front, live_b in splits:
            live = front[r // cut] & live_b[r % cut]
            if not live & (live - 1):  # at most one live state
                entries.append((j, live.bit_length() - 1))
                break
        else:  # raises: no split disambiguates this row
            i, c = divmod(r, s ** k)
            step(a, k, l, a.states[i], next(islice(words_of_length(a.alphabet, k), c, None)))
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
