"""The square automaton on state names, and the (k,l) existence verdict read
off it: the oracles for `kl.square_automaton` and `kl.exists_kl`.

`reference_square` is the product construction by name, one pair at a time
through `Nfa.successors`. `reference_exists` deletes the diagonal, orders
roots and edges by their printed form (`repr` of `PairState` and of the
transition triple), and runs its own depth-first search, so it shares no
code with the walk on pair ids that `exists_kl` runs.
"""

from __future__ import annotations

from qds import KlReport, Nfa, PairState, PreconditionError, SquareAutomaton


def reference_square(a: Nfa) -> SquareAutomaton:
    """Pair graph from (i,i) under the product rule
    delta'((p,q),a) = delta(p,a) x delta(q,a)."""
    if len(a.initials) != 1:
        raise PreconditionError("operation needs a single initial state")
    init = next(iter(a.initials))
    start = PairState(init, init)
    seen = {start}
    frontier = [start]
    transitions: set[tuple[PairState, str, PairState]] = set()
    while frontier:
        pair = frontier.pop()
        for sym in a.alphabet:
            for p in a.successors(pair.first, sym):
                for q in a.successors(pair.second, sym):
                    target = PairState(p, q)
                    transitions.add((pair, sym, target))
                    if target not in seen:
                        seen.add(target)
                        frontier.append(target)
    return SquareAutomaton(frozenset(seen), frozenset(transitions))


def cycle_or_longest_path(roots: list, edges: dict) -> tuple[list | None, int]:
    """Depth first from `roots` in order, each node's `edges` in order:
    (cycle, 0) for the first edge met that closes a cycle, the cycle as the
    nodes from that edge's target to its source; (None, n) when acyclic, n
    the node count of a longest path."""
    path: list = []  # the nodes being visited, outermost first
    done = set()

    def visit(node):
        path.append(node)
        for nxt in edges[node]:
            if nxt in path:
                return path[path.index(nxt):]
            if nxt not in done:
                cycle = visit(nxt)
                if cycle is not None:
                    return cycle
        path.pop()
        done.add(node)
        return None

    for root in roots:
        if root not in done:
            cycle = visit(root)
            if cycle is not None:
                return cycle, 0
    longest: dict = {}

    def nodes_from(node) -> int:
        if node not in longest:
            longest[node] = 1 + max((nodes_from(t) for t in edges[node]), default=0)
        return longest[node]

    return None, max(map(nodes_from, roots), default=0)


def reference_exists(a: Nfa) -> KlReport:
    """`exists_kl` read off `reference_square`: no (k,l) works iff the
    off-diagonal pairs hold a cycle, and otherwise k_min is 1 + the node
    count of a longest off-diagonal path."""
    square = reference_square(a)
    nodes = {p for p in square.states if p.first != p.second}
    edges: dict[PairState, list[PairState]] = {p: [] for p in nodes}
    for s, _, t in sorted(square.transitions, key=repr):
        if s in nodes and t in nodes and t not in edges[s]:
            edges[s].append(t)
    cycle, longest = cycle_or_longest_path(sorted(nodes, key=repr), edges)
    if cycle is not None:
        return KlReport(exists=False, certificate=tuple(cycle), k_min=None)
    return KlReport(exists=True, certificate=None, k_min=1 + longest)
