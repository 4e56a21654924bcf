"""Trimming a QDS via its path-DFA.

Plain graph accessibility is not enough to trim a QDS: a state can be
reachable by edges yet lie on no shiftable path, because the window contents
carried across a shift constrain which edges can actually fire. The path-DFA
tracks exactly that context: each of its states is (base state, symbols read
since the last shift, pending overlap still owed by that shift). Useful
components of the structure are read off the accessible-and-coaccessible
part of this DFA.

The walk runs on `Qds.tables` with each node one integer, so each move is
arithmetic, and tries only the tokens that can fire: a top-layer node its
gamma shift, an inner node the column v[|u|] while v is unpaid, else every
delta column. The useful parts come back as marks on the tables, which
`restrict_qds` cuts the structure down with. `path_dfa_step` in
tests/reference_trim.py restates one step off the definition, as the
tests' oracle.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import NamedTuple

from .errors import SIZE_BUDGET, InputError
from .structure import Qds, restrict_qds
from .words import Word

Token = str | int  # extended alphabet: symbols plus shift lengths


class PathDfaState(NamedTuple):
    base: str
    u: Word  # read since the last shift, |u| <= m-1
    v: Word  # overlap obligation left by that shift, a prefix constraint on u

    def __repr__(self) -> str:
        return f"({self.base},{'.'.join(self.u) or '_'},{'.'.join(self.v) or '_'})"


class _States(Sequence):
    """`PathDfa.states`: the nodes, each lifted to names when read."""

    def __init__(self, pdfa: PathDfa):
        self.pdfa = pdfa

    def __len__(self) -> int:
        return len(self.pdfa.nodes)

    def __getitem__(self, i: int) -> PathDfaState:
        return self.pdfa.lift(i)


@dataclass(frozen=True)
class PathDfa:
    """Accessible part of the path-DFA of a QDS, over the extended alphabet
    of symbols and shift lengths, with `states`, `finals` and `transitions`
    by name.

    Node i is the integer (x*m + |v|)*len(delta) + row, numbered breadth
    first; its row is a state's, never the sink's. An edge names the table
    entry it takes: its delta slot, or len(delta) + q for the gamma entry of
    state q. Node j > 0 was found through the entry entered[j] from node
    parent[j]; `cross` holds (source, node, entry) for every edge into a
    node found before it."""

    source: Qds
    initial: PathDfaState
    nodes: list[int]
    final_ids: list[int]
    parent: list[int]
    entered: list[int]
    cross: list[tuple[int, int, int]]

    def lift(self, i: int) -> PathDfaState:
        """Node i by name, as `build_path_dfa` encodes it."""
        s = self.source
        t = s.tables
        rest, row = divmod(self.nodes[i], len(t.delta))
        x, nv = divmod(rest, s.m)
        q = s.states[row // t.width]
        nu = s.layer_of[q] - 1
        spelled = []
        for _ in range(max(nu, nv)):
            x, c = divmod(x, t.width)
            spelled.append(s.alphabet[c])
        spelled.reverse()
        return PathDfaState(q, tuple(spelled[:nu]), tuple(spelled[:nv]))

    @property
    def states(self) -> Sequence[PathDfaState]:
        return _States(self)

    @cached_property
    def finals(self) -> frozenset[PathDfaState]:
        return frozenset(self.lift(i) for i in self.final_ids)

    @cached_property
    def transitions(self) -> dict[tuple[PathDfaState, Token], PathDfaState]:
        """Edges in the order the walk tried them: by source, and a source's
        delta slots in column order."""
        lifted, t = list(self.states), self.source.tables
        edges = [(p, e, q) for q, (p, e) in enumerate(zip(self.parent, self.entered)) if q]
        edges += [(p, e, q) for p, q, e in self.cross]
        return {(lifted[p], self.source.alphabet[e % t.width] if e < len(t.delta)
                 else t.gamma[e - len(t.delta)][1]):
                lifted[q] for p, e, q in sorted(edges)}


def build_path_dfa(s: Qds) -> PathDfa:
    """Explore the path-DFA breadth first from (initial, eps, eps); only
    accessible states are materialized. Each state found counts m cells;
    the construction is refused once the count passes SIZE_BUDGET.

    A node is (row, |v|, x), x the rank, base `width`, of the longer of u
    and v: while v is unpaid u is its prefix, after that v is u's, and |u|
    is the row's layer minus 1. An unpaid read takes column v[|u|], a digit
    of x; a paid read of column c makes x*width + c; a shift leaves
    v' = u[shift:], x mod width^|v'|."""
    t, m = s.tables, s.m
    delta, gamma, width, finals = t.delta, t.gamma, t.width, t.finals
    depth = [j for j, layer in enumerate(s.layers) for _ in layer]  # |u| by state
    power = [width ** j for j in range(m)]
    columns = range(len(s.alphabet))
    size = len(delta)  # a key's row offset stays below the sink's
    sink = size - width
    cap = SIZE_BUDGET // m  # states allowed

    def over_budget(count: int) -> str:
        return f"path-DFA states*m = {count + 1}*{m} cells is over the size budget {SIZE_BUDGET}"

    nodes, parent, entered = [t.initial], [-1], [-1]
    index = {t.initial: 0}
    final_ids: list[int] = []
    cross: list[tuple[int, int, int]] = []
    for i, key in enumerate(nodes):  # the list grows behind the cursor
        rest, row = divmod(key, size)
        x, nv = divmod(rest, m)
        q = row // width
        nu = depth[q]
        if nv < nu and row in finals:  # v is a proper prefix of u
            final_ids.append(i)
        g = gamma[q]
        if g is None:  # inner layer: u and v stay prefix-comparable
            if nu < nv:  # v unpaid: only its next symbol can fire, x stays
                cols, base, step = (x // power[nv - 1 - nu] % width,), rest * size, 0
            else:  # column c makes x*width + c
                cols, base, step = columns, (rest + x * (width - 1) * m) * size, m * size
            for c in cols:
                nxt = delta[row + c]
                if nxt == sink:
                    continue
                key = base + c * step + nxt
                count = len(nodes)
                j = index.setdefault(key, count)
                if j == count:
                    if count >= cap:
                        raise InputError(over_budget(count))
                    nodes.append(key)
                    parent.append(i)
                    entered.append(row + c)
                else:
                    cross.append((i, j, row + c))
        elif g[0] != sink:  # top layer: the one shift gamma allows
            nv = m - 1 - g[1]
            key = (x % power[nv] * m + nv) * size + g[0]
            count = len(nodes)
            j = index.setdefault(key, count)
            if j == count:
                if count >= cap:
                    raise InputError(over_budget(count))
                nodes.append(key)
                parent.append(i)
                entered.append(len(delta) + q)
            else:
                cross.append((i, j, len(delta) + q))
    return PathDfa(s, PathDfaState(s.initial, (), ()), nodes, final_ids, parent, entered, cross)


def _useful_marks(s: Qds) -> tuple[bytearray, bytearray, bytearray, bytearray]:
    """(useful states, useful delta slots, useful gamma entries, useful
    finalities) of `s` as marks on its tables, for `restrict_qds`: a
    path-DFA node is useful iff it is accessible and coaccessible, and a
    state, edge or finality iff some useful node witnesses it."""
    pdfa = build_path_dfa(s)
    nodes, parent, entered, t = pdfa.nodes, pdfa.parent, pdfa.entered, s.tables
    width, size = t.width, len(t.delta)
    # a node's in-edges: its tree edge alone (None), or a list where edges
    # cross into it; the start has no tree edge
    into: list[list[tuple[int, int]] | None] = [None] * len(nodes)
    into[0] = []
    for p, q, entry in pdfa.cross:
        if into[q] is None:
            into[q] = [(parent[q], entered[q])]
        into[q].append((p, entry))
    # all built states are accessible, so the coaccessible ones are useful,
    # and so is every edge into one: `used` marks the entries the edges
    # name, delta slots and then gamma entries by state
    useful = bytearray(len(nodes))
    used = bytearray(len(t.delta) + len(t.gamma))
    stack = pdfa.final_ids[:]
    for i in stack:
        useful[i] = 1
    while stack:
        q = stack.pop()
        edges = into[q]
        if edges is None:
            p = parent[q]
            used[entered[q]] = 1
            if not useful[p]:
                useful[p] = 1
                stack.append(p)
            continue
        for p, entry in edges:
            used[entry] = 1
            if not useful[p]:
                useful[p] = 1
                stack.append(p)
    keep, final = bytearray(len(t.gamma)), bytearray(len(t.gamma))
    keep[t.initial // width] = 1
    for key in compress(nodes, useful):
        keep[key % size // width] = 1
    for i in pdfa.final_ids:
        final[nodes[i] % size // width] = 1
    if t.initial in t.finals:
        final[t.initial // width] = 1  # the empty path is successful
    return keep, used[:len(t.delta)], used[len(t.delta):], final


def trim_qds(s: Qds) -> Qds:
    """Keep only useful states, transitions and finalities (the path-DFA's
    marks); language unchanged, idempotent. Gamma entries whose edge is
    useless collapse to bottom; trailing layers left empty are dropped
    (keeping at least two). The result is restricted on the tables and
    carries its own."""
    return restrict_qds(s, *_useful_marks(s))
