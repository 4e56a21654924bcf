"""Trimming a QDS via its path-DFA.

Plain graph accessibility is not enough to trim a QDS: a state can be
reachable by edges yet lie on no shiftable path, because the window contents
carried across a shift constrain which edges can actually fire. The path-DFA
tracks exactly that context: each of its states is (base state, symbols read
since the last shift, pending overlap still owed by that shift). Useful
components of the structure are read off the accessible-and-coaccessible
part of this DFA.

The walk runs on `Qds.tables` with nodes (row offset, u codes, v codes) and
tries only the tokens that can fire: a top-layer node its gamma shift, an
inner node the column v[|u|] while v is unpaid, else every delta column.
The useful parts come back as marks on the tables, which `restrict_qds`
cuts the structure down with. `path_dfa_step` in tests/reference_trim.py
restates one step off the definition, as the tests' oracle.
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
Node = tuple[int, tuple[int, ...], tuple[int, ...]]  # (row offset, u codes, v codes)


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
        return self.pdfa.lift(self.pdfa.nodes[i])


@dataclass(frozen=True)
class PathDfa:
    """Accessible part of the path-DFA of a QDS, over the extended alphabet
    of symbols and shift lengths: the nodes in breadth-first order and their
    edges, with `states`, `finals` and `transitions` by name."""

    source: Qds
    initial: PathDfaState
    nodes: list[Node]
    final_ids: list[int]
    edge_src: list[int]
    edge_dst: list[int]

    def lift(self, node: Node) -> PathDfaState:
        (row, u, v), sym = node, self.source.alphabet
        return PathDfaState(self.source.states[row // self.source.tables.width],
                            tuple(sym[c] for c in u), tuple(sym[c] for c in v))

    @property
    def states(self) -> Sequence[PathDfaState]:
        return _States(self)

    @cached_property
    def finals(self) -> frozenset[PathDfaState]:
        return frozenset(self.lift(self.nodes[i]) for i in self.final_ids)

    @cached_property
    def transitions(self) -> dict[tuple[PathDfaState, Token], PathDfaState]:
        lifted, t, out = list(self.states), self.source.tables, {}
        for p, q in zip(self.edge_src, self.edge_dst):
            u = self.nodes[q][1]  # a symbol appends to u, a shift empties it
            token = self.source.alphabet[u[-1]] if u else t.gamma[self.nodes[p][0] // t.width][1]
            out[(lifted[p], token)] = lifted[q]
        return out


def build_path_dfa(s: Qds) -> PathDfa:
    """Explore the path-DFA breadth first from (initial, eps, eps); only
    accessible states are materialized. Each state found counts m cells;
    the construction is refused once the count passes SIZE_BUDGET."""
    t = s.tables
    delta, gamma, width, finals = t.delta, t.gamma, t.width, t.finals
    columns = range(len(s.alphabet))
    cap = SIZE_BUDGET // s.m  # states allowed
    start: Node = (t.initial, (), ())
    nodes = [start]
    index = {start: 0}
    final_ids: list[int] = []
    edge_src: list[int] = []  # edge e runs from node edge_src[e] to edge_dst[e]
    edge_dst: list[int] = []
    for i, (row, u, v) in enumerate(nodes):  # the list grows behind the cursor
        if row in finals and len(v) < len(u):  # v is a proper prefix of u
            final_ids.append(i)
        g = gamma[row // width]
        if g is None:  # inner layer: u and v stay prefix-comparable
            n = len(u)
            moves = [(delta[row + c], u + (c,), v)
                     for c in ((v[n],) if n < len(v) else columns) if delta[row + c] >= 0]
        elif g[0] >= 0:  # top layer: the one shift gamma allows
            moves = [(g[0], (), u[g[1]:])]
        else:
            continue
        for node in moves:
            count = len(nodes)
            j = index.setdefault(node, count)
            if j == count:
                if count >= cap:
                    raise InputError(f"path-DFA states*m = {count + 1}*{s.m} cells "
                                     f"is over the size budget {SIZE_BUDGET}")
                nodes.append(node)
            edge_src.append(i)
            edge_dst.append(j)
    return PathDfa(s, PathDfaState(s.initial, (), ()), nodes, final_ids, edge_src, edge_dst)


def _useful_marks(s: Qds) -> tuple[bytearray, bytearray, bytearray, bytearray]:
    """(useful states, useful delta slots, useful gamma entries, useful
    finalities) of `s` as marks on its tables, for `restrict_qds`: a
    path-DFA node is useful iff it is accessible and coaccessible, and a
    state, edge or finality iff some useful node witnesses it."""
    pdfa = build_path_dfa(s)
    nodes, t = pdfa.nodes, s.tables
    width = t.width
    into: list[list[int]] = [[] for _ in nodes]
    for p, q in zip(pdfa.edge_src, pdfa.edge_dst):
        into[q].append(p)
    # all built states are accessible, so the coaccessible ones are useful,
    # and so is every edge into one: delta if it appended to u, else gamma
    useful = bytearray(len(nodes))
    delta_used = bytearray(len(t.delta))  # by delta slot, row + column
    gamma_used = bytearray(len(t.gamma))  # by state number
    stack = pdfa.final_ids[:]
    for i in stack:
        useful[i] = 1
    while stack:
        q = stack.pop()
        u = nodes[q][1]
        for p in into[q]:
            if u:
                delta_used[nodes[p][0] + u[-1]] = 1
            else:
                gamma_used[nodes[p][0] // width] = 1
            if not useful[p]:
                useful[p] = 1
                stack.append(p)
    keep, final = bytearray(len(t.gamma)), bytearray(len(t.gamma))
    keep[t.initial // width] = 1
    for i in compress(range(len(nodes)), useful):
        keep[nodes[i][0] // width] = 1
    for i in pdfa.final_ids:
        final[nodes[i][0] // width] = 1
    if t.initial in t.finals:
        final[t.initial // width] = 1  # the empty path is successful
    return keep, delta_used, gamma_used, final


def trim_qds(s: Qds) -> Qds:
    """Keep only useful states, transitions and finalities (the path-DFA's
    marks); language unchanged, idempotent. Gamma entries whose edge is
    useless collapse to bottom; trailing layers left empty are dropped
    (keeping at least two). The result is restricted on the tables and
    carries its own."""
    return restrict_qds(s, *_useful_marks(s))
