"""The structure's definitions on the string-keyed maps: the extended
transition function and the shiftable/successful path classification.

The library recognises words on `Qds.tables` (`qds.structure.qds_membership`)
and trims through the path-DFA (`qds.trim`). These restate the paper's
definitions straight on `Qds.delta` and `Qds.gamma`, as the oracles the
tests hold those to: `extended_delta` must agree with `qds_membership`, and
`analyze_path` decides which edge sequences the path-DFA must accept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from qds.errors import InputError, PreconditionError
from qds.structure import Qds
from qds.words import Word, as_word


def step(s: Qds, state: str | None, symbol: str) -> str | None:
    """Bottom-absorbing one-symbol delta (bottom on top-layer states)."""
    if symbol not in s.alphabet:
        raise InputError(f"unknown symbol {symbol!r}")
    if state is None:
        return None
    return s.delta.get((state, symbol))


def chain(s: Qds, state: str | None, w: Iterable[str]) -> str | None:
    """Bottom-absorbing delta over a word of length <= window."""
    for sym in as_word(w):
        state = step(s, state, sym)
    return state


@dataclass(frozen=True)
class QdsEdge:
    """One edge of a QDS: the label is a symbol for delta edges and the
    shift length (an int) for gamma edges."""

    src: str
    label: str | int
    dst: str

    @property
    def is_shift(self) -> bool:
        return isinstance(self.label, int)


@dataclass(frozen=True)
class PathAnalysis:
    shiftable: bool
    successful: bool
    label: Word | None  # defined only when shiftable


def extended_delta(s: Qds, q: str, w: Iterable[str]) -> str | None:
    """The extended transition function, straight from its recursive
    definition but run as a loop over windows.

    A word no longer than the window runs through delta alone; a longer one
    consults gamma on the image of its first window and continues from the
    target on the shifted rest. It reads the string-keyed maps through
    `chain`, never `Qds.tables`, so it stays an independent oracle for
    `qds_membership`; the two must agree.
    """
    if s.layer_of.get(q) != 1:
        raise PreconditionError(f"state {q!r} is not a layer-1 state")
    w = as_word(w)
    start = 0
    while len(w) - start > s.window:
        top = chain(s, q, w[start:start + s.window])
        target, shift = s.gamma[top] if top is not None else (None, 1)
        if target is None:
            return None
        q, start = target, start + shift
    return chain(s, q, w[start:])


def _validate_edges(s: Qds, edges: tuple[QdsEdge, ...]) -> None:
    for i, e in enumerate(edges):
        if e.is_shift:
            entry = s.gamma.get(e.src)
            if entry is None or entry != (e.dst, e.label):
                raise InputError(f"not a gamma edge of this structure: {e}")
        else:
            if s.delta.get((e.src, e.label)) != e.dst:
                raise InputError(f"not a delta edge of this structure: {e}")
        if i > 0 and edges[i - 1].dst != e.src:
            raise InputError(
                f"edges {i-1} and {i} do not connect ({edges[i-1].dst} vs {e.src})"
            )


def analyze_path(s: Qds, edges: Iterable[QdsEdge], start: str | None = None) -> PathAnalysis:
    """Classify an edge sequence as shiftable / successful and compute its
    label (the input word the path consumes, overlap symbols counted once).

    Every shift edge must have enough preceding symbols, enough following
    edges, and a matching overlap. The empty path (anchored by `start`) is
    shiftable by convention.
    """
    edges = tuple(edges)
    if not edges:
        if start is None:
            raise InputError("empty path needs an anchor state")
        if start not in s.layer_of:
            raise InputError(f"unknown state {start!r}")
        return PathAnalysis(
            shiftable=True,
            successful=start == s.initial and start in s.finals,
            label=(),
        )
    _validate_edges(s, edges)
    n = len(edges)
    m = s.m
    labels = [e.label for e in edges]
    shiftable = True
    for j in range(1, n + 1):  # 1-based edge positions, as in the definitions
        e = edges[j - 1]
        if not e.is_shift:
            continue
        l = e.label
        if not (m - 1 - l < j and j + m - l <= n):
            shiftable = False
            break
        before = labels[j - m + l: j - 1]      # x_{j-m+l+1} .. x_{j-1}
        after = labels[j: j + m - l - 1]       # x_{j+1} .. x_{j+m-l-1}
        if before != after:
            shiftable = False
            break
    label: Word | None = None
    if shiftable:
        masked = [False] * (n + 1)
        for j in range(1, n + 1):
            e = edges[j - 1]
            if e.is_shift:
                masked[j] = True  # shift tokens never reach the label
                for t in range(j, min(j + m - 1 - e.label, n) + 1):
                    masked[t] = True
        label = tuple(
            labels[t - 1] for t in range(1, n + 1) if not masked[t]
        )
    successful = (
        shiftable and edges[0].src == s.initial and edges[-1].dst in s.finals
    )
    return PathAnalysis(shiftable=shiftable, successful=successful, label=label)
