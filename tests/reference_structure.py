"""The structure's definitions on the string-keyed maps: the extended
transition function with its read and shift counts, and the
shiftable/successful path classification.

The library recognises words on `Qds.tables` (`qds.structure.qds_membership`)
and trims through the path-DFA (`qds.trim`). These restate the paper's
definitions straight on `Qds.delta` and `Qds.gamma`, as the oracles the
tests hold those to: `counted_run` must agree with `qds_membership`, and
`analyze_path` decides which edge sequences the path-DFA must accept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from qds.errors import InputError, PreconditionError
from qds.structure import Qds
from qds.words import Word


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


class Run(NamedTuple):
    """What a run of the extended transition function costs and where it
    stops."""

    terminal: str | None
    reads: int    # symbols handed to delta, the one that hits bottom included
    shifts: int   # gamma edges taken to a real target
    end: str      # "delta" or "gamma" bottom, or a "full" or "partial" last window


def counted_run(s: Qds, q: str, w: Iterable[str]) -> Run:
    """The extended transition function from `q`, straight from its
    recursive definition but run as a loop over windows, counting its work.

    A word no longer than the window runs through delta alone; a longer one
    consults gamma on the image of its first window and continues from the
    target on the shifted rest. It reads the string-keyed maps, never
    `Qds.tables`, so it stays an independent oracle for `qds_membership`:
    the two must agree on the terminal state, the reads and the shifts.
    """
    if s.layer_of.get(q) != 1:
        raise PreconditionError(f"state {q!r} is not a layer-1 state")
    w = tuple(w)
    for sym in w:
        if sym not in s.alphabet:
            raise InputError(f"unknown symbol {sym!r}")
    reads = shifts = start = 0
    while True:
        window = w[start:start + s.window]
        state: str | None = q
        for sym in window:
            state = s.delta.get((state, sym))
            reads += 1
            if state is None:
                return Run(None, reads, shifts, "delta")
        if len(w) - start <= s.window:
            return Run(state, reads, shifts, "full" if len(window) == s.window else "partial")
        target, shift = s.gamma[state]
        if target is None:
            return Run(None, reads, shifts, "gamma")
        q, start, shifts = target, start + shift, shifts + 1


def extended_delta(s: Qds, q: str, w: Iterable[str]) -> str | None:
    """The extended transition function: the terminal state of
    `counted_run`, None for bottom."""
    return counted_run(s, q, w).terminal


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
