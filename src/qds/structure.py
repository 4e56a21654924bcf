"""Quasi-deterministic structures: a layered deterministic graph whose last
layer shifts a fixed-width reading window back to layer one.

The structure has m layers; the window width is m-1. A delta edge advances
exactly one layer; gamma maps every top-layer state to a layer-one target
(or bottom) together with a shift length in 1..m. Recognition slides the
window along the input, re-reading the overlap after each shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Container, Iterable, Mapping, NamedTuple

from .errors import InputError, PreconditionError
from .words import Word, as_word, check_token, word_str

GammaEntry = tuple[str | None, int]  # (target or bottom, shift)


class QdsTables(NamedTuple):
    """A structure compiled to integers for membership.

    State number i is stored as its row offset i*width, so a read is the one
    subscript ``delta[state + code]``; -1 is bottom. Row offsets divided by
    `width` index `gamma` and `Qds.states`.
    """

    code: dict[str, int]                 # symbol -> column
    width: int                           # row length, max(|alphabet|, 1)
    initial: int
    delta: list[int]
    gamma: list[tuple[int, int] | None]  # (target or -1, shift) on the top layer
    finals: frozenset[int]


@dataclass(frozen=True)
class Qds:
    alphabet: tuple[str, ...]
    layers: tuple[tuple[str, ...], ...]
    initial: str
    finals: frozenset[str]
    delta: Mapping[tuple[str, str], str]
    gamma: Mapping[str, GammaEntry]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "layers", tuple(tuple(l) for l in self.layers))
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(self, "delta", dict(self.delta))
        object.__setattr__(self, "gamma", dict(self.gamma))
        if len(self.layers) < 2:
            raise InputError("a QDS needs at least two layers")
        for tok in self.alphabet:
            check_token(tok, "symbol token")
        seen: set[str] = set()
        for layer in self.layers:
            for q in layer:
                if q in seen:
                    raise InputError(f"state {q!r} appears in two layers")
                check_token(q, "state id")
                seen.add(q)
        layer_of = self.layer_of
        if layer_of.get(self.initial) != 1:
            raise InputError("initial state must sit in layer 1")
        if not self.finals <= seen:
            raise InputError("final states not all declared")
        alpha = set(self.alphabet)
        for (p, a), q in self.delta.items():
            if a not in alpha:
                raise InputError(f"delta symbol {a!r} not in alphabet")
            if p not in layer_of or q not in layer_of:
                raise InputError(f"delta endpoint not declared: ({p},{a},{q})")
            if layer_of[q] != layer_of[p] + 1:
                raise InputError(
                    f"delta edge ({p},{a},{q}) must advance exactly one layer"
                )
        top = set(self.layers[-1])
        if set(self.gamma) != top:
            raise InputError("gamma must be defined on exactly the last layer")
        for p, (target, shift) in self.gamma.items():
            if not (1 <= shift <= self.m):
                raise InputError(f"gamma shift at {p!r} out of range 1..{self.m}")
            if target is not None and layer_of.get(target) != 1:
                raise InputError(f"gamma target of {p!r} must sit in layer 1")

    @property
    def m(self) -> int:
        return len(self.layers)

    @property
    def window(self) -> int:
        return self.m - 1

    @cached_property
    def states(self) -> tuple[str, ...]:
        return tuple(q for layer in self.layers for q in layer)

    @cached_property
    def layer_of(self) -> dict[str, int]:
        """State -> 1-based layer index."""
        return {q: j + 1 for j, layer in enumerate(self.layers) for q in layer}

    @cached_property
    def tables(self) -> QdsTables:
        """Integer tables for `qds_membership`, built on first use."""
        width = max(len(self.alphabet), 1)
        code = {a: i for i, a in enumerate(self.alphabet)}
        row = {q: i * width for i, q in enumerate(self.states)}
        delta = [-1] * (len(self.states) * width)
        for (p, a), q in self.delta.items():
            delta[row[p] + code[a]] = row[q]
        gamma: list[tuple[int, int] | None] = [None] * len(self.states)
        for p, (target, shift) in self.gamma.items():
            gamma[row[p] // width] = (-1 if target is None else row[target], shift)
        return QdsTables(code, width, row[self.initial], delta, gamma,
                         frozenset(row[q] for q in self.finals))

    def step(self, state: str | None, symbol: str) -> str | None:
        """Bottom-absorbing one-symbol delta (bottom on top-layer states)."""
        if symbol not in self.alphabet:
            raise InputError(f"unknown symbol {symbol!r}")
        if state is None:
            return None
        return self.delta.get((state, symbol))

    def chain(self, state: str | None, w: Iterable[str]) -> str | None:
        """Bottom-absorbing delta over a word of length <= window."""
        for sym in as_word(w):
            state = self.step(state, sym)
        return state


def restrict_qds(
    s: Qds,
    keep: Container[str],
    delta: Mapping[tuple[str, str], str],
    gamma: Mapping[str, GammaEntry],
    finals: Iterable[str],
) -> Qds:
    """`s` cut down to the states in `keep`, with the given delta, gamma and
    finals. Trailing layers left empty are dropped (keeping at least two); a
    top-layer state missing from `gamma` gets a bottom target and shift 1."""
    layers = [tuple(q for q in layer if q in keep) for layer in s.layers]
    while len(layers) > 2 and not layers[-1]:
        layers.pop()
    return Qds(
        alphabet=s.alphabet,
        layers=tuple(layers),
        initial=s.initial,
        finals=frozenset(finals),
        delta=delta,
        gamma={p: gamma.get(p, (None, 1)) for p in layers[-1]},
    )


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


@dataclass(frozen=True)
class TraceStep:
    offset: int          # window start in the original input
    state: str           # layer-1 state the window is read from
    consumed: Word       # symbols fed to delta in this step
    shift: int | None    # None for the final partial window


@dataclass(frozen=True)
class RunTrace:
    steps: tuple[TraceStep, ...]
    terminal: str | None


@dataclass(frozen=True)
class MembershipResult:
    accepted: bool
    terminal: str | None
    shifts: int
    reads: int
    trace: RunTrace | None = field(default=None, compare=False)


def extended_delta(s: Qds, q: str, w: Iterable[str]) -> str | None:
    """The extended transition function, straight from its recursive
    definition but run as a loop over windows.

    A word no longer than the window runs through delta alone; a longer one
    consults gamma on the image of its first window and continues from the
    target on the shifted rest. It reads the string-keyed maps through
    `Qds.chain`, never `Qds.tables`, so it stays an independent oracle for
    `qds_membership`; the two must agree.
    """
    if s.layer_of.get(q) != 1:
        raise PreconditionError(f"state {q!r} is not a layer-1 state")
    w = as_word(w)
    start = 0
    while len(w) - start > s.window:
        top = s.chain(q, w[start:start + s.window])
        target, shift = s.gamma[top] if top is not None else (None, 1)
        if target is None:
            return None
        q, start = target, start + shift
    return s.chain(q, w[start:])


def qds_membership(s: Qds, w: Iterable[str], want_trace: bool = False) -> MembershipResult:
    """Iterative windowed membership test.

    Encodes the word once through `Qds.tables` (which also rejects unknown
    symbols) and walks the codes with an index cursor, so the working space
    is one encoded copy of the input plus O(1); no window is copied. `reads`
    counts every symbol handed to delta, the one that hits bottom included,
    for checking the k*ceil(|w|/s) time bound.
    """
    w = as_word(w)
    t = s.tables
    try:
        codes = [t.code[sym] for sym in w]
    except KeyError as exc:
        raise InputError(f"unknown symbol {exc.args[0]!r}") from None
    delta, gamma, width, k, n = t.delta, t.gamma, t.width, s.window, len(codes)
    steps: list[TraceStep] = []
    reads = shifts = 0
    terminal = -1
    current, start = t.initial, 0
    while current >= 0:
        stop = min(start + k, n)
        state, cursor = current, stop
        for i in range(start, stop):
            state = delta[state + codes[i]]
            if state < 0:
                cursor = i + 1  # the symbol that hit bottom was read too
                break
        reads += cursor - start
        if n - start <= k:  # the last window, possibly partial: no gamma
            terminal, target, shift = state, -1, 0
        else:
            target, shift = gamma[state // width] if state >= 0 else (-1, 0)
        if want_trace:
            steps.append(TraceStep(start, s.states[current // width], w[start:stop],
                                   shift if target >= 0 else None))
        if target >= 0:
            shifts += 1
        current, start = target, start + shift
    name = s.states[terminal // width] if terminal >= 0 else None
    return MembershipResult(
        accepted=terminal in t.finals,
        terminal=name,
        shifts=shifts,
        reads=reads,
        trace=RunTrace(tuple(steps), name) if want_trace else None,
    )


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


@dataclass(frozen=True)
class QdsStats:
    m: int
    window: int
    layer_sizes: tuple[int, ...]
    total_states: int
    delta_edges: int
    min_shift: int | None  # smallest shift with a real target; None if all bottom
    bottom_gammas: int
    finals: int


def qds_stats(s: Qds) -> QdsStats:
    live_shifts = [shift for tgt, shift in s.gamma.values() if tgt is not None]
    return QdsStats(
        m=s.m,
        window=s.window,
        layer_sizes=tuple(len(l) for l in s.layers),
        total_states=len(s.states),
        delta_edges=len(s.delta),
        min_shift=min(live_shifts) if live_shifts else None,
        bottom_gammas=sum(1 for tgt, _ in s.gamma.values() if tgt is None),
        finals=len(s.finals),
    )


def lint_qds(s: Qds) -> list[str]:
    """Non-fatal oddities: hand-written structures may carry full-window
    shifts, which the trim machinery cannot track."""
    warnings = []
    for p, (target, shift) in sorted(s.gamma.items()):
        if shift == s.m and target is not None:
            warnings.append(
                f"gamma at {p!r} shifts by the full window+1 ({s.m}); "
                "paths ending in this shift escape the path-DFA analysis"
            )
    return warnings


def format_trace(result: MembershipResult, w: Iterable[str]) -> str:
    """Render a run as the sliding-window table: one row per window, the
    current layer-1 state, the consumed symbols, and the shift taken."""
    w = as_word(w)
    if result.trace is None:
        raise InputError("run the membership test with want_trace=True")
    header = "offset\tstate\twindow\tshift"
    rows = [header]
    for step in result.trace.steps:
        shift = "-" if step.shift is None else str(step.shift)
        rows.append(
            f"{step.offset}\t{step.state}\t{word_str(step.consumed)}\t{shift}"
        )
    terminal = result.trace.terminal
    rows.append(f"terminal\t{'_' if terminal is None else terminal}")
    return "\n".join(rows)
