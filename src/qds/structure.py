"""Quasi-deterministic structures: a layered deterministic graph whose last
layer shifts a fixed-width reading window back to layer one.

The structure has m layers; the window width is m-1. A delta edge advances
exactly one layer; gamma maps every top-layer state to a layer-one target
(or bottom) together with a shift length in 1..m-1, inside the window, so
no symbol is skipped unread. Recognition slides the window along the input,
re-reading the overlap after each shift. By that range every window after a
shift holds a symbol: a run ends in layer 1 only at the initial state on
the empty word.

A `Qds` is stored as its alphabet, its layers and its integer tables
(`QdsTables`), whose delta ends in a sink row that stands for bottom, so a
run that hits bottom stays there; `initial`, `finals`, `delta` and `gamma`
are read off the tables by name when first asked for. `Qds(...)`, and so
`parse_qds` and every hand-made structure, takes the name-keyed parts,
checks every invariant and builds the tables once. The compile stages (`build_qds`, the
integer `restrict_qds` behind prune and trim, and `quotient`) compute on
tables and hand them over through `_trusted_qds` instead: every name, layer
and edge they emit comes from a structure or automaton that was already
checked, and each construction keeps the invariants by its arithmetic. The
one invariant the build's arithmetic does not give, distinct pair names, it
checks itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, islice
from typing import Iterable, Mapping, NamedTuple

from .errors import InputError
from .words import Word, check_token, word_str

GammaEntry = tuple[str | None, int]  # (target or bottom, shift)

_CHUNK = 4096  # symbols `qds_membership` reads from an iterator word at a time


class QdsTables(NamedTuple):
    """The stored form of a structure: states numbered in layer order.

    State number i is stored as its row offset i*width, so a read is the one
    subscript ``delta[state + code]``. With n states, `delta` holds n+1
    rows: the last, at the sink offset n*width, leads only to itself, and
    that offset is bottom, in delta and in gamma targets. Row offsets
    divided by `width` index `gamma` and `Qds.states`; the sink, state n,
    has neither.
    """

    code: dict[str, int]                 # symbol -> column
    width: int                           # row length, max(|alphabet|, 1)
    initial: int
    delta: list[int]                     # (n+1)*width entries, the sink row last
    gamma: list[tuple[int, int] | None]  # (target or the sink, shift) on the top layer
    finals: frozenset[int]


@dataclass(frozen=True, init=False)
class Qds:
    """A structure stored as its tables, its names read off them. Equal
    tables mean equal name-keyed parts: names are unique, states in order."""

    alphabet: tuple[str, ...]
    layers: tuple[tuple[str, ...], ...]
    tables: QdsTables

    def __init__(self, alphabet: Iterable[str], layers: Iterable[Iterable[str]], initial: str,
                 finals: Iterable[str], delta: Mapping[tuple[str, str], str],
                 gamma: Mapping[str, GammaEntry]) -> None:
        object.__setattr__(self, "alphabet", tuple(alphabet))
        object.__setattr__(self, "layers", tuple(tuple(l) for l in layers))
        finals, delta, gamma = frozenset(finals), dict(delta), dict(gamma)
        if len(self.layers) < 2:
            raise InputError("a QDS needs at least two layers")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise InputError("duplicate alphabet symbols")
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
        if layer_of.get(initial) != 1:
            raise InputError("initial state must sit in layer 1")
        if not finals <= seen:
            raise InputError("final states not all declared")
        alpha = set(self.alphabet)
        for (p, a), q in delta.items():
            if a not in alpha:
                raise InputError(f"delta symbol {a!r} not in alphabet")
            if p not in layer_of or q not in layer_of:
                raise InputError(f"delta endpoint not declared: ({p},{a},{q})")
            if layer_of[q] != layer_of[p] + 1:
                raise InputError(
                    f"delta edge ({p},{a},{q}) must advance exactly one layer"
                )
        top = set(self.layers[-1])
        if set(gamma) != top:
            raise InputError("gamma must be defined on exactly the last layer")
        for p, (target, shift) in gamma.items():
            if not (1 <= shift <= self.window):
                raise InputError(f"gamma shift at {p!r} out of range 1..{self.window}")
            if target is not None and layer_of.get(target) != 1:
                raise InputError(f"gamma target of {p!r} must sit in layer 1")
        width = max(len(self.alphabet), 1)
        code = {a: i for i, a in enumerate(self.alphabet)}
        row = {q: i * width for i, q in enumerate(self.states)}
        sink = len(self.states) * width
        int_delta = [sink] * (sink + width)
        for (p, a), q in delta.items():
            int_delta[row[p] + code[a]] = row[q]
        int_gamma: list[tuple[int, int] | None] = [None] * len(self.states)
        for p, (target, shift) in gamma.items():
            int_gamma[row[p] // width] = (sink if target is None else row[target], shift)
        object.__setattr__(self, "tables", QdsTables(code, width, row[initial], int_delta,
                                                     int_gamma, frozenset(row[q] for q in finals)))

    def __hash__(self) -> int:
        """Over the names: equal structures have equal alphabets and layers,
        and the tables hold a dict and lists, which do not hash."""
        return hash((self.alphabet, self.layers))

    @property
    def m(self) -> int:
        return len(self.layers)

    @property
    def window(self) -> int:
        return self.m - 1

    @cached_property
    def states(self) -> tuple[str, ...]:
        return tuple(chain.from_iterable(self.layers))

    @cached_property
    def layer_of(self) -> dict[str, int]:
        """State -> 1-based layer index."""
        return {q: j + 1 for j, layer in enumerate(self.layers) for q in layer}

    @cached_property
    def initial(self) -> str:
        return self.states[self.tables.initial // self.tables.width]

    @cached_property
    def finals(self) -> frozenset[str]:
        t = self.tables
        return frozenset(self.states[r // t.width] for r in t.finals)

    @cached_property
    def delta(self) -> dict[tuple[str, str], str]:
        """Edges by name, in (declared state, declared symbol) order."""
        t, names, sym = self.tables, self.states, self.alphabet
        w, sink = t.width, len(names) * t.width
        return {(names[x // w], sym[x % w]): names[r // w]
                for x, r in enumerate(t.delta) if r != sink}

    @cached_property
    def gamma(self) -> dict[str, GammaEntry]:
        """Top-layer state -> (target or None for bottom, shift)."""
        t, names = self.tables, self.states
        top, sink = len(names) - len(self.layers[-1]), len(names) * t.width
        return {names[i]: (None if target == sink else names[target // t.width], shift)
                for i, (target, shift) in enumerate(t.gamma[top:], top)}

    @cached_property
    def symbol_bytes(self) -> bytes | None:
        """The `bytes.translate` table of `qds_membership`'s encoder: each
        symbol that is one latin-1 character maps to its code, every other
        byte to the sentinel 255. None when the alphabet has 255 symbols or
        more, so that a code may not fit in a byte below the sentinel. Built
        on first use, outside dataclass equality, hashing and the text
        formats."""
        if len(self.alphabet) >= 255:
            return None
        table = bytearray(b"\xff" * 256)
        for a, c in self.tables.code.items():
            if len(a) == 1 and ord(a) < 256:
                table[ord(a)] = c
        return bytes(table)


def _trusted_qds(alphabet, layers, tables: QdsTables) -> Qds:
    """A `Qds` from parts already in their stored types and already known to
    meet every invariant: the checks of `Qds.__init__` do not run. Only the
    compile stages call it."""
    s = object.__new__(Qds)
    vars(s).update(alphabet=alphabet, layers=layers, tables=tables)
    return s


def restrict_qds(s: Qds, keep, delta_used, gamma_used, final) -> Qds:
    """`s` cut down on its tables: the states marked in `keep` and
    `final` (by state number), the delta edges marked in `delta_used` (by
    slot) and the gamma entries marked in `gamma_used`. Every marked edge
    must run between kept states. Kept states are renumbered in layer order;
    trailing layers left empty are dropped (keeping at least two), and a
    top-layer state whose gamma entry is unmarked gets a bottom target and
    shift 1. The result carries its tables."""
    t, n = s.tables, len(s.states)
    w = t.width
    layers, lo = [], 0
    for layer in s.layers:
        layers.append(tuple(compress(layer, keep[lo:lo + len(layer)])))
        lo += len(layer)
    while len(layers) > 2 and not layers[-1]:
        layers.pop()
    kept = list(compress(range(n), keep))
    sink = len(kept) * w
    row = [sink] * (n + 1)  # old state -> new row offset; bottom, state n, -> the sink
    for i, old in enumerate(kept):
        row[old] = i * w
    delta = [sink] * (sink + w)
    for x in compress(range(len(t.delta)), delta_used):
        p, c = divmod(x, w)
        delta[row[p] + c] = row[t.delta[x] // w]
    gamma: list[tuple[int, int] | None] = [None] * len(kept)
    for i in range(len(kept) - len(layers[-1]), len(kept)):
        g = t.gamma[kept[i]]
        gamma[i] = (row[g[0] // w], g[1]) if g is not None and gamma_used[kept[i]] else (sink, 1)
    return _trusted_qds(
        s.alphabet, tuple(layers),
        QdsTables(t.code, w, row[t.initial // w], delta, gamma,
                  frozenset(row[i] for i in kept if final[i])))


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


def _encode(chunk: Iterable[str], table: bytes | None,
            code: dict[str, int]) -> bytes | list[int]:
    """The codes of a chunk of symbols, one byte each, or a list of ints when
    `table` (`Qds.symbol_bytes`) is None. A str goes through `table` in one
    `translate`; any other chunk, or a str that holds a character the table
    does not know, is looked up symbol by symbol, which raises on the first
    unknown one."""
    if table is not None and isinstance(chunk, str):
        try:
            codes = chunk.encode("latin-1").translate(table)
        except UnicodeEncodeError:
            pass
        else:
            if 255 not in codes:
                return codes
    try:
        return (list if table is None else bytes)(map(code.__getitem__, chunk))
    except KeyError as exc:
        raise InputError(f"unknown symbol {exc.args[0]!r}") from None


def qds_membership(s: Qds, w: Iterable[str], want_trace: bool = False) -> MembershipResult:
    """Iterative windowed membership test.

    Encodes the word through `Qds.symbol_bytes`, one byte per symbol, then
    walks each window over a k-slice of the codes on `tables.delta`, whose
    bottom is its absorbing sink row: a read is the one subscript
    ``delta[state + code]`` with no test, and the run is tested once per
    window, for the sink, the last window or a gamma bottom. A str, tuple or
    list is encoded whole, so an unknown symbol raises before any is read.
    Any other iterable is read `_CHUNK` symbols at a time into a buffer that
    keeps the unread tail from the current window on, refilled when a window
    reaches its end; once the run ends the rest is encoded chunk by chunk,
    so an unknown symbol anywhere still raises, and the working space is
    O(k + _CHUNK) beside the per-structure tables. A traced call copies the
    word, as its trace holds the windows anyway.

    `reads` counts every symbol handed to delta, the one that hits bottom
    included, for checking the k*ceil(|w|/s) + k time bound. Every window
    before the last is full, so ``reads = shifts * k`` plus the last
    window's length, or, for the one window that reaches the sink, its count
    up to bottom, taken by walking it again and stopping there. The sink
    lookups a window makes after bottom, at most k-1 per call, are not reads.
    """
    t = s.tables
    table, code = s.symbol_bytes, t.code
    if want_trace:
        w = tuple(w)
    if isinstance(w, (str, tuple, list)):
        codes, rest = _encode(w, table, code), None
    else:  # the first window finds the buffer empty and fills it
        codes, rest = _encode((), table, code), iter(w)
    delta, gamma, width = t.delta, t.gamma, t.width
    sink = len(delta) - width
    k = s.window
    last = len(codes) - k  # a window starting here or later is the last one in `codes`
    steps: list[TraceStep] = []
    shifts = 0
    current, start = t.initial, 0
    while True:
        state = current
        for c in codes[start:start + k]:
            state = delta[state + c]
        if state == sink or start >= last:
            if state == sink or rest is None:
                break
            more = _encode(islice(rest, _CHUNK), table, code)
            if len(more) < _CHUNK:
                rest = None
            codes = codes[start:] + more  # walk this window again, on the refilled buffer
            start, last = 0, len(codes) - k
            continue
        target, shift = gamma[state // width]
        if target == sink:
            break
        if want_trace:
            steps.append(TraceStep(start, s.states[current // width], w[start:start + k], shift))
        shifts += 1
        current, start = target, start + shift
    while rest is not None:  # the unread rest of an iterator, for its unknown symbols
        if len(_encode(islice(rest, _CHUNK), table, code)) < _CHUNK:
            rest = None
    window = codes[start:start + k]
    reads = shifts * k + len(window)
    if state == sink:  # bottom: count up to the symbol that hit it
        state = current
        for reads, c in enumerate(window, shifts * k + 1):
            state = delta[state + c]
            if state == sink:
                break
    if want_trace:
        steps.append(TraceStep(start, s.states[current // width], w[start:start + k], None))
    terminal = state if start >= last else sink
    name = None if terminal == sink else s.states[terminal // width]
    # built as `_trusted_qds` builds a `Qds`: the frozen dataclass `__init__`
    # would set each field through `object.__setattr__`
    r = object.__new__(MembershipResult)
    vars(r).update(accepted=terminal in t.finals, terminal=name, shifts=shifts, reads=reads,
                   trace=RunTrace(tuple(steps), name) if want_trace else None)
    return r


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


def format_trace(result: MembershipResult) -> str:
    """Render a run as the sliding-window table: one row per window, the
    current layer-1 state, the consumed symbols, and the shift taken."""
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
