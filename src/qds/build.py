"""Compilers into quasi-deterministic structures: the window-table
construction from a (k,l)-unambiguous NFA (its reachable part, built with
its integer tables), reachability pruning on those tables, and the width-1
embedding of a DFA."""

from __future__ import annotations

from itertools import accumulate

from . import kernels
from .errors import SIZE_BUDGET, InputError, PreconditionError
from .kl import StepTable, step_table
from .nfa import Dfa, Nfa, closure
from .structure import Qds, QdsTables, _trusted_qds, restrict_qds
from .words import Word, word_str, words_of_length


def build_qds(a: Nfa, k: int, l: int, table: StepTable | None = None) -> Qds:
    """The reachable part of the QDS associated with a (k,l)-unambiguous
    automaton.

    The source states are the initial state and every step successor
    reachable from it. Layer j holds a state (q, w) for every source state
    q and every word w of length j-1, in (state, lexicographic word) order;
    delta appends one symbol, and gamma on the full windows applies the
    precomputed step index / step successor. A pair is final when w leads
    from q to a final state. The step table is computed first, so a
    non-(k,l)-unambiguous input fails fast with the offending (state,
    window) row; a given table must be for (k,l) and have |Q|*|alphabet|^k
    rows. With R the source states the state count is
    |R| * (|alphabet|^(k+1)-1)/(|alphabet|-1), and the result equals
    `prune_unreachable` of the construction over every state.

    The tables come out by arithmetic: pair (q, w) of layer j sits at
    number starts[j] + i*|alphabet|^j + rank(w) for q the i-th source, so
    delta slot x (state x // |alphabet|, symbol x % |alphabet|) leads to
    state x + |R|, and the top layer's slots lead to the sink. Two pairs
    with the same printed name are an InputError, and so are names of more
    than SIZE_BUDGET characters, counted first.
    """
    if table is None:
        table = step_table(a, k, l)  # raises with a witness row if ambiguous
    elif (table.k, table.l) != (k, l):
        raise PreconditionError("step table was computed for different (k,l)")
    rows = len(a.alphabet) ** k  # per state
    if len(table.entries) != len(a.states) * rows:
        raise PreconditionError(
            f"step table has {len(table.entries)} rows, not "
            f"|Q|*|alphabet|^k = {len(a.states)}*{len(a.alphabet)}^{k}")

    # states are numbers here; row c of the table belongs to state c // rows
    initial = a.states.index(next(iter(a.initials)))
    found = sorted(closure({initial}, ((c // rows, t) for c, (_, t) in enumerate(table.entries)
                                       if t >= 0)))
    source_ix = {q: i for i, q in enumerate(found)}
    sources = [a.states[q] for q in found]
    chars = _name_chars(a.alphabet, k, sources)  # ~|R|*k^2/2 on one letter
    if chars > SIZE_BUDGET:
        raise InputError(f"pair names spell {chars} characters, over the size budget {SIZE_BUDGET}")
    spelled = [[word_str(w) for w in words_of_length(a.alphabet, j)] for j in range(k + 1)]
    # pair (q, w) is named "q|w", as `pair_name` in tests/reference_build.py
    names = [f"{q}|{w}" for level in spelled for q in sources for w in level]
    if len(set(names)) < len(names):
        _refuse_colliding_names(a, k, sources, names)
    sizes = [len(sources) * len(level) for level in spelled]
    while len(sizes) > 2 and not sizes[-1]:  # an empty alphabet reads no window
        sizes.pop()
    starts = [0, *accumulate(sizes)]
    width, top = max(len(a.alphabet), 1), starts[-2]
    sink = starts[-1] * width
    _, pred = a.masks
    ends = sum(1 << i for i, q in enumerate(a.states) if q in a.finals)
    finals = [starts[j] + i * len(level) + c  # w leads from q into the finals
              for j, level in enumerate(kernels.can_read(pred, ends, k))
              for i, q in enumerate(found)
              for c, f in enumerate(level) if f >> q & 1]
    delta = [r * width for r in range(len(sources), starts[-1])]
    delta += [sink] * (sink + width - len(delta))
    return _trusted_qds(
        a.alphabet,
        tuple(tuple(names[lo:hi]) for lo, hi in zip(starts, starts[1:])),
        QdsTables({x: c for c, x in enumerate(a.alphabet)}, width,
                  source_ix[initial] * width, delta,
                  [None] * top + [(sink if t < 0 else source_ix[t] * width, j)
                                  for q in found
                                  for j, t in table.entries[q * rows:(q + 1) * rows]],
                  frozenset(i * width for i in finals)))


def _name_chars(alphabet: tuple[str, ...], k: int, sources: list[str]) -> int:
    """Characters in the names "q|w", q in `sources` and |w| <= k, with w
    spelled by `word_str`: "_", bare if its symbols are single, else dotted."""
    s, ones = len(alphabet), sum(len(x) == 1 for x in alphabet)
    symbols = sum(map(len, alphabet))
    heads = sum(len(q) + 1 for q in sources)  # "q|" over the sources
    total = heads + len(sources)  # "q|_"
    for j in range(1, k + 1):
        # each symbol fills j*s^(j-1) of the j*s^j slots; a word with a
        # longer symbol takes j-1 dots
        words = j * s ** (j - 1) * symbols + (j - 1) * (s ** j - ones ** j)
        total += heads * s ** j + len(sources) * words
    return total


def _refuse_colliding_names(a: Nfa, k: int, sources: list[str], names: list[str]) -> None:
    pairs = [(q, w) for j in range(k + 1) for q in sources
             for w in words_of_length(a.alphabet, j)]
    owner: dict[str, tuple[str, Word]] = {}
    for name, pair in zip(names, pairs):
        other = owner.setdefault(name, pair)
        if other != pair:
            raise InputError(f"pairs {other} and {pair} are both named {name}")


def prune_unreachable(s: Qds) -> Qds:
    """Restrict to states reachable from the initial along delta edges and
    non-bottom gamma targets, found breadth first on `Qds.tables`; trailing
    layers left empty are dropped (a fresh top layer gets all-bottom gamma).
    Language unchanged. Returns `s` itself when nothing is dropped, as on
    every structure `build_qds` returns; it is for parsed structures."""
    t = s.tables
    w, n, delta, gamma = t.width, len(s.states), t.delta, t.gamma
    seen = bytearray(len(delta))  # by row offset; the sink is bottom, never kept
    seen[n * w] = seen[t.initial] = 1
    found = [t.initial]
    for r in found:  # the list grows behind the cursor
        g = gamma[r // w]
        for q in (delta[r:r + w] if g is None else (g[0],)):
            if not seen[q]:
                seen[q] = 1
                found.append(q)
    keep = seen[:n * w:w]
    if all(keep) and s.layers[-1]:
        return s
    return restrict_qds(s, keep, [keep[x // w] for x in range(n * w)], keep,
                        [i * w in t.finals for i in range(n)])


def dfa_to_qds(d: Nfa) -> Qds:
    """Embed a DFA as a window-1 QDS: two copies of every state, each symbol
    step lands in layer 2, and gamma hops back to the layer-1 copy of the
    state just reached, shifting by one."""
    if not d.is_deterministic:
        raise PreconditionError("dfa_to_qds needs a deterministic automaton")
    if not isinstance(d, Dfa):
        d = Dfa(d.alphabet, d.states, d.initials, d.finals, d.transitions)
    lo = {q: f"{q}.1" for q in d.states}
    hi = {q: f"{q}.2" for q in d.states}
    return Qds(
        alphabet=d.alphabet,
        layers=(
            tuple(lo[q] for q in d.states),
            tuple(hi[q] for q in d.states),
        ),
        initial=lo[d.initial],
        finals=frozenset(lo[q] for q in d.finals) | frozenset(hi[q] for q in d.finals),
        delta={(lo[p], x): hi[q] for p, x, q in d.transitions},
        gamma={hi[q]: (lo[q], 1) for q in d.states},
    )
