"""State sets as int bitmasks: the (k,l) decision as one walk on the square
graph, and the forward and backward set tables the step table and the
build read.

A bad row is a pair (q, w), |w| = k, such that for every split 1 <= i <= l
more than one state reached from q by w[1..i] can still read w[i+1..k]. An
automaton is (k,l)-unambiguous iff no bad row exists. (q, w) is bad iff the
square graph has a walk labelled w from (q,q) whose pairs at positions 1..l
are off-diagonal (see the `kl` module docstring), so `find_bad_row` never
enumerates windows: a set of pairs (p, r) is a list of |Q| int row masks, a
backward pass finds the pairs from which the walk can still be finished,
and a forward pass reads off the first bad row. `_python_witness`
enumerates the rows straight off the definition; it is the oracle the tests
hold the walk to.

The image of a state set under a per-state table of masks (its successors
or predecessors on one symbol) is read off byte tables: `spans` turns the
table into one list per 8 states, indexed by that byte of the set, so an
image costs one subscript per 8 states instead of one step per member.
The tables take 2^8 entries per 8 states, linear in |Q|, and are built per
call by whoever reads them: the walk's backward pass builds the predecessor
tables, and its forward pass the successor tables only once a bad row is
known to exist.

`arcs` numbers the states and symbols in declared order and `masks` turns
the arcs into per-symbol successor and predecessor masks; `fronts` and
`can_read` tabulate, per word in lexicographic rank, the states a word
leads to and the states from which it leads into a target set, one
comprehension over the byte tables per depth: from every state for the
step table, into every state for the step table and into the finals for
the build.
"""

from __future__ import annotations

from .nfa import Nfa
from .words import Word, words_of_length


def bits(mask: int):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def spans(table: list[int]) -> list[list[int]]:
    """spans[b][v]: the union of table[8b + i] over the bits i of v, one
    list per 8 states (2^8 entries, 2^(n mod 8) for the last), built by
    doubling: adding state i appends the entries so far, each OR table[i]."""
    out = []
    for lo in range(0, len(table), 8):
        span = [0]
        for t in table[lo:lo + 8]:
            span += [u | t for u in span] if t else span
        out.append(span)
    return out


def images(table: list[int]):
    """The map mask -> union of table[p] over the states p in mask, at one
    subscript per 8 states: a set of at most 8 states is one list read."""
    parts = spans(table)
    if len(parts) == 1:
        return parts[0].__getitem__

    def image(mask: int) -> int:
        out = 0
        for span in parts:
            out |= span[mask & 255]
            mask >>= 8
        return out

    return image


def _settle(first: list[int], nxt, count: int) -> list[list[int]]:
    """first, nxt(first), ... up to `count` pair sets, cut once two
    neighbours agree: from there on the chain stays put."""
    chain = [first]
    while len(chain) < count and (len(chain) < 2 or chain[-1] != chain[-2]):
        chain.append(nxt(chain[-1]))
    return chain


def arcs(a: Nfa) -> list[tuple[int, int, int]]:
    """(p, x, q) for every transition, states and symbols numbered in
    declared order."""
    ix = {q: i for i, q in enumerate(a.states)}
    sym = {x: j for j, x in enumerate(a.alphabet)}
    return [(ix[p], sym[x], ix[q]) for p, x, q in a.transitions]


def masks(a: Nfa) -> tuple[list[list[int]], list[list[int]]]:
    """(succ, pred) with states and symbols numbered in declared order:
    succ[x][p] is the bitmask of p's x-successors, pred[x][r] that of r's
    x-predecessors."""
    return _masks(arcs(a), len(a.states), len(a.alphabet))


def _masks(moves, n: int, s: int) -> tuple[list[list[int]], list[list[int]]]:
    """`masks` of the numbered arcs `moves` on n states and s symbols."""
    succ = [[0] * n for _ in range(s)]
    pred = [[0] * n for _ in range(s)]
    for p, x, q in moves:
        succ[x][p] |= 1 << q
        pred[x][q] |= 1 << p
    return succ, pred


def fronts(succ: list[list[int]], starts: list[int], depth: int) -> list[list[int]]:
    """fronts[j][i * |alphabet|^j + c]: the states reached from the set
    starts[i] by the j-symbol word of lexicographic rank c, for j =
    0..depth."""
    out = [starts]
    if depth:
        step = [images(fwd) for fwd in succ]
        for _ in range(depth):
            out.append([img(f) for f in out[-1] for img in step])
    return out


def can_read(pred: list[list[int]], end: int, depth: int) -> list[list[int]]:
    """can_read[m][c]: the states from which the m-symbol word of
    lexicographic rank c leads into the set `end`, for m = 0..depth."""
    out = [[end]]
    if depth:
        step = [images(back) for back in pred]
        for _ in range(depth):
            out.append([img(b) for img in step for b in out[-1]])
    return out


def find_bad_row(a: Nfa, k: int, l: int) -> tuple[str, Word] | None:
    """First (state, window) pair violating the (k,l) condition in (state,
    lexicographic word) order, or None. O(k * |Q|^2 * |alphabet|) steps on
    |Q|-bit ints; the pair sets kept are O(min(k, |Q|^2) * |Q|^2) bits, and
    the byte tables 2^8 * ceil(|Q|/8) masks per symbol and direction."""
    n = len(a.states)
    moves = arcs(a)
    succ, pred = _masks(moves, n, len(a.alphabet))
    back = [images(table) for table in pred]
    flat = [(p, x * n + q) for p, x, q in moves]

    # a pair set is a list of n row masks: bit r of rows[p] holds pair (p, r)
    def pre(rows: list[int]) -> list[int]:
        """Pairs with a successor pair in `rows` on some symbol: (p, r) for
        an x-arc p -> q and r in the x-predecessors of rows[q]."""
        seconds = [img(row) for img in back for row in rows]
        out = [0] * n
        for p, xq in flat:
            out[p] |= seconds[xq]
        return out

    def off(rows: list[int]) -> list[int]:
        return [row & ~(1 << p) for p, row in enumerate(rows)]

    # feas(i): pairs at position i that start a walk to position k which is
    # off-diagonal at every later-or-equal position in 1..l. Going back from
    # k, each of the stretches l+1..k and 1..l only shrinks, so it is kept
    # until it settles: tail[j] is position k - j, head[j] is position l - j.
    full = [(1 << n) - 1] * n
    tail = _settle(full, pre, k - l) if k > l else []
    head = _settle(off(pre(tail[-1])) if tail else off(full), lambda rows: off(pre(rows)), l)
    start = pre(head[-1])

    def feas(i: int) -> list[int]:
        if i > l:
            return tail[min(k - i, len(tail) - 1)]
        return head[min(l - i, len(head) - 1)]

    # feas is one list on positions 1..l-len(head)+1 and l+1..k-len(tail)+1,
    # where each stretch has settled, and changes at every other position
    settled = {1: l - len(head) + 1, l + 1: k - len(tail) + 1}
    i0 = next((i for i, row in enumerate(start) if row >> i & 1), None)
    if i0 is None:
        return None
    # the forward pass: an x-step sends the seconds of row p to their
    # x-image, shared by the rows of p's x-successors
    fwd = [images(table) for table in succ]
    targets = [[[] for _ in range(n)] for _ in succ]
    for p, x, t in moves:
        targets[x][p].append(t)

    def run(front: list[int], live: list[int], count: int) -> tuple[list[str], list[int]]:
        """The symbols of `count` steps from `front` under one `live`, and
        the front after them. The step is then a fixed map on fronts, so
        from the first front that recurs the symbols repeat."""
        word: list[str] = []
        seen: dict[tuple[int, ...], int] = {}  # the fronts met, in order: their step
        while len(word) < count:
            j = seen.setdefault(tuple(front), len(word))
            if j < len(word):
                period, rest = len(word) - j, count - len(word)
                front = list(seen)[j + rest % period]
                word += (word[j:] * (rest // period + 1))[:rest]
                break
            for x, img, lists in zip(a.alphabet, fwd, targets):
                nxt = [0] * n
                for row, ts in zip(front, lists):
                    if row:
                        reach = img(row)
                        for t in ts:
                            nxt[t] |= reach
                nxt = [s & t for s, t in zip(nxt, live)]
                if any(nxt):
                    break
            word.append(x)
            front = nxt
        return word, front

    front = [0] * n
    front[i0] = 1 << i0
    word: list[str] = []
    while len(word) < k:
        i = len(word) + 1
        part, front = run(front, feas(i), settled.get(i, i) - i + 1)
        word += part
    return a.states[i0], tuple(word)


def _python_witness(a: Nfa, k: int, l: int) -> tuple[str, Word] | None:
    """Reference implementation straight off the definition: the first row,
    in (state, lexicographic word) order, where the (k,l) row rule `kl._split`
    finds no split; the oracle for `find_bad_row`."""
    from .kl import _split

    return next(((q, w) for q in a.states for w in words_of_length(a.alphabet, k)
                 if _split(a, l, q, w) is None), None)


def backend_name() -> str:
    """Name of the decision procedure, kept for benchmark reports."""
    return "square"
