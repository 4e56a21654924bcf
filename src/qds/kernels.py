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

`masks` numbers the states and symbols once for every caller; `fronts` and
`can_read` tabulate, per word in lexicographic rank, the states a word
leads to and the states from which it leads into a target set: every state
for the step table, the finals for the build.
"""

from __future__ import annotations

from .nfa import Nfa
from .words import Word


def bits(mask: int):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _settle(first: list[int], nxt, count: int) -> list[list[int]]:
    """first, nxt(first), ... up to `count` pair sets, cut once two
    neighbours agree: from there on the chain stays put."""
    chain = [first]
    while len(chain) < count and (len(chain) < 2 or chain[-1] != chain[-2]):
        chain.append(nxt(chain[-1]))
    return chain


def post(mask: int, table: list[int]) -> int:
    """Union of table[p] over the states p in `mask`."""
    out = 0
    for p in bits(mask):
        out |= table[p]
    return out


def masks(a: Nfa) -> tuple[list[list[int]], list[list[int]]]:
    """(succ, pred) with states and symbols numbered in declared order:
    succ[x][p] is the bitmask of p's x-successors, pred[x][r] that of r's
    x-predecessors."""
    n = len(a.states)
    ix = {q: i for i, q in enumerate(a.states)}
    sym = {x: j for j, x in enumerate(a.alphabet)}
    succ = [[0] * n for _ in a.alphabet]
    pred = [[0] * n for _ in a.alphabet]
    for p, x, q in a.transitions:
        succ[sym[x]][ix[p]] |= 1 << ix[q]
        pred[sym[x]][ix[q]] |= 1 << ix[p]
    return succ, pred


def fronts(succ: list[list[int]], start: int, depth: int) -> list[list[int]]:
    """fronts[j][c]: the states reached from the set `start` by the j-symbol
    word of lexicographic rank c, for j = 0..depth."""
    out = [[start]]
    for _ in range(depth):
        out.append([post(f, fwd) for f in out[-1] for fwd in succ])
    return out


def can_read(pred: list[list[int]], end: int, depth: int) -> list[list[int]]:
    """can_read[m][c]: the states from which the m-symbol word of
    lexicographic rank c leads into the set `end`, for m = 0..depth."""
    out = [[end]]
    for _ in range(depth):
        out.append([post(b, back) for back in pred for b in out[-1]])
    return out


def find_bad_row(a: Nfa, k: int, l: int) -> tuple[str, Word] | None:
    """First (state, window) pair violating the (k,l) condition in (state,
    lexicographic word) order, or None. O(k * |Q|^2 * |alphabet|) steps on
    |Q|-bit ints; the pair sets kept are O(min(k, |Q|^2) * |Q|^2) bits."""
    n = len(a.states)
    ix = {q: i for i, q in enumerate(a.states)}
    succ, pred = masks(a)

    # a pair set is a list of n row masks: bit r of rows[p] holds pair (p, r)
    def pre(rows: list[int]) -> list[int]:
        """Pairs with a successor pair in `rows` on some symbol."""
        out = [0] * n
        for fwd, back in zip(succ, pred):
            for p in range(n):
                reach = post(fwd[p], rows)  # seconds r' paired with a successor of p
                if reach:
                    out[p] |= post(reach, back)
        return out

    def image(rows: list[int], fwd: list[int]) -> list[int]:
        out = [0] * n
        for p, row in enumerate(rows):
            reach = post(row, fwd) if row else 0
            if reach:
                for t in bits(fwd[p]):
                    out[t] |= reach
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
            for x, fwd in zip(a.alphabet, succ):
                nxt = [s & t for s, t in zip(image(front, fwd), live)]
                if any(nxt):
                    break
            word.append(x)
            front = nxt
        return word, front

    # feas is one list on positions 1..l-len(head)+1 and l+1..k-len(tail)+1,
    # where each stretch has settled, and changes at every other position
    settled = {1: l - len(head) + 1, l + 1: k - len(tail) + 1}
    for q in a.states:
        i0 = ix[q]
        if not start[i0] >> i0 & 1:
            continue
        front = [0] * n
        front[i0] = 1 << i0
        word: list[str] = []
        while len(word) < k:
            i = len(word) + 1
            part, front = run(front, feas(i), settled.get(i, i) - i + 1)
            word += part
        return q, tuple(word)
    return None


def _python_witness(a: Nfa, k: int, l: int) -> tuple[str, Word] | None:
    """Reference implementation straight off the definition: every row in
    (state, lexicographic word) order, the oracle for `find_bad_row`."""
    from .nfa import delta_word
    from .words import words_of_length

    for q in a.states:
        for w in words_of_length(a.alphabet, k):
            if all(
                len(
                    {
                        r
                        for r in delta_word(a, {q}, w[:i])
                        if delta_word(a, {r}, w[i:])
                    }
                )
                >= 2
                for i in range(1, l + 1)
            ):
                return q, w
    return None


def backend_name() -> str:
    """Name of the decision procedure, kept for benchmark reports."""
    return "square"
