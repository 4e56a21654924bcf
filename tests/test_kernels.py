import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from qds import (
    InputError,
    PreconditionError,
    accessible_part,
    kernels,
    kl,
    kl_witness,
    random_nfa,
    step_table,
)
from qds.kernels import backend_name, find_bad_row
from tests.conftest import mk_nfa


def reference_corpus():
    """Random accessible NFAs with 1..6 states over one to three symbols,
    and a fork that rejoins and runs dead, where a walk can last 1, 2 or 3
    steps depending on the pair it starts from."""
    yield mk_nfa("ab", "01234", ["0"], ["4"],
                 [("0", "a", "1"), ("0", "a", "2"), ("1", "a", "3"), ("2", "a", "3"),
                  ("3", "a", "4"), ("2", "b", "4"), ("1", "b", "1")])
    for seed in range(150):
        a = accessible_part(
            random_nfa(seed, 1 + seed % 6, 1 + seed % 3, 0.1 + (seed % 5) * 0.15, 0.4)
        )
        if a.states:
            yield a


def test_walk_matches_reference_row_for_row():
    """The square-graph walk returns exactly the python reference's first
    bad row in (state, lex-word) order, witness included, at every l <= k:
    k <= 6 over at most two symbols, k <= 4 over three."""
    cases = bad = 0
    for a in reference_corpus():
        for k in range(1, (6 if len(a.alphabet) <= 2 else 4) + 1):
            for l in range(1, k + 1):
                expected = kernels._python_witness(a, k, l)
                assert find_bad_row(a, k, l) == expected, (a, k, l)
                cases += 1
                bad += expected is not None
    assert bad >= 1000 and cases - bad >= 1000


def test_large_state_sets():
    # more than 16 states, where the old packed tables stopped
    a = accessible_part(random_nfa(3, 18, 2, 0.2, 0.3))
    assert len(a.states) > 16
    for k, l in ((1, 1), (2, 1), (2, 2)):
        assert find_bad_row(a, k, l) == kernels._python_witness(a, k, l)


@pytest.mark.parametrize("seed", [0, 1])
def test_many_states_small_memory(seed):
    """At 150 states the walk keeps a few |Q|-bit row masks per position:
    tables over all |Q|^2 pairs would take |Q|^4*|alphabet| bits, about
    127 MB here."""
    a = random_nfa(seed, 150, 2, 0.003, 0.3)
    for k, l in ((2, 1), (2, 2), (3, 2)):
        tracemalloc.start()
        try:
            got = find_bad_row(a, k, l)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == kernels._python_witness(a, k, l)
        assert peak < 2_000_000, peak


def test_backend_name():
    assert backend_name() == "square"


def test_enumeration_guard():
    """One size budget guards the walk (k*|Q|^2*|alphabet| steps) and the
    step table (|Q|*|alphabet|^k rows of k symbols); both refuse with
    InputError before allocating, so even k = 10^9 answers at once. An
    empty alphabet counts as one symbol: k-symbol rows are still built."""
    a = random_nfa(0, 2, 3, 0.5, 0.5)
    cells = len(a.states) ** 2 * len(a.alphabet)
    k = kl.SIZE_BUDGET // cells + 1
    with pytest.raises(InputError, match="over the size budget 16777216"):
        kl_witness(a, k, 1)
    with pytest.raises(InputError, match=r"k\*\|Q\|\^2\*\|alphabet\| = 1000000000\*2\^2\*3"):
        kl_witness(a, 10**9, 1)
    q, w = kl_witness(a, 40, 1)  # the old scan refused its 3^40 rows
    with pytest.raises(PreconditionError, match="disambiguates"):
        kl.step(a, 40, 1, q, w)
    with pytest.raises(InputError, match=r"\|Q\|\*\|alphabet\|\^k\*k = 2\*3\^14\*14 cells"):
        step_table(a, 14, 1)
    with pytest.raises(InputError, match="size budget"):
        step_table(a, 10**9, 1)
    unary = mk_nfa("a", ["0", "1"], ["0"], ["1"], [("0", "a", "0"), ("0", "a", "1")])
    assert len(step_table(unary, 1000, 1).entries) == 2
    with pytest.raises(InputError, match="size budget"):
        step_table(unary, 10**9, 1)
    empty = mk_nfa("", ["0"], ["0"], ["0"], [])
    assert kl_witness(empty, 1000, 1) is None
    with pytest.raises(InputError, match=r"= 1000000000\*1\^2\*1 is over"):
        kl_witness(empty, 10**9, 1)
    with pytest.raises(InputError, match="size budget"):
        step_table(empty, 10**9, 1)


def test_import_leaves_numpy_out():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, qds, qds.cli; print(sorted({'numpy', 'numba'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n"


def test_forward_pass_copies_the_period():
    """Once feas has settled the front walk is a fixed map, so the word is
    copied from the first front that recurs. The 2-state unary NFA has a
    bad row at every k; at k = 2^20 a step per symbol took seconds."""
    unary = mk_nfa("a", ["0", "1"], ["0"], ["1"],
                   [("0", "a", "0"), ("0", "a", "1"), ("1", "a", "1")])
    k = 2**20
    assert find_bad_row(unary, k, 1) == ("0", ("a",) * k)


def test_periodic_walk_matches_reference_at_longer_windows():
    """At k = 6 and 10 the settled stretches are long enough for fronts to
    recur, with periods above 1 on about one in ten of these NFAs, so the
    copied period is held to the row-by-row reference."""
    cases = bad = 0
    for seed in range(48):
        sigma = 1 + (seed % 8 != 0)
        a = accessible_part(random_nfa(seed, 2 + seed % 3, sigma, 0.2 + (seed % 4) * 0.1, 0.4))
        for k in (6, 10):
            for l in (1, 2, k):
                expected = kernels._python_witness(a, k, l)
                assert find_bad_row(a, k, l) == expected, (a, k, l)
                cases += 1
                bad += expected is not None
    assert bad >= 40 and cases - bad >= 40


def test_long_window_row_is_bad_by_definition():
    """At k = 2^16 the row the walk returns meets the definition, checked
    with the plain subset function: more than one state reached by w[:1]
    can still read w[1:]."""
    from qds.nfa import delta_word

    k, found = 2**16, 0
    alternating = mk_nfa("ab", "0123", ["0"], ["1"],
                         [("0", "a", "1"), ("0", "a", "2"), ("1", "a", "3"),
                          ("3", "b", "1"), ("2", "a", "2"), ("2", "b", "2")])
    assert find_bad_row(alternating, k, 1) == ("0", ("a",) + ("a", "b") * (k // 2 - 1) + ("a",))
    for seed in range(40):
        a = accessible_part(random_nfa(seed, 2 + seed % 4, 2, 0.3, 0.4))
        row = find_bad_row(a, k, 1)
        if row is None:
            continue
        q, w = row
        assert len(w) == k
        live = {r for r in delta_word(a, {q}, w[:1]) if delta_word(a, {r}, w[1:])}
        assert len(live) >= 2, (a, q)
        found += 1
        if found == 5:
            break
    assert found == 5


# state counts on both sides of the 8-state span boundaries
BYTE_EDGES = (1, 7, 8, 9, 15, 16, 17, 24)


def test_walk_matches_reference_across_span_boundaries():
    """State sets of 8, 9, 16, 17 and 24 states take one table read per 8
    states; the walk still returns the reference's first bad row at l = 1
    and l = k."""
    cases = bad = 0
    for n in BYTE_EDGES:
        for seed in range(6):
            sigma = 1 + seed % 2
            a = random_nfa(100 * n + seed, n, sigma, 2.0 / (n + 2) + 0.05 * (seed % 3), 0.4)
            for k in range(1, (4 if n <= 9 else 3) + 1):
                for l in sorted({1, k}):
                    expected = kernels._python_witness(a, k, l)
                    assert find_bad_row(a, k, l) == expected, (n, seed, k, l)
                    cases += 1
                    bad += expected is not None
    assert bad >= 40 and cases - bad >= 40, (bad, cases)


def _bit_image(mask: int, table: list[int]) -> int:
    """Union of table[p] over the set bits p of `mask`, one bit at a time."""
    out = 0
    for p, t in enumerate(table):
        if mask >> p & 1:
            out |= t
    return out


def _walk(succ: list[list[int]], mask: int, w: tuple[int, ...]) -> int:
    for x in w:
        mask = _bit_image(mask, succ[x])
    return mask


def _window_automata():
    """Seeded random NFAs at the span boundaries, a one-letter automaton and
    an empty-alphabet one."""
    for n in BYTE_EDGES:
        yield random_nfa(7 * n, n, 1 + n % 3, min(1.0, 1.5 / n), 0.5)
    yield mk_nfa("a", "0123456789", ["0"], ["9"],
                 [(str(i), "a", str((i * 3 + 1) % 10)) for i in range(10)]
                 + [("0", "a", "5"), ("9", "a", "0")])
    yield mk_nfa("", [str(i) for i in range(9)], ["0"], ["3"], [])


def test_fronts_and_can_read_match_bit_loops():
    """fronts[j][i*s^j + c] and can_read[m][c] against walks of the words of
    rank c, one symbol and one bit at a time."""
    from itertools import product

    for a in _window_automata():
        n, s = len(a.states), len(a.alphabet)
        succ, pred = a.masks
        starts = [1 << i for i in range(n)] + [(1 << n) - 1, 0b101 & ((1 << n) - 1)]
        depth = 3
        got = kernels.fronts(succ, starts, depth)
        for j in range(depth + 1):
            want = [_walk(succ, f, w) for f in starts for w in product(range(s), repeat=j)]
            assert got[j] == want, (n, s, j)
        ends = [sum(1 << i for i, q in enumerate(a.states) if q in a.finals), (1 << n) - 1]
        for end in ends:
            got = kernels.can_read(pred, end, depth)
            for m in range(depth + 1):
                want = [sum(1 << p for p in range(n) if _walk(succ, 1 << p, w) & end)
                        for w in product(range(s), repeat=m)]
                assert got[m] == want, (n, s, m)


def test_spans_are_linear_in_the_states():
    """One span per 8 states, of 2^8 entries (2^(n mod 8) for the last), so
    the tables hold at most 32 entries per state; each entry is the union of
    the table rows its bits name."""
    import random

    for n in range(0, 41):
        rng = random.Random(n)
        table = [rng.getrandbits(n) for _ in range(n)]
        parts = kernels.spans(table)
        assert len(parts) == (n + 7) // 8
        assert [len(p) for p in parts] == [2 ** min(8, n - 8 * b) for b in range(len(parts))]
        assert sum(map(len, parts)) <= 32 * n
        image = kernels.images(table)
        for mask in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]:
            assert image(mask) == _bit_image(mask, table), (n, mask)
        for b, span in enumerate(parts):
            for v in (0, len(span) - 1, rng.randrange(len(span))):
                assert span[v] == _bit_image(v << 8 * b, table)
