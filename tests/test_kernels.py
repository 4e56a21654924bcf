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
