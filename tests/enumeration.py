"""Row-enumeration oracle for the (k,l) decision.

The library decides (k,l) by a walk on the square graph
(`qds.kernels.find_bad_row`). The tests take their ground truth from here
instead: a level-synchronous numpy scan of all |Q| x |alphabet|^k (state,
window) rows against the defining cardinality condition, with states packed
into bitmasks. It answers the bounded searches of the acceptance suite at
k up to about 21, where the plain-Python reference
`qds.kernels._python_witness` is far too slow. Both return the first bad
row in (state, lexicographic word) order.
"""

from __future__ import annotations

import numpy as np

from qds.nfa import Nfa

MAX_TABLE_STATES = 16  # the mask tables grow as 2^|Q|


def encode_nfa(a: Nfa) -> np.ndarray:
    """succ[a][q] = bitmask of the a-successors of state q."""
    state_ix = {q: i for i, q in enumerate(a.states)}
    sym_ix = {s: i for i, s in enumerate(a.alphabet)}
    succ = np.zeros((len(a.alphabet), len(a.states)), dtype=np.int64)
    for p, x, q in a.transitions:
        succ[sym_ix[x], state_ix[p]] |= 1 << state_ix[q]
    return succ


def _mask_tables(succ: np.ndarray, n: int):
    """set_succ[a][mask] = image of the state set `mask` under symbol a;
    pre_live[a][mask] = states with at least one a-successor inside `mask`."""
    size = 1 << n
    masks = np.arange(size, dtype=np.int64)
    set_succ = np.zeros((succ.shape[0], size), dtype=np.int64)
    pre_live = np.zeros((succ.shape[0], size), dtype=np.int64)
    for a in range(succ.shape[0]):
        for q in range(n):
            hit = (masks >> q) & 1 == 1
            set_succ[a, hit] |= succ[a, q]
            if succ[a, q]:
                pre_live[a, (masks & succ[a, q]) != 0] |= 1 << q
    popcount = np.zeros(size, dtype=np.int64)
    for q in range(n):
        popcount[(masks >> q) & 1 == 1] += 1
    return set_succ, pre_live, popcount


def _numpy_witness(set_succ, pre_live, popcount, n, nsym, k, l):
    """Level-synchronous scan: forward fronts of every prefix, backward
    viability of every suffix, one boolean array of surviving bad rows."""
    full = (1 << n) - 1
    viable = [np.array([full], dtype=np.int64)]
    for _ in range(k):
        viable.append(pre_live[:, viable[-1]].reshape(-1))
    viable.reverse()  # viable[i] indexed by the suffix w[i+1..k]
    for q in range(n):
        fronts = np.array([1 << q], dtype=np.int64)
        bad = np.ones(nsym**k, dtype=bool)
        for i in range(1, l + 1):  # splits beyond l never constrain a row
            fronts = np.ascontiguousarray(set_succ[:, fronts].T).reshape(-1)
            cnt = popcount[fronts[:, None] & viable[i][None, :]]
            bad &= (cnt >= 2).reshape(-1)
            if not bad.any():
                break
        if bad.any():
            w = int(np.argmax(bad))
            syms = []
            for _ in range(k):
                syms.append(w % nsym)
                w //= nsym
            return (q, tuple(reversed(syms)))
    return None


def scan_witness(a: Nfa, k: int, l: int):
    """First bad (k,l) row of `a` as (state, word), or None."""
    n, nsym = len(a.states), len(a.alphabet)
    assert n <= MAX_TABLE_STATES, "use qds.kernels._python_witness"
    set_succ, pre_live, popcount = _mask_tables(encode_nfa(a), n)
    hit = _numpy_witness(set_succ, pre_live, popcount, n, nsym, k, l)
    if hit is None:
        return None
    q_ix, sym_ixs = hit
    return a.states[q_ix], tuple(a.alphabet[int(s)] for s in sym_ixs)
