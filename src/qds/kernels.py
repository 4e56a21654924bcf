"""Bitmask kernels for the window-ambiguity search.

Deciding whether some length-k window leaves more than one live successor
means scanning all |Q| x |alphabet|^k (state, window) rows: the one hot loop
in the package. States are packed into machine-word bitmasks; the scan runs
as the depth-first ``_dfs_witness`` compiled by numba, a vectorized numpy
scan, or a plain-Python reference.

Backend selection: numba when it imports (it is the optional extra
``qds[numba]``), numpy otherwise. Automata beyond MAX_TABLE_STATES states take
the python path, because the mask tables grow as 2^|Q|.

A bad row is a pair (q, w) such that for every split 1 <= i <= l more than
one state reached from q by w[1..i] can still read w[i+1..k]. All three
backends return the first bad row they find in (state, lexicographic word)
scan order, or None; an automaton is (k,l)-unambiguous iff no bad row exists.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .nfa import Nfa
from .words import Word

MAX_TABLE_STATES = 16
MAX_ENUMERATION = 1 << 26  # refuse |alphabet|^k scans beyond this

_numba_witness = None
_numba_failed = False


def _dfs_witness(set_succ, pre_live, popcount, n, nsym, k, l):
    full = np.int64((1 << n) - 1)
    syms = np.empty(k, dtype=np.int64)
    fronts = np.empty(k + 1, dtype=np.int64)
    out = np.empty(k + 1, dtype=np.int64)
    for q in range(n):
        fronts[0] = 1 << q
        pos = 0
        syms[0] = -1
        while pos >= 0:
            syms[pos] += 1
            if syms[pos] == nsym:
                pos -= 1
                continue
            front = set_succ[syms[pos], fronts[pos]]
            if front == 0:
                continue  # dead window: row is good, skip subtree
            depth = pos + 1
            if depth <= l and popcount[front] <= 1:
                continue  # split at depth disambiguates every extension
            fronts[depth] = front
            if depth == k:
                viable = full
                bad = True
                for i in range(k, 0, -1):
                    if i <= l and popcount[fronts[i] & viable] < 2:
                        bad = False
                        break
                    viable = pre_live[syms[i - 1], viable]
                if bad:
                    out[0] = q
                    for i in range(k):
                        out[i + 1] = syms[i]
                    return out
                continue
            pos += 1
            syms[pos] = -1
    out[0] = -1
    return out


def _load_numba():
    global _numba_witness, _numba_failed
    if _numba_witness is not None or _numba_failed:
        return _numba_witness
    try:
        from numba import njit
    except ImportError:
        _numba_failed = True
        return None
    _numba_witness = njit(cache=True)(_dfs_witness)
    return _numba_witness


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


def _python_witness(a: Nfa, k: int, l: int) -> tuple[str, Word] | None:
    """Reference implementation straight off the definition; used for big
    state sets and for cross-checking the packed kernels."""
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
    """The packed backend in use for automata up to MAX_TABLE_STATES states."""
    return "numpy" if _load_numba() is None else "numba"


def find_bad_row(a: Nfa, k: int, l: int) -> tuple[str, Word] | None:
    """First (state, window) pair violating the (k,l) condition, or None."""
    if len(a.alphabet) ** k > MAX_ENUMERATION:
        raise InputError(
            f"window scan |alphabet|^k = {len(a.alphabet)}^{k} is over the "
            f"enumeration limit {MAX_ENUMERATION}"
        )
    if len(a.states) > MAX_TABLE_STATES:
        return _python_witness(a, k, l)
    n, nsym = len(a.states), len(a.alphabet)
    set_succ, pre_live, popcount = _mask_tables(encode_nfa(a), n)
    numba_witness = _load_numba()
    if numba_witness is None:
        hit = _numpy_witness(set_succ, pre_live, popcount, n, nsym, k, l)
    else:
        out = numba_witness(set_succ, pre_live, popcount, n, nsym, k, l)
        hit = None if out[0] < 0 else (int(out[0]), out[1:])
    if hit is None:
        return None
    q_ix, sym_ixs = hit
    return a.states[q_ix], tuple(a.alphabet[int(s)] for s in sym_ixs)
