import importlib.util

import pytest

from qds import InputError, accessible_part, kernels, random_nfa
from qds.kernels import MAX_TABLE_STATES, backend_name, find_bad_row


def reference_cases():
    """(automaton, k, l) cases and the python reference's answer to each."""
    cases = []
    for seed in range(30):
        a = accessible_part(
            random_nfa(seed, 1 + seed % 5, 1 + seed % 2, 0.1 + (seed % 6) * 0.13, 0.4)
        )
        if not a.states:
            continue
        for k, l in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3)):
            cases.append((a, k, l))
    return cases, [kernels._python_witness(a, k, l) for a, k, l in cases]


@pytest.mark.parametrize("backend", ["numpy", "numba"])
def test_backends_agree_with_reference(monkeypatch, backend):
    """Both packed backends return the same verdict and the same first
    witness in (state, lex-word) scan order as the python reference. The
    numba case runs the kernel body uncompiled, as NUMBA_DISABLE_JIT=1 would,
    so it checks the kernel and its output decoding wherever numba is absent;
    the compiled kernel is checked by test_compiled_numba_agrees_with_reference."""
    cases, expected = reference_cases()
    kernel = kernels._dfs_witness if backend == "numba" else None
    monkeypatch.setattr(kernels, "_load_numba", lambda: kernel)
    assert backend_name() == backend
    assert [find_bad_row(a, k, l) for a, k, l in cases] == expected


def test_compiled_numba_agrees_with_reference():
    pytest.importorskip("numba")
    cases, expected = reference_cases()
    assert backend_name() == "numba"
    assert [find_bad_row(a, k, l) for a, k, l in cases] == expected


def test_auto_prefers_numba():
    has_numba = importlib.util.find_spec("numba") is not None
    assert backend_name() == ("numba" if has_numba else "numpy")


def test_enumeration_guard():
    a = random_nfa(0, 2, 3, 0.5, 0.5)
    with pytest.raises(InputError):
        find_bad_row(a, 40, 1)


def test_large_state_sets_fall_back_to_python():
    # packed tables stop at MAX_TABLE_STATES; beyond that the reference path
    # answers and verdicts must not change
    a = accessible_part(random_nfa(3, MAX_TABLE_STATES + 2, 2, 0.2, 0.3))
    assert len(a.states) > MAX_TABLE_STATES
    assert find_bad_row(a, 2, 1) == kernels._python_witness(a, 2, 1)
