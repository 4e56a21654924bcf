"""Shared fixture automata and structures used across the suite.

These are small hand-built objects with known behaviour: a fork that needs a
4-wide window to disambiguate, the suffix-marker language Sigma* a Sigma,
two structures exercising the trim machinery, and the pair demonstrating how
a shift relabel unlocks a reduction.
"""

from __future__ import annotations

import random

import pytest

from qds import Dfa, Nfa, Qds, accessible_part, random_nfa


def mk_nfa(alphabet, states, initials, finals, transitions) -> Nfa:
    return Nfa(
        alphabet=tuple(alphabet),
        states=tuple(states),
        initials=frozenset(initials),
        finals=frozenset(finals),
        transitions=tuple(transitions),
    )


def window_cases(n_items: int):
    """(a, k, l) triples for the step table and the build: seeded random
    NFAs with 1-6 states over 1-3 symbols at 1 <= l <= k <= 5, half of them
    cut to their accessible part, then a unary and an empty-alphabet
    automaton at every such (k, l)."""
    for seed in range(n_items):
        rng = random.Random(seed)
        a = random_nfa(seed, rng.randint(1, 6), rng.randint(1, 3),
                       rng.choice((0.15, 0.3, 0.5)), 0.5)
        if seed % 2:
            a = accessible_part(a)
        k = rng.randint(1, 5)
        yield a, k, rng.randint(1, k)
    unary = mk_nfa("a", ["0", "1", "2"], ["0"], ["2"],
                   [("0", "a", "0"), ("0", "a", "1"), ("1", "a", "2")])
    no_symbols = mk_nfa("", ["0", "1"], ["0"], ["0"], [])
    for a in (unary, no_symbols):
        for k in range(1, 6):
            for l in range(1, k + 1):
                yield a, k, l


@pytest.fixture
def window4_nfa() -> Nfa:
    """Forks twice on the same labels; only a window of 4 with a split at 3
    tells the branches apart, and no pure lookahead ever does."""
    return mk_nfa(
        "abc",
        [str(i) for i in range(9)],
        ["0"],
        ["7", "8"],
        [
            ("0", "a", "1"),
            ("0", "a", "2"),
            ("1", "b", "3"),
            ("2", "b", "4"),
            ("3", "a", "5"),
            ("3", "a", "6"),
            ("4", "a", "6"),
            ("5", "b", "7"),
            ("6", "c", "8"),
            ("6", "a", "0"),
        ],
    )


@pytest.fixture
def suffix_marker_nfa() -> Nfa:
    """Sigma* a Sigma over {a,b}: guess the marker `a`, read one more."""
    return mk_nfa(
        "ab",
        ["1", "2", "3"],
        ["1"],
        ["3"],
        [
            ("1", "a", "1"),
            ("1", "b", "1"),
            ("1", "a", "2"),
            ("2", "a", "3"),
            ("2", "b", "3"),
        ],
    )


@pytest.fixture
def two_lane_qds() -> Qds:
    """Window-2 structure with two layer-1 entry points and shifts 1 and 2."""
    return Qds(
        alphabet=("a", "b"),
        layers=(("1", "6"), ("2", "3", "7"), ("4", "5", "8")),
        initial="1",
        finals=frozenset({"2", "7"}),
        delta={
            ("1", "a"): "2",
            ("1", "b"): "3",
            ("2", "b"): "4",
            ("2", "a"): "5",
            ("3", "a"): "5",
            ("3", "b"): "5",
            ("6", "a"): "7",
            ("6", "b"): "7",
            ("7", "a"): "8",
        },
        gamma={"5": ("1", 2), "4": ("6", 1), "8": ("6", 2)},
    )


def _trim_shape(alphabet, extra_2edges, finals) -> Qds:
    return Qds(
        alphabet=alphabet,
        layers=(("1", "4"), ("2", "5", "7"), ("3", "6", "8")),
        initial="1",
        finals=frozenset(finals),
        delta={
            ("1", "a"): "2",
            **extra_2edges,
            ("4", "b"): "5",
            ("4", "a"): "7",
            ("5", "b"): "6",
            ("7", "a"): "8",
        },
        gamma={"3": ("4", 1), "6": ("4", 1), "8": ("4", 2)},
    )


@pytest.fixture
def trim_demo_qds() -> Qds:
    """The shift from 3 always leaves a `b` in the window, so the a-branch
    under 4 is unreachable in window terms and 5's finality never fires."""
    return _trim_shape(
        ("a", "b", "c"),
        {("2", "b"): "3", ("2", "c"): "3"},
        {"2", "5", "6", "8"},
    )


@pytest.fixture
def dead_lane_qds() -> Qds:
    """Same shape, but nothing after the first window is ever accepting:
    only the initial edge survives trimming."""
    return _trim_shape(
        ("a", "b"),
        {("2", "b"): "3"},
        {"2", "5", "8"},
    )


def _pair_qds(upper_shift: int) -> Qds:
    return Qds(
        alphabet=("a", "b"),
        layers=(("1",), ("2", "4"), ("3", "5")),
        initial="1",
        finals=frozenset({"1", "2", "3", "4", "5"}),
        delta={
            ("1", "a"): "2",
            ("1", "b"): "4",
            ("2", "a"): "3",
            ("2", "b"): "3",
            ("4", "a"): "5",
            ("4", "b"): "5",
        },
        gamma={"3": ("1", upper_shift), "5": ("1", 2)},
    )


@pytest.fixture
def rigid_pair_qds() -> Qds:
    """Accepts everything, but the mismatched shift lengths block any merge."""
    return _pair_qds(1)


@pytest.fixture
def slack_pair_qds() -> Qds:
    """Same language with both shifts 2; the two lanes collapse."""
    return _pair_qds(2)


@pytest.fixture
def comma_name_qds() -> Qds:
    """States 1 and 2 merge into the class named {1,2}, which is also the
    name of the singleton class of the state `1,2`; the input accepts `aa`
    and rejects `ca`."""
    return Qds(
        alphabet=("a", "b", "c"),
        layers=(("0",), ("1", "2", "1,2"), ("3", "4")),
        initial="0",
        finals=frozenset({"3"}),
        delta={
            ("0", "a"): "1",
            ("0", "b"): "2",
            ("0", "c"): "1,2",
            ("1", "a"): "3",
            ("2", "a"): "3",
            ("1,2", "a"): "4",
        },
        gamma={"3": (None, 1), "4": (None, 1)},
    )


@pytest.fixture
def three_state_dfa() -> Dfa:
    return Dfa(
        alphabet=("a", "b"),
        states=("1", "2", "3"),
        initials=frozenset({"1"}),
        finals=frozenset({"1", "3"}),
        transitions=(
            ("1", "a", "2"),
            ("2", "a", "2"),
            ("2", "b", "3"),
            ("3", "b", "2"),
        ),
    )
