"""The witness family L_k = {a,b}* a {a,b}^k.

L_k has a (k+2)-state NFA but a 2^(k+1)-state minimal DFA; the hand-built
layered structure S_k recognizes it with 2(k+1)^2 + k + 3 states, which is
the exponential-gap story the size report measures end to end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import SIZE_BUDGET, InputError
from .nfa import Dfa, Nfa, determinize, minimize_dfa
from .reduction import equiv_fixpoint, quotient
from .structure import GammaEntry, Qds, qds_membership
from .trim import trim_qds

ALPHABET = ("a", "b")
WORDS_PER_ROW = 1000  # random words per `gap_report` row


def gen_lk_nfa(k: int) -> Nfa:
    """The (k+2)-state NFA: guess the distinguished `a`, then count k more
    symbols."""
    if k < 0:
        raise InputError("k must be non-negative")
    states = tuple(str(i) for i in range(k + 2))
    transitions = [("0", "a", "0"), ("0", "b", "0"), ("0", "a", "1")]
    for j in range(1, k + 1):
        transitions += [(str(j), "a", str(j + 1)), (str(j), "b", str(j + 1))]
    return Nfa(
        alphabet=ALPHABET,
        states=states,
        initials=frozenset({"0"}),
        finals=frozenset({str(k + 1)}),
        transitions=tuple(transitions),
    )


def _plain(n: int, j: int) -> str:
    return f"{n}_{j}"


def _primed(n: int, j: int) -> str:
    return f"{n}_{j}p"


def gen_sk_qds(k: int) -> Qds:
    """The layered recognizer S_k for L_k: window k+2, k+3 layers.

    Unprimed lanes remember "an `a` was read n positions into the window",
    primed lanes a window of b's so far; both lanes of the penultimate layer
    advance into the shared last layer, whose gamma shifts by the position
    the lane recorded. Layer sizes: 1, then k+1 layers of 2(k+1) states,
    then k+2, so 2(k+1)^2 + k + 3 in total (including the never-reached
    lane states the uniform layer shape carries).
    """
    if k < 0:
        raise InputError("k must be non-negative")
    layers: list[tuple[str, ...]] = [(_plain(1, 1),)]
    for j in range(2, k + 3):
        layers.append(
            tuple(_plain(n, j) for n in range(1, k + 2))
            + tuple(_primed(n, j) for n in range(1, k + 2))
        )
    layers.append(tuple(_plain(n, k + 3) for n in range(1, k + 3)))

    delta: dict[tuple[str, str], str] = {
        (_plain(1, 1), "a"): _plain(1, 2),
        (_plain(1, 1), "b"): _primed(1, 2),
    }
    for lane in (_plain, _primed):
        # straight copies below the diagonal
        for j2 in range(2, k + 2):
            for j1 in range(1, j2 - 1):
                for x in ALPHABET:
                    delta[(lane(j1, j2), x)] = lane(j1, j2 + 1)
        # the diagonal: an `a` extends the lane, a `b` restarts the count
        for j1 in range(1, k + 1):
            delta[(lane(j1, j1 + 1), "a")] = lane(j1, j1 + 2)
            delta[(lane(j1, j1 + 1), "b")] = lane(j1 + 1, j1 + 2)
        # both lanes of layer k+2 feed the single last layer
        for j1 in range(1, k + 1):
            for x in ALPHABET:
                delta[(lane(j1, k + 2), x)] = _plain(j1, k + 3)
        delta[(lane(k + 1, k + 2), "a")] = _plain(k + 1, k + 3)
        delta[(lane(k + 1, k + 2), "b")] = _plain(k + 2, k + 3)

    gamma: dict[str, GammaEntry] = {
        _plain(j, k + 3): (_plain(1, 1), j) for j in range(1, k + 3)
    }
    finals = frozenset(_plain(j, k + 2) for j in range(1, k + 2)) | {
        _plain(1, k + 3)
    }
    return Qds(
        alphabet=ALPHABET,
        layers=tuple(layers),
        initial=_plain(1, 1),
        finals=finals,
        delta=delta,
        gamma=gamma,
    )


def lk_predicate(k: int, w: tuple[str, ...]) -> bool:
    """Membership in L_k straight off the definition: the (k+1)-th symbol
    from the end is `a`."""
    return len(w) >= k + 1 and w[len(w) - k - 1] == "a"


@dataclass(frozen=True)
class FamilyInstance:
    k: int
    nfa: Nfa
    sk: Qds
    dfa: Dfa  # the minimal DFA of L_k, 2^(k+1) states


def _check_dfa_budget(k: int) -> None:
    """Refuse up front an L_k whose subset construction, 2^(k+1) subsets of
    k+2 states, `determinize` would refuse only after building most of it."""
    # 2 ** (k+1) is capped at k = 24: from there on it is over the budget anyway
    if 2 ** min(k + 1, SIZE_BUDGET.bit_length()) * (k + 2) > SIZE_BUDGET:
        raise InputError(
            f"the L_{k} subset construction 2^{k + 1}*{k + 2} cells is over "
            f"the size budget {SIZE_BUDGET}"
        )


def family_instance(k: int) -> FamilyInstance:
    _check_dfa_budget(k)
    nfa = gen_lk_nfa(k)
    return FamilyInstance(k=k, nfa=nfa, sk=gen_sk_qds(k), dfa=minimize_dfa(determinize(nfa)))


@dataclass(frozen=True)
class GapRow:
    k: int
    nfa_states: int
    sk_states: int
    dfa_states: int
    sk_after_trim: int
    sk_after_reduce: int
    membership_reads_per_symbol: float


@dataclass(frozen=True)
class GapReport:
    rows: tuple[GapRow, ...]
    crossover_k: int | None  # first k where the layered structure beats the DFA

    def as_csv(self) -> str:
        header = (
            "k,nfa_states,sk_states,dfa_states,sk_after_trim,"
            "sk_after_reduce,membership_reads_per_symbol"
        )
        lines = [header]
        for r in self.rows:
            lines.append(
                f"{r.k},{r.nfa_states},{r.sk_states},{r.dfa_states},"
                f"{r.sk_after_trim},{r.sk_after_reduce},"
                f"{r.membership_reads_per_symbol:.3f}"
            )
        return "\n".join(lines)


def gap_report(k_max: int, seed: int = 0) -> GapReport:
    """Measured sizes (never formula-derived) for every k up to k_max, plus
    the read cost of running random words through S_k. DFA construction is
    exponential in k: k_max beyond ~16 is slow, and beyond 18 it is refused
    before any row is built."""
    if k_max < 0:
        raise InputError("k_max must be non-negative")
    _check_dfa_budget(k_max)
    rows = []
    for k in range(k_max + 1):
        inst = family_instance(k)
        trimmed = trim_qds(inst.sk)
        reduced = quotient(trimmed, equiv_fixpoint(trimmed))
        rng = random.Random(seed * 1000003 + k)
        reads = 0
        symbols = 0
        length = 10 * (k + 2)
        for _ in range(WORDS_PER_ROW):
            w = tuple(rng.choice(ALPHABET) for _ in range(length))
            reads += qds_membership(inst.sk, w).reads
            symbols += length
        rows.append(
            GapRow(
                k=k,
                nfa_states=len(inst.nfa.states),
                sk_states=len(inst.sk.states),
                dfa_states=len(inst.dfa.states),
                sk_after_trim=len(trimmed.states),
                sk_after_reduce=len(reduced.states),
                membership_reads_per_symbol=reads / symbols if symbols else 0.0,
            )
        )
    crossover = next((r.k for r in rows if r.sk_states < r.dfa_states), None)
    return GapReport(rows=tuple(rows), crossover_k=crossover)
