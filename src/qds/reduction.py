"""Layer-respecting equivalences on a QDS and the language-preserving
quotient.

The refinement chain starts from the coarsest relation that only compares
shift lengths and finality on the top layer, then repeatedly re-partitions:
each step the top layer additionally requires gamma targets equivalent under
the previous step's relation, and every inner layer requires all symbol
successors equivalent under the same step's next-layer relation (bottom only
matching bottom). Layer 1 is exempt from the finality comparison: a run can
end inside layer 1 only at the initial state on the empty word. The chain
is run by `nfa.refine` on `Qds.tables`, one group per layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .errors import InputError, PreconditionError
from .nfa import refine, subset_name, subset_names
from .structure import GammaEntry, Qds


@dataclass(frozen=True)
class LayeredPartition:
    """Per-layer partition into classes, plus the refinement step at which
    the chain became stationary."""

    layers: tuple[tuple[frozenset[str], ...], ...]
    steps: int

    @cached_property
    def class_of(self) -> dict[str, frozenset[str]]:
        return {q: cls for layer in self.layers for cls in layer for q in cls}

    @property
    def is_identity(self) -> bool:
        return all(len(cls) == 1 for layer in self.layers for cls in layer)


def equiv_fixpoint(s: Qds) -> LayeredPartition:
    """The coarsest stationary relation of the refinement chain.

    `refine` runs the chain with the top layer as the first group and
    layers m-1 down to 1 after it. A top-layer state's key is its shift and
    finality and its one successor the gamma target; an inner state's key is
    its finality (none on layer 1) and its successors the delta row. On the
    first pass layer 1 has no classes yet, so the top ignores gamma targets,
    as the chain's base step does: `steps` is the passes after the first
    that still split a class. Classes are ordered by first member.
    """
    t, m = s.tables, s.m
    w = t.width
    starts = [0, *accumulate(len(layer) for layer in s.layers)]
    top = starts[m - 1]
    # row offsets and -1 (bottom) both become state numbers by // w
    succ = [[r // w for r in t.delta[i * w:(i + 1) * w]] for i in range(top)]
    key: list[object] = [None] * starts[1]
    key += [i * w in t.finals for i in range(starts[1], top)]
    for i in range(top, starts[m]):
        target, shift = t.gamma[i]
        key.append((shift, i * w in t.finals))
        succ.append([target // w])
    groups = [range(starts[j], starts[j + 1]) for j in reversed(range(m))]
    block, passes = refine(key, succ, groups)
    layers = []
    for layer, lo in zip(s.layers, starts):
        classes: dict[int, list[str]] = {}
        for i, q in enumerate(layer, lo):
            classes.setdefault(block[i], []).append(q)
        layers.append(tuple(frozenset(c) for c in classes.values()))
    return LayeredPartition(layers=tuple(layers), steps=passes - 2)


@dataclass(frozen=True)
class RightInvariantResult:
    ok: bool
    counterexample: tuple[str, str, str | int] | None  # (q, q', symbol or shift tag)

    def __bool__(self) -> bool:
        return self.ok


def verify_right_invariant(s: Qds, p: LayeredPartition) -> RightInvariantResult:
    """Check both closure conditions: delta successors stay equivalent
    (bottom only matching bottom), and top-layer classmates share a shift
    length with equivalent targets."""
    if len(p.layers) != s.m:
        raise InputError("partition layer count does not match the structure")
    for j, (classes, layer) in enumerate(zip(p.layers, s.layers)):
        members = set().union(*classes) if classes else set()
        if members != set(layer):
            raise InputError(f"partition does not cover layer {j + 1} exactly")

    def same(a: str | None, b: str | None) -> bool:
        if a is None or b is None:
            return a is b
        return p.class_of[a] == p.class_of[b]

    for j, classes in enumerate(p.layers, start=1):
        for cls in classes:
            rep = min(cls)
            for q in sorted(cls - {rep}):
                if j == s.m:
                    t1, l1 = s.gamma[rep]
                    t2, l2 = s.gamma[q]
                    if l1 != l2 or not same(t1, t2):
                        return RightInvariantResult(False, (rep, q, l2))
                else:
                    for a in s.alphabet:
                        if not same(s.delta.get((rep, a)), s.delta.get((q, a))):
                            return RightInvariantResult(False, (rep, q, a))
    return RightInvariantResult(True, None)


def quotient(s: Qds, p: LayeredPartition) -> Qds:
    """Merge every class into one state.

    Requires right invariance and, on layers 2 and up, classes pure in
    finality. Finals of the quotient: every non-layer-1 class meeting the
    finals, plus the initial's class iff the initial itself is final.
    """
    check = verify_right_invariant(s, p)
    if not check:
        raise PreconditionError(
            f"partition is not right invariant, witness {check.counterexample}"
        )
    for classes in p.layers[1:]:
        for cls in classes:
            flags = {q in s.finals for q in cls}
            if len(flags) > 1:
                raise PreconditionError(
                    f"class {subset_name(cls)} mixes final and non-final states"
                )

    classes = [cls for layer in p.layers for cls in layer]
    name = {q: n for cls, n in zip(classes, subset_names(classes)) for q in cls}
    layers = tuple(
        tuple(dict.fromkeys(name[q] for q in layer)) for layer in s.layers
    )
    delta: dict[tuple[str, str], str] = {}
    for classes in p.layers[:-1]:
        for cls in classes:
            rep = min(cls)
            for a in s.alphabet:
                tgt = s.delta.get((rep, a))
                if tgt is not None:
                    delta[(name[rep], a)] = name[tgt]
    gamma: dict[str, GammaEntry] = {}
    for cls in p.layers[-1]:
        rep = min(cls)
        target, shift = s.gamma[rep]
        gamma[name[rep]] = (None if target is None else name[target], shift)
    finals = {
        name[q]
        for layer in s.layers[1:]
        for q in layer
        if q in s.finals
    }
    if s.initial in s.finals:
        finals.add(name[s.initial])
    return Qds(
        alphabet=s.alphabet,
        layers=layers,
        initial=name[s.initial],
        finals=frozenset(finals),
        delta=delta,
        gamma=gamma,
    )
