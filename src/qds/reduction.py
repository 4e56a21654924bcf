"""Layer-respecting equivalences on a QDS and the language-preserving
quotient.

The refinement chain starts from the coarsest relation that only compares
shift lengths and finality on the top layer, then repeatedly re-partitions:
each step the top layer additionally requires gamma targets equivalent under
the previous step's relation, and every inner layer requires all symbol
successors equivalent under the same step's next-layer relation (bottom only
matching bottom). Layer 1 is exempt from the finality comparison: a run can
end inside layer 1 only at the initial state on the empty word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InputError, PreconditionError
from .structure import GammaEntry, Qds

_BOTTOM = "<bottom>"  # signature marker: an undefined successor/target


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


def _group(states: tuple[str, ...], sig) -> tuple[frozenset[str], ...]:
    """Partition `states` by signature, classes ordered by first member."""
    buckets: dict[object, list[str]] = {}
    for q in states:
        buckets.setdefault(sig(q), []).append(q)
    # insertion order = order of each class's first member
    return tuple(frozenset(ms) for ms in buckets.values())


def _refine(s: Qds, prev: tuple[tuple[frozenset[str], ...], ...] | None):
    """One step of the chain; `prev` is None for the base step, where gamma
    targets are not yet compared."""
    m = s.m
    prev_layer1: dict[str, frozenset[str]] = {}
    if prev is not None:
        prev_layer1 = {q: cls for cls in prev[0] for q in cls}

    new_layers: list[tuple[frozenset[str], ...]] = [()] * m

    def top_sig(q: str):
        target, shift = s.gamma[q]
        parts: list[object] = [shift, q in s.finals]
        if prev is not None:
            parts.append(_BOTTOM if target is None else prev_layer1[target])
        return tuple(parts)

    new_layers[m - 1] = _group(s.layers[m - 1], top_sig)
    for l in range(m - 1, 0, -1):  # 1-based layer l, filling index l-1
        next_class = {q: cls for cls in new_layers[l] for q in cls}

        def inner_sig(q: str, _nc=next_class, _l=l):
            succ = tuple(
                _nc[s.delta[(q, a)]] if (q, a) in s.delta else _BOTTOM
                for a in s.alphabet
            )
            finality = (q in s.finals) if _l > 1 else None
            return (succ, finality)

        new_layers[l - 1] = _group(s.layers[l - 1], inner_sig)
    return tuple(new_layers)


def equiv_fixpoint(s: Qds) -> LayeredPartition:
    """The coarsest stationary relation of the refinement chain.

    Stationarity is detected structurally (two equal consecutive
    partitions), not assumed from the min-layer-size bound; the bound is an
    invariant the tests check instead.
    """
    current = _refine(s, None)
    steps = 0
    while True:
        nxt = _refine(s, current)
        if nxt == current:
            return LayeredPartition(layers=current, steps=steps)
        current = nxt
        steps += 1


def identity_partition(s: Qds) -> LayeredPartition:
    return LayeredPartition(
        layers=tuple(tuple(frozenset({q}) for q in layer) for layer in s.layers),
        steps=0,
    )


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


def class_name(cls: frozenset[str]) -> str:
    return "{" + ",".join(sorted(cls)) + "}"


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
                    f"class {class_name(cls)} mixes final and non-final states"
                )

    name = {q: class_name(cls) for cls in (c for layer in p.layers for c in layer) for q in cls}
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
