"""The refinement chain and Moore minimisation on names, the oracles for
`qds.reduction.equiv_fixpoint` and `qds.nfa.minimize_dfa`.

The library runs both through the one integer routine `qds.nfa.refine`:
the chain on `Qds.tables`, the minimisation on the live states with a
missing successor read as bottom. These are the constructions straight off
the definitions on the string-keyed maps: the chain re-partitions layer by
layer until two consecutive partitions are equal, and the minimisation
completes the DFA with a sink, refines from the finality split and strips
the sink again. `reference_fixpoint` must equal `equiv_fixpoint`, `steps`
included, and `reference_minimize` must equal `minimize_dfa`.

`verify_right_invariant` and `quotient` are the name-keyed check and
quotient, the oracles for `qds.reduction.quotient`, which checks right
invariance on `Qds.tables` itself: the same counterexample in its refusal,
equal structures and the same errors.
"""

from __future__ import annotations

from dataclasses import dataclass

from qds.errors import InputError, PreconditionError
from qds.nfa import Dfa, accessible_part, subset_name, subset_names
from qds.reduction import LayeredPartition
from qds.structure import GammaEntry, Qds

_BOTTOM = "<bottom>"  # signature marker: an undefined successor/target


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


def reference_fixpoint(s: Qds) -> LayeredPartition:
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


def is_identity(p: LayeredPartition) -> bool:
    """Every class of `p` is a single state."""
    return all(len(cls) == 1 for layer in p.layers for cls in layer)


def identity_partition(s: Qds) -> LayeredPartition:
    return LayeredPartition(
        layers=tuple(tuple(frozenset({q}) for q in layer) for layer in s.layers),
        steps=0,
    )


def reference_minimize(d: Dfa) -> Dfa:
    """Minimal DFA for L(d), up to isomorphism.

    The input is completed with a sink internally; the sink (and any states
    merged with it) is stripped from the result again unless it carries the
    initial state, so reported sizes never count the completion sink.
    Merged states are named after their least member.
    """
    if not isinstance(d, Dfa):
        raise PreconditionError("minimize_dfa needs a deterministic automaton")
    acc = accessible_part(d)
    d = Dfa(acc.alphabet, acc.states, acc.initials, acc.finals, acc.transitions)

    sink = "sink"
    while sink in d.states:
        sink += "!"
    states = list(d.states) + [sink]
    step: dict[tuple[str, str], str] = {(sink, a): sink for a in d.alphabet}
    for q in d.states:
        for a in d.alphabet:
            succ = d._succ.get((q, a), frozenset())
            step[(q, a)] = next(iter(succ)) if succ else sink

    # Moore refinement from the finality split.
    block = {q: (q in d.finals) for q in states}
    while True:
        sig = {
            q: (block[q], tuple(block[step[(q, a)]] for a in d.alphabet))
            for q in states
        }
        ids = {s: i for i, s in enumerate(sorted(set(sig.values()), key=repr))}
        new_block = {q: ids[sig[q]] for q in states}
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block

    classes: dict[int, set[str]] = {}
    for q in states:
        classes.setdefault(block[q], set()).add(q)
    sink_class = block[sink]

    def class_name(cid: int) -> str:
        members = classes[cid] - {sink}
        return min(members)

    keep = [
        cid
        for cid in classes
        if cid != sink_class or d.initial in classes[cid]
    ]
    # order classes by the declared position of their earliest member
    pos = {q: i for i, q in enumerate(d.states)}
    keep.sort(key=lambda cid: min(pos[q] for q in classes[cid] - {sink}))

    transitions = []
    for cid in keep:
        if cid == sink_class:
            continue  # a dead initial keeps its state but no transitions
        rep = class_name(cid)
        for a in d.alphabet:
            tgt = block[step[(rep, a)]]
            if tgt in keep:
                transitions.append((class_name(cid), a, class_name(tgt)))
    return Dfa(
        alphabet=d.alphabet,
        states=tuple(class_name(cid) for cid in keep),
        initials=frozenset({class_name(block[d.initial])}),
        finals=frozenset(
            class_name(cid) for cid in keep if classes[cid] & d.finals
        ),
        transitions=tuple(transitions),
    )


@dataclass(frozen=True)
class RightInvariantResult:
    ok: bool
    counterexample: tuple[str, str, str | int] | None  # (q, q', symbol or shift)

    def __bool__(self) -> bool:
        return self.ok


def verify_right_invariant(s: Qds, p: LayeredPartition) -> RightInvariantResult:
    """Check both closure conditions: delta successors stay equivalent
    (bottom only matching bottom), and top-layer classmates share a shift
    length with equivalent targets."""
    if len(p.layers) != s.m:
        raise InputError("partition layer count does not match the structure")
    for j, (classes, layer) in enumerate(zip(p.layers, s.layers)):
        members = [q for cls in classes for q in cls]
        if not all(classes) or len(members) != len(layer) or set(members) != set(layer):
            raise InputError(f"partition does not cover layer {j + 1} exactly")

    class_of = {q: cls for layer in p.layers for cls in layer for q in cls}

    def same(a: str | None, b: str | None) -> bool:
        if a is None or b is None:
            return a is b
        return class_of[a] == class_of[b]

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
