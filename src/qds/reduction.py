"""Layer-respecting equivalences on a QDS and the language-preserving
quotient.

The refinement chain starts from the coarsest relation that only compares
shift lengths and finality on the top layer, then repeatedly re-partitions:
each step the top layer additionally requires gamma targets equivalent under
the previous step's relation, and every inner layer requires all symbol
successors equivalent under the same step's next-layer relation (bottom only
matching bottom). Layer 1 is exempt from the finality comparison: as gamma
shifts lie in 1..m-1, a run can end inside layer 1 only at the initial
state on the empty word (a shift of m could end one there). The chain
is run by `nfa.refine` on `Qds.tables`, one group per layer. The
quotient checks right invariance on the same tables, through one class
number per state, and builds its tables from the class rows it checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain

from .errors import InputError, PreconditionError
from .nfa import refine, subset_name, subset_names
from .structure import Qds, QdsTables, _trusted_qds


@dataclass(frozen=True, init=False)
class LayeredPartition:
    """Per-layer partition into classes, plus the refinement step at which
    the chain became stationary.

    One made by `equiv_fixpoint` carries the class number of each state of
    the structure it came from, classes numbered in layer order and by
    first member within a layer, and builds the name sets of `layers` only
    when they are read. `quotient`, the one check of right invariance,
    reads those numbers on that structure alone."""

    layers: tuple[tuple[frozenset[str], ...], ...]
    steps: int

    def __init__(self, layers, steps: int) -> None:
        vars(self).update(layers=tuple(layers), steps=steps, _numbers=None)

    @cached_property
    def layers(self) -> tuple[tuple[frozenset[str], ...], ...]:
        source, cid = self._numbers
        out, lo = [], 0
        for layer in source:
            classes: dict[int, list[str]] = {}
            for q, c in zip(layer, cid[lo:lo + len(layer)]):
                classes.setdefault(c, []).append(q)
            out.append(tuple(frozenset(c) for c in classes.values()))
            lo += len(layer)
        return tuple(out)


def equiv_fixpoint(s: Qds) -> LayeredPartition:
    """The coarsest stationary relation of the refinement chain.

    `refine` runs the chain with the top layer as the first group and
    layers m-1 down to 1 after it. A top-layer state's key is its shift and
    finality and its one successor the gamma target; an inner state's key is
    its finality (none on layer 1) and its successors the delta row. On the
    first pass layer 1 has no classes yet, so the top ignores gamma targets,
    as the chain's base step does: `steps` is the passes after the first
    that still split a class. Classes are ordered by first member, and the
    partition carries refine's classes renumbered in that order.
    """
    t, m = s.tables, s.m
    w = t.width
    starts = [0, *accumulate(len(layer) for layer in s.layers)]
    top = starts[m - 1]
    # row offsets become state numbers by // w; the sink becomes n, bottom
    slots = [r // w for r in t.delta[:top * w]]
    succ = [slots[i:i + w] for i in range(0, top * w, w)]
    key: list[object] = [None] * starts[1]
    key += [i * w in t.finals for i in range(starts[1], top)]
    for i in range(top, starts[m]):
        target, shift = t.gamma[i]
        key.append((shift, i * w in t.finals))
        succ.append([target // w])
    groups = [range(starts[j], starts[j + 1]) for j in reversed(range(m))]
    block, passes = refine(key, succ, groups)
    # no class spans two layers, so first members in state order are the
    # classes in layer order
    number = {b: c for c, b in enumerate(dict.fromkeys(block))}
    cid = [number[b] for b in block]
    cid.append(len(number))  # bottom, state n: a number past every class
    p = object.__new__(LayeredPartition)  # its name sets are built when read
    vars(p).update(steps=passes - 2, _numbers=(s.layers, cid))
    return p


def quotient(s: Qds, p: LayeredPartition) -> Qds:
    """Merge every class into one state.

    Requires right invariance: classmates' delta successors stay
    equivalent (bottom only matching bottom), and top-layer classmates
    share a shift length with equivalent targets. A refusal names the first
    counterexample (q, q', symbol or shift), with classes in order, each
    compared with its least member, the others in name order and symbols in
    alphabet order. Also requires, on layers 2 and up, classes pure in
    finality. Finals of the quotient: every non-layer-1 class meeting the
    finals, plus the initial's class iff the initial itself is final.

    A partition `equiv_fixpoint` made of this structure hands over its
    class numbers; any other one is checked against the layers and
    numbered from its names. Each class's rows are its least member's rows
    as checked, read off `Qds.tables`; the result carries its tables.
    """
    names = s.states
    n = len(names)
    if p._numbers is not None and p._numbers[0] is s.layers:
        cid = p._numbers[1]
        members: list[list[int]] = [[] for _ in range(cid[n])]
        for i, c in enumerate(cid[:n]):
            members[c].append(i)
        classes: list = [[names[i] for i in mem] for mem in members]
    else:
        if len(p.layers) != s.m:
            raise InputError("partition layer count does not match the structure")
        for j, (layer_classes, layer) in enumerate(zip(p.layers, s.layers)):
            # non-empty classes holding each state of the layer exactly once
            flat = sorted(chain.from_iterable(layer_classes))
            if not all(layer_classes) or flat != sorted(layer):
                raise InputError(f"partition does not cover layer {j + 1} exactly")
        ix = {q: i for i, q in enumerate(names)}
        classes = [cls for layer in p.layers for cls in layer]
        members = [[ix[q] for q in cls] for cls in classes]
        cid = [len(classes)] * (n + 1)
        for c, mem in enumerate(members):
            for i in mem:
                cid[i] = c
    t = s.tables
    w, top = t.width, n - len(s.layers[-1])
    # a state's row: its successors' classes, or (shift, target class) on top
    slots = [cid[r // w] for r in t.delta[:top * w]]
    rows: list[object] = [slots[i:i + w] for i in range(0, top * w, w)]
    rows += [(shift, cid[target // w]) for target, shift in t.gamma[top:]]
    reps = [min(mem, key=names.__getitem__) for mem in members]
    for mem, r in zip(members, reps):
        want = rows[r]
        odd = [i for i in mem if rows[i] != want]
        if odd:
            i = min(odd, key=names.__getitem__)
            got = rows[i]
            tag = got[0] if r >= top else s.alphabet[
                next(c for c, (x, y) in enumerate(zip(want, got)) if x != y)]
            raise PreconditionError(
                f"partition is not right invariant, witness {(names[r], names[i], tag)}"
            )
    mixed = [cid[i] for i in range(len(s.layers[0]), n)
             if (i * w in t.finals) != (reps[cid[i]] * w in t.finals)]
    if mixed:
        raise PreconditionError(
            f"class {subset_name(classes[min(mixed)])} mixes final and non-final states"
        )
    class_names = subset_names(classes)
    layers, order, lo = [], [], 0
    for layer in s.layers:  # each layer's classes by first member
        here = list(dict.fromkeys(cid[lo:lo + len(layer)]))
        layers.append(tuple(class_names[c] for c in here))
        order += here
        lo += len(layer)
    sink = len(order) * w
    new = [sink] * (len(classes) + 1)  # class -> row offset; bottom's number -> the sink
    for i, c in enumerate(order):
        new[c] = i * w
    start = cid[t.initial // w]
    delta, gamma = [sink] * (sink + w), [None] * len(order)
    finals = []
    for i, c in enumerate(order):
        r = reps[c]
        if r >= top:
            shift, target = rows[r]
            gamma[i] = (new[target], shift)
        else:
            delta[i * w:i * w + w] = [new[x] for x in rows[r]]
        if (r * w in t.finals if r >= len(s.layers[0]) else c == start and t.initial in t.finals):
            finals.append(i * w)
    return _trusted_qds(s.alphabet, tuple(layers),
                        QdsTables(t.code, w, new[start], delta, gamma, frozenset(finals)))
