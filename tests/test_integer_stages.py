"""The compile stages on `Qds.tables` against their name-keyed oracles.

`build_qds`, `prune_unreachable`, `restrict_qds` (behind prune and trim) and
`quotient` build their output without the checks of `Qds(...)` and hand
over the tables they computed, with no names beside them. Every structure
they return must equal its names re-validated by `Qds(...)`, serialise the
same, hold its fields and tables in the stored types and carry the tables
`Qds(...)` computes from its names; and each stage must give what its
oracle in `tests/` gives, errors included.
"""

import random
from dataclasses import fields
from operator import attrgetter
from pathlib import Path

from hypothesis import given, settings

from qds import (
    PreconditionError,
    Qds,
    QdsError,
    build_qds,
    equiv_fixpoint,
    gen_lk_nfa,
    gen_sk_qds,
    prune_unreachable,
    quotient,
    trim_qds,
)
from qds.formats import parse_qds, serialize_qds
from qds.reduction import LayeredPartition
from qds.structure import QdsTables, _trusted_qds, restrict_qds
from tests import test_reduction, test_trim
from tests.conftest import window_cases
from tests.reference_build import prune_unreachable as reference_prune
from tests.reference_build import reference_build
from tests.reference_build import restrict_qds as reference_restrict
from tests.reference_reduction import quotient as reference_quotient
from tests.reference_reduction import verify_right_invariant as reference_verify
from tests.reference_trim import reference_trim

DATA = Path(__file__).resolve().parent.parent / "data"


def assert_trusted(s: Qds) -> None:
    """`s` is what `Qds(...)` makes of its names, and its tables were
    handed over equal to the ones computed from them."""
    checked = Qds(s.alphabet, s.layers, s.initial, s.finals, s.delta, s.gamma)
    assert checked == s and serialize_qds(checked) == serialize_qds(s)
    for name in [f.name for f in fields(Qds)] + [f"tables.{f}" for f in QdsTables._fields]:
        assert type(attrgetter(name)(s)) is type(attrgetter(name)(checked)), name
    assert vars(s)["tables"] == checked.tables


def outcome(fn, *args):
    """The result of fn(*args), or the type and text of the QdsError it raised."""
    try:
        return fn(*args)
    except QdsError as exc:
        return type(exc), str(exc)


def assert_same(got, want) -> None:
    assert got == want
    if isinstance(want, Qds):
        assert serialize_qds(got) == serialize_qds(want)
        assert_trusted(got)


def assert_stages_are_reference(s: Qds) -> None:
    """Prune, trim and the fixpoint's quotient of `s` and of its trim, each
    against its oracle."""
    pruned = prune_unreachable(s)
    want = reference_prune(s)
    if want is s:
        assert pruned is s
    else:
        assert_same(pruned, want)
    trimmed = trim_qds(pruned)
    assert_same(trimmed, reference_trim(pruned))
    for base in (pruned, trimmed):
        p = equiv_fixpoint(base)
        assert_same(outcome(quotient, base, p), outcome(reference_quotient, base, p))


def built_structures():
    """The built corpora of the trim and reduction tests, the buildable
    `window_cases` and L_0..L_8 at (K+2, 1)."""
    yield from test_trim.built_corpus()
    yield from test_reduction.built_corpus(60)
    for a, k, l in window_cases(600):
        try:
            yield build_qds(a, k, l)
        except PreconditionError:
            continue
    for K in range(9):
        yield build_qds(gen_lk_nfa(K), K + 2, 1)


def parsed_structures():
    """S_0..S_6, `data/*.qds` and one with an empty top layer, which prune
    drops: structures made through `Qds(...)`."""
    for K in range(7):
        yield gen_sk_qds(K)
    yield Qds(("a",), (("p",), ("q",), ()), "p", {"q"}, {("p", "a"): "q"}, {})
    for path in sorted(DATA.glob("*.qds")):
        yield parse_qds(path.read_text())


def test_build_is_trusted_and_reference():
    for a, k, l in window_cases(600):
        try:
            want = reference_prune(reference_build(a, k, l))
        except PreconditionError:
            continue
        assert_same(build_qds(a, k, l), want)
    for K in range(9):
        assert_trusted(build_qds(gen_lk_nfa(K), K + 2, 1))


def assert_ends_in_the_sink(s: Qds) -> None:
    """Delta holds n+1 rows, the last, at the sink offset n*width, leading
    only to itself; every entry is a row offset, the top layer's all the
    sink; every gamma target is a layer-1 row or the sink."""
    t, n = s.tables, len(s.states)
    w = t.width
    sink, top = n * w, n - len(s.layers[-1])
    assert len(t.delta) == (n + 1) * w and len(t.gamma) == n
    assert t.delta[sink:] == [sink] * w
    assert all(0 <= r <= sink and r % w == 0 for r in t.delta)
    assert t.delta[top * w:sink] == [sink] * (sink - top * w)
    layer_one = range(0, len(s.layers[0]) * w, w)
    assert all(g is None for g in t.gamma[:top])
    assert all(g[0] == sink or g[0] in layer_one for g in t.gamma[top:])


def assert_stages_end_in_the_sink(s: Qds) -> None:
    """`s`, its prune, the trim of that and the trim's quotient."""
    pruned = prune_unreachable(s)
    trimmed = trim_qds(pruned)
    for stage in (s, pruned, trimmed, quotient(trimmed, equiv_fixpoint(trimmed))):
        assert_ends_in_the_sink(stage)


def test_tables_end_in_the_sink():
    for s in [*parsed_structures(), *built_structures()]:
        assert_stages_end_in_the_sink(s)


@settings(max_examples=300, deadline=None)
@given(test_trim.structures())
def test_tables_end_in_the_sink_on_generated_structures(s):
    assert_stages_end_in_the_sink(s)


def test_stage_outputs_hold_no_names():
    """Build, trim and the quotient hand over alphabet, layers and tables
    alone: the names enter `vars(s)` only once read."""
    names = {"initial", "finals", "delta", "gamma"}
    cases = [*window_cases(100), *((gen_lk_nfa(K), K + 2, 1) for K in range(5))]
    count = 0
    for a, k, l in cases:
        try:
            built = build_qds(a, k, l)
        except PreconditionError:
            continue
        assert not names & vars(built).keys()
        trimmed = trim_qds(built)
        assert not names & vars(trimmed).keys()
        reduced = quotient(trimmed, equiv_fixpoint(trimmed))
        assert not names & vars(reduced).keys()
        reduced.delta, reduced.gamma, reduced.finals, reduced.initial
        assert names <= vars(reduced).keys()
        count += 1
    assert count >= 50


def test_stages_are_reference_on_built_structures():
    count = 0
    for s in built_structures():
        assert_trusted(s)
        assert_stages_are_reference(s)
        count += 1
    assert count >= 800


def test_stages_are_reference_on_parsed_structures():
    for s in parsed_structures():
        assert_stages_are_reference(s)


@settings(max_examples=300, deadline=None)
@given(test_trim.structures())
def test_stages_are_reference_on_generated_structures(s):
    assert_stages_are_reference(s)


@settings(max_examples=300, deadline=None)
@given(test_trim.structures())
def test_restriction_is_reference_on_random_marks(s):
    """Random marks that keep the initial state and only edges between kept
    states, drawn over the n*width slots before the sink row, against the
    name-keyed restriction of the same parts."""
    rng = random.Random(serialize_qds(s))
    t, names, w = s.tables, s.states, s.tables.width
    sink = len(names) * w
    keep = bytearray(rng.random() < 0.7 for _ in names)
    keep[t.initial // w] = 1
    delta_used = bytearray(r != sink and keep[x // w] and keep[r // w] and rng.random() < 0.8
                           for x, r in enumerate(t.delta[:sink]))
    gamma_used = bytearray(g is not None and keep[i] and (g[0] == sink or keep[g[0] // w])
                           and rng.random() < 0.8 for i, g in enumerate(t.gamma))
    final = bytearray(keep[i] and rng.random() < 0.5 for i in range(len(names)))
    want = reference_restrict(
        s,
        {q for q, k in zip(names, keep) if k},
        {(names[x // w], s.alphabet[x % w]): names[t.delta[x] // w]
         for x, used in enumerate(delta_used) if used},
        {q: s.gamma[q] for q, used in zip(names, gamma_used) if used},
        {q for q, f in zip(names, final) if f},
    )
    assert_same(restrict_qds(s, keep, delta_used, gamma_used, final), want)


def broken_partitions(p: LayeredPartition, rng: random.Random):
    """`p` with one state moved into another class of its layer, once per
    layer that has two classes."""
    for j, classes in enumerate(p.layers):
        if len(classes) < 2:
            continue
        a, b = rng.sample(range(len(classes)), 2)
        q = rng.choice(sorted(classes[a]))
        moved = list(classes)
        moved[a], moved[b] = classes[a] - {q}, classes[b] | {q}
        layer = tuple(cls for cls in moved if cls)
        yield LayeredPartition(p.layers[:j] + (layer,) + p.layers[j + 1:], p.steps)


def test_broken_partitions_give_the_reference_counterexample():
    rng = random.Random(3)
    tags = set()
    for s in [*built_structures(), *parsed_structures()]:
        s = trim_qds(s)
        for bad in broken_partitions(equiv_fixpoint(s), rng):
            check = reference_verify(s, bad)
            assert outcome(quotient, s, bad) == outcome(reference_quotient, s, bad)
            if not check:
                tags.add(type(check.counterexample[2]))
    assert tags == {str, int}  # both a delta and a gamma counterexample were met


def foreign_structures(s: Qds, rng: random.Random):
    """Structures with the state names of `s` and other tables: its layers
    each reordered, its delta with some edges sent elsewhere in their target
    layer, and that delta over the very layers tuple of `s`."""
    layers = [tuple(rng.sample(layer, len(layer))) for layer in s.layers]
    yield Qds(s.alphabet, layers, s.initial, s.finals, s.delta, s.gamma)
    delta = {(p, a): rng.choice(s.layers[s.layer_of[q] - 1]) if rng.random() < 0.2 else q
             for (p, a), q in s.delta.items()}
    moved = Qds(s.alphabet, s.layers, s.initial, s.finals, delta, s.gamma)
    yield moved
    yield _trusted_qds(s.alphabet, s.layers, moved.tables)


def test_fixpoint_of_another_structure_gives_the_reference():
    """The fixpoint of one structure, applied to another with the same
    names, refuses with the reference counterexample or builds the
    reference quotient, as the same classes given by hand do."""
    rng = random.Random(5)
    refused = built = 0
    for s in [*test_trim.built_corpus(), *parsed_structures()]:
        s = trim_qds(s)
        p = equiv_fixpoint(s)
        by_hand = LayeredPartition(p.layers, p.steps)
        for other in foreign_structures(s, rng):
            want = outcome(reference_quotient, other, p)
            assert_same(outcome(quotient, other, p), want)
            assert outcome(quotient, other, by_hand) == want
            if isinstance(want, Qds):
                built += 1
            else:
                refused += 1
    assert refused >= 30 and built >= 500
