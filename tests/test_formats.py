import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qds import InputError, Qds, QdsError, build_qds, dfa_to_qds, prune_unreachable, trim_qds
from qds.formats import (
    nfa_to_dot,
    parse_automaton,
    parse_nfa,
    parse_qds,
    parse_word,
    path_dfa_to_dot,
    path_dfa_to_nfa,
    qds_to_dot,
    serialize_nfa,
    serialize_qds,
)
from qds.trim import build_path_dfa
from qds.words import check_token, word_str
from tests.conftest import mk_nfa


def test_nfa_round_trip(window4_nfa, suffix_marker_nfa, three_state_dfa):
    for a in (window4_nfa, suffix_marker_nfa, three_state_dfa):
        text = serialize_nfa(a)
        back = parse_nfa(text)
        assert back.alphabet == a.alphabet
        assert back.states == a.states
        assert back.initials == a.initials
        assert back.finals == a.finals
        assert back.transitions == a.transitions


def test_qds_round_trip(two_lane_qds, trim_demo_qds, suffix_marker_nfa, three_state_dfa):
    built = build_qds(suffix_marker_nfa, 3, 3)
    structures = [
        two_lane_qds,
        trim_demo_qds,
        trim_qds(trim_demo_qds),
        built,
        prune_unreachable(built),
        dfa_to_qds(three_state_dfa),
    ]
    for s in structures:
        assert parse_qds(serialize_qds(s)) == s


def test_parse_nfa_basics():
    text = """
# a comment
@type nfa
@alphabet a b
@states 0 1
@initial 0
@final 1
0 a 1   # trailing comment
1 b 1
"""
    a = parse_nfa(text)
    assert a.states == ("0", "1")
    assert a.transitions == (("0", "a", "1"), ("1", "b", "1"))


def test_parse_detects_type():
    assert parse_automaton("@type nfa\n@alphabet a\n@states 0\n@initial 0\n").states == ("0",)
    qds_text = (
        "@type qds\n@alphabet a\n@layers 2\n@layer 1 p\n@layer 2 q\n"
        "@initial p\n@final q\np a q\n@gamma q _ 1\n"
    )
    s = parse_automaton(qds_text)
    assert s.gamma == {"q": (None, 1)}
    with pytest.raises(InputError):
        parse_automaton("@type widget\n")
    with pytest.raises(InputError):
        parse_automaton("0 a 1\n")


def test_parse_errors():
    with pytest.raises(InputError):
        parse_nfa("@type nfa\n@alphabet a\n@states 0\n@initial 0\n@wat x\n")
    with pytest.raises(InputError):
        parse_nfa("@type nfa\n@alphabet a\n@states 0\n@initial 0\n0 a\n")
    with pytest.raises(InputError):
        parse_nfa("@type nfa\n@alphabet a\n@states 0 _\n@initial 0\n")
    base = "@type qds\n@alphabet a\n@layers 2\n@layer 1 p\n@layer 2 q\n@initial p\n"
    with pytest.raises(InputError):
        parse_qds(base + "@gamma q _ 1\n@gamma q _ 1\n")
    with pytest.raises(InputError):
        parse_qds(base + "@gamma q p 9\n")
    with pytest.raises(InputError):
        parse_qds(base)  # gamma missing entirely
    with pytest.raises(InputError):
        parse_qds(
            "@type qds\n@alphabet a\n@layers 2\n@layer 1 p\n@layer 3 q\n"
            "@initial p\n@gamma q _ 1\n"
        )


def test_parse_qds_numbers_are_ascii_digits():
    base = "@type qds\n@alphabet a\n@initial p\np a q\n"
    good = {"layers": "2", "layer": "1", "gamma": "1"}
    for key in good:
        for bad in ("\u00b2", "\u0663", "+1", "9" * 5000):  # superscript two, Arabic-Indic three
            tok = dict(good, **{key: bad})
            text = (base + f"@layers {tok['layers']}\n@layer {tok['layer']} p\n"
                    f"@layer 2 q\n@gamma q p {tok['gamma']}\n")
            with pytest.raises(InputError):
                parse_qds(text)
    assert parse_qds(base + "@layers 2\n@layer 1 p\n@layer 2 q\n@gamma q p 1\n").m == 2


def test_parse_qds_refuses_repeated_alphabet_symbol():
    text = "@type qds\n@alphabet a a\n@layers 2\n@layer 1 p\n@layer 2 r\n@initial p\n@gamma r p 1\n"
    with pytest.raises(InputError, match="duplicate alphabet symbols"):
        parse_qds(text)
    parse_qds(text.replace("a a", "a"))


def test_parse_qds_checks_layer_count_before_allocating():
    # without the check this asks for a list of 10**12 layers
    with pytest.raises(InputError, match="@layer line"):
        parse_qds("@type qds\n@alphabet a\n@layers 1000000000000\n@layer 1 p\n@initial p\n")


def test_parse_word_modes():
    """Only the text's shape is read; the symbols are checked by the
    encoder of `qds_membership` (see the CLI's unknown-symbol test)."""
    assert parse_word("abba", ("a", "b")) == "abba"
    assert parse_word("ax", ("a", "b")) == "ax"
    assert parse_word("", ("a",)) == ()
    assert parse_word("_", ("a",)) == ()
    assert parse_word("aa bb", ("aa", "bb")) == ("aa", "bb")
    assert parse_word(" a\tb\u00a0a\n", ("a", "b")) == ("a", "b", "a")
    assert parse_word("aa", ("aa", "bb")) == ("aa",)


def spelled(w) -> str:
    """The printing rule `word_str` restates: ``_`` for the empty word,
    the bare join when every symbol is one character, else the dot-join."""
    w = tuple(w)
    if not w:
        return "_"
    if all(len(sym) == 1 for sym in w):
        return "".join(w)
    return ".".join(w)


def valid_symbol(tok: str) -> bool:
    try:
        check_token(tok, "symbol token")
    except InputError:
        return False
    return True


SYMBOLS = {
    "single": st.sampled_from("abc01.|"),
    "multi": st.text("abc.|", min_size=2, max_size=3),
    "mixed": st.text("ab.|_@#", min_size=1, max_size=3).filter(valid_symbol),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SYMBOLS)).flatmap(lambda kind: st.lists(SYMBOLS[kind], max_size=6)))
def test_word_str_is_the_printing_rule(w):
    assert word_str(w) == word_str(tuple(w)) == word_str(iter(w)) == spelled(w)


def test_word_str_prints_one_and_two_symbols_alike():
    """A two-character symbol and two one-character symbols print the same,
    which is why `build_qds` refuses pairs whose names collide."""
    assert word_str(("ab",)) == word_str(("a", "b")) == "ab"
    assert word_str(("ab", "c")) == "ab.c" and word_str(()) == "_"


def test_nfa_dot(suffix_marker_nfa):
    dot = nfa_to_dot(suffix_marker_nfa)
    assert "doublecircle" in dot
    assert '"1" -> "1" [label="a,b"]' in dot


def test_qds_dot(two_lane_qds):
    dot = qds_to_dot(two_lane_qds)
    assert "style=dashed" in dot
    assert 'label="2"' in dot  # the shift label rides the dashed edge


def test_path_dfa_export(trim_demo_qds):
    pdfa = build_path_dfa(trim_demo_qds)
    a = path_dfa_to_nfa(pdfa)
    assert a.alphabet == ("a", "b", "c", "+1", "+2")  # shifts 1..m-1 follow
    assert parse_nfa(serialize_nfa(a)) == a
    clash = Qds(("+1", "b"), (("p",), ("q",)), "p", frozenset(), {("p", "+1"): "q"},
                {"q": ("p", 1)})
    assert path_dfa_to_nfa(build_path_dfa(clash)).alphabet == ("+1", "b", "++1")
    assert a.is_deterministic
    assert len(a.states) == len(pdfa.states)
    dot = path_dfa_to_dot(pdfa)
    assert dot.startswith("digraph")


def test_serialized_sets_follow_declared_order():
    a = mk_nfa("ab", ["z", "y", "x"], ["z"], ["x", "y"], [("z", "a", "y")])
    text = serialize_nfa(a)
    assert "@states z y x" in text
    assert "@final y x" in text  # declared order, not sorted


TOKENS = st.sampled_from(
    ("a", "p", "_", "0", "2", "9", "\u00b2", "+1", "@a", "@layer", "@gamma", "a#")
) | st.text(max_size=3)


@st.composite
def automaton_texts(draw):
    """A well-formed `@type nfa` or `@type qds` document of directive and
    edge lines, then damaged by up to three token swaps, dropped, doubled or
    stray lines."""
    names = draw(st.permutations(("p", "q", "r", "s", "t")))
    alphabet = draw(st.lists(st.sampled_from(("a", "b")), min_size=1, max_size=2, unique=True))
    pick = lambda xs: draw(st.sampled_from(xs))
    if draw(st.booleans()):
        states = names[: draw(st.integers(1, 4))]
        layers = [states]
        lines = ["@type nfa", "@states " + " ".join(states), "@initial " + states[0]]
        lines += [f"{pick(states)} {pick(alphabet)} {pick(states)}"
                  for _ in range(draw(st.integers(0, 4)))]
    else:
        layers = [names[0:1], names[1:3], names[3:5]][: draw(st.integers(2, 3))]
        lines = ["@type qds", f"@layers {len(layers)}", "@initial " + names[0]]
        lines += [f"@layer {j} " + " ".join(layer) for j, layer in enumerate(layers, 1)]
        lines += [f"{p} {x} {pick(nxt)}" for layer, nxt in zip(layers, layers[1:])
                  for p in layer for x in alphabet if draw(st.booleans())]
        lines += [f"@gamma {p} {pick(names[0:1] + ['_'])} {draw(st.integers(1, len(layers)))}"
                  for p in layers[-1]]
    lines += ["@alphabet " + " ".join(alphabet),
              "@final " + " ".join(draw(st.lists(st.sampled_from(sum(layers, [])), max_size=2)))]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(1, len(lines) - 1))
        row = lines[i].split()
        edit = draw(st.sampled_from(("token", "drop", "double", "stray")))
        if edit == "token" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(TOKENS)
            lines[i] = " ".join(row)
        elif edit == "drop" and len(lines) > 2:
            del lines[i]
        elif edit == "double":
            lines.insert(i, lines[i])
        else:
            lines.insert(i, " ".join(draw(st.lists(TOKENS, max_size=4))))
    return "\n".join(lines) + "\n"


@settings(max_examples=500, deadline=None)
@given(st.text() | automaton_texts())
def test_parse_automaton_raises_only_qds_error_and_round_trips(text):
    try:
        obj = parse_automaton(text)
    except QdsError:
        return
    back = serialize_qds(obj) if isinstance(obj, Qds) else serialize_nfa(obj)
    assert parse_automaton(back) == obj
