"""Line-oriented text formats for automata and structures, plus DOT export.

Both formats are UTF-8, whitespace-tokenized, with `#` starting a comment.
The token `_` is reserved: it spells the empty word and the bottom target in
gamma lines, so neither states nor symbols may use it; nor may they start
with `@` or contain `#`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import InputError
from .nfa import Nfa
from .structure import GammaEntry, Qds
from .trim import PathDfa
from .words import Word, word_str


def _rows(text: str) -> Iterator[list[str]]:
    """The whitespace-split lines of `text`, comments and blank lines left out."""
    for raw in text.splitlines():
        row = raw.split("#", 1)[0].split()
        if row:
            yield row


def _tokenize(text: str) -> list[list[str]]:
    return list(_rows(text))


def _collect(text: str, type_tag: str, known: set[str]) -> tuple[dict[str, list[list[str]]], list[list[str]]]:
    """The `@` rows of a document by directive, and its plain rows; any
    directive outside `known` is refused."""
    rows = _tokenize(text)
    if not rows or rows[0][:2] != ["@type", type_tag]:
        raise InputError(f"expected '@type {type_tag}' on the first line")
    directives: dict[str, list[list[str]]] = {}
    plain: list[list[str]] = []
    for row in rows[1:]:
        if row[0].startswith("@"):
            directives.setdefault(row[0], []).append(row[1:])
        else:
            plain.append(row)
    unknown = set(directives) - known
    if unknown:
        raise InputError(f"unknown directives: {sorted(unknown)}")
    return directives, plain


def _single(directives: dict[str, list[list[str]]], key: str, required: bool = True) -> list[str]:
    rows = directives.get(key, [])
    if len(rows) > 1:
        raise InputError(f"duplicate {key} directive")
    if not rows:
        if required:
            raise InputError(f"missing {key} directive")
        return []
    return rows[0]


def _natural(tok: str, message: str) -> int:
    """A non-negative integer written in ASCII digits; `str.isdigit` alone
    also passes superscripts and other Unicode digits."""
    if tok.isascii() and tok.isdigit():
        try:
            return int(tok)
        except ValueError:  # beyond the interpreter's digit limit
            pass
    raise InputError(message)


def parse_nfa(text: str) -> Nfa:
    directives, plain = _collect(text, "nfa", {"@alphabet", "@states", "@initial", "@final"})
    alphabet = tuple(_single(directives, "@alphabet"))
    states = tuple(_single(directives, "@states"))
    initials = frozenset(_single(directives, "@initial"))
    finals = frozenset(_single(directives, "@final", required=False))
    transitions = []
    for row in plain:
        if len(row) != 3:
            raise InputError(f"transition line needs 3 tokens: {' '.join(row)}")
        transitions.append((row[0], row[1], row[2]))
    return Nfa(alphabet, states, initials, finals, tuple(transitions))


def serialize_nfa(a: Nfa) -> str:
    lines = [
        "@type nfa",
        "@alphabet " + " ".join(a.alphabet),
        "@states " + " ".join(a.states),
        "@initial " + " ".join(a.state_order(a.initials)),
        "@final " + " ".join(a.state_order(a.finals)),
    ]
    lines += [f"{p} {x} {q}" for p, x, q in a.transitions]
    return "\n".join(lines) + "\n"


def parse_qds(text: str) -> Qds:
    directives, plain = _collect(
        text, "qds", {"@alphabet", "@layers", "@layer", "@initial", "@final", "@gamma"})
    alphabet = tuple(_single(directives, "@alphabet"))
    layers_row = _single(directives, "@layers")
    if len(layers_row) != 1:
        raise InputError("@layers needs one integer")
    m = _natural(layers_row[0], "@layers needs one integer")
    layer_rows = directives.get("@layer", [])
    if len(layer_rows) < m:  # before allocating m layers
        raise InputError("every layer 1..m needs a @layer line")
    layers: list[tuple[str, ...]] = [()] * m
    seen_idx = set()
    for row in layer_rows:
        if not row:
            raise InputError("@layer needs an index then the layer's states")
        idx = _natural(row[0], "@layer needs an index then the layer's states")
        if not (1 <= idx <= m) or idx in seen_idx:
            raise InputError(f"bad or repeated layer index {idx}")
        seen_idx.add(idx)
        layers[idx - 1] = tuple(row[1:])
    if len(seen_idx) != m:
        raise InputError("every layer 1..m needs a @layer line")
    initial_row = _single(directives, "@initial")
    if len(initial_row) != 1:
        raise InputError("@initial needs exactly one state")
    finals = frozenset(_single(directives, "@final", required=False))
    delta: dict[tuple[str, str], str] = {}
    for row in plain:
        if len(row) != 3:
            raise InputError(f"delta line needs 3 tokens: {' '.join(row)}")
        key = (row[0], row[1])
        if key in delta:
            raise InputError(f"duplicate delta edge for {key}")
        delta[key] = row[2]
    gamma: dict[str, GammaEntry] = {}
    for row in directives.get("@gamma", []):
        if len(row) != 3:
            raise InputError("@gamma needs: source target-or-_ shift")
        src, target = row[0], row[1]
        shift = _natural(row[2], "@gamma needs: source target-or-_ shift")
        if src in gamma:
            raise InputError(f"duplicate gamma entry for {src}")
        gamma[src] = (None if target == "_" else target, shift)
    return Qds(alphabet, tuple(layers), initial_row[0], finals, delta, gamma)


def serialize_qds(s: Qds) -> str:
    lines = [
        "@type qds",
        "@alphabet " + " ".join(s.alphabet),
        f"@layers {s.m}",
    ]
    for j, layer in enumerate(s.layers, start=1):
        lines.append(f"@layer {j} " + " ".join(layer))
    lines.append(f"@initial {s.initial}")
    lines.append("@final " + " ".join(q for q in s.states if q in s.finals))
    for (p, x), q in s.delta.items():
        lines.append(f"{p} {x} {q}")
    for p in s.layers[-1]:
        target, shift = s.gamma[p]
        lines.append(f"@gamma {p} {'_' if target is None else target} {shift}")
    return "\n".join(lines) + "\n"


def parse_automaton(text: str) -> Nfa | Qds:
    first = next(_rows(text), None)  # the first row only; the parser tokenises the text
    if first is None or first[0] != "@type" or len(first) != 2:
        raise InputError("first line must be '@type nfa' or '@type qds'")
    kind = first[1]
    if kind == "nfa":
        return parse_nfa(text)
    if kind == "qds":
        return parse_qds(text)
    raise InputError(f"unknown @type {kind!r}")


def parse_word(text: str, alphabet: Iterable[str]) -> str | Word:
    """A word from CLI text: `_` or the empty string is the empty word;
    whitespace splits multi-character symbols, otherwise each character is
    one symbol, so over single-character symbols the text itself is the
    word. Symbols are not checked here: `qds_membership` refuses the first
    unknown one."""
    if text in ("", "_"):
        return ()
    symbols = text.split()
    if symbols != [text]:  # `check_token`'s whitespace test
        return tuple(symbols)
    if all(len(a) == 1 for a in alphabet):
        return text
    return (text,)


def _quote(name: str) -> str:
    return '"' + name.replace('"', '\\"') + '"'


def _dot_lines(
    initials: Iterable[str],
    states: Iterable[str],
    finals: Iterable[str],
    solid_edges: dict[tuple[str, str], list[str]],
    dashed_edges: dict[tuple[str, str], list[str]] | None = None,
) -> str:
    finals = set(finals)
    out = ["digraph {", "  rankdir=LR;"]
    for i, q in enumerate(initials):
        out.append(f"  __start{i} [shape=point];")
        out.append(f"  __start{i} -> {_quote(q)};")
    for q in states:
        shape = "doublecircle" if q in finals else "circle"
        out.append(f"  {_quote(q)} [shape={shape}];")
    for (p, q), labels in solid_edges.items():
        out.append(f"  {_quote(p)} -> {_quote(q)} [label={_quote(','.join(labels))}];")
    for (p, q), labels in (dashed_edges or {}).items():
        out.append(
            f"  {_quote(p)} -> {_quote(q)} "
            f"[style=dashed, label={_quote(','.join(labels))}];"
        )
    out.append("}")
    return "\n".join(out) + "\n"


def nfa_to_dot(a: Nfa) -> str:
    edges: dict[tuple[str, str], list[str]] = {}
    for p, x, q in a.transitions:
        edges.setdefault((p, q), []).append(x)
    return _dot_lines(a.state_order(a.initials), a.states, a.finals, edges)


def qds_to_dot(s: Qds) -> str:
    solid: dict[tuple[str, str], list[str]] = {}
    for (p, x), q in s.delta.items():
        solid.setdefault((p, q), []).append(x)
    dashed: dict[tuple[str, str], list[str]] = {}
    for p in s.layers[-1]:
        target, shift = s.gamma[p]
        if target is not None:
            dashed.setdefault((p, target), []).append(str(shift))
    return _dot_lines([s.initial], s.states, s.finals, solid, dashed)


def _pstate_name(p) -> str:
    return f"{p.base}|{word_str(p.u)}|{word_str(p.v)}"


def path_dfa_to_nfa(pdfa: PathDfa) -> Nfa:
    """The accessible path-DFA as a plain automaton over the extended
    alphabet; shift tokens are spelled +1..+(m-1), the shifts a structure
    admits, with more "+" in front when the structure's own alphabet already
    has such a symbol."""
    s = pdfa.source
    plus = "+"
    while any(f"{plus}{l}" in s.alphabet for l in range(1, s.m)):
        plus += "+"
    alphabet = tuple(s.alphabet) + tuple(f"{plus}{l}" for l in range(1, s.m))
    names = {p: _pstate_name(p) for p in pdfa.states}
    transitions = tuple(
        (
            names[src],
            token if isinstance(token, str) else f"{plus}{token}",
            names[dst],
        )
        for (src, token), dst in pdfa.transitions.items()
    )
    return Nfa(
        alphabet=alphabet,
        states=tuple(names[p] for p in pdfa.states),
        initials=frozenset({names[pdfa.initial]}),
        finals=frozenset(names[p] for p in pdfa.finals),
        transitions=transitions,
    )


def path_dfa_to_dot(pdfa: PathDfa) -> str:
    return nfa_to_dot(path_dfa_to_nfa(pdfa))
