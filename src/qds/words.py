"""Words are tuples of symbol tokens; a plain ``str`` is accepted anywhere a
word is expected and is read as one single-character symbol per character."""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .errors import InputError

Word = tuple[str, ...]


def check_token(tok: str, kind: str) -> None:
    """State ids and symbols are what the text formats can carry: non-empty,
    whitespace-free, not "_" (bottom / the empty word), not starting with "@"
    (a directive) and without "#" (a comment)."""
    # tok.split() == [tok] iff tok is non-empty and has no whitespace
    if (tok.split() != [tok] or tok == "_"
            or tok.startswith("@") or "#" in tok):
        raise InputError(f"bad {kind} {tok!r}")


def words_of_length(alphabet: Iterable[str], length: int) -> Iterator[Word]:
    """All words of exactly `length` symbols, lexicographic in alphabet order."""
    return itertools.product(tuple(alphabet), repeat=length)


def word_str(w: Iterable[str]) -> str:
    """Printable form: symbols joined bare when single-char, dot-joined
    otherwise; the empty word prints as ``_``. Symbols are never empty
    (`check_token`), so the bare join is exactly as long as the word iff
    every symbol is one character."""
    w = tuple(w)
    bare = "".join(w)
    if len(bare) == len(w):
        return bare or "_"
    return ".".join(w)
