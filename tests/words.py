"""Bounded-length word enumeration, the tests' sampled language check."""

import itertools
from typing import Iterable, Iterator

from qds.words import Word


def words_up_to(alphabet: Iterable[str], max_length: int) -> Iterator[Word]:
    """All words of length 0..max_length, shortest first, lexicographic within
    a length."""
    alpha = tuple(alphabet)
    for n in range(max_length + 1):
        yield from itertools.product(alpha, repeat=n)
