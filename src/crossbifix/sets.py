"""Word collections with canonical ordering and provenance.

WordSet is a frozen record (words._Record) that normalizes its words when
built.  Its one cached view is its factor index (_index), kept in the
instance __dict__: 2.2 MB for cbfs(18), 30 MB for cbfs(22).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import cached_property
from typing import Iterable, Iterator

from .words import _Record, check_word

__all__ = ["PROVENANCES", "WordSet"]

PROVENANCES = (
    "cbfs_odd",
    "cbfs_even_m_even",
    "cbfs_even_m_odd",
    "user",
    "enumeration",
    "search",
)

# Matches text made of the letters 0 and 1 alone, in one C-level scan
# that copies nothing: encoding the joined words to delete those bytes
# would hold a second copy of the whole input.
_BINARY_TEXT = re.compile("[01]*")


def _factor_sets(values: list[int], n: int) -> tuple[list[set[int]], list[set[int]]]:
    """The length-k prefixes and suffixes of the n-bit words in values, for k = 0..n.

    prefixes[k] is {x >> (n - k)} and suffixes[k] is {x & ((1 << k) - 1)}
    over the words x.  Level n is set(values) in both lists; each shorter
    level is derived from the one above (drop the last letter, or the
    first), so the short levels iterate over few distinct values.
    """
    prefixes = [set(values)]
    suffixes = [prefixes[0]]
    for k in range(n - 1, -1, -1):
        mask = (1 << k) - 1
        prefixes.append({x >> 1 for x in prefixes[-1]})
        suffixes.append({x & mask for x in suffixes[-1]})
    return prefixes[::-1], suffixes[::-1]


class WordSet(_Record):
    """A deduplicated set of equal-length words kept in ascending text order.

    words may be any iterable but a str, read once.  Construction normalizes it
    into a tuple of exact str: entries are coerced with str(),
    duplicates are dropped and the rest is sorted.  Every entry must
    pass check_word (the first failure in input order is raised) and
    all must share the length n.  provenance names the construction
    rule (or user input) behind the set.  An empty set is allowed only
    with an explicit n.  `word in word_set` bisects the sorted words.
    """

    n: int
    words: tuple[str, ...]
    provenance: str

    def __init__(self, n: int, words: Iterable[str] = (), provenance: str = "user") -> None:
        if provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {provenance!r}")
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"word length must be an integer, got {n!r}")
        if n < 1:
            raise ValueError("word length must be at least 1")
        if isinstance(words, str):
            raise ValueError(f"words must be a collection of words, not the str {words!r}")
        # A dict keeps input order: sorting the generators' ascending
        # output takes one linear pass, and the walk below meets the
        # words in the order they were given.
        unique = dict.fromkeys(map(str, words))
        if "" in unique or not _BINARY_TEXT.fullmatch("".join(unique)):
            for word in unique:
                check_word(word)
        lengths = set(map(len, unique))
        if len(lengths) > 1:
            raise ValueError(f"one set holds words of lengths {sorted(lengths)}")
        if lengths and lengths != {n}:
            raise ValueError(f"words have length {lengths.pop()}, expected {n}")
        vars(self).update(n=n, words=tuple(sorted(unique)), provenance=provenance)

    @classmethod
    def from_words(cls, words: Iterable[str]) -> WordSet:
        """Build a "user" set from 0/1 strings, taking the length from the first."""
        # A bare str goes on whole, for __init__ to refuse.
        collected = words if isinstance(words, str) else tuple(words)
        if not collected:
            raise ValueError("cannot infer a length from an empty collection")
        return cls(n=len(collected[0]), words=collected)

    @cached_property
    def _index(self) -> tuple[list[int], list[set[int]], list[set[int]]]:
        """The words as ascending n-bit ints, then their _factor_sets levels."""
        values = [int(w, 2) for w in self.words]
        return (values, *_factor_sets(values, self.n))

    def __iter__(self) -> Iterator[str]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: object) -> bool:
        i = bisect_left(self.words, word) if isinstance(word, str) else len(self.words)
        return i < len(self.words) and self.words[i] == word

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "provenance": self.provenance,
            "cardinality": len(self.words),
            "words": list(self.words),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> WordSet:
        for key in ("n", "words", "provenance"):
            if key not in payload:
                raise ValueError(f"payload has no {key!r}")
        for key in ("n", "cardinality"):
            value = payload.get(key, 0)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"payload {key!r} must be an integer, got {value!r}")
        out = cls(n=payload["n"], words=payload["words"], provenance=payload["provenance"])
        declared = payload.get("cardinality", len(out.words))
        if declared != len(out.words):
            raise ValueError(f"payload declares {declared} words but carries {len(out.words)}")
        return out
