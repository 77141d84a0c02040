"""Catalan numbers, Dyck words, and exhaustive generation of bifix-free words.

Counting is exact at any size (Python integers throughout).  A Dyck
path is handled as its word, 1 for a rise and 0 for a fall.  The
generators do work proportional to their output: Dyck words come from a
plain string recursion, and bifix-free words grow one middle letter at
a time (Nielsen's insertion), with no border scan per candidate.  Both
outputs grow exponentially in n, so the enumerators are still guarded
by a cap on n.
"""

from __future__ import annotations

import math
from itertools import groupby

from .errors import CapExceededError, ImpossibleHeightError, OddLengthError
from .sets import WordSet
from .words import end_height

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "bifix_free_count",
    "catalan",
    "dyck_paths",
    "enumerate_bifix_free",
    "enumerate_rise_fall",
]

DEFAULT_ENUMERATION_CAP = 24
"""Largest n the exhaustive enumerators accept unless the caller overrides it."""


def catalan(m: int) -> int:
    """The mth Catalan number, binomial(2m, m) / (m + 1), exactly."""
    if m < 0:
        raise ValueError("catalan is defined for m >= 0")
    return math.comb(2 * m, m) // (m + 1)


def dyck_paths(length: int) -> list[str]:
    """All Dyck paths with the given number of steps, as 0/1 words.

    A Dyck path never dips below the axis and ends on it; as a word, no
    prefix holds more 0s than 1s and the counts end equal.  Ordered
    lexicographically with the rise 1 before the fall 0, so the fully
    nested path comes first and the zigzag last.  The count equals
    catalan(length / 2); odd lengths raise OddLengthError.
    """
    if length < 0:
        raise ValueError("path length must be non-negative")
    if length % 2:
        raise OddLengthError(f"Dyck paths have even length, got {length}")
    out: list[str] = []

    def extend(prefix: str, rises: int, falls: int) -> None:
        # falls >= rises always, so no falls left means the word is done.
        if not falls:
            out.append(prefix)
            return
        if rises:
            extend(prefix + "1", rises - 1, falls)
        if falls > rises:
            extend(prefix + "0", rises, falls - 1)

    extend("", length // 2, length // 2)
    return out


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


def _bifix_free_values(
    n: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
    members: list[int] | None = None,
) -> list[int]:
    """Every binary bifix-free word of length n as an int, ascending.

    Nielsen's insertion: a word of length L >= 2 is bifix-free iff
    dropping its letter at position L // 2 leaves a bifix-free word and,
    for even L, it is not a square uu.  So each level inserts both
    letters at L // 2 into every word of the level below and drops the
    squares.  Words sharing their first L // 2 letters are contiguous in
    ascending order, and emitting each such group with 0 inserted, then
    with 1, keeps the output ascending without a sort.

    members, when given as n-bit ints, keeps only the words that could
    join them: not a member, and for no k is the length-k prefix a
    member's length-k suffix or the length-k suffix a member's length-k
    prefix.  Later insertions all land at or after position (L + 1) // 2,
    so a level-L word already holds the first (L + 1) // 2 and the last
    L // 2 letters of every word grown from it; each level drops the
    words whose prefix and suffix of those lengths meet a member, with
    all they would grow into.  The full-length words then lose the
    members and are filtered on the factor lengths above n // 2.
    """
    if n < 1:
        raise ValueError("length must be at least 1")
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the enumeration cap {cap}")
    if members is not None:
        # The members' length-k prefixes and suffixes, indexed by k.
        prefixes = [{x >> (n - k) for x in members} for k in range(n)]
        suffixes = [{x & ((1 << k) - 1) for x in members} for k in range(n)]
    values = [0, 1]
    for length in range(2, n + 1):
        k = length // 2
        t = length - 1 - k  # letters after the inserted one
        low = (1 << t) - 1
        grown: list[int] = []
        for head, group in groupby(values, key=lambda x: x >> t):
            tails = [x & low for x in group]
            square = head << k | head if length % 2 == 0 else -1
            for letter in (0, 1):
                stem = (head << 1 | letter) << t
                grown += [v for v in [stem | x for x in tails] if v != square]
        if members is not None:
            # Final letters: the prefix x >> k, of (length + 1) // 2, and
            # the suffix x & mask, of length // 2 = k.
            mask = (1 << k) - 1
            sufs, pres = suffixes[(length + 1) // 2], prefixes[k]
            grown = [x for x in grown if x >> k not in sufs and x & mask not in pres]
        values = grown
    if members is not None:
        taken = set(members)
        values = [x for x in values if x not in taken]
        for k in range(n // 2 + 1, n):
            if not values:
                break
            shift, mask = n - k, (1 << k) - 1
            sufs, pres = suffixes[k], prefixes[k]
            values = [x for x in values if x >> shift not in sufs and x & mask not in pres]
    return values


def enumerate_bifix_free(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> WordSet:
    """Every binary bifix-free word of length n, in ascending text order.

    The output has about 0.27 * 2**n words, so n above cap raises
    CapExceededError.  The cardinality always equals
    bifix_free_count(2, n).
    """
    fmt = f"0{n}b"
    words = tuple(format(x, fmt) for x in _bifix_free_values(n, cap))
    return WordSet(n=n, words=words, provenance="enumeration")


def enumerate_rise_fall(
    n: int,
    height: int | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> WordSet:
    """Bifix-free words of length n that start with 1 and end with 0.

    As paths these open with a rise and close with a fall.  height,
    when given, keeps only words whose path ends at that ordinate; it
    must satisfy -n < height < n and share the parity of n, otherwise
    ImpossibleHeightError.  The complement images of these words are
    exactly the remaining bifix-free words of length n (n >= 2).
    """
    if height is not None:
        if not -n < height < n or (height - n) % 2:
            raise ImpossibleHeightError(f"no length-{n} path ends at height {height}")
    base = enumerate_bifix_free(n, cap=cap)
    picked = [
        w
        for w in base
        if w[0] == "1" and w[-1] == "0" and (height is None or end_height(w) == height)
    ]
    return WordSet(n=n, words=tuple(picked), provenance="enumeration")
