"""Independent computations the benchmark checks the program's outputs against.

Nothing here imports crossbifix.  Words are plain 0/1 strings, turned
into ints where a test runs often; counts come from brute force or from
closed forms written with math.comb.  A failed check raises CheckFailed
with a one-line reason.
"""

from __future__ import annotations

import math
from itertools import product


class CheckFailed(Exception):
    """An output of the program disagrees with an independent computation."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def has_border(x: int, n: int) -> bool:
    """Whether the n-bit word x has a strict prefix equal to a strict suffix."""
    return any(x >> (n - k) == x & ((1 << k) - 1) for k in range(1, n))


def bifix_free_words(n: int) -> list[str]:
    """Every bifix-free binary word of length n, ascending, by trying all 2**n."""
    return [format(x, f"0{n}b") for x in range(1 << n) if not has_border(x, n)]


def bifix_free_count_q(q: int, n: int) -> int:
    """Bifix-free words of length n over q letters, by trying all q**n."""
    return sum(
        1 for w in product(range(q), repeat=n) if all(w[:k] != w[n - k:] for k in range(1, n))
    )


def conflict(a: str, b: str) -> bool:
    """Whether a strict prefix of one word is a strict suffix of the other."""
    n = len(a)
    return any(a[:k] == b[n - k:] or b[:k] == a[n - k:] for k in range(1, n))


def affixes(words, n: int) -> tuple[set, set]:
    """The strict prefixes and strict suffixes of words, each as (length, value) pairs."""
    prefixes = set()
    suffixes = set()
    for w in words:
        x = int(w, 2)
        for k in range(1, n):
            prefixes.add((k, x >> (n - k)))
            suffixes.add((k, x & ((1 << k) - 1)))
    return prefixes, suffixes


def cross_bifix_free(words, n: int) -> bool:
    """Whether no strict prefix of any word is a strict suffix of any word, itself included."""
    prefixes, suffixes = affixes(words, n)
    return prefixes.isdisjoint(suffixes)


def fits(word: str, prefixes: set, suffixes: set) -> bool:
    """Whether word conflicts with no word whose affixes these are."""
    own_prefixes, own_suffixes = affixes([word], len(word))
    return own_prefixes.isdisjoint(suffixes) and own_suffixes.isdisjoint(prefixes)


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def cbfs_size(n: int) -> int:
    """The paper's cardinality of the constructed set at length n >= 3."""
    if n % 2:
        return catalan((n - 1) // 2)
    m = (n - 2) // 2
    top = m // 2 if m % 2 == 0 else (m + 1) // 2
    total = sum(catalan(i) * catalan(m - i) for i in range(top + 1))
    return total if m % 2 == 0 else total - catalan((m - 1) // 2) ** 2


def cbfs_provenance(n: int) -> str:
    if n % 2:
        return "cbfs_odd"
    return "cbfs_even_m_even" if (n - 2) // 2 % 2 == 0 else "cbfs_even_m_odd"


def fibonacci_baseline(n: int) -> int:
    """The kernel baseline's size at length n >= 3: Fibonacci F(n - 2), F(1) = F(2) = 1."""
    a, b = 0, 1
    for _ in range(n - 2):
        a, b = b, a + b
    return a


def violations(words: list[str]) -> list[tuple[str, str, str]]:
    """Every (a, b, factor) with factor a strict prefix of a and a strict suffix of b.

    Ordered by (a, b, len(factor)), self-pairs included.
    """
    ordered = sorted(words)
    n = len(ordered[0])
    return [
        (a, b, a[:k]) for a in ordered for b in ordered for k in range(1, n) if a[:k] == b[n - k:]
    ]


def blocker(gamma: str, members) -> tuple[str, str, str] | None:
    """The witness expansion_blocker promises: members descending, factors shortest first."""
    n = len(gamma)
    for m in sorted(members, reverse=True):
        for k in range(1, n):
            if gamma[:k] == m[n - k:]:
                return gamma, m, gamma[:k]
            if m[:k] == gamma[n - k:]:
                return m, gamma, m[:k]
    return None


def first_expander(members, n: int) -> str | None:
    """The smallest bifix-free word outside members that conflicts with none of them."""
    inside = set(members)
    prefixes, suffixes = affixes(inside, n)
    for gamma in bifix_free_words(n):
        if gamma not in inside and fits(gamma, prefixes, suffixes):
            return gamma
    return None


def check_witness(a: str, b: str, factor: str, candidate: str, members) -> None:
    """A witness shares a factor between the candidate and one member of the set."""
    n = len(candidate)
    require(0 < len(factor) < n, f"witness factor {factor!r} is not a strict factor")
    require(a.startswith(factor) and b.endswith(factor), f"{factor} is not a prefix of {a} and a suffix of {b}")
    require(candidate in (a, b), f"witness {a} {b} leaves out the candidate {candidate}")
    other = b if a == candidate else a
    require(other in members, f"witness partner {other} is not a member")


def check_code_set(words, n: int, size: int) -> None:
    """Distinct length-n words, size of them, pairwise cross-bifix-free."""
    words = list(words)
    require(all(len(w) == n for w in words), f"a word is not of length {n}")
    require(len(set(words)) == len(words), "the set repeats a word")
    require(len(words) == size, f"{len(words)} words, expected {size}")
    require(cross_bifix_free(words, n), f"the length-{n} set is not cross-bifix-free")


def check_word_lines(text: str, n: int, size: int, header: str | None = None) -> None:
    """A rendered set: optional header line, then sorted words, one a line."""
    lines = text.splitlines()
    if header is not None:
        require(lines[:1] == [header], f"missing header {header!r}")
        lines = lines[1:]
    require(text.endswith("\n"), "output does not end with a newline")
    require(lines == sorted(lines), "words are not in ascending order")
    check_code_set(lines, n, size)


def greedy_code_set(n: int, rng) -> list[str]:
    """A random maximal cross-bifix-free set, grown from shuffled bifix-free words."""
    pool = bifix_free_words(n)
    rng.shuffle(pool)
    chosen: list[str] = []
    prefixes: set = set()
    suffixes: set = set()
    for w in pool:
        if fits(w, prefixes, suffixes):
            chosen.append(w)
            more_prefixes, more_suffixes = affixes([w], n)
            prefixes |= more_prefixes
            suffixes |= more_suffixes
    return sorted(chosen)
