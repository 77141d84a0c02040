"""Cross-bifix-free set constructions from Dyck-path concatenation.

Three shapes cover every length n >= 3.  Writing D(k) for the Dyck
paths with k steps, spelled as the words of dyck_paths(k), and m for
the parameter tied to n:

* odd n = 2m + 1: a rise followed by any path in D(2m);
* even n = 2m + 2, m even: a path in D(2i), a rise, a path in
  D(2(m - i)), a fall, over all 0 <= i <= m / 2;
* even n = 2m + 2, m odd: the same concatenations over
  0 <= i <= (m + 1) / 2, minus every word built from two elevated
  D(m - 1) paths back to back.  The removed words are redundant: with
  equal halves they carry a border of their own, and with unequal
  halves they collide with another member.

Cardinalities come out as a Catalan number for odd n and as Catalan
convolution sums for even n; cbfs_cardinality evaluates them without
building anything.
"""

from __future__ import annotations

from itertools import product

from .combinatorics import catalan, dyck_paths
from .errors import UnsupportedLengthError
from .sets import WordSet

__all__ = [
    "cbfs",
    "cbfs_cardinality",
    "cbfs_even_m_even",
    "cbfs_even_m_odd",
    "cbfs_odd",
    "exclusion_set",
]


def _concatenations(m: int, i_max: int) -> list[str]:
    """alpha 1 beta 0 with alpha in D(2i), beta in D(2(m - i)), for 0 <= i <= i_max."""
    return [
        a + "1" + b + "0"
        for i in range(i_max + 1)
        for a, b in product(dyck_paths(2 * i), dyck_paths(2 * (m - i)))
    ]


def cbfs_odd(m: int) -> WordSet:
    """The odd-length set for n = 2m + 1: a rise prepended to each D(2m) path.

    Cardinality catalan(m).  Every word starts with 1, ends with 0, and
    its path ends at height 1 without touching the axis in between.
    """
    if m < 1:
        raise ValueError("the odd construction needs m >= 1")
    words = ["1" + p for p in dyck_paths(2 * m)]
    return WordSet(n=2 * m + 1, words=tuple(words), provenance="cbfs_odd")


def cbfs_even_m_even(m: int) -> WordSet:
    """The even-length set for n = 2m + 2 when m is even (m >= 2).

    Words are alpha 1 beta 0 with alpha in D(2i), beta in D(2(m - i)),
    i up to m / 2.  Cardinality is the half-range Catalan convolution
    sum(catalan(i) * catalan(m - i) for i in 0..m/2).
    """
    if m < 2 or m % 2:
        raise ValueError("this construction needs an even m >= 2")
    words = _concatenations(m, m // 2)
    return WordSet(n=2 * m + 2, words=tuple(words), provenance="cbfs_even_m_even")


def cbfs_even_m_odd(m: int) -> WordSet:
    """The even-length set for n = 2m + 2 when m is odd.

    Same concatenations as the even-m case but with i up to
    (m + 1) / 2, where the last i keeps only the alpha that touch the
    axis before their end: an elevated alpha = 1 a 0 would give exactly
    the words of exclusion_set(m).  Cardinality is the convolution sum
    over that wider range minus catalan((m - 1) / 2) ** 2.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError("this construction needs an odd m >= 1")
    halves = dyck_paths(m - 1)
    elevated = {"1" + a + "0" for a in halves}
    words = _concatenations(m, (m - 1) // 2) + [
        a + "1" + b + "0" for a in dyck_paths(m + 1) if a not in elevated for b in halves
    ]
    return WordSet(n=2 * m + 2, words=tuple(words), provenance="cbfs_even_m_odd")


def exclusion_set(m: int) -> WordSet:
    """The words removed from the odd-m even-length construction.

    For odd m these are 1 a 0 1 b 0 with a, b ranging over D(m - 1):
    two elevated Dyck factors back to back, catalan((m - 1) / 2) ** 2
    words in all.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError("the exclusion set exists for odd m >= 1")
    halves = dyck_paths(m - 1)
    words = ["1" + a + "0" + "1" + b + "0" for a, b in product(halves, repeat=2)]
    return WordSet(n=2 * m + 2, words=tuple(words), provenance="exclusion")


def cbfs(n: int) -> WordSet:
    """The cross-bifix-free set of word length n, dispatching on parity.

    Defined for n >= 3; shorter lengths raise UnsupportedLengthError.
    """
    if n < 3:
        raise UnsupportedLengthError(f"no construction below length 3, got {n}")
    if n % 2:
        return cbfs_odd((n - 1) // 2)
    m = (n - 2) // 2
    if m % 2 == 0:
        return cbfs_even_m_even(m)
    return cbfs_even_m_odd(m)


def _catalans(m: int) -> list[int]:
    """catalan(0..m) by the recurrence C(i + 1) = C(i) * 2(2i + 1) / (i + 2)."""
    values = [1]
    for i in range(m):
        values.append(values[-1] * 2 * (2 * i + 1) // (i + 2))
    return values


def cbfs_cardinality(n: int) -> int:
    """|cbfs(n)| in closed form, without enumerating anything."""
    if n < 3:
        raise UnsupportedLengthError(f"no construction below length 3, got {n}")
    if n % 2:
        return catalan((n - 1) // 2)
    m = (n - 2) // 2
    c = _catalans(m)
    if m % 2 == 0:
        return sum(c[i] * c[m - i] for i in range(m // 2 + 1))
    total = sum(c[i] * c[m - i] for i in range((m + 1) // 2 + 1))
    return total - c[(m - 1) // 2] ** 2
