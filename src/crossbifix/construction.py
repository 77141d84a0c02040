"""Cross-bifix-free set constructions from Dyck-path concatenation.

One rule covers every length n >= 3, split by parity.  Writing D(k)
for the Dyck paths with k steps, spelled as the words of dyck_paths(k),
and m for the parameter tied to n:

* odd n = 2m + 1: a rise followed by any path in D(2m);
* even n = 2m + 2: a path in D(2i), a rise, a path in D(2(m - i)), a
  fall, over all 0 <= i <= (m + 1) // 2.  The last split is m / 2 for
  even m.  For odd m it is (m + 1) / 2, and there the words
  1 a 0 1 b 0 with a and b in D(m - 1), two elevated paths back to
  back, catalan((m - 1) / 2) ** 2 of them, are skipped.  They are
  redundant: with a = b the word carries a border of its own, and
  otherwise it collides with another member.

The provenance labels cbfs_odd, cbfs_even_m_even and cbfs_even_m_odd
name the three cases.  Cardinalities come out as a Catalan number for
odd n and as half a Catalan convolution, less the cut for odd m, for
even n; cbfs_cardinality evaluates them in closed form, from two or
three Catalan numbers, without building anything.
"""

from __future__ import annotations

from .combinatorics import _dyck_tables, catalan
from .sets import WordSet

__all__ = ["cbfs", "cbfs_cardinality"]


def cbfs(n: int) -> WordSet:
    """The cross-bifix-free set of word length n >= 3, by the one rule.

    Odd n = 2m + 1: a rise prepended to each path in D(2m).  Even
    n = 2m + 2: alpha 1 beta 0 with alpha in D(2i) and beta in
    D(2(m - i)) for 0 <= i <= (m + 1) // 2, where for odd m the elevated
    alpha = 1 a 0 with a in D(m - 1) are skipped: at the last split
    i = (m + 1) / 2 they would give the words 1 a 0 1 b 0, a and b in
    D(m - 1).  Each parity takes its D(2j) from one _dyck_tables build,
    unsorted, since WordSet sorts the words.
    Shorter lengths raise ValueError.
    """
    if n < 3:
        raise ValueError(f"no construction below length 3, got {n}")
    if n % 2:
        words = ["1" + p for p in _dyck_tables((n - 1) // 2)[-1]]
        return WordSet(n=n, words=words, provenance="cbfs_odd")
    m = (n - 2) // 2
    dyck = _dyck_tables(m)
    elevated = {"1" + x + "0" for x in dyck[(m - 1) // 2]} if m % 2 else set()
    words = [
        a + "1" + b + "0"
        for i in range((m + 1) // 2 + 1)
        for a in dyck[i]
        if a not in elevated
        for b in dyck[m - i]
    ]
    provenance = "cbfs_even_m_odd" if m % 2 else "cbfs_even_m_even"
    return WordSet(n=n, words=words, provenance=provenance)


def cbfs_cardinality(n: int) -> int:
    """|cbfs(n)| in closed form, building nothing.

    For even n = 2m + 2, cbfs sums catalan(i) * catalan(m - i) over
    i <= (m + 1) // 2: up to the middle of the convolution that sums to
    catalan(m + 1).  Its terms pair up as i and m - i, so with
    C = catalan and h = m // 2 the sum is (C(m + 1) + C(h) ** 2) / 2 for
    even m; for odd m it is C(m + 1) / 2 plus the term C(h + 1) * C(h)
    past the middle, less the skipped C(h) ** 2.
    """
    if n < 3:
        raise ValueError(f"no construction below length 3, got {n}")
    if n % 2:
        return catalan((n - 1) // 2)
    m = (n - 2) // 2
    h = m // 2
    c = catalan(h)
    if m % 2:
        return catalan(m + 1) // 2 + (catalan(h + 1) - c) * c
    return (catalan(m + 1) + c * c) // 2
