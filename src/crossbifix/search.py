"""The exact maximum-set search: branch and bound on bitsets at small lengths.

max_set_search probes how large a pairwise-compatible set of bifix-free
words can get at all.  It keeps the 1...0 words and runs three steps:
their conflict graph (_conflict_graph, on the integer prefix/suffix
kernel the checkers use), the constructed set as the incumbent
(_incumbent), and the branch (_branch), its root cut by the symmetry
rc(w) = complement(reverse(w)) (_mirror).  Past the deadline the graph
build and the branch raise TimeoutError, caught in one place.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from functools import partial

from .combinatorics import _bifix_free_values
from .construction import cbfs
from .errors import CapExceededError
from .sets import WordSet
from .words import complement

__all__ = ["DEFAULT_SEARCH_CAP", "max_set_search"]

# The conflict graph of the 1...0 half holds V**2 bits, V ~ 0.13 * 2**n.
# At n = 16 (V = 8,811) it builds in about 0.2 s in a 37 MB process, at
# n = 17 in about 0.6 s and 100 MB (CPython 3.11, x86-64); n = 22 needs
# about 39 GB of adjacency.  No n >= 11 is proven in minutes anyway, so a
# larger cap would only admit bigger time-limited runs.
DEFAULT_SEARCH_CAP = 16


def _conflict_graph(values: list[int], n: int, deadline: float | None) -> list[int]:
    """Bitmask adjacency of the 1...0 words in values that share a factor.

    Two 1...0 words never share a length-1 factor, so one mask join runs
    per factor length k from 2: every prefix value and every suffix value
    maps to the OR of its holders' bits, and each word picks up the
    holders of a suffix equal to its prefix and of a prefix equal to its
    suffix.  The maps are dropped after their pass.  The deadline is
    checked before every pass.
    """
    adj = [0] * len(values)
    for k in range(2, n):
        if deadline is not None and time.perf_counter() > deadline:
            raise TimeoutError
        shift, mask = n - k, (1 << k) - 1
        by_prefix: dict[int, int] = {}
        by_suffix: dict[int, int] = {}
        for v, x in enumerate(values):
            bit = 1 << v
            p, s = x >> shift, x & mask
            by_prefix[p] = by_prefix.get(p, 0) | bit
            by_suffix[s] = by_suffix.get(s, 0) | bit
        for v, x in enumerate(values):
            adj[v] |= by_suffix.get(x >> shift, 0) | by_prefix.get(x & mask, 0)
    return adj


def _mirror(values: list[int], n: int, v: int) -> int:
    """The vertex of rc(w) = complement(reverse(w)) for the word w of vertex v.

    rc maps the 1...0 words onto themselves, and a's length-k prefix is
    b's length-k suffix exactly when rc(b)'s length-k prefix is rc(a)'s
    length-k suffix, so rc is an automorphism of the conflict graph.
    """
    return bisect_left(values, int(complement(format(values[v], f"0{n}b")[::-1]), 2))


def _clique_cover(cand: int, adj: list[int]) -> list[int]:
    """Greedy clique cover of the candidate subgraph, as vertex bitmasks.

    BBMC style, one class at a time: a class takes the lowest uncovered
    vertex, then the lowest one adjacent to all it holds so far (adj has
    no self-loops, so q &= adj[v] also drops v).  These are the classes
    first fit in ascending vertex order builds.  An independent set takes
    at most one vertex per class, so a class's 1-based number bounds what
    it and the classes below it can add.
    """
    classes = []
    while cand:
        clique = 0
        q = cand
        while q:
            vbit = q & -q
            clique |= vbit
            q &= adj[vbit.bit_length() - 1]
        classes.append(clique)
        cand ^= clique
    return classes


def _incumbent(n: int, values: list[int]) -> list[int]:
    """[size, vertex mask] of the constructed set (n >= 3); at n = 2, of vertex 0 alone."""
    built = {int(w, 2) for w in cbfs(n)} if n >= 3 else set()
    mask = sum(1 << v for v, x in enumerate(values) if x in built) or 1
    return [mask.bit_count(), mask]


def _branch(
    adj: list[int],
    cand: int,
    mask: int,
    best: list[int],
    deadline: float | None,
    mirror: partial[int] | None = None,
) -> None:
    """Branch on the candidates in cand to extend the set mask; best is [size, mask] to beat.

    Covers cand with _clique_cover's classes and branches from the last
    class down, highest vertex first, while the set's size plus class
    number can beat best[0]; each larger set found replaces best's
    fields.  The root passes mirror (_mirror) and, once its branch on v
    is done, drops mirror(v) from its candidates: a set holding it but
    not v mirrors one that branch covered.  Raises TimeoutError when
    entered past the deadline.
    """
    if deadline is not None and time.perf_counter() > deadline:
        raise TimeoutError
    size = mask.bit_count()
    classes = _clique_cover(cand, adj)
    for number in range(len(classes), 0, -1):
        clique = classes[number - 1]
        while clique:
            if size + number <= best[0]:
                return
            v = clique.bit_length() - 1
            vbit = 1 << v
            clique ^= vbit
            if not cand & vbit:  # the root dropped it as a mirror
                continue
            cand ^= vbit
            picked = mask | vbit
            if size >= best[0]:
                best[:] = size + 1, picked
            if narrowed := cand & ~adj[v]:
                _branch(adj, narrowed, picked, best, deadline)
            if mirror:
                cand &= ~(1 << mirror(v))


def max_set_search(
    n: int,
    time_limit: float | None = None,
    cap: int = DEFAULT_SEARCH_CAP,
) -> tuple[WordSet, bool]:
    """Search for a maximum cross-bifix-free subset of all bifix-free words.

    Maximum independent set over the conflict graph of the 1...0 words,
    vertices in ascending text order, by branch and bound (_branch) from
    the constructed set.  Runs to a proven optimum when time_limit is
    None (n = 10 in about 0.3 s and 32,177 nodes on CPython 3.11, x86-64;
    n = 11 is not proven in minutes); otherwise the clock starts at
    entry, and the best set found by the deadline comes back flagged
    non-optimal (the constructed set, if the deadline falls while the
    graph is still being built).  n above cap raises CapExceededError
    before anything is built.
    Returns (word_set, proven_optimal).
    """
    start = time.perf_counter()
    if n < 2:
        raise ValueError("the search needs n >= 2")
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the search cap {cap}")
    if time_limit is not None and not time_limit >= 0:
        raise ValueError(f"time limit must be a non-negative number of seconds, got {time_limit}")
    deadline = None if time_limit is None else start + float(time_limit)
    # Every 1...0 word meets every 0...1 word at length 1, and complement
    # swaps the halves keeping conflicts, so some maximum set is all 1...0.
    values = [x for x in _bifix_free_values(n) if x >> (n - 1)]
    best = _incumbent(n, values)
    try:
        adj = _conflict_graph(values, n, deadline)
        _branch(adj, (1 << len(values)) - 1, 0, best, deadline, partial(_mirror, values, n))
        proven = True
    except TimeoutError:
        proven = False
    words = (format(x, f"0{n}b") for v, x in enumerate(values) if best[1] >> v & 1)
    return WordSet._generated(n, words, "search"), proven
