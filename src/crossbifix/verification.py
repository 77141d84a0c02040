"""Certification of cross-bifix-freeness and non-expandability.

check_set carries two interchangeable checkers: a naive quadratic scan
kept as the trusted oracle, and a hash join on an integer prefix/suffix
index for larger sets (still called "trie", the name of the prefix-tree
walk it replaced).  _violations runs either one as a single stream of
(word_a, word_b, k) triples in ascending order: check_set builds one
witness from each, and the verify verb writes its output straight from them.
_suffix_holders serves the trie and the verify count.
is_non_expandable and expansion_blocker together certify that a set
cannot grow inside the bifix-free words of its length, and
max_set_search probes how large a pairwise-compatible set can get at
all (exact branch and bound on bitsets at small lengths, 1...0 words only).

The joins and the search's conflict graph share one kernel: an
n-letter word is the int x it spells in binary, its length-k prefix is
x >> (n - k) and its length-k suffix is x & ((1 << k) - 1), so "a
strict prefix of a is a strict suffix of b" becomes equal ints at some
k, looked up by (k, value) one pass per k.  The non-expandability probe
hands the members to the bifix-free generator, which applies the same
shifts and masks while it grows the words: each new letter completes
one outer factor, and a partial word is dropped, with all it would grow
into, as soon as that factor meets a member.  The join, the probe and
expansion_blocker share one index of the words' length-k prefix and
suffix sets, built once per set and kept with it (WordSet._index); the
join and expansion_blocker skip every length where no factor can match.

ConflictWitness and VerificationReport are NamedTuples: they validate
nothing, so they unpack and compare equal to plain tuples of their fields.
"""

from __future__ import annotations

import time
from collections import defaultdict
from itertools import compress
from operator import eq
from typing import Iterator, NamedTuple

from .combinatorics import DEFAULT_ENUMERATION_CAP, _bifix_free_values
from .construction import cbfs
from .errors import CapExceededError, NoBlockerError
from .sets import WordSet
from .words import Factor, check_word

__all__ = [
    "DEFAULT_SEARCH_CAP",
    "ConflictWitness",
    "VerificationReport",
    "check_set",
    "expansion_blocker",
    "is_non_expandable",
    "max_set_search",
]

# The conflict graph of the 1...0 half holds V**2 bits, V ~ 0.13 * 2**n.
# At n = 16 (V = 8,811) it builds in about 0.2 s in a 37 MB process, at
# n = 17 in about 0.6 s and 100 MB (CPython 3.11, x86-64); n = 22 needs
# about 39 GB of adjacency.  No n >= 11 is proven in minutes anyway, so a
# larger cap would only admit bigger time-limited runs.
DEFAULT_SEARCH_CAP = 16


class ConflictWitness(NamedTuple):
    """A shared factor: a strict prefix of word_a that is a strict suffix of word_b.

    word_a == word_b marks a self-violation (the word carries a border
    of its own).  Only check_set and expansion_blocker build witnesses,
    from words already checked, so the fields are taken as given.
    """

    word_a: str
    word_b: str
    factor: Factor

    def to_json_dict(self) -> dict:
        return {"a": self.word_a, "b": self.word_b, "factor": self.factor.bits}


class VerificationReport(NamedTuple):
    """Outcome of one check_set run.

    checked_pairs counts ordered word pairs for the naive method and,
    for the trie method, the word and factor-length pairs it covers,
    len(words) * (n - 1); a length whose prefix and suffix sets are
    disjoint is covered without a lookup.
    """

    method: str
    checked_pairs: int
    violations: tuple[ConflictWitness, ...]

    @property
    def set_ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "ok": self.set_ok,
            "method": self.method,
            "checked_pairs": self.checked_pairs,
            "violations": [v.to_json_dict() for v in self.violations],
        }


def _checked_pairs(word_set: WordSet, method: str) -> int:
    """VerificationReport.checked_pairs for a run of method on word_set."""
    if method == "naive":
        return len(word_set) ** 2
    return len(word_set) * (word_set.n - 1)


def _suffix_holders(word_set: WordSet) -> list[tuple[int, int, dict[int, list[str]]]]:
    """(k, shift, holders) for each length k where some prefix equals some suffix.

    holders maps each length-k suffix value to the words that end in
    it, ascending; a word's length-k prefix is its value >> shift.  The
    lengths whose prefix and suffix sets are disjoint hold no violation.
    """
    words, n = word_set.words, word_set.n
    values, prefix_sets, suffix_sets = word_set._index
    joins = []
    for k in range(1, n):
        if prefix_sets[k].isdisjoint(suffix_sets[k]):
            continue
        mask = (1 << k) - 1
        holders = defaultdict(list)
        for b, x in zip(words, values):
            holders[x & mask].append(b)
        joins.append((k, n - k, holders))
    return joins


def _violation_count(word_set: WordSet) -> int:
    """len(check_set(word_set).violations), counted off the joins without building a witness."""
    values = word_set._index[0]
    joins = _suffix_holders(word_set)
    return sum(len(holders.get(x >> shift, ())) for _, shift, holders in joins for x in values)


def _violations(word_set: WordSet, method: str) -> Iterator[tuple[str, str, int]]:
    """Every (word_a, word_b, k) with a's length-k prefix equal to b's length-k suffix, ascending.

    naive compares every ordered pair at every k, slicing each word's
    prefixes and suffixes once; the words are sorted, so the triples
    come out in order.  trie looks each word's prefixes up in
    _suffix_holders and sorts only that word's hits.
    """
    words, n = word_set.words, word_set.n
    if method == "naive":
        lengths = range(1, n)
        suffixes = [[b[n - k:] for k in lengths] for b in words]
        for a in words:
            prefixes = [a[:k] for k in lengths]
            for b, ends in zip(words, suffixes):
                for k in compress(lengths, map(eq, prefixes, ends)):
                    yield a, b, k
        return
    joins = _suffix_holders(word_set)
    if not joins:
        return
    for a, x in zip(words, word_set._index[0]):
        hits = [(b, k) for k, shift, holders in joins for b in holders.get(x >> shift, ())]
        hits.sort()
        for b, k in hits:
            yield a, b, k


def check_set(word_set: WordSet, method: str = "trie") -> VerificationReport:
    """Test pairwise cross-bifix-freeness of an equal-length word set.

    naive scans every ordered pair (a, b), self-pairs included, for a
    prefix of a matching a suffix of b.  trie is a hash join on the
    integer prefix/suffix index: for each factor length where some
    prefix equals some suffix it groups the words by suffix and looks
    every word's prefix up (the name stays from the prefix-tree walk it
    replaced).  Both yield the same (word_a, word_b, factor length)
    triples in ascending order, and each becomes one witness.  A word
    that is not itself bifix-free shows up as a self-violation.
    """
    if method not in ("naive", "trie"):
        raise ValueError(f"method must be 'naive' or 'trie', got {method!r}")
    if not len(word_set):
        raise ValueError("cannot check an empty set")
    violations = tuple(
        ConflictWitness(a, b, Factor(a[:k])) for a, b, k in _violations(word_set, method)
    )
    return VerificationReport(method, _checked_pairs(word_set, method), violations)


def is_non_expandable(
    word_set: WordSet,
    universe_n: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[bool, str | None]:
    """Whether no other bifix-free word of this length fits into the set.

    Exhausts every bifix-free candidate outside the set; each must share
    a factor with some member.  Nielsen's insertion drops a partial word
    as soon as its final outer letters meet a member, with every word it
    would grow into, and returns the words that could still join, in
    ascending order.  On failure returns the first of them, the first
    compatible word in ascending text order, otherwise (True, None).
    """
    if universe_n != word_set.n:
        raise ValueError(f"set holds length {word_set.n}, universe asks {universe_n}")
    n = universe_n
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the enumeration cap {cap}")
    joiners = _bifix_free_values(n, word_set._index)
    if joiners:
        return False, format(joiners[0], f"0{n}b")
    return True, None


def expansion_blocker(gamma: str, word_set: WordSet) -> ConflictWitness:
    """A witness pairing gamma with a member it shares a factor with.

    Members are scanned rise-step-first (1 sorts before 0) and factors
    shortest first, so reports are reproducible.  NoBlockerError means
    gamma is compatible with every member, i.e. the set was expandable.
    """
    gamma = check_word(gamma)
    n = len(gamma)
    if n != word_set.n:
        raise ValueError(f"candidate has length {n}, set holds {word_set.n}")
    values, prefixes, suffixes = word_set._index
    g = int(gamma, 2)
    if g in prefixes[n]:
        raise ValueError(f"{gamma} is already a member")
    # Only lengths where gamma's prefix is a member's suffix, or its suffix a member's prefix.
    lengths = [
        (k, (1 << k) - 1, n - k, g >> (n - k), g & ((1 << k) - 1))
        for k in range(1, n)
        if g >> (n - k) in suffixes[k] or g & ((1 << k) - 1) in prefixes[k]
    ]
    if lengths:
        for member, x in zip(reversed(word_set.words), reversed(values)):
            for k, mask, shift, head, tail in lengths:
                if x & mask == head:
                    return ConflictWitness(gamma, member, Factor(gamma[:k]))
                if x >> shift == tail:
                    return ConflictWitness(member, gamma, Factor(member[:k]))
    raise NoBlockerError(f"{gamma} shares no factor with any member")


def _conflict_graph(values: list[int], n: int, deadline: float | None) -> list[int] | None:
    """Bitmask adjacency of the 1...0 words in values that share a factor, None past the deadline.

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
            return None
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


def max_set_search(
    n: int,
    time_limit: float | None = None,
    cap: int = DEFAULT_SEARCH_CAP,
) -> tuple[WordSet, bool]:
    """Search for a maximum cross-bifix-free subset of all bifix-free words.

    Maximum independent set over the conflict graph of the 1...0 words,
    vertices in ascending text order, by branch and bound: each node
    covers its candidates with _clique_cover's classes and branches from
    the last class down, highest vertex first, while size plus class
    number can beat the incumbent, the constructed set.  Runs to a proven
    optimum when time_limit is None (n = 10 in about a second; n = 11 is
    not proven in minutes); otherwise the clock starts at entry, and the
    best set found by the deadline comes back flagged non-optimal (the
    constructed set, if the deadline falls while the graph is still
    being built).  n above cap raises CapExceededError before anything
    is built.
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
    # The construction (n >= 3) is the incumbent; at n = 2, vertex 0 alone.
    built = {int(w, 2) for w in cbfs(n)} if n >= 3 else set()
    best_mask = sum(1 << v for v, x in enumerate(values) if x in built) or 1
    best_size = best_mask.bit_count()
    adj = _conflict_graph(values, n, deadline)

    def expand(cand: int, size: int, mask: int) -> bool:
        """Branch on the candidates in cand; True when the deadline stopped it."""
        nonlocal best_size, best_mask
        if deadline is not None and time.perf_counter() > deadline:
            return True
        classes = _clique_cover(cand, adj)
        remaining = cand
        for number in range(len(classes), 0, -1):
            clique = classes[number - 1]
            while clique:
                if size + number <= best_size:
                    return False
                v = clique.bit_length() - 1
                vbit = 1 << v
                clique ^= vbit
                remaining ^= vbit
                picked_size = size + 1
                picked_mask = mask | vbit
                if picked_size > best_size:
                    best_size, best_mask = picked_size, picked_mask
                narrowed = remaining & ~adj[v]
                if narrowed and expand(narrowed, picked_size, picked_mask):
                    return True
        return False

    proven = adj is not None and not expand((1 << len(values)) - 1, 0, 0)
    # Vertices ascend with the words' text, so the kept bits decode in order.
    words = tuple(format(x, f"0{n}b") for v, x in enumerate(values) if best_mask >> v & 1)
    return WordSet(n=n, words=words, provenance="search"), proven
