"""Certification of cross-bifix-freeness and non-expandability.

check_set carries two interchangeable checkers: a naive quadratic scan
kept as the trusted oracle, and a hash join on an integer prefix/suffix
index for larger sets (still called "trie", the name of the prefix-tree
walk it replaced).  Both report identical violations.
is_non_expandable and expansion_blocker together certify that a set
cannot grow inside the bifix-free words of its length, and
max_set_search probes how large a pairwise-compatible set can get at
all (exact branch and bound on bitsets at small lengths).

The joins and the search's conflict graph share one kernel: an
n-letter word is the int x it spells in binary, its length-k prefix is
x >> (n - k) and its length-k suffix is x & ((1 << k) - 1), so "a
strict prefix of a is a strict suffix of b" becomes equal ints at some
k, looked up by (k, value) one pass per k.  The non-expandability probe
hands the members to the bifix-free generator, which applies the same
shifts and masks while it grows the words: a partial word is dropped as
soon as its final outer letters meet a member.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

from .combinatorics import DEFAULT_ENUMERATION_CAP, _bifix_free_values
from .construction import cbfs
from .errors import CapExceededError, LengthMismatchError, NoBlockerError
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

# The conflict graph holds V**2 bits for V ~ 0.27 * 2**n words, and its
# build peaks at two to three times that.  At n = 16 it takes about 0.5 s
# and a 100 MB process (CPython 3.11, x86-64); n = 22 would need about
# 157 GB for the adjacency alone.  So the search refuses larger n unless
# the caller raises the cap.
DEFAULT_SEARCH_CAP = 16


@dataclass(frozen=True)
class ConflictWitness:
    """A shared factor: a strict prefix of word_a that is a strict suffix of word_b.

    word_a == word_b marks a self-violation (the word carries a border
    of its own).
    """

    word_a: str
    word_b: str
    factor: Factor

    def __post_init__(self) -> None:
        object.__setattr__(self, "word_a", check_word(self.word_a))
        object.__setattr__(self, "word_b", check_word(self.word_b))
        bits = self.factor.bits
        if len(bits) >= len(self.word_a) or len(bits) >= len(self.word_b):
            raise ValueError("a witness factor must be strictly shorter than both words")
        if not self.word_a.startswith(bits) or not self.word_b.endswith(bits):
            raise ValueError("factor must be a prefix of word_a and a suffix of word_b")

    def to_json_dict(self) -> dict:
        return {
            "a": self.word_a,
            "b": self.word_b,
            "factor": self.factor.bits,
        }


@dataclass(frozen=True)
class VerificationReport:
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


def _witness(word_a: str, word_b: str, bits: str) -> ConflictWitness:
    role = "bifix" if word_a == word_b else "cross_bifix"
    return ConflictWitness(word_a, word_b, Factor(bits, role))


def _check_naive(words: tuple[str, ...], n: int) -> tuple[list[ConflictWitness], int]:
    violations = []
    for a in words:
        for b in words:
            for k in range(1, n):
                if a[:k] == b[n - k:]:
                    violations.append(_witness(a, b, a[:k]))
    return violations, len(words) ** 2


def _factors(values: list[int], n: int, k: int) -> tuple[list[int], list[int]]:
    """The length-k prefixes and suffixes of the n-bit words in values, as ints."""
    low = (1 << k) - 1
    shift = n - k
    return [x >> shift for x in values], [x & low for x in values]


def _check_trie(words: tuple[str, ...], n: int) -> tuple[list[ConflictWitness], int]:
    # Per factor length k, group the words by prefix; each word's suffix
    # then finds every word whose prefix it equals.  A length where no
    # prefix equals any suffix holds no violation and is skipped.
    values = [int(w, 2) for w in words]
    violations = []
    for k in range(1, n):
        prefixes, suffixes = _factors(values, n, k)
        if set(prefixes).isdisjoint(suffixes):
            continue
        holders = defaultdict(list)
        for a, p in zip(words, prefixes):
            holders[p].append(a)
        for b, s in zip(words, suffixes):
            for a in holders.get(s, ()):
                violations.append(_witness(a, b, b[n - k:]))
    return violations, len(words) * (n - 1)


def check_set(word_set: WordSet, method: str = "trie") -> VerificationReport:
    """Test pairwise cross-bifix-freeness of an equal-length word set.

    naive scans every ordered pair (a, b), self-pairs included, for a
    prefix of a matching a suffix of b.  trie is a hash join on the
    integer prefix/suffix index: for each factor length it groups the
    words by prefix and looks every word's suffix up (the name stays
    from the prefix-tree walk it replaced).  Both produce the same
    violations, sorted by (word_a, word_b, factor length); a word that
    is not itself bifix-free shows up as a self-violation.
    """
    if method not in ("naive", "trie"):
        raise ValueError(f"method must be 'naive' or 'trie', got {method!r}")
    if not len(word_set):
        raise ValueError("cannot check an empty set")
    if method == "naive":
        violations, checked = _check_naive(word_set.words, word_set.n)
    else:
        violations, checked = _check_trie(word_set.words, word_set.n)
    violations.sort(key=lambda v: (v.word_a, v.word_b, len(v.factor)))
    return VerificationReport(method=method, checked_pairs=checked, violations=tuple(violations))


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
        raise LengthMismatchError(f"set holds length {word_set.n}, universe asks {universe_n}")
    n = universe_n
    joiners = _bifix_free_values(n, cap, [int(w, 2) for w in word_set])
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
        raise LengthMismatchError(f"candidate has length {n}, set holds {word_set.n}")
    if gamma in word_set:
        raise ValueError(f"{gamma} is already a member")
    for member in reversed(word_set.words):
        for k in range(1, n):
            if gamma[:k] == member[n - k:]:
                return _witness(gamma, member, gamma[:k])
            if member[:k] == gamma[n - k:]:
                return _witness(member, gamma, member[:k])
    raise NoBlockerError(f"{gamma} shares no factor with any member")


def _conflict_graph(values: list[int], n: int, deadline: float | None) -> list[int] | None:
    """Bitmask adjacency of the words in values that share a factor, None past the deadline.

    One mask join per factor length k: every prefix value and every
    suffix value maps to the OR of its holders' bits, and each word
    picks up the holders of a suffix equal to its prefix and of a prefix
    equal to its suffix.  The maps are dropped after their pass.  The
    deadline is checked between passes.
    """
    adj = [0] * len(values)
    for k in range(1, n):
        if k > 1 and deadline is not None and time.perf_counter() > deadline:
            return None
        prefixes, suffixes = _factors(values, n, k)
        by_prefix: dict[int, int] = {}
        by_suffix: dict[int, int] = {}
        for v, (p, s) in enumerate(zip(prefixes, suffixes)):
            bit = 1 << v
            by_prefix[p] = by_prefix.get(p, 0) | bit
            by_suffix[s] = by_suffix.get(s, 0) | bit
        for v, (p, s) in enumerate(zip(prefixes, suffixes)):
            adj[v] |= by_suffix.get(p, 0) | by_prefix.get(s, 0)
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

    Maximum independent set over the pairwise conflict graph, vertices
    in ascending text order, by branch and bound: each node covers its
    candidates with _clique_cover's classes and branches from the last
    class down, highest vertex first, while size plus class number can
    beat the incumbent.  Runs to a proven optimum when time_limit is
    None (n = 10 in about a second; n = 11 is not proven in minutes);
    otherwise the clock starts at entry, and the best set found by the
    deadline comes back flagged non-optimal (the constructed set, if the
    deadline falls while the graph is still being built).  n above cap
    raises CapExceededError before anything is built.
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
    values = _bifix_free_values(n, cap)
    adj = _conflict_graph(values, n, deadline)
    if adj is None:
        # Only reachable for n >= 3: at n = 2 the build is a single pass.
        return WordSet(n=n, words=cbfs(n).words, provenance="search"), False
    v_count = len(values)

    # Vertex 0 is 0...01.  Its first letter is the last of every 1...0
    # word, and every other 0^j 1... word has the prefix 0^j 1, a suffix
    # of 0...01, so it conflicts with all other vertices: a greedy sweep
    # in vertex order would keep it alone.
    best_mask = 1
    if n >= 3:
        # The closed-form construction is a valid incumbent; it replaces
        # the single word when it is larger, which it is from n = 5 on.
        index = {x: i for i, x in enumerate(values)}
        built_mask = 0
        for w in cbfs(n):
            built_mask |= 1 << index[int(w, 2)]
        if built_mask.bit_count() > best_mask.bit_count():
            best_mask = built_mask
    best_size = best_mask.bit_count()

    timed_out = False

    def expand(cand: int, size: int, mask: int) -> None:
        nonlocal best_size, best_mask, timed_out
        if deadline is not None and time.perf_counter() > deadline:
            timed_out = True
            return
        classes = _clique_cover(cand, adj)
        remaining = cand
        for number in range(len(classes), 0, -1):
            clique = classes[number - 1]
            while clique:
                if size + number <= best_size:
                    return
                v = clique.bit_length() - 1
                vbit = 1 << v
                clique ^= vbit
                remaining ^= vbit
                picked_size = size + 1
                picked_mask = mask | vbit
                if picked_size > best_size:
                    best_size, best_mask = picked_size, picked_mask
                narrowed = remaining & ~adj[v]
                if narrowed:
                    expand(narrowed, picked_size, picked_mask)
                    if timed_out:
                        return

    expand((1 << v_count) - 1, 0, 0)

    fmt = f"0{n}b"
    chosen = []
    m = best_mask
    while m:
        vbit = m & -m
        m ^= vbit
        chosen.append(format(values[vbit.bit_length() - 1], fmt))
    return WordSet(n=n, words=tuple(chosen), provenance="search"), not timed_out
