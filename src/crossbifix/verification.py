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
shifts and masks while it grows the words: each new letter completes
one outer factor, and a partial word is dropped, with all it would grow
into, as soon as that factor meets a member.  The join, the probe and
expansion_blocker share one index of the words' length-k prefix and
suffix sets, built once per set and kept with it (WordSet._index); the
join and expansion_blocker skip every length where no factor can match.
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


def _check_naive(words: tuple[str, ...], n: int) -> list[ConflictWitness]:
    violations = []
    for a in words:
        for b in words:
            for k in range(1, n):
                if a[:k] == b[n - k:]:
                    violations.append(_witness(a, b, a[:k]))
    return violations


def _check_trie(word_set: WordSet) -> list[ConflictWitness]:
    # A length k where no prefix equals any suffix in the factor index
    # holds no violation and is skipped.  At any other k, group the
    # words by prefix; each word's suffix then finds every word whose
    # prefix it equals.
    words, n = word_set.words, word_set.n
    values, prefix_sets, suffix_sets = word_set._index
    violations = []
    for k in range(1, n):
        if prefix_sets[k].isdisjoint(suffix_sets[k]):
            continue
        shift, mask = n - k, (1 << k) - 1
        holders = defaultdict(list)
        for a, x in zip(words, values):
            holders[x >> shift].append(a)
        for b, x in zip(words, values):
            for a in holders.get(x & mask, ()):
                violations.append(_witness(a, b, b[n - k:]))
    return violations


def check_set(word_set: WordSet, method: str = "trie") -> VerificationReport:
    """Test pairwise cross-bifix-freeness of an equal-length word set.

    naive scans every ordered pair (a, b), self-pairs included, for a
    prefix of a matching a suffix of b.  trie is a hash join on the
    integer prefix/suffix index: for each factor length where some
    prefix equals some suffix it groups the words by prefix and looks
    every word's suffix up (the name stays from the prefix-tree walk it
    replaced).  Both produce the same violations, sorted by (word_a,
    word_b, factor length); a word that is not itself bifix-free shows
    up as a self-violation.
    """
    if method not in ("naive", "trie"):
        raise ValueError(f"method must be 'naive' or 'trie', got {method!r}")
    if not len(word_set):
        raise ValueError("cannot check an empty set")
    words, n = word_set.words, word_set.n
    if method == "naive":
        violations, checked = _check_naive(words, n), len(words) ** 2
    else:
        violations, checked = _check_trie(word_set), len(words) * (n - 1)
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
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the enumeration cap {cap}")
    joiners = _bifix_free_values(n, cap, word_set._index)
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
                    return _witness(gamma, member, gamma[:k])
                if x >> shift == tail:
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
        shift, mask = n - k, (1 << k) - 1
        prefixes = [x >> shift for x in values]
        suffixes = [x & mask for x in values]
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

    # Vertex 0 is 0...01.  Its first letter is the last of every 1...0
    # word, and every other 0^j 1... word has the prefix 0^j 1, a suffix
    # of 0...01, so it conflicts with all other vertices: a greedy sweep
    # in vertex order would keep it alone.  The closed-form construction
    # is a valid incumbent; it replaces that word when it is larger,
    # which it is from n = 5 on (it starts at n = 3).
    built = {int(w, 2) for w in cbfs(n)} if n >= 3 else set()
    built_mask = sum(1 << v for v, x in enumerate(values) if x in built)
    best_mask = built_mask if built_mask.bit_count() > 1 else 1
    best_size = best_mask.bit_count()

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

    proven = not expand((1 << len(values)) - 1, 0, 0)
    # Vertices ascend with the words' text, so the kept bits decode in order.
    words = tuple(format(x, f"0{n}b") for v, x in enumerate(values) if best_mask >> v & 1)
    return WordSet(n=n, words=words, provenance="search"), proven
