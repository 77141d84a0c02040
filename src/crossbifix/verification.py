"""Certification of cross-bifix-freeness and non-expandability.

check_set carries two interchangeable checkers: a naive quadratic scan
kept as the trusted oracle, and a hash join on an integer prefix/suffix
index for larger sets (still called "trie", the name of the prefix-tree
walk it replaced).  _violations runs either one as a single stream of
(word_a, word_b, k) triples in ascending order: check_set builds one
witness from each, and the verify verb writes its output straight from them.
_suffix_holders serves the trie alone; the verify verb's _violation_count
tallies suffix values per length and builds no word lists.
is_non_expandable and expansion_blocker together certify that a set
cannot grow inside the bifix-free words of its length; the exact
search for the largest compatible set lives in crossbifix.search.

The joins share one kernel with the search's conflict graph: an
n-letter word is the int x it spells in binary, its length-k prefix is
x >> (n - k) and its length-k suffix is x & ((1 << k) - 1), so "a
strict prefix of a is a strict suffix of b" becomes equal ints at some
k, looked up by (k, value) one pass per k.  The non-expandability probe,
_joiners, grows the bifix-free words by Nielsen's insertion and drops a
partial word, by the same shifts and masks, as soon as an outer factor
it completes meets a member.  The join, the probe and expansion_blocker
share one index of the words' length-k prefix and suffix sets, built
once per set and kept with it (WordSet._index); the join and
expansion_blocker skip every length where no factor can match.

Factor, ConflictWitness and VerificationReport are NamedTuples that
validate nothing and write no JSON (the CLI does): they equal plain
tuples of their fields.  Only check_set and expansion_blocker build
them, from words already checked.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import compress
from operator import eq
from typing import Iterator, NamedTuple

from .combinatorics import DEFAULT_ENUMERATION_CAP
from .errors import CapExceededError, NoBlockerError
from .sets import WordSet
from .words import check_word

__all__ = [
    "ConflictWitness",
    "Factor",
    "VerificationReport",
    "check_set",
    "expansion_blocker",
    "is_non_expandable",
]


class Factor(NamedTuple):
    """The factor of a ConflictWitness: a prefix of one word and a suffix of another.

    A bifix (border) is the case where both are the same word, so the
    kind of a factor follows from the words it joins and is not stored.
    len() is the length of bits.
    """

    bits: str

    def __len__(self) -> int:
        return len(self.bits)


class ConflictWitness(NamedTuple):
    """A shared factor: a strict prefix of word_a that is a strict suffix of word_b.

    word_a == word_b marks a self-violation (the word carries a border
    of its own).
    """

    word_a: str
    word_b: str
    factor: Factor


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


def _violation_count(word_set: WordSet) -> tuple[int, int]:
    """The number of check_set's violations and of letters in their factors.

    From a Counter of suffix values per length: the violations at length
    k hold k letters each.
    """
    n = word_set.n
    values, prefix_sets, suffix_sets = word_set._index
    count = letters = 0
    for k in range(1, n):
        if not prefix_sets[k].isdisjoint(suffix_sets[k]):
            mask, shift = (1 << k) - 1, n - k
            ends = Counter(x & mask for x in values)
            hits = sum(ends.get(x >> shift, 0) for x in values)
            count += hits
            letters += k * hits
    return count, letters


def _violations(word_set: WordSet, method: str) -> Iterator[tuple[str, str, int]]:
    """Every (word_a, word_b, k) with a's length-k prefix equal to b's length-k suffix, ascending.

    naive compares every ordered pair at every k, slicing each word's
    prefixes and suffixes once; the words are sorted, so the triples
    come out in order.  trie looks each word's prefixes up in
    _suffix_holders(word_set) and sorts only that word's hits.
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


def _joiners(word_set: WordSet) -> list[int]:
    """The bifix-free words that could join word_set, as ascending ints.

    combinatorics._bifix_free_values's insertion, keeping only the words
    that could join the members: not a member, and for no k is the
    length-k prefix a member's length-k suffix or the length-k suffix a
    member's length-k prefix.  Later insertions all land at or after
    position (L + 1) // 2, so a level-L word already holds the first
    (L + 1) // 2 and the last L // 2 letters of every word grown from it.
    Each level below n tests only the factor its new letter completes,
    the prefix of length k + 1 at odd L = 2k + 1 or the suffix of length
    k at even L = 2k (with the squares), and drops a failing word with
    all it would grow into; the other outer factor of that length was
    tested one level down.  Level n tests no factor.  A final filter
    then tests every length above (n - 1) // 2, longest first (on the
    constructed sets that halves the element tests), and the members in
    its first pass, and sorts what is left; the levels do not.
    """
    n = word_set.n
    _, prefixes, suffixes = word_set._index
    values = [0]
    for length in range(1, n + 1):
        k = length // 2
        t = length - 1 - k  # letters after the inserted one
        # A word x is head tail with t letters in tail, and
        # (x << 1) - tail is head 0 tail.
        low, one, mask = (1 << t) - 1, 1 << t, (1 << k) - 1
        values = [(x << 1) - (x & low) for x in values]
        values += [y | one for y in values]
        if length % 2:
            if length < n:  # the new letter ends the prefix of length k + 1
                sufs = suffixes[k + 1]
                values = [y for y in values if y >> k not in sufs]
        elif length < n:  # the new letter starts the suffix of length k
            pres = prefixes[k]
            values = [y for y in values if y & mask not in pres and y >> k != y & mask]
        else:
            values = [y for y in values if y >> k != y & mask]
    # n = 1 has no factor length: its one pass, at length n, tests membership.
    taken = prefixes[n]
    for k in range(n - 1, (n - 1) // 2, -1) or [n]:
        shift, mask, sufs, pres = n - k, (1 << k) - 1, suffixes[k], prefixes[k]
        values = [
            x for x in values if x not in taken and x >> shift not in sufs and x & mask not in pres
        ]
        taken = ()
    return sorted(values)


def is_non_expandable(
    word_set: WordSet,
    universe_n: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[bool, str | None]:
    """Whether no other bifix-free word of this length fits into the set.

    Exhausts every bifix-free candidate outside the set; each must share
    a factor with some member.  On failure returns the first of _joiners,
    the first compatible word in ascending text order, else (True, None).
    """
    if universe_n != word_set.n:
        raise ValueError(f"set holds length {word_set.n}, universe asks {universe_n}")
    n = universe_n
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the enumeration cap {cap}")
    if joiners := _joiners(word_set):
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
