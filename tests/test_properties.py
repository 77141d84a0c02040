"""Property tests of the integer prefix/suffix kernel against plain string oracles."""

from __future__ import annotations

from functools import cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from crossbifix import WordSet, cbfs, check_set, is_bifix_free, is_non_expandable  # noqa: E402
from crossbifix.combinatorics import _bifix_free_values  # noqa: E402
from crossbifix.sets import _factor_sets  # noqa: E402
from test_verification import blocker_or_none, text_scan_blocker  # noqa: E402


def naive_conflict(a: str, b: str) -> bool:
    n = len(a)
    return any(a[:k] == b[n - k :] or b[:k] == a[n - k :] for k in range(1, n))


@st.composite
def word_sets(draw, max_n: int, max_size: int) -> WordSet:
    n = draw(st.integers(1, max_n))
    values = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=max_size))
    return WordSet(n, [format(x, f"0{n}b") for x in values])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(word_sets(max_n=30, max_size=12))
def test_check_set_methods_agree(word_set):
    naive = check_set(word_set, method="naive")
    trie = check_set(word_set, method="trie")
    assert naive.violations == trie.violations
    assert trie.checked_pairs == len(word_set) * (word_set.n - 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(word_sets(max_n=10, max_size=6))
def test_first_expander_matches_brute_force(word_set):
    n = word_set.n
    compatible = (
        w
        for i in range(1 << n)
        if is_bifix_free(w := format(i, f"0{n}b"))
        and w not in word_set
        and not any(naive_conflict(w, m) for m in word_set)
    )
    first = next(compatible, None)
    assert is_non_expandable(word_set, n) == (first is None, first)


@cache
def bifix_free_texts(n: int) -> tuple[str, ...]:
    return tuple(w for i in range(1 << n) if is_bifix_free(w := format(i, f"0{n}b")))


@st.composite
def member_lists(draw) -> tuple[int, list[int]]:
    """n and a list of n-bit ints: arbitrary words, or part of cbfs(n), with repeats."""
    n = draw(st.integers(1, 14))
    pool = st.integers(0, (1 << n) - 1)
    if n >= 3 and draw(st.booleans()):
        pool = st.sampled_from([int(w, 2) for w in cbfs(n)])
    members = draw(st.lists(pool, max_size=24))
    if members:
        members += draw(st.lists(st.sampled_from(members), max_size=4))
    return n, draw(st.permutations(members))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(member_lists())
def test_generator_keeps_exactly_the_joinable_words(case):
    # Each level tests only the outer factor its new letter completes;
    # the other one must already have been tested a level lower.
    n, members = case
    texts = {format(x, f"0{n}b") for x in members}
    expected = [
        int(w, 2)
        for w in bifix_free_texts(n)
        if w not in texts and not any(naive_conflict(w, m) for m in texts)
    ]
    assert _bifix_free_values(n, index=(members, *_factor_sets(members, n))) == expected


@st.composite
def outsiders(draw) -> tuple[WordSet, str]:
    """A set and a word outside it: random, or a member moved by some letters.

    A moved member shares a long factor with it, so long lengths block too.
    """
    word_set = draw(word_sets(max_n=30, max_size=12))
    n = word_set.n
    full = (1 << n) - 1
    x = draw(st.integers(0, full))
    if draw(st.booleans()):
        member = int(draw(st.sampled_from(word_set.words)), 2)
        shift = draw(st.integers(1, n))
        if draw(st.booleans()):
            x = (member << shift | x >> (n - shift)) & full  # prefix = the member's suffix
        else:
            x = (x << (n - shift) | member >> shift) & full  # suffix = the member's prefix
    gamma = format(x, f"0{n}b")
    assume(gamma not in word_set)
    return word_set, gamma


@settings(max_examples=300, deadline=None, derandomize=True)
@given(outsiders())
def test_blocker_matches_text_scan(case):
    word_set, gamma = case
    assert blocker_or_none(gamma, word_set) == text_scan_blocker(gamma, word_set)
