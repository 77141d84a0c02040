"""Acceptance gate: one test per shipped guarantee, each printing a PASS line.

Run with -v for the per-guarantee verdict, or -s to see the PASS lines
and timings directly.  The three timed tests pin wall-clock budgets on
the machines this package targets; they are generous on purpose.
"""

from __future__ import annotations

import itertools
import time

from crossbifix import (
    bifix_free_count,
    bifixes,
    catalan,
    cbfs,
    cbfs_cardinality,
    check_set,
    cross_bifixes,
    dyck_paths,
    enumerate_bifix_free,
    expansion_blocker,
    is_bifix_free,
    is_non_expandable,
    kernel_cardinality,
    max_set_search,
)

CBFS_SIZES = [1, 1, 2, 3, 5, 8, 14, 23, 42, 72, 132, 227, 429]
KERNEL_SIZES = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233]
SEARCH_SIZES = {3: 1, 4: 1, 5: 2, 6: 3, 7: 5, 8: 8}


def passed(label: str, started: float) -> None:
    print(f"[acceptance] PASS {label} ({time.perf_counter() - started:.2f}s)")


def test_constructed_cardinality_sequence():
    started = time.perf_counter()
    for n, expected in zip(range(3, 16), CBFS_SIZES):
        assert cbfs_cardinality(n) == expected
        assert len(cbfs(n)) == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    passed("cardinality sequence 3..15, formula and construction", started)


def test_baseline_comparison():
    started = time.perf_counter()
    for n, expected in zip(range(3, 16), KERNEL_SIZES):
        assert kernel_cardinality(n) == expected
    for n in range(9, 16):
        assert cbfs_cardinality(n) > kernel_cardinality(n)
    passed("construction beats the Fibonacci baseline for 9..15", started)


def test_count_recurrence_matches_enumeration():
    started = time.perf_counter()
    for n, expected in zip(range(2, 7), (2, 4, 6, 12, 20)):
        assert bifix_free_count(2, n) == expected
    for n in range(1, 21):
        assert bifix_free_count(2, n) == len(enumerate_bifix_free(n))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    passed("bifix-free counts match exhaustive enumeration to n=20", started)


def test_constructed_sets_are_cross_bifix_free():
    started = time.perf_counter()
    for n in range(3, 17):
        built = cbfs(n)
        naive = check_set(built, method="naive")
        trie = check_set(built, method="trie")
        assert naive.set_ok and trie.set_ok
        assert naive.violations == trie.violations == ()
        assert naive.checked_pairs == len(built) ** 2
        assert trie.checked_pairs == len(built) * (n - 1)
    passed("constructed sets clean for 3..16, both checkers", started)


def test_constructed_sets_are_non_expandable():
    started = time.perf_counter()
    for n in range(3, 15):
        built = cbfs(n)
        verdict, gamma = is_non_expandable(built, n)
        assert verdict, f"n={n} expandable by {gamma}"
        for candidate in enumerate_bifix_free(n):
            if candidate not in built:
                expansion_blocker(candidate, built)  # raises if unblocked
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    passed("non-expandability certified exhaustively for 3..14", started)


def test_worked_border_examples():
    started = time.perf_counter()
    assert is_bifix_free("111010100")
    assert bifixes("101001010") == ["10", "1010"]
    assert cross_bifixes("111001100", "110011010") == ["1100"]
    assert cross_bifixes("111001010", "110101000") == []
    passed("worked border and cross-factor examples", started)


def test_catalan_dyck_consistency():
    started = time.perf_counter()
    for m in range(0, 11):
        assert len(dyck_paths(2 * m)) == catalan(m)
    assert catalan(3) == 5
    assert catalan(0) * catalan(4) + catalan(1) * catalan(3) + catalan(2) * catalan(2) == 14 + 5 + 4 == 23
    assert cbfs_cardinality(10) == 23
    assert (catalan(0) * catalan(3) + catalan(1) * catalan(2) + catalan(2) * catalan(1)) - catalan(1) ** 2 == (
        5 + 2 + 2
    ) - 1 == 8
    assert cbfs_cardinality(8) == 8
    passed("path counts are Catalan; split-sum cardinalities agree", started)


def test_excluded_words_are_redundant():
    started = time.perf_counter()
    for m in (1, 3, 5, 7):
        built = cbfs(2 * m + 2)
        # The excluded words: 1 a 0 1 b 0 with a, b in D(m - 1).
        for a, b in itertools.product(dyck_paths(m - 1), repeat=2):
            word = "1" + a + "0" + "1" + b + "0"
            if a == b:
                assert not is_bifix_free(word)
            else:
                witness = expansion_blocker(word, built)
                assert word in (witness.word_a, witness.word_b)
    passed("every excluded word is bordered or blocked", started)


def test_max_search_is_certified():
    started = time.perf_counter()
    exceeds = []
    for n, expected in SEARCH_SIZES.items():
        found, optimal = max_set_search(n)
        assert optimal
        assert len(found) == expected
        assert check_set(found).set_ok
        verdict, _ = is_non_expandable(found, n)
        assert verdict
        if len(found) > cbfs_cardinality(n):
            exceeds.append(n)
    assert exceeds == []
    passed("exact search certified for 3..8; optimum equals the construction there", started)
