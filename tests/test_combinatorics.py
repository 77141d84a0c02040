"""Catalan numbers, Dyck words, the counting recurrence, and the enumerators."""

from __future__ import annotations

import itertools
import random

import pytest

from crossbifix import (
    CapExceededError,
    OddLengthError,
    bifix_free_count,
    catalan,
    complement,
    dyck_paths,
    enumerate_bifix_free,
    is_bifix_free,
)
from crossbifix.combinatorics import _bifix_free_values
from crossbifix.sets import _factor_sets


def general_border_free(word: str) -> bool:
    n = len(word)
    return not any(word[:k] == word[n - k :] for k in range(1, n))


class TestCatalan:
    def test_first_values(self):
        assert [catalan(m) for m in range(11)] == [
            1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796,
        ]

    def test_convolution_recurrence(self):
        # independent characterization: C(m+1) = sum C(i) C(m-i)
        for m in range(10):
            assert catalan(m + 1) == sum(catalan(i) * catalan(m - i) for i in range(m + 1))

    def test_negative(self):
        with pytest.raises(ValueError):
            catalan(-1)


def brute_force_dyck_words(length: int) -> list[str]:
    """The 0/1 strings of a length whose running height never drops below 0 and ends at 0."""
    out = []
    for letters in itertools.product("10", repeat=length):
        heights = list(itertools.accumulate(1 if c == "1" else -1 for c in letters))
        if all(h >= 0 for h in heights) and (not heights or heights[-1] == 0):
            out.append("".join(letters))
    return out


def recursive_dyck_words(length: int) -> list[str]:
    """Dyck words in rise-first order by appending one letter at a time.

    The generator dyck_paths replaced; kept as the order oracle for the
    first-return tables and their sort.
    """
    out: list[str] = []

    def extend(prefix: str, rises: int, falls: int) -> None:
        # falls >= rises always, so no falls left means the word is done.
        if not falls:
            out.append(prefix)
            return
        if rises:
            extend(prefix + "1", rises - 1, falls)
        if falls > rises:
            extend(prefix + "0", rises, falls - 1)

    extend("", length // 2, length // 2)
    return out


class TestDyckPaths:
    def test_degenerate_lengths(self):
        assert dyck_paths(0) == [""]
        assert dyck_paths(2) == ["10"]

    def test_length_six_order(self):
        # rise-first lexicographic: fully nested down to zigzag
        assert dyck_paths(6) == [
            "111000", "110100", "110010", "101100", "101010",
        ]

    def test_counts_match_catalan(self):
        for m in range(11):
            assert len(dyck_paths(2 * m)) == catalan(m)

    def test_paths_are_valid_and_distinct(self):
        # product("10") runs rise before fall, so the filter keeps the generator's order
        for m in range(8):
            assert dyck_paths(2 * m) == brute_force_dyck_words(2 * m)

    def test_matches_recursive_generator(self):
        for m in range(12):
            assert dyck_paths(2 * m) == recursive_dyck_words(2 * m)

    def test_odd_length_rejected(self):
        with pytest.raises(OddLengthError):
            dyck_paths(5)
        with pytest.raises(ValueError):
            dyck_paths(-2)


class TestBifixFreeCount:
    def test_binary_small_values(self):
        assert bifix_free_count(2, 1) == 2
        assert [bifix_free_count(2, n) for n in range(2, 7)] == [2, 4, 6, 12, 20]

    def test_binary_longer_value_against_brute_force(self):
        brute = sum(
            1 for i in range(1 << 9) if is_bifix_free(format(i, "09b"))
        )
        assert brute == 148
        assert bifix_free_count(2, 9) == 148

    def test_ternary_against_general_brute_force(self):
        for n in (3, 4):
            brute = sum(
                1
                for t in itertools.product("012", repeat=n)
                if general_border_free("".join(t))
            )
            assert bifix_free_count(3, n) == brute
        assert bifix_free_count(3, 3) == 18

    def test_quaternary_against_general_brute_force(self):
        brute = sum(
            1
            for t in itertools.product("0123", repeat=3)
            if general_border_free("".join(t))
        )
        assert bifix_free_count(4, 3) == brute == 48

    def test_validation(self):
        with pytest.raises(ValueError):
            bifix_free_count(1, 3)
        with pytest.raises(ValueError):
            bifix_free_count(2, 0)


class TestEnumerateBifixFree:
    def test_tiny_lengths(self):
        assert list(enumerate_bifix_free(1)) == ["0", "1"]
        assert list(enumerate_bifix_free(2)) == ["01", "10"]
        assert list(enumerate_bifix_free(3)) == ["001", "011", "100", "110"]

    def test_sorted_ascending(self):
        words = list(enumerate_bifix_free(8))
        assert words == sorted(words)

    def test_counts_match_recurrence(self):
        for n in range(1, 15):
            assert len(enumerate_bifix_free(n)) == bifix_free_count(2, n)

    def test_insertion_matches_filter(self):
        # Nielsen's insertion against the 2**n border-scan filter.
        for n in range(1, 17):
            expected = [w for i in range(1 << n) if is_bifix_free(w := format(i, f"0{n}b"))]
            assert list(enumerate_bifix_free(n)) == expected

    def test_generator_beyond_the_filter(self):
        for n in range(17, 20):
            values = _bifix_free_values(n)
            assert len(values) == bifix_free_count(2, n)
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_bifix_free(6, cap=5)
        assert len(enumerate_bifix_free(5, cap=5)) == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_bifix_free(0)

    def test_provenance(self):
        assert enumerate_bifix_free(4).provenance == "enumeration"


class TestEnumerateRiseFall:
    """The bifix-free words that start with 1 and end with 0 (rise first, fall last)."""

    def test_examples(self):
        assert [w for w in enumerate_bifix_free(3) if w[0] + w[-1] == "10"] == ["100", "110"]
        assert [w for w in enumerate_bifix_free(2) if w[0] + w[-1] == "10"] == ["10"]

    def test_splits_bifix_free_words_with_complement(self):
        # words starting 1/ending 0 plus their complements cover everything
        for n in range(2, 11):
            full = set(enumerate_bifix_free(n))
            half = {w for w in full if w[0] + w[-1] == "10"}
            mirrored = {complement(w) for w in half}
            assert half.isdisjoint(mirrored)
            assert half | mirrored == full


class TestFactorSets:
    def test_matches_definition(self):
        rng = random.Random(23)
        for n in range(1, 31):
            cases = [[]] + [
                [rng.getrandbits(n) for _ in range(rng.randint(1, 40))] for _ in range(5)
            ]
            for values in cases:
                prefixes, suffixes = _factor_sets(values, n)
                assert len(prefixes) == len(suffixes) == n + 1
                for k in range(n + 1):
                    assert prefixes[k] == {x >> (n - k) for x in values}
                    assert suffixes[k] == {x & ((1 << k) - 1) for x in values}
