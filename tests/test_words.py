"""Binary words, border predicates, and their exhaustive properties."""

from __future__ import annotations

import pytest

from crossbifix import (
    BinaryWord,
    Factor,
    LengthMismatchError,
    bifixes,
    border_lengths,
    cross_bifixes,
    is_bifix_free,
)


def naive_border_lengths(w: str) -> list[int]:
    n = len(w)
    return [k for k in range(1, n) if w[:k] == w[n - k :]]


def all_words(n: int):
    for i in range(1 << n):
        yield format(i, f"0{n}b")


class TestBinaryWord:
    def test_accepts_only_zeros_and_ones(self):
        assert BinaryWord("110") == "110"
        with pytest.raises(ValueError):
            BinaryWord("")
        with pytest.raises(ValueError):
            BinaryWord("10x1")
        with pytest.raises(ValueError):
            BinaryWord("10 1")

    def test_symbol_count(self):
        w = BinaryWord("110100")
        assert w.symbol_count("1") == 3
        assert w.symbol_count("0") == 3
        with pytest.raises(ValueError):
            w.symbol_count("2")

    def test_end_height(self):
        assert BinaryWord("1").end_height == 1
        assert BinaryWord("0").end_height == -1
        assert BinaryWord("110").end_height == 1
        assert BinaryWord("111010100").end_height == 1

    def test_complement(self):
        assert BinaryWord("110").complement() == "001"
        assert BinaryWord("0").complement() == "1"


class TestBorders:
    def test_known_bifix_free_word(self):
        assert is_bifix_free("111010100")
        assert bifixes("111010100") == []

    def test_known_bordered_word(self):
        assert not is_bifix_free("101001010")
        found = bifixes("101001010")
        assert [str(f.bits) for f in found] == ["10", "1010"]
        assert all(f.role == "bifix" for f in found)

    def test_two_letter_words(self):
        assert is_bifix_free("10")
        assert not is_bifix_free("11")
        assert [str(f.bits) for f in bifixes("00")] == ["0"]

    def test_single_letters_are_bifix_free(self):
        assert is_bifix_free("0")
        assert is_bifix_free("1")
        assert bifixes("1") == []

    def test_border_can_skip_length_one(self):
        # first and last letters differ yet a border of length 2 exists
        assert border_lengths("0101") == [2]
        assert not is_bifix_free("0101")

    def test_failure_scan_matches_naive_exhaustively(self):
        for n in range(1, 15):
            for w in all_words(n):
                assert border_lengths(w) == naive_border_lengths(w), w

    def test_bifix_free_forces_distinct_ends(self):
        for n in range(2, 15):
            for w in all_words(n):
                if is_bifix_free(w):
                    assert w[0] != w[-1], w


class TestCrossBifixes:
    def test_clean_pair(self):
        assert cross_bifixes("111010100", "110101010") == []

    def test_pair_sharing_a_factor(self):
        found = cross_bifixes("111001100", "110011010")
        assert [str(f.bits) for f in found] == ["1100"]
        assert found[0].role == "cross_bifix"

    def test_same_word_reduces_to_bifixes(self):
        assert cross_bifixes("10", "10") == []
        assert cross_bifixes("101001010", "101001010") == bifixes("101001010")

    def test_both_directions_at_one_length(self):
        found = cross_bifixes("10", "01")
        assert sorted(str(f.bits) for f in found) == ["0", "1"]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            cross_bifixes("10", "100")

    def test_symmetry_exhaustive(self):
        for n in (2, 3, 4, 5):
            words = [w for w in all_words(n)]
            for a in words[:: max(1, n)]:
                for b in words:
                    lhs = {(str(f.bits), f.role) for f in cross_bifixes(a, b)}
                    rhs = {(str(f.bits), f.role) for f in cross_bifixes(b, a)}
                    assert lhs == rhs, (a, b)

    def test_naive_cross_factor_oracle(self):
        # every reported factor really is a prefix of one and a suffix of the other
        for a in ("110100", "101100", "100110", "111000"):
            for b in ("110100", "101100", "100110", "111000"):
                expected = set()
                n = len(a)
                for k in range(1, n):
                    if a[:k] == b[n - k :]:
                        expected.add(a[:k])
                    if b[:k] == a[n - k :]:
                        expected.add(b[:k])
                if a == b:
                    expected = set(a[:k] for k in naive_border_lengths(a))
                got = {str(f.bits) for f in cross_bifixes(a, b)}
                assert got == expected, (a, b)


class TestFactor:
    def test_role_validation(self):
        assert Factor("10").role == "cross_bifix"
        assert Factor("10", "bifix").role == "bifix"
        with pytest.raises(ValueError):
            Factor("10", "border")

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            Factor("")
        with pytest.raises(ValueError):
            Factor("12")


class TestPaths:
    """A word read as a lattice path: a 1 rises, a 0 falls."""

    def test_height_parity(self):
        for n in range(1, 10):
            for w in all_words(n):
                h = BinaryWord(w).end_height
                assert (h - n) % 2 == 0
                assert -n <= h <= n
