"""Binary words, border predicates, and their exhaustive properties."""

from __future__ import annotations

import pytest

from crossbifix import (
    Factor,
    WordSet,
    bifixes,
    border_lengths,
    cbfs,
    check_set,
    check_word,
    complement,
    cross_bifixes,
    end_height,
    enumerate_bifix_free,
    expansion_blocker,
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
        assert check_word("110") == "110"
        with pytest.raises(ValueError, match="^a binary word needs at least one symbol$"):
            check_word("")
        with pytest.raises(ValueError, match="^binary word may contain only '0' and '1', got '10x1'$"):
            check_word("10x1")
        with pytest.raises(ValueError):
            check_word("10 1")

    def test_coerces_to_exact_str(self):
        class Text(str):
            pass

        assert type(check_word(Text("110"))) is str
        assert check_word(110) == "110"

    def test_end_height(self):
        assert end_height("1") == 1
        assert end_height("0") == -1
        assert end_height("110") == 1
        assert end_height("111010100") == 1

    def test_complement(self):
        assert complement("110") == "001"
        assert complement("0") == "1"


class TestBorders:
    def test_known_bifix_free_word(self):
        assert is_bifix_free("111010100")
        assert bifixes("111010100") == []

    def test_known_bordered_word(self):
        assert not is_bifix_free("101001010")
        assert bifixes("101001010") == ["10", "1010"]

    def test_two_letter_words(self):
        assert is_bifix_free("10")
        assert not is_bifix_free("11")
        assert bifixes("00") == ["0"]

    def test_single_letters_are_bifix_free(self):
        assert is_bifix_free("0")
        assert is_bifix_free("1")
        assert bifixes("1") == []

    def test_empty_word_is_bifix_free(self):
        # One path for every length: no border, so bifix-free, as bifixes("") says.
        assert is_bifix_free("")
        assert bifixes("") == []

    def test_border_can_skip_length_one(self):
        # first and last letters differ yet a border of length 2 exists
        assert border_lengths("0101") == [2]
        assert not is_bifix_free("0101")

    def test_failure_scan_matches_naive_exhaustively(self):
        for n in range(1, 15):
            for w in all_words(n):
                assert border_lengths(w) == naive_border_lengths(w), w

    def test_bifixes_are_exact_str_prefixes_exhaustively(self):
        for n in range(1, 11):
            for w in all_words(n):
                found = bifixes(w)
                assert found == [w[:k] for k in naive_border_lengths(w)], w
                assert all(type(f) is str for f in found), w

    def test_words_are_checked_before_comparing(self):
        # With or without a border, a non-binary word is refused.
        for call in (
            lambda: bifixes("2"),
            lambda: bifixes("x1x"),
            lambda: cross_bifixes("a1", "1b"),
            lambda: cross_bifixes("ab", "ba"),
            lambda: cross_bifixes("10", "1x"),
        ):
            with pytest.raises(ValueError, match="^binary word may contain only '0' and '1'"):
                call()

    def test_str_subclass_gives_exact_str(self):
        class Text(str):
            pass

        assert [type(f) for f in bifixes(Text("1010"))] == [str]
        assert [type(f) for f in cross_bifixes(Text("10"), Text("01"))] == [str, str]

    def test_bifix_free_forces_distinct_ends(self):
        for n in range(2, 15):
            for w in all_words(n):
                if is_bifix_free(w):
                    assert w[0] != w[-1], w


class TestCrossBifixes:
    def test_clean_pair(self):
        assert cross_bifixes("111010100", "110101010") == []

    def test_pair_sharing_a_factor(self):
        assert cross_bifixes("111001100", "110011010") == ["1100"]

    def test_same_word_reduces_to_bifixes(self):
        assert cross_bifixes("10", "10") == []
        assert cross_bifixes("101001010", "101001010") == bifixes("101001010")

    def test_both_directions_at_one_length(self):
        assert cross_bifixes("10", "01") == ["1", "0"]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="cannot cross-check lengths 2 and 3"):
            cross_bifixes("10", "100")

    def test_symmetry_exhaustive(self):
        for n in (2, 3, 4, 5):
            words = [w for w in all_words(n)]
            for a in words[:: max(1, n)]:
                for b in words:
                    lhs = set(cross_bifixes(a, b))
                    rhs = set(cross_bifixes(b, a))
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
                got = set(cross_bifixes(a, b))
                assert got == expected, (a, b)


class TestFactor:
    def test_text_is_the_only_field(self):
        # Whether a factor is a bifix follows from the words it joins.
        assert Factor("10").bits == "10"
        assert Factor._fields == ("bits",)
        assert len(Factor("110")) == 3
        assert tuple(Factor("10")) == ("10",)

    def test_bits_validation(self):
        # Factor checks nothing, so every producer must slice a valid
        # factor: non-empty 0/1 text, a strict prefix of word_a and a
        # strict suffix of word_b.
        for n in range(3, 9):
            words = list(all_words(n))
            witnesses = [
                witness
                for dirty in (words, words[::3], words[1::5])
                for method in ("naive", "trie")
                for witness in check_set(WordSet(n, dirty), method).violations
            ]
            built = cbfs(n)
            witnesses += [expansion_blocker(g, built) for g in enumerate_bifix_free(n) if g not in built]
            assert witnesses
            for w in witnesses:
                bits = w.factor.bits
                assert type(w.factor) is Factor and type(bits) is str
                assert bits and not bits.strip("01")
                assert len(bits) < n
                assert w.word_a.startswith(bits) and w.word_b.endswith(bits)


class TestPaths:
    """A word read as a lattice path: a 1 rises, a 0 falls."""

    def test_height_parity(self):
        for n in range(1, 10):
            for w in all_words(n):
                h = end_height(w)
                assert (h - n) % 2 == 0
                assert -n <= h <= n
