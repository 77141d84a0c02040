"""The one construction rule per length parity, its cardinalities, and the words it skips."""

from __future__ import annotations

import math
from itertools import product

import pytest

from crossbifix import (
    catalan,
    cbfs,
    cbfs_cardinality,
    dyck_paths,
    end_height,
    enumerate_bifix_free,
    is_bifix_free,
)

KNOWN_CARDINALITIES = {
    3: 1, 4: 1, 5: 2, 6: 3, 7: 5, 8: 8, 9: 14,
    10: 23, 11: 42, 12: 72, 13: 132, 14: 227, 15: 429,
}


def concatenations(m: int, i_max: int) -> list[str]:
    """The paper's alpha 1 beta 0, alpha in D(2i), beta in D(2(m - i)), 0 <= i <= i_max."""
    return [
        a + "1" + b + "0"
        for i in range(i_max + 1)
        for a, b in product(dyck_paths(2 * i), dyck_paths(2 * (m - i)))
    ]


def excluded(m: int) -> set[str]:
    """The paper's excluded words for odd m: 1 a 0 1 b 0 with a, b in D(m - 1)."""
    return {"1" + a + "0" + "1" + b + "0" for a, b in product(dyck_paths(m - 1), repeat=2)}


def skipped(m: int) -> list[str]:
    """The concatenations up to i = (m + 1) // 2 that cbfs(2m + 2) leaves out, ascending."""
    return sorted(set(concatenations(m, (m + 1) // 2)) - set(cbfs(2 * m + 2)))


class TestOddConstruction:
    def test_smallest(self):
        assert list(cbfs(3)) == ["110"]

    def test_m_three(self):
        assert set(cbfs(7)) == {
            "1111000", "1110100", "1110010", "1101100", "1101010",
        }

    def test_cardinality_is_catalan(self):
        for m in range(1, 9):
            assert len(cbfs(2 * m + 1)) == catalan(m)

    def test_subset_of_height_one_words(self):
        for m in (1, 2, 3, 4):
            bifix_free = enumerate_bifix_free(2 * m + 1)
            marked = {w for w in bifix_free if w[0] + w[-1] == "10" and end_height(w) == 1}
            assert set(cbfs(2 * m + 1)) <= marked

    def test_equals_rise_then_dyck_path(self):
        for m in range(1, 10):
            expected = sorted("1" + p for p in dyck_paths(2 * m))
            assert cbfs(2 * m + 1).words == tuple(expected)


class TestEvenConstructions:
    def test_m_two(self):
        assert set(cbfs(6)) == {"111000", "110100", "101100"}

    def test_m_four_cardinality(self):
        assert len(cbfs(10)) == 23

    def test_m_one(self):
        assert list(cbfs(4)) == ["1100"]

    def test_m_three_cardinality(self):
        assert len(cbfs(8)) == 8

    def test_m_five_cardinality(self):
        assert len(cbfs(12)) == 72

    def test_exclusion_really_removed(self):
        for m in (1, 3, 5):
            built = cbfs(2 * m + 2)
            assert excluded(m).isdisjoint(set(built))

    def test_equals_concatenations_minus_exclusion(self):
        # The paper's definition for odd m: every concatenation up to
        # i = (m + 1) / 2, then the excluded words filtered out.
        for m in (1, 3, 5, 7, 9):
            dropped = excluded(m)
            expected = [w for w in concatenations(m, (m + 1) // 2) if w not in dropped]
            assert cbfs(2 * m + 2).words == tuple(sorted(expected))

    def test_equals_concatenations_for_even_m(self):
        # For even m nothing is cut: every concatenation up to i = m / 2.
        for m in (2, 4, 6, 8, 10):
            assert cbfs(2 * m + 2).words == tuple(sorted(concatenations(m, m // 2)))


class TestExclusionSet:
    """The concatenations cbfs leaves out for odd m are exactly the excluded words."""

    def test_smallest(self):
        assert skipped(1) == ["1010"]

    def test_m_three(self):
        assert skipped(3) == ["11001100"]

    def test_cardinality(self):
        for m in (1, 3, 5, 7):
            assert len(skipped(m)) == catalan((m - 1) // 2) ** 2

    def test_shape(self):
        # every word splits as 1 a 0 1 b 0 with Dyck halves a and b
        for m in (3, 5):
            halves = set(dyck_paths(m - 1))
            for w in skipped(m):
                mid = len(w) // 2
                first, second = w[:mid], w[mid:]
                assert first[0] == second[0] == "1"
                assert first[-1] == second[-1] == "0"
                assert first[1:-1] in halves and second[1:-1] in halves


class TestDispatch:
    def test_known_cardinalities(self):
        for n, expected in KNOWN_CARDINALITIES.items():
            assert len(cbfs(n)) == expected
            assert cbfs_cardinality(n) == expected

    def test_closed_form_matches_enumeration_up_to_18(self):
        for n in range(3, 19):
            assert len(cbfs(n)) == cbfs_cardinality(n)

    def test_closed_form_matches_binomial_sums(self):
        # The convolution sums over catalan(i) = comb(2i, i) / (i + 1).
        c = [math.comb(2 * i, i) // (i + 1) for i in range(750)]
        for n in range(3, 1501):
            m = (n - 2) // 2
            if n % 2:
                expected = c[(n - 1) // 2]
            elif m % 2 == 0:
                expected = sum(c[i] * c[m - i] for i in range(m // 2 + 1))
            else:
                expected = sum(c[i] * c[m - i] for i in range((m + 1) // 2 + 1))
                expected -= c[(m - 1) // 2] ** 2
            assert cbfs_cardinality(n) == expected

    def test_levenshtein_bound(self):
        # A non-overlapping code of length n has at most
        # ((n - 1) / n) ** (n - 1) * 2 ** n / n words (Levenshtein).
        for n in range(3, 401):
            assert cbfs_cardinality(n) * n**n <= (n - 1) ** (n - 1) * 2**n, n

    def test_large_odd_closed_form(self):
        assert cbfs_cardinality(21) == catalan(10) == 16796
        assert len(cbfs(21)) == 16796

    def test_provenances(self):
        assert cbfs(7).provenance == "cbfs_odd"
        assert cbfs(6).provenance == "cbfs_even_m_even"
        assert cbfs(8).provenance == "cbfs_even_m_odd"

    def test_unsupported_lengths(self):
        for n in (0, 1, 2):
            message = f"no construction below length 3, got {n}"
            with pytest.raises(ValueError, match=message):
                cbfs(n)
            with pytest.raises(ValueError, match=message):
                cbfs_cardinality(n)

    def test_members_are_bifix_free_words_of_right_shape(self):
        for n in range(3, 19):
            built = cbfs(n)
            assert built.n == n
            expected_height = 1 if n % 2 else 0
            for w in built:
                assert len(w) == n
                assert w[0] == "1" and w[-1] == "0"
                assert end_height(w) == expected_height
                assert is_bifix_free(w)

    def test_subset_of_all_bifix_free_words(self):
        for n in range(3, 15):
            assert set(cbfs(n)) <= set(enumerate_bifix_free(n))

    def test_deterministic(self):
        assert cbfs(12).words == cbfs(12).words
        assert cbfs(13).words == cbfs(13).words
