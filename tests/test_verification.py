"""Set checkers, non-expandability certificates, and the maximum-set search."""

from __future__ import annotations

import itertools
import random
import time

import pytest

from crossbifix import (
    DEFAULT_SEARCH_CAP,
    CapExceededError,
    NoBlockerError,
    WordSet,
    cbfs,
    cbfs_cardinality,
    check_set,
    complement,
    cross_bifixes,
    enumerate_bifix_free,
    expansion_blocker,
    is_bifix_free,
    is_non_expandable,
    max_set_search,
    verification,
)
from crossbifix.combinatorics import _bifix_free_values
from crossbifix.sets import _factor_sets
from crossbifix.verification import (
    _clique_cover,
    _conflict_graph,
    _joiners,
    _mirror,
    _violation_count,
)

# maximum compatible-set sizes confirmed against an independent
# max-clique solver on the complement graph (see test_matches_independent_solver)
MAX_SET_SIZES = {2: 1, 3: 1, 4: 1, 5: 2, 6: 3, 7: 5, 8: 8, 9: 14, 10: 24}

# The exact words max_set_search returned when its bound came from the
# first-fit clique cover (first_fit_cover below) and its root branched on
# every vertex.  The bitset cover builds the same classes; the root's rc
# cut (test_mirror_is_an_involutive_automorphism) drops the branches whose
# sets mirror ones already covered, and the smaller tree still returns
# these same optima.  The search keeps only the 1...0 words, so below
# n = 5, where one word is optimal, it keeps its incumbent: the
# constructed word, or 10 at n = 2.
SEARCH_WORDS = {
    2: "10",
    3: "110",
    4: "1100",
    5: "11010 11100",
    6: "101100 110100 111000",
    7: "1101010 1101100 1110010 1110100 1111000",
    8: "10101100 10110100 10111000 11010100 11011000 11100100 11101000 11110000",
    9: (
        "110101010 110101100 110110010 110110100 110111000 111001010 111001100 "
        "111010010 111010100 111011000 111100010 111100100 111101000 111110000"
    ),
    10: (
        "1001001000 1001011000 1001101000 1001111000 1010011000 1010101000 "
        "1010111000 1011001000 1011011000 1011101000 1011111000 1100101000 "
        "1100111000 1101001000 1101011000 1101101000 1101111000 1110011000 "
        "1110101000 1110111000 1111001000 1111011000 1111101000 1111111000"
    ),
}


def rise_fall_values(n: int) -> list[int]:
    """The 1...0 bifix-free words of length n, as the ints the search keeps."""
    return [x for x in _bifix_free_values(n) if x >> (n - 1)]


def naive_conflict(a: str, b: str) -> bool:
    n = len(a)
    return any(a[:k] == b[n - k :] or b[:k] == a[n - k :] for k in range(1, n))


def shared_factors(w: str, m: str) -> set[tuple[int, int]]:
    """(0, k) where w's length-k prefix is m's suffix, (1, k) where w's suffix is m's prefix."""
    n = len(w)
    return {(0, k) for k in range(1, n) if w[:k] == m[n - k :]} | {
        (1, k) for k in range(1, n) if w[n - k :] == m[:k]
    }


def middle_only_members(n: int) -> list[int]:
    """Per side, a member that shares with some bifix-free word one factor: its length ceil(n / 2).

    On side 0 the word's prefix of that length is the member's suffix,
    on side 1 the word's suffix is the member's prefix.  The member is
    the first such word for the first bifix-free word that has one.
    """
    c = (n + 1) // 2
    found = []
    for side in (0, 1):
        for w in enumerate_bifix_free(n):
            tails = (format(i, f"0{n - c}b") for i in range(1 << (n - c)))
            fits = (t + w[:c] if side == 0 else w[n - c :] + t for t in tails)
            m = next((m for m in fits if shared_factors(w, m) == {(side, c)}), None)
            if m is not None:
                found.append(int(m, 2))
                break
    return found


def first_fit_cover(cand: int, adj: list[int]) -> list[int]:
    """Greedy clique cover by first fit, as vertex bitmasks.

    Each vertex, in ascending order, joins the first clique whose
    members are all its neighbours, or opens a new one.
    """
    cliques: list[int] = []
    commons: list[int] = []
    m = cand
    while m:
        vbit = m & -m
        m ^= vbit
        v = vbit.bit_length() - 1
        for idx, common in enumerate(commons):
            if common & vbit:
                commons[idx] = common & adj[v]
                cliques[idx] |= vbit
                break
        else:
            commons.append(adj[v])
            cliques.append(vbit)
    return cliques


def unpruned_non_expandable(word_set: WordSet, n: int) -> tuple[bool, str | None]:
    """The probe without pruning: every bifix-free word, then each factor length in turn."""
    members = [int(w, 2) for w in word_set]
    taken = set(members)
    survivors = [x for x in _bifix_free_values(n) if x not in taken]
    for k in range(1, n):
        prefixes = {x >> (n - k) for x in members}
        suffixes = {x & ((1 << k) - 1) for x in members}
        survivors = [
            x for x in survivors if x >> (n - k) not in suffixes and x & ((1 << k) - 1) not in prefixes
        ]
    if survivors:
        return False, format(survivors[0], f"0{n}b")
    return True, None


def text_scan_blocker(gamma: str, word_set: WordSet) -> tuple[str, str, str] | None:
    """The first blocker by text slices: members descending, then factor lengths ascending.

    At each length, "gamma's prefix is the member's suffix" is tested
    before "the member's prefix is gamma's suffix"; None if no member blocks.
    """
    n = len(gamma)
    for member in reversed(word_set.words):
        for k in range(1, n):
            if gamma[:k] == member[n - k :]:
                return gamma, member, gamma[:k]
            if member[:k] == gamma[n - k :]:
                return member, gamma, member[:k]
    return None


def blocker_or_none(gamma: str, word_set: WordSet) -> tuple[str, str, str] | None:
    try:
        witness = expansion_blocker(gamma, word_set)
    except NoBlockerError:
        return None
    return witness.word_a, witness.word_b, witness.factor.bits


def random_dyck(rng: random.Random, m: int) -> str:
    """A random Dyck word of length 2m, by the cycle lemma.

    Exactly one rotation of a sequence of m + 1 ones and m zeros keeps
    every prefix sum positive; it is 1 followed by a Dyck word.
    """
    steps = ["1"] * (m + 1) + ["0"] * m
    rng.shuffle(steps)
    for r in range(len(steps)):
        rotated = steps[r:] + steps[:r]
        height = 0
        for c in rotated:
            height += 1 if c == "1" else -1
            if height <= 0:
                break
        else:
            return "".join(rotated[1:])
    raise AssertionError("the cycle lemma always finds a rotation")


def random_clean_set(rng: random.Random, n: int, size: int) -> WordSet:
    """Random words 1 D (odd n) or 1 D 0 (even n) for Dyck words D.

    Both families are cross-bifix-free: as a path, every strict prefix
    of such a word ends at least 1 above where it starts, while no
    strict suffix ends above where it starts.
    """
    if n % 2:
        words = {"1" + random_dyck(rng, (n - 1) // 2) for _ in range(size)}
    else:
        words = {"1" + random_dyck(rng, (n - 2) // 2) + "0" for _ in range(size)}
    return WordSet(n, words)


class TestCheckSet:
    def test_constructed_sets_are_clean(self):
        for n in (3, 5, 8, 9, 12):
            report = check_set(cbfs(n))
            assert report.set_ok
            assert report.violations == ()

    def test_known_bad_pair(self):
        bad = WordSet.from_words(["111001100", "110011010"])
        for method in ("naive", "trie"):
            report = check_set(bad, method=method)
            assert not report.set_ok
            assert len(report.violations) == 1
            v = report.violations[0]
            assert str(v.word_a) == "110011010"
            assert str(v.word_b) == "111001100"
            assert str(v.factor.bits) == "1100"
            assert v.word_a != v.word_b

    def test_self_violation_for_bordered_word(self):
        report = check_set(WordSet.from_words(["1001"]))
        assert not report.set_ok
        v = report.violations[0]
        assert v.word_a == v.word_b == "1001"
        assert str(v.factor.bits) == "1"

    def test_singleton_clean(self):
        assert check_set(WordSet.from_words(["10"])).set_ok

    def test_length_one_words_never_conflict(self):
        report = check_set(WordSet.from_words(["0", "1"]))
        assert report.set_ok

    def test_method_validation(self):
        with pytest.raises(ValueError):
            check_set(cbfs(5), method="fast")
        with pytest.raises(ValueError):
            check_set(WordSet(n=3))

    def test_checked_pairs(self):
        assert check_set(cbfs(7), method="naive").checked_pairs == 25
        assert check_set(cbfs(7), method="trie").checked_pairs == 5 * 6

    def test_only_the_longest_factor_length_shared(self):
        # u + "0" and "1" + u for u in a subset of cbfs(n - 1): the words
        # u start with 1, end with 0 and share no factor, so the only
        # shared factors are the u themselves, of length n - 1, and the
        # trie skips every shorter length.
        for n in range(4, 17):
            shorter = cbfs(n - 1).words
            picked = shorter[:: max(1, len(shorter) // 40)]
            words = [u + "0" for u in picked] + ["1" + u for u in picked]
            word_set = WordSet(n, words)
            prefixes, suffixes = _factor_sets([int(w, 2) for w in word_set], n)
            assert all(prefixes[k].isdisjoint(suffixes[k]) for k in range(1, n - 1))
            naive = check_set(word_set, method="naive")
            trie = check_set(word_set, method="trie")
            assert len(naive.violations) == len(picked)
            assert {len(v.factor) for v in naive.violations} == {n - 1}
            assert trie.violations == naive.violations

    def test_methods_agree_on_random_sets(self):
        rng = random.Random(20260822)
        for n in range(2, 31):
            for _ in range(100 if n <= 12 else 20):
                size = rng.randint(1, 12)
                words = {format(rng.getrandbits(n), f"0{n}b") for _ in range(size)}
                word_set = WordSet(n, words)
                naive = check_set(word_set, method="naive")
                trie = check_set(word_set, method="trie")
                assert naive.set_ok == trie.set_ok
                assert naive.violations == trie.violations
        for n in range(2, 31):
            for _ in range(10):
                word_set = random_clean_set(rng, n, rng.randint(1, 12))
                naive = check_set(word_set, method="naive")
                trie = check_set(word_set, method="trie")
                assert naive.set_ok and trie.set_ok
                assert trie.checked_pairs == len(word_set) * (n - 1)

    def test_single_violation_at_each_length(self):
        # A pair conflicting at one factor length k only: the trie must
        # not skip k, whatever k is.
        rng = random.Random(11)
        for n in range(3, 13):
            for k in range(1, n):
                for _ in range(10000):
                    u = format(rng.getrandbits(k), f"0{k}b")
                    a = u + format(rng.getrandbits(n - k), f"0{n - k}b")
                    b = format(rng.getrandbits(n - k), f"0{n - k}b") + u
                    word_set = WordSet(n, [a, b])
                    naive = check_set(word_set, method="naive")
                    if len(naive.violations) == 1 and len(naive.violations[0].factor) == k:
                        break
                else:
                    raise AssertionError(f"no single-violation pair found for n={n}, k={k}")
                trie = check_set(word_set, method="trie")
                assert trie.violations == naive.violations
                assert trie.checked_pairs == len(word_set) * (n - 1)

    def test_violations_match_pairwise_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 8)
            words = sorted({format(rng.getrandbits(n), f"0{n}b") for _ in range(6)})
            word_set = WordSet(n, words)
            report = check_set(word_set)
            expected = set()
            for a, b in itertools.product(words, repeat=2):
                for k in range(1, n):
                    if a[:k] == b[n - k :]:
                        expected.add((a, b, a[:k]))
            got = {(str(v.word_a), str(v.word_b), str(v.factor.bits)) for v in report.violations}
            assert got == expected

    def test_witnesses_are_strict_shared_factors(self):
        # Witnesses are built unchecked, so their invariant is held here:
        # exact str fields and a strict factor, a prefix of word_a and a
        # suffix of word_b.  Every set carries a bordered word from n = 2.
        rng = random.Random(2012)
        witnesses = []
        for n in range(1, 13):
            for _ in range(20):
                words = {format(rng.getrandbits(n), f"0{n}b") for _ in range(rng.randint(1, 12))}
                if n >= 2:
                    word = min(words)
                    words.add(word[:-1] + word[0])
                word_set = WordSet(n, words)
                for method in ("naive", "trie"):
                    violations = check_set(word_set, method=method).violations
                    assert bool(violations) == (n >= 2)
                    witnesses += [(n, v) for v in violations]
                for _ in range(5):
                    gamma = format(rng.getrandbits(n), f"0{n}b")
                    if gamma not in word_set:
                        try:
                            witnesses.append((n, expansion_blocker(gamma, word_set)))
                        except NoBlockerError:
                            pass
        assert len(witnesses) > 1000
        for n, v in witnesses:
            assert type(v.word_a) is type(v.word_b) is type(v.factor.bits) is str
            assert len(v.word_a) == len(v.word_b) == n > len(v.factor.bits)
            assert v.word_a.startswith(v.factor.bits) and v.word_b.endswith(v.factor.bits)

    def test_violation_count_matches_check_set(self):
        rng = random.Random(19)
        for n in range(1, 13):
            for _ in range(30):
                size = rng.randint(1, min(2**n, 40))
                words = {format(rng.getrandbits(n), f"0{n}b") for _ in range(size)}
                word_set = WordSet(n, words)
                count = _violation_count(word_set)
                assert count == len(check_set(word_set).violations)

    def test_violation_count_is_zero_on_constructed_sets(self):
        for n in range(3, 19):
            word_set = cbfs(n)
            assert _violation_count(word_set) == 0


class TestNonExpandable:
    def test_small_constructed_sets(self):
        for n in (3, 4, 7, 9):
            verdict, gamma = is_non_expandable(cbfs(n), n)
            assert verdict and gamma is None

    def test_removing_the_first_word_makes_room(self):
        full = cbfs(7)
        removed = full.words[0]
        assert removed == "1101010"
        reduced = WordSet(7, [w for w in full if w != removed])
        verdict, gamma = is_non_expandable(reduced, 7)
        assert not verdict
        assert gamma == removed

    def test_universe_length_must_match(self):
        with pytest.raises(ValueError, match="set holds length 5, universe asks 6"):
            is_non_expandable(cbfs(5), 6)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            is_non_expandable(cbfs(6), 6, cap=5)

    def test_one_word_removed_matches_brute_force(self):
        # Brute force over all 2**n strings, independent of the generator.
        for n in range(3, 12):
            full = cbfs(n)
            for removed in full.words[:: max(1, len(full) // 5)]:
                reduced = WordSet(n, [w for w in full if w != removed])
                first = next(
                    w
                    for i in range(1 << n)
                    if is_bifix_free(w := format(i, f"0{n}b"))
                    and w not in reduced
                    and not any(naive_conflict(w, m) for m in reduced)
                )
                assert is_non_expandable(reduced, n) == (False, first)

    def test_pruned_probe_matches_unpruned_on_constructed_sets(self):
        rng = random.Random(13)
        for n in range(3, 17):
            full = cbfs(n)
            assert is_non_expandable(full, n) == unpruned_non_expandable(full, n) == (True, None)
            for removed_count in (1, 2, 3):
                for _ in range(3):
                    removed = set(rng.sample(full.words, min(removed_count, len(full) - 1)))
                    reduced = WordSet(n, [w for w in full if w not in removed])
                    assert is_non_expandable(reduced, n) == unpruned_non_expandable(reduced, n)

    def test_pruned_probe_matches_unpruned_on_random_sets(self):
        # Random words: conflicting members and bordered members included.
        rng = random.Random(17)
        for n in range(1, 17):
            for _ in range(40):
                size = rng.randint(1, 8)
                words = {format(rng.getrandbits(n), f"0{n}b") for _ in range(size)}
                word_set = WordSet(n, words)
                assert is_non_expandable(word_set, n) == unpruned_non_expandable(word_set, n)
        assert is_non_expandable(WordSet.from_words(["1"]), 1) == (False, "0")
        assert is_non_expandable(WordSet.from_words(["0", "1"]), 1) == (True, None)
        assert is_non_expandable(WordSet.from_words(["10"]), 2) == (True, None)
        assert is_non_expandable(WordSet.from_words(["00"]), 2) == (True, None)
        assert is_non_expandable(WordSet(n=2), 2) == (False, "01")

    def test_generator_returns_exactly_the_joinable_words(self):
        # The whole list against a brute-force filter over all 2**n
        # strings, with factors compared as text.  The one-member cases
        # meet some candidate only at length ceil(n / 2), where the levels
        # hand over to the final filter.
        rng = random.Random(19)
        for n in range(1, 13):
            cases = [[]]
            if n >= 2:
                middle = middle_only_members(n)
                assert len(middle) == 2
                cases += [[m] for m in middle]
            cases += [[rng.getrandbits(n) for _ in range(rng.randint(1, 8))] for _ in range(4)]
            if n >= 3:
                full = [int(w, 2) for w in cbfs(n)]
                cases.append(full)
                for removed_count in (1, 2, 3):
                    removed = set(rng.sample(full, min(removed_count, len(full) - 1)))
                    cases.append([x for x in full if x not in removed])
            for members in cases:
                texts = {format(x, f"0{n}b") for x in members}
                prefixes = {(k, w[:k]) for w in texts for k in range(1, n)}
                suffixes = {(k, w[n - k :]) for w in texts for k in range(1, n)}
                expected = [
                    i
                    for i in range(1 << n)
                    if is_bifix_free(w := format(i, f"0{n}b"))
                    and w not in texts
                    and not any(
                        (k, w[:k]) in suffixes or (k, w[n - k :]) in prefixes for k in range(1, n)
                    )
                ]
                assert _joiners(WordSet(n, [format(x, f"0{n}b") for x in members])) == expected
        # With no members nothing is pruned: the probe and the generator agree.
        for n in range(1, 19):
            assert _joiners(WordSet(n)) == _bifix_free_values(n)

    def test_non_maximal_user_set(self):
        word_set = WordSet.from_words(["11100"])
        verdict, gamma = is_non_expandable(word_set, 5)
        assert not verdict
        # first compatible bifix-free word in text order
        assert gamma == min(
            w
            for w in enumerate_bifix_free(5)
            if w != "11100" and not naive_conflict(w, "11100")
        )


class TestExpansionBlocker:
    def test_short_example(self):
        witness = expansion_blocker("100", cbfs(3))
        assert (str(witness.word_a), str(witness.word_b)) == ("100", "110")
        assert str(witness.factor.bits) == "10"

    def test_rise_first_scan_order(self):
        witness = expansion_blocker("10000", cbfs(5))
        assert str(witness.word_b) == "11100"
        assert str(witness.factor.bits) == "100"

    def test_every_excluded_word_is_blocked(self):
        for n in (5, 8, 10):
            built = cbfs(n)
            for gamma in enumerate_bifix_free(n):
                if gamma in built:
                    continue
                witness = expansion_blocker(gamma, built)
                assert gamma in (witness.word_a, witness.word_b)
                other = witness.word_b if witness.word_a == gamma else witness.word_a
                assert other in built

    def test_member_rejected(self):
        with pytest.raises(ValueError):
            expansion_blocker("110", cbfs(3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="candidate has length 4, set holds 3"):
            expansion_blocker("1100", cbfs(3))

    def test_no_blocker(self):
        lonely = WordSet.from_words(["11010"])
        with pytest.raises(NoBlockerError):
            expansion_blocker("11100", lonely)

    def test_matches_text_scan(self):
        # Every bifix-free outsider against the construction, random parts
        # of it (most of them expandable) and random words with conflicts.
        rng = random.Random(1112)
        unblocked = 0
        for n in range(3, 13):
            built = cbfs(n)
            cases = [built, WordSet(n=n)]
            for size in (1, 2, len(built) // 2, len(built) - 1):
                if 1 <= size <= len(built):
                    cases.append(WordSet(n=n, words=rng.sample(built.words, size)))
            cases.append(WordSet(n=n, words=[format(rng.getrandbits(n), f"0{n}b") for _ in range(6)]))
            outsiders = enumerate_bifix_free(n)
            for word_set in cases:
                for gamma in outsiders:
                    if gamma not in word_set:
                        expected = text_scan_blocker(gamma, word_set)
                        assert blocker_or_none(gamma, word_set) == expected, (gamma, word_set)
                        unblocked += expected is None
        assert unblocked > 0


class TestMaxSetSearch:
    def test_known_sizes(self):
        for n, expected in MAX_SET_SIZES.items():
            if n > 8:
                continue
            found, optimal = max_set_search(n)
            assert optimal
            assert len(found) == expected
            assert check_set(found).set_ok

    def test_levenshtein_bound(self):
        # size * n**n <= (n - 1)**(n - 1) * 2**n is Levenshtein's bound for
        # non-overlapping codes; n = 2 meets it with equality.
        for n, size in MAX_SET_SIZES.items():
            assert size * n**n <= (n - 1) ** (n - 1) * 2**n, n
        assert MAX_SET_SIZES[2] * 2**2 == 1**1 * 2**2

    def test_matches_independent_solver(self):
        networkx = pytest.importorskip("networkx")
        for n in range(2, 11):
            words = list(enumerate_bifix_free(n))
            graph = networkx.Graph()
            graph.add_nodes_from(words)
            for a, b in itertools.combinations(words, 2):
                if not naive_conflict(a, b):
                    graph.add_edge(a, b)
            _, size = networkx.max_weight_clique(graph, weight=None)
            assert size == MAX_SET_SIZES[n]

    def test_words_match_reference(self):
        for n, words in SEARCH_WORDS.items():
            found, optimal = max_set_search(n)
            assert optimal
            assert found.words == tuple(words.split())

    def test_clique_cover_matches_first_fit(self):
        rng = random.Random(5)
        for n in range(2, 13):
            adj = _conflict_graph(rise_fall_values(n), n, None)
            full = (1 << len(adj)) - 1
            for cand in [full] + [rng.getrandbits(len(adj)) for _ in range(20)]:
                assert _clique_cover(cand, adj) == first_fit_cover(cand, adj)
        for _ in range(300):
            v_count = rng.randint(1, 60)
            density = rng.random()
            adj = [0] * v_count
            for a, b in itertools.combinations(range(v_count), 2):
                if rng.random() < density:
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
            cand = rng.getrandbits(v_count)
            classes = _clique_cover(cand, adj)
            assert classes == first_fit_cover(cand, adj)
            assert sum(classes) == cand

    def test_mirror_is_an_involutive_automorphism(self):
        # The search's root drops rc(v) once its branch on v is done: a set
        # holding rc(v) but not v mirrors one that branch covered.
        for n in range(2, 13):
            values = rise_fall_values(n)
            words = [format(x, f"0{n}b") for x in values]
            adj = _conflict_graph(values, n, None)
            mirror = [_mirror(values, n, v) for v in range(len(values))]
            for v, u in enumerate(mirror):
                assert words[u] == complement(words[v][::-1])
                assert mirror[u] == v
            for v, u in itertools.product(range(len(values)), repeat=2):
                assert adj[v] >> u & 1 == adj[mirror[v]] >> mirror[u] & 1

    def test_root_symmetry_halves_the_tree(self, monkeypatch):
        # Branching on every root vertex, n = 9 and 10 take 459 and 64,449 nodes.
        calls = 0

        def counted(cand, adj):
            nonlocal calls
            calls += 1
            return _clique_cover(cand, adj)

        monkeypatch.setattr(verification, "_clique_cover", counted)
        for n, unbroken in ((9, 459), (10, 64_449)):
            calls = 0
            assert max_set_search(n)[1]
            assert calls <= unbroken // 2, n

    def test_rise_fall_half_holds_an_optimum(self):
        # The search keeps the 1...0 words: each conflicts with every
        # 0...1 word, and complement swaps the halves keeping conflicts.
        for n in range(2, 13):
            words = list(enumerate_bifix_free(n))
            rise_fall = [w for w in words if w[0] + w[-1] == "10"]
            fall_rise = [w for w in words if w[0] + w[-1] == "01"]
            assert [format(x, f"0{n}b") for x in rise_fall_values(n)] == rise_fall
            assert 2 * len(rise_fall) == len(words) == len(rise_fall) + len(fall_rise)
            assert sorted(map(complement, rise_fall)) == fall_rise
            if n > 8:
                continue
            for a, b in itertools.product(rise_fall, fall_rise):
                assert cross_bifixes(a, b)
            for a, b in itertools.product(rise_fall, repeat=2):
                conflict = bool(cross_bifixes(a, b))
                assert bool(cross_bifixes(complement(a), complement(b))) == conflict

    def test_construction_is_beaten_at_ten(self):
        found, optimal = max_set_search(10)
        assert optimal
        assert len(found) == 24
        assert cbfs_cardinality(10) == 23
        assert check_set(found).set_ok

    def test_nine_matches_construction(self):
        found, optimal = max_set_search(9)
        assert optimal
        assert len(found) == cbfs_cardinality(9) == 14

    def test_deterministic(self):
        first, _ = max_set_search(7)
        second, _ = max_set_search(7)
        assert first.words == second.words

    def test_time_limit_still_yields_certificate(self):
        found, optimal = max_set_search(11, time_limit=0.2)
        assert not optimal
        assert len(found) >= cbfs_cardinality(11)
        assert check_set(found).set_ok

    def test_validation(self):
        with pytest.raises(ValueError):
            max_set_search(1)
        with pytest.raises(CapExceededError):
            max_set_search(6, cap=5)
        with pytest.raises(ValueError):
            max_set_search(6, time_limit=-1)

    def test_default_cap_refuses_before_building(self):
        assert DEFAULT_SEARCH_CAP == 16
        started = time.perf_counter()
        with pytest.raises(CapExceededError):
            max_set_search(22, time_limit=1)
        assert time.perf_counter() - started < 1.0

    def test_deadline_counts_from_entry(self):
        # An expired deadline stops the graph build before its first pass
        # and hands back the construction, flagged non-optimal.  At n = 2
        # the build has no pass, so only the branching sees the deadline
        # and the incumbent, vertex 0, comes back.
        for n in (2, 3, 4, 5, 6, 7, 12):
            found, optimal = max_set_search(n, time_limit=0)
            assert not optimal
            assert found.words == (("10",) if n == 2 else cbfs(n).words)
            assert found.provenance == "search"
        assert max_set_search(3, time_limit=0)[0].words == ("110",)
        assert max_set_search(4, time_limit=0)[0].words == ("1100",)
        values = rise_fall_values(8)
        assert _conflict_graph(values, 8, time.perf_counter() - 1) is None
        assert _conflict_graph(values, 8, time.perf_counter() + 60) == _conflict_graph(values, 8, None)

    def test_conflict_graph_matches_pairwise_cross_bifixes(self):
        for n in range(2, 11):
            words = [w for w in enumerate_bifix_free(n) if w[0] == "1"]
            adj = _conflict_graph([int(w, 2) for w in words], n, None)
            for i, a in enumerate(words):
                assert not adj[i] >> i & 1
                for j, b in enumerate(words[i + 1 :], i + 1):
                    assert bool(adj[i] >> j & 1) == bool(cross_bifixes(a, b))
                    assert adj[i] >> j & 1 == adj[j] >> i & 1

    def test_provenance(self):
        found, _ = max_set_search(5)
        assert found.provenance == "search"
