"""WordSet normalisation, its input errors, and the one word type every producer yields."""

from __future__ import annotations

import io
import json

import pytest

from crossbifix import (
    CapExceededError,
    WordSet,
    cbfs,
    check_set,
    enumerate_bifix_free,
    expansion_blocker,
    is_non_expandable,
    max_set_search,
    read_word_set,
    render,
)
from crossbifix.sets import _factor_sets


class Text(str):
    """A str subclass, standing in for word-like input from outside."""


BAD_INPUT = [
    pytest.param(
        dict(n=3, words=["110", "1x0"]),
        ValueError,
        "binary word may contain only '0' and '1', got '1x0'",
        id="non-binary-word",
    ),
    pytest.param(
        dict(n=3, words=["110", ""]),
        ValueError,
        "a binary word needs at least one symbol",
        id="empty-word",
    ),
    pytest.param(
        dict(n=3, words=["1100", "110", "2", "", "x1"]),
        ValueError,
        "binary word may contain only '0' and '1', got '2'",
        id="bad-word-beats-mixed-lengths",
    ),
    pytest.param(
        dict(n=2, words=["10", "\uff10\uff11", "01"]),
        ValueError,
        "binary word may contain only '0' and '1', got '\uff10\uff11'",
        id="fullwidth-digits",
    ),
    pytest.param(
        dict(n=2, words=["10", "\u0661\u0660", "01"]),
        ValueError,
        "binary word may contain only '0' and '1', got '\u0661\u0660'",
        id="arabic-indic-digits",
    ),
    pytest.param(
        dict(n=1, words=["1", "\ud800", "0"]),
        ValueError,
        "binary word may contain only '0' and '1', got '\\ud800'",
        id="lone-surrogate",
    ),
    pytest.param(
        dict(n=3, words=["110", "1 0", "100"]),
        ValueError,
        "binary word may contain only '0' and '1', got '1 0'",
        id="space",
    ),
    pytest.param(
        dict(n=3, words=["110", "1100", "100"]),
        ValueError,
        "one set holds words of lengths [3, 4]",
        id="mixed-lengths",
    ),
    pytest.param(
        dict(n=3, words=["1100", "1000"]),
        ValueError,
        "words have length 4, expected 3",
        id="length-not-n",
    ),
    pytest.param(
        dict(n=0, words=["1x"], provenance="magic"),
        ValueError,
        "unknown provenance 'magic'",
        id="unknown-provenance",
    ),
    pytest.param(
        dict(n=0, words=["1x", "10"]),
        ValueError,
        "word length must be at least 1",
        id="n-below-one",
    ),
    pytest.param(
        dict(n=3.0, words=["110"]),
        ValueError,
        "word length must be an integer, got 3.0",
        id="float-n",
    ),
    pytest.param(
        dict(n=True, words=["1"]),
        ValueError,
        "word length must be an integer, got True",
        id="bool-n",
    ),
    pytest.param(
        dict(n="3", words=["110"]),
        ValueError,
        "word length must be an integer, got '3'",
        id="str-n",
    ),
    pytest.param(
        dict(n=1, words="110"),
        ValueError,
        "words must be a collection of words, not the str '110'",
        id="bare-str",
    ),
]


class TestWordSet:
    @pytest.mark.parametrize("kwargs, error, message", BAD_INPUT)
    def test_rejects_bad_input(self, kwargs, error, message):
        with pytest.raises(error) as info:
            WordSet(**kwargs)
        assert info.type is error
        assert str(info.value) == message

    def test_bare_str_is_not_split_into_letters(self):
        message = "^words must be a collection of words, not the str "
        with pytest.raises(ValueError, match=message + "'110'$"):
            WordSet.from_words("110")
        payload = {"n": 1, "words": "0110", "provenance": "user"}
        with pytest.raises(ValueError, match=message + "'0110'$"):
            WordSet.from_json_dict(payload)

    def test_from_words_coerces_the_first_entry_like_the_rest(self):
        # The length comes from str() of the first entry, as __init__ coerces every entry.
        assert WordSet.from_words([110]) == WordSet(3, [110]) == WordSet(3, ["110"])
        assert WordSet.from_words([110, "100"]).words == ("100", "110")

    def test_json_payload_missing_a_key(self):
        full = {"n": 3, "words": ["110"], "provenance": "user"}
        assert WordSet.from_json_dict(full) == WordSet(3, ["110"])
        for key in full:
            payload = {k: v for k, v in full.items() if k != key}
            with pytest.raises(ValueError, match=f"^payload has no '{key}'$"):
                WordSet.from_json_dict(payload)

    @pytest.mark.parametrize("key", ["n", "cardinality"])
    @pytest.mark.parametrize("value", [3.9, 1.5, 3.0, 1.0, "3", True, None])
    def test_json_counts_must_be_integers(self, key, value):
        payload = {"n": 3, "words": ["110"], "provenance": "user", "cardinality": 1, key: value}
        message = f"^payload '{key}' must be an integer, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            WordSet.from_json_dict(payload)

    def test_json_counts_are_checked_as_given(self):
        payload = {"n": 3, "words": ["110"], "provenance": "user", "cardinality": 1}
        assert WordSet.from_json_dict(payload) == WordSet(3, ["110"])
        with pytest.raises(ValueError, match="^payload declares 2 words but carries 1$"):
            WordSet.from_json_dict({**payload, "cardinality": 2})

    def test_generator_as_words(self):
        word_set = WordSet(n=3, words=(w for w in ["110", "100", "110"]))
        assert word_set.words == ("100", "110")
        assert WordSet(n=3, words=iter(["110"])).words == ("110",)

    def test_stores_exact_str(self):
        word_set = WordSet(n=3, words=[Text("110"), "100"])
        assert word_set.words == ("100", "110")
        assert all(type(w) is str for w in word_set.words)

    def test_contains(self):
        word_set = WordSet(n=4, words=["1100", "1010", "1000"])
        assert "1010" in word_set and Text("1100") in word_set
        # Sorting before every word, between two, and after every word.
        for outside in ("0000", "1001", "1111", "10", "10100"):
            assert outside not in word_set
        for other in (1010, b"1010", ["1010"], None):
            assert other not in word_set
        assert "1010" not in WordSet(n=4)


class TestFactorIndex:
    def test_built_once_for_the_whole_certificate(self, monkeypatch):
        calls = []

        def counted(values, n):
            calls.append(n)
            return _factor_sets(values, n)

        monkeypatch.setattr("crossbifix.sets._factor_sets", counted)
        built = cbfs(13)
        assert check_set(built).set_ok
        assert is_non_expandable(built, 13) == (True, None)
        outsiders = [w for w in enumerate_bifix_free(13) if w not in built.words][:3]
        for gamma in outsiders:
            expansion_blocker(gamma, built)
        assert calls == [13]
        # Certifying needs no hash set of the words as text.
        assert not hasattr(WordSet, "members")

    def test_matches_its_definition(self):
        dirty = WordSet(n=4, words=["1100", "1010", "1000", "0110"])
        empty, single = WordSet(n=5), WordSet(n=1, words=["0"])
        for word_set in (cbfs(3), cbfs(7), cbfs(13), dirty, single, empty):
            n = word_set.n
            values, prefixes, suffixes = word_set._index
            assert values == [int(w, 2) for w in word_set.words]
            assert (prefixes, suffixes) == _factor_sets(values, n)
            assert prefixes[n] is suffixes[n]
            assert word_set._index is word_set._index

    def test_value_semantics_unchanged(self):
        plain, indexed = cbfs(13), cbfs(13)
        check_set(indexed)
        assert "_index" in vars(indexed)
        assert indexed == plain
        assert hash(indexed) == hash(plain)
        assert repr(indexed) == repr(plain)
        assert indexed.to_json_dict() == plain.to_json_dict()

    def test_refused_probe_leaves_it_unbuilt(self):
        built = cbfs(13)
        with pytest.raises(ValueError, match="set holds length 13, universe asks 12"):
            is_non_expandable(built, 12)
        with pytest.raises(CapExceededError):
            is_non_expandable(built, 13, cap=12)
        assert "_index" not in vars(built)


def test_every_producer_yields_exact_str():
    produced = []
    for n in (8, 9, 10):
        produced += cbfs(n).words
    produced += enumerate_bifix_free(8).words
    produced += max_set_search(6)[0].words
    produced += read_word_set(io.StringIO("110\n100\n")).words
    produced += WordSet.from_json_dict(json.loads(render(cbfs(7), "json"))).words
    verdict, expander = is_non_expandable(WordSet(n=5, words=["11010"]), 5)
    assert not verdict
    produced.append(expander)
    dirty = WordSet(n=4, words=["1100", "1010", "1000"])
    witnesses = list(check_set(dirty).violations) + list(check_set(dirty, "naive").violations)
    witnesses.append(expansion_blocker(Text("1000"), cbfs(4)))
    assert len(witnesses) > 3
    for witness in witnesses:
        produced += [witness.word_a, witness.word_b, witness.factor.bits]
    assert len(produced) > 100
    assert all(type(w) is str for w in produced), {type(w) for w in produced}
