"""Value semantics of the five records: repr, equality, hash, immutability, construction."""

from __future__ import annotations

import copy
import pickle

import pytest

from crossbifix import (
    CardinalityRow,
    ConflictWitness,
    Factor,
    VerificationReport,
    WordSet,
    cbfs,
    check_set,
    compare_table,
)

WITNESS = "ConflictWitness(word_a='100', word_b='110', factor=Factor(bits='10'))"
ROW_3 = "CardinalityRow(n=3, bf=4, cbfs=1, kernel=1)"
ROW_4 = "CardinalityRow(n=4, bf=6, cbfs=1, kernel=1)"

# Each record built positionally and by keyword, one that differs in a
# field, and the exact repr text.
RECORDS = [
    pytest.param(
        lambda: Factor("10"),
        lambda: Factor(bits="10"),
        lambda: Factor("100"),
        "Factor(bits='10')",
        id="Factor",
    ),
    pytest.param(
        lambda: WordSet(3, ["110"], "cbfs_odd"),
        lambda: WordSet(n=3, words=("110",), provenance="cbfs_odd"),
        lambda: WordSet(3, ["110"]),
        "WordSet(n=3, words=('110',), provenance='cbfs_odd')",
        id="WordSet",
    ),
    pytest.param(
        lambda: ConflictWitness("100", "110", Factor("10")),
        lambda: ConflictWitness(word_a="100", word_b="110", factor=Factor("10")),
        lambda: ConflictWitness("110", "100", Factor("10")),
        WITNESS,
        id="ConflictWitness",
    ),
    pytest.param(
        lambda: VerificationReport("trie", 4, (ConflictWitness("100", "110", Factor("10")),)),
        lambda: VerificationReport(
            method="trie",
            checked_pairs=4,
            violations=(ConflictWitness("100", "110", Factor("10")),),
        ),
        lambda: VerificationReport("naive", 4, ()),
        f"VerificationReport(method='trie', checked_pairs=4, violations=({WITNESS},))",
        id="VerificationReport",
    ),
    pytest.param(
        lambda: CardinalityRow(3, 4, 1, 1),
        lambda: CardinalityRow(n=3, bf=4, cbfs=1, kernel=1),
        lambda: CardinalityRow(3, 4, 1, 2),
        ROW_3,
        id="CardinalityRow",
    ),
]


@pytest.mark.parametrize("positional, keyword, other, text", RECORDS)
def test_repr(positional, keyword, other, text):
    assert repr(positional()) == repr(keyword()) == text


@pytest.mark.parametrize("positional, keyword, other, text", RECORDS)
def test_equality_and_hash(positional, keyword, other, text):
    a, b = positional(), keyword()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    # The hash of the field values, in order, as a frozen dataclass gave.
    assert hash(a) == hash(tuple(getattr(a, name) for name in type(a)._fields))
    assert a != other()
    assert a != object()


@pytest.mark.parametrize("positional, keyword, other, text", RECORDS)
def test_fields_are_frozen(positional, keyword, other, text):
    record = positional()
    for name in type(record)._fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == before
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("positional, keyword, other, text", RECORDS)
def test_copy_and_pickle(positional, keyword, other, text):
    record = positional()
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert clone == record and type(clone) is type(record)


def test_field_names():
    assert Factor._fields == ("bits",)
    assert WordSet._fields == ("n", "words", "provenance")
    assert ConflictWitness._fields == ("word_a", "word_b", "factor")
    assert VerificationReport._fields == ("method", "checked_pairs", "violations")
    assert CardinalityRow._fields == ("n", "bf", "cbfs", "kernel")


def test_validated_records_differ_from_tuples():
    assert Factor("10") != ("10",)
    assert WordSet(3, ["110"], "cbfs_odd") != (3, ("110",), "cbfs_odd")
    assert CardinalityRow(3, 4, 1, 1) != (3, 4, 1, 1)


def test_witness_and_report_are_tuples():
    witness = ConflictWitness("100", "110", Factor("10"))
    word_a, word_b, factor = witness
    assert (word_a, word_b, factor.bits) == ("100", "110", "10")
    assert witness == ("100", "110", Factor("10"))
    report = check_set(WordSet(n=3, words=["100", "110"]))
    assert report == ("trie", 4, (witness,))
    assert not report.set_ok


def test_produced_reprs():
    assert repr(cbfs(3)) == "WordSet(n=3, words=('110',), provenance='cbfs_odd')"
    assert repr(check_set(cbfs(6))) == "VerificationReport(method='trie', checked_pairs=15, violations=())"
    report = check_set(WordSet(n=3, words=["100", "110"]))
    assert repr(report) == f"VerificationReport(method='trie', checked_pairs=4, violations=({WITNESS},))"
    assert repr(compare_table(3, 4)) == f"({ROW_3}, {ROW_4})"
