"""The package's public surface: what `from crossbifix import *` exports."""

from __future__ import annotations

import importlib
import inspect

import pytest

import crossbifix

MODULES_WITH_ALL = ("combinatorics", "construction", "errors", "report", "sets", "verification", "words")
MODULES = MODULES_WITH_ALL + ("cli",)
# These import no plain values (ints, tuples), which defined_names could
# not tell from their own, so it finds exactly the names they define.
FULLY_LISTED = ("errors", "sets")

# The lattice-path object layer, the report helpers that duplicated
# WordSet.from_json_dict and the CLI's writer, the str subclass that
# re-checked every word, the per-shape set builders that cbfs now
# replaces, and an unused counting-table wrapper; Dyck paths are words
# now, and words are str.  Then the names only the tests used: the
# excluded words, which cbfs skips by rule, and the 1...0 filter over
# the bifix-free words with its height error; the tests spell both out.
# Last, the exception classes that only relabelled a bad argument, which
# is a plain ValueError now.
REMOVED = (
    "BinaryWord",
    "CountTableEntry",
    "CrossBifixError",
    "DyckPath",
    "ImpossibleHeightError",
    "LatticePath",
    "LengthMismatchError",
    "MixedLengthsError",
    "OddLengthError",
    "Step",
    "UnsupportedLengthError",
    "WordParseError",
    "cbfs_even_m_even",
    "cbfs_even_m_odd",
    "cbfs_odd",
    "count_table",
    "enumerate_rise_fall",
    "exclusion_set",
    "export",
    "path_to_word",
    "word_set_from_json",
    "word_to_path",
)


def defined_names(module) -> set[str]:
    """Public names a module defines itself, leaving out what it imports."""
    return {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and not inspect.ismodule(obj)
        and getattr(obj, "__module__", module.__name__) == module.__name__
    }


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from crossbifix import *", namespace)
    assert set(crossbifix.__all__) <= set(namespace)


def test_all_has_no_duplicates():
    assert len(crossbifix.__all__) == len(set(crossbifix.__all__))


def test_all_is_the_union_of_the_submodules():
    expected = set()
    for name in MODULES_WITH_ALL:
        expected |= set(importlib.import_module(f"crossbifix.{name}").__all__)
    assert set(crossbifix.__all__) == expected


@pytest.mark.parametrize("name", FULLY_LISTED)
def test_submodule_all_lists_its_public_names(name):
    # The package re-exports each submodule's __all__, so a public name
    # left out of it would be missing from the package.
    module = importlib.import_module(f"crossbifix.{name}")
    assert set(module.__all__) == defined_names(module)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    assert name not in crossbifix.__all__
    with pytest.raises(ImportError):
        exec(f"from crossbifix import {name}", {})
    for module in MODULES:
        assert not hasattr(importlib.import_module(f"crossbifix.{module}"), name), module


def test_one_dyck_generator():
    assert not hasattr(crossbifix.combinatorics, "_dyck_words")


def test_errors_are_the_two_a_caller_acts_on():
    assert crossbifix.errors.__all__ == ["CapExceededError", "NoBlockerError"]
    for name in crossbifix.errors.__all__:
        assert issubclass(getattr(crossbifix.errors, name), ValueError), name
