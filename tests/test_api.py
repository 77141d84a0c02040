"""The package's public surface: what `from crossbifix import *` exports."""

from __future__ import annotations

import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import crossbifix

MODULES_WITH_ALL = (
    "combinatorics",
    "construction",
    "errors",
    "report",
    "search",
    "sets",
    "verification",
    "words",
)
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
# Then the exception classes that only relabelled a bad argument, which
# is a plain ValueError now.  Then the comparison-table wrapper:
# compare_table returns its tuple of rows.  Last, the line parser that
# checked the words a second time before WordSet did: read_word_set
# reads the lines, and WordSet checks them once.
REMOVED = (
    "BinaryWord",
    "CardinalityTable",
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
    "parse_word_lines",
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


def test_readme_python_blocks_run():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_one_dyck_generator():
    assert not hasattr(crossbifix.combinatorics, "_dyck_words")


def test_one_catalan_routine():
    assert not hasattr(crossbifix.construction, "_catalans")


def test_errors_are_the_two_a_caller_acts_on():
    assert crossbifix.errors.__all__ == ["CapExceededError", "NoBlockerError"]
    for name in crossbifix.errors.__all__:
        assert issubclass(getattr(crossbifix.errors, name), ValueError), name


# Modules the command line does without: dataclasses and pathlib would
# cost every call their import (dataclasses most of the start-up, with
# inspect behind it), and json is loaded by the JSON output alone.
NOT_ON_IMPORT = ("dataclasses", "inspect", "json", "pathlib")


def test_cli_import_leaves_out_heavy_modules():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "import crossbifix, crossbifix.cli\n"
        f"print(sorted(set({NOT_ON_IMPORT!r}) & set(sys.modules)))\n"
        "sys.stdout.write(crossbifix.render(crossbifix.cbfs(7), 'json'))\n"
    )
    # -S keeps site and its .pth preloads out of sys.modules.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "[]\n"
        '{"n": 7, "provenance": "cbfs_odd", "cardinality": 5, '
        '"words": ["1101010", "1101100", "1110010", "1110100", "1111000"]}\n'
    )
