"""Baseline cardinalities, comparison tables, and set/table serialization.

The baseline is the classic kernel-style recurrence whose sizes follow
the Fibonacci numbers; the comparison table puts it next to the
lattice-path construction and the total bifix-free count per length.
The table is a tuple of CardinalityRow, frozen records (words._Record).
JSON output goes through _json_line, which imports json on first use:
only --format json needs it.
"""

from __future__ import annotations

from os import PathLike
from typing import IO, Iterable

from .combinatorics import bifix_free_count
from .construction import cbfs_cardinality
from .sets import WordSet
from .words import _Record, check_word

__all__ = [
    "CardinalityRow",
    "compare_table",
    "kernel_cardinality",
    "parse_word_lines",
    "read_word_set",
    "render",
]


def kernel_cardinality(n: int) -> int:
    """Size of the kernel-style baseline set of word length n.

    Fibonacci recurrence anchored at 1, 1 for lengths 3 and 4; defined
    for n >= 3 only.
    """
    if n < 3:
        raise ValueError(f"the baseline starts at length 3, got {n}")
    prev, cur = 1, 1
    for _ in range(5, n + 1):
        prev, cur = cur, prev + cur
    return cur


class CardinalityRow(_Record):
    """Counts at one word length: all bifix-free words, the constructed set, the baseline."""

    n: int
    bf: int
    cbfs: int
    kernel: int

    def __init__(self, n: int, bf: int, cbfs: int, kernel: int) -> None:
        if not 0 <= cbfs <= bf:
            raise ValueError("the constructed count cannot exceed the bifix-free count")
        vars(self).update(n=n, bf=bf, cbfs=cbfs, kernel=kernel)

    @property
    def improved(self) -> bool:
        """Whether the lattice-path construction beats the baseline here."""
        return self.cbfs > self.kernel


def compare_table(n_min: int, n_max: int) -> tuple[CardinalityRow, ...]:
    """Counts per length from n_min to n_max, one row each, all three columns closed-form.

    Nothing is enumerated, so n_max has no cap here; the CLI holds it
    to its own compare cap for time.
    """
    if not 3 <= n_min <= n_max:
        raise ValueError("need 3 <= n_min <= n_max")
    return tuple(
        CardinalityRow(n, bifix_free_count(2, n), cbfs_cardinality(n), kernel_cardinality(n))
        for n in range(n_min, n_max + 1)
    )


def _json_line(payload: dict) -> str:
    """payload as one line of JSON, importing json on the first call."""
    import json

    return json.dumps(payload) + "\n"


def _render_word_set(word_set: WordSet, fmt: str) -> str:
    if fmt == "text":
        return "".join(f"{w}\n" for w in word_set)
    if fmt == "json":
        return _json_line(word_set.to_json_dict())
    if fmt == "csv":
        return "word\n" + "".join(f"{w}\n" for w in word_set)
    raise ValueError(f"unknown format {fmt!r}")


def _render_table(rows: tuple[CardinalityRow, ...], fmt: str) -> str:
    # A row's __dict__ holds its fields, in the order of _fields.
    heads = CardinalityRow._fields
    if fmt == "text":
        cells = [[str(v) for v in vars(row).values()] for row in rows]
        widths = [max(map(len, column)) for column in zip(heads, *cells)]
        line = "  ".join(f"{{:>{w}}}" for w in widths)
        lines = [line.format(*heads)]
        for row, values in zip(rows, cells):
            lines.append(line.format(*values) + ("  *" if row.improved else ""))
        if any(row.improved for row in rows):
            lines.append("(* construction exceeds the baseline)")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        cells = [{**vars(row), "improved": row.improved} for row in rows]
        return _json_line({"n_min": rows[0].n, "n_max": rows[-1].n, "rows": cells})
    if fmt == "csv":
        line = ",".join(["%s"] * len(heads)) + "\n"
        return line % heads + "".join([line % tuple(vars(row).values()) for row in rows])
    raise ValueError(f"unknown format {fmt!r}")


def render(item: WordSet | tuple[CardinalityRow, ...], fmt: str = "text") -> str:
    """Serialize a WordSet, or a non-empty tuple of CardinalityRow, to text, json, or csv."""
    if isinstance(item, WordSet):
        return _render_word_set(item, fmt)
    if type(item) is tuple and item and all(isinstance(row, CardinalityRow) for row in item):
        return _render_table(item, fmt)
    raise TypeError(f"cannot render {type(item).__name__}")


def parse_word_lines(lines: Iterable[str]) -> list[str]:
    """Words from newline-separated text.

    Blank lines are skipped; anything else that is not pure 0/1 is a
    ValueError naming the offending line.
    """
    out = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        try:
            out.append(check_word(line))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return out


def read_word_set(source: str | PathLike | IO[str]) -> WordSet:
    """Load a word set from a path or open stream, one word per line, provenance "user"."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source) as handle:
            text = handle.read()
    words = parse_word_lines(text.splitlines())
    return WordSet.from_words(words)
