"""Baseline cardinalities, comparison tables, and set/table serialization.

The baseline is the classic kernel-style recurrence whose sizes follow
the Fibonacci numbers; the comparison table puts it next to the
lattice-path construction and the total bifix-free count per length.
The table is a tuple of CardinalityRow, one NamedTuple per length.
JSON output goes through _json_line, which imports json on first use:
only --format json needs it.
"""

from __future__ import annotations

from os import PathLike
from typing import IO, NamedTuple

from .combinatorics import bifix_free_count
from .construction import cbfs_cardinality
from .sets import WordSet

__all__ = [
    "CardinalityRow",
    "compare_table",
    "kernel_cardinality",
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


class CardinalityRow(NamedTuple):
    """Counts at one word length: all bifix-free words, the constructed set, the baseline."""

    n: int
    bf: int
    cbfs: int
    kernel: int

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
        return "\n".join([*word_set.words, ""])
    if fmt == "json":
        return _json_line(word_set.to_json_dict())
    if fmt == "csv":
        return "\n".join(["word", *word_set.words, ""])
    raise ValueError(f"unknown format {fmt!r}")


def _render_table(rows: tuple[CardinalityRow, ...], fmt: str) -> str:
    heads = CardinalityRow._fields
    if fmt == "text":
        cells = [[str(v) for v in row] for row in rows]
        widths = [max(map(len, column)) for column in zip(heads, *cells)]
        line = "  ".join(f"{{:>{w}}}" for w in widths)
        lines = [line.format(*heads)]
        lines += [line.format(*c) + ("  *" if r.improved else "") for r, c in zip(rows, cells)]
        if any(row.improved for row in rows):
            lines.append("(* construction exceeds the baseline)")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        cells = [{**row._asdict(), "improved": row.improved} for row in rows]
        return _json_line({"n_min": rows[0].n, "n_max": rows[-1].n, "rows": cells})
    if fmt == "csv":
        line = ",".join(["%s"] * len(heads)) + "\n"
        return line % heads + "".join([line % row for row in rows])
    raise ValueError(f"unknown format {fmt!r}")


def render(item: WordSet | tuple[CardinalityRow, ...], fmt: str = "text") -> str:
    """Serialize a WordSet, or a non-empty tuple of CardinalityRow, to text, json, or csv."""
    if isinstance(item, WordSet):
        return _render_word_set(item, fmt)
    if type(item) is tuple and item and all(isinstance(row, CardinalityRow) for row in item):
        return _render_table(item, fmt)
    raise TypeError(f"cannot render {type(item).__name__}")


def _read_lines(source: str | PathLike | IO[str]) -> list[str]:
    """The lines of a path or open stream with their line ends stripped, checked for nothing.

    These are the stream's own lines: a path opens with universal
    newlines, so LF, CR LF and a lone CR end a line, and form feed or
    the other separators str.splitlines knows do not.
    """
    if not hasattr(source, "read"):
        with open(source) as handle:
            return _read_lines(handle)
    return [raw.rstrip("\r\n") for raw in source]


def _word_set(lines: list[str]) -> WordSet:
    """A "user" set of the non-blank lines; WordSet's error for a bad word names its line.

    WordSet checks the words, and raises for the first that is not pure
    0/1, so the lines are walked only then, to find that word's line.
    """
    try:
        return WordSet.from_words(filter(None, lines))
    except ValueError as exc:
        for lineno, line in enumerate(lines, start=1):
            if line.strip("01"):
                raise ValueError(f"line {lineno}: {exc}") from exc
        raise


def read_word_set(source: str | PathLike | IO[str]) -> WordSet:
    """Load a word set from a path or open stream, one word per line, provenance "user"."""
    return _word_set(_read_lines(source))
