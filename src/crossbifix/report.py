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
from typing import IO, Iterable, NamedTuple

from .combinatorics import bifix_free_count
from .construction import cbfs_cardinality
from .sets import _BINARY_TEXT, WordSet
from .words import check_word

__all__ = [
    "CardinalityRow",
    "compare_table",
    "kernel_cardinality",
    "parse_word_lines",
    "read_word_set",
    "render",
]


# Lines per joined scan in parse_word_lines: 1.4 MB of text at n = 22.
_SCAN_BLOCK = 1 << 16


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


def parse_word_lines(lines: Iterable[str]) -> list[str]:
    """Words from newline-separated text.

    Blank lines are skipped; anything else that is not pure 0/1 is a
    ValueError naming the offending line.  The lines are scanned joined,
    a block at a time so that no second copy of the input is held, and
    walked one by one only to name a bad one.
    """
    stripped = [raw.rstrip("\r\n") for raw in lines]
    starts = range(0, len(stripped), _SCAN_BLOCK)
    if not all(_BINARY_TEXT.fullmatch("".join(stripped[i : i + _SCAN_BLOCK])) for i in starts):
        for lineno, line in enumerate(stripped, start=1):
            if line:
                try:
                    check_word(line)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from exc
    return [line for line in stripped if line] if "" in stripped else stripped


def _read_words(source: str | PathLike | IO[str]) -> list[str]:
    """parse_word_lines over the lines of a path or open stream.

    These are the stream's own lines: a path opens with universal
    newlines, so LF, CR LF and a lone CR end a line, and form feed or
    the other separators str.splitlines knows do not.
    """
    if hasattr(source, "read"):
        return parse_word_lines(source)
    with open(source) as handle:
        return parse_word_lines(handle)


def read_word_set(source: str | PathLike | IO[str]) -> WordSet:
    """Load a word set from a path or open stream, one word per line, provenance "user"."""
    return WordSet.from_words(_read_words(source))
