"""Baseline cardinalities, comparison tables, and set/table serialization.

The baseline is the classic kernel-style recurrence whose sizes follow
the Fibonacci numbers; the comparison table puts it next to the
lattice-path construction and the total bifix-free count per length.
CardinalityRow and CardinalityTable are frozen records (words._Record).
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
    "CardinalityTable",
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


class CardinalityTable(_Record):
    """Contiguous run of CardinalityRow, ascending in n."""

    rows: tuple[CardinalityRow, ...]

    def __init__(self, rows: tuple[CardinalityRow, ...]) -> None:
        ns = [row.n for row in rows]
        if not ns:
            raise ValueError("a table needs at least one row")
        if ns != list(range(ns[0], ns[0] + len(ns))):
            raise ValueError("rows must be contiguous and ascending in n")
        vars(self).update(rows=rows)

    @property
    def n_min(self) -> int:
        return self.rows[0].n

    @property
    def n_max(self) -> int:
        return self.rows[-1].n

    def to_json_dict(self) -> dict:
        # A row's __dict__ holds its four fields, in order.
        rows = [{**vars(row), "improved": row.improved} for row in self.rows]
        return {"n_min": self.n_min, "n_max": self.n_max, "rows": rows}


def compare_table(n_min: int, n_max: int) -> CardinalityTable:
    """Counts per length from n_min to n_max, all three columns closed-form.

    Nothing is enumerated, so n_max has no cap here; the CLI holds it
    to its own compare cap for time.
    """
    if not 3 <= n_min <= n_max:
        raise ValueError("need 3 <= n_min <= n_max")
    rows = []
    for n in range(n_min, n_max + 1):
        bf = bifix_free_count(2, n)
        built = cbfs_cardinality(n)
        rows.append(CardinalityRow(n=n, bf=bf, cbfs=built, kernel=kernel_cardinality(n)))
    return CardinalityTable(tuple(rows))


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


def _render_table(table: CardinalityTable, fmt: str) -> str:
    if fmt == "text":
        widths = [
            max(len(head), max(len(str(getattr(row, head))) for row in table.rows))
            for head in ("n", "bf", "cbfs", "kernel")
        ]
        lines = ["  ".join(h.rjust(w) for h, w in zip(("n", "bf", "cbfs", "kernel"), widths))]
        for row in table.rows:
            cells = [str(v).rjust(w) for v, w in zip((row.n, row.bf, row.cbfs, row.kernel), widths)]
            lines.append("  ".join(cells) + ("  *" if row.improved else ""))
        if any(row.improved for row in table.rows):
            lines.append("(* construction exceeds the baseline)")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return _json_line(table.to_json_dict())
    if fmt == "csv":
        body = "".join(f"{r.n},{r.bf},{r.cbfs},{r.kernel}\n" for r in table.rows)
        return "n,bf,cbfs,kernel\n" + body
    raise ValueError(f"unknown format {fmt!r}")


def render(item: WordSet | CardinalityTable, fmt: str = "text") -> str:
    """Serialize a WordSet or CardinalityTable to text, json, or csv."""
    if isinstance(item, WordSet):
        return _render_word_set(item, fmt)
    if isinstance(item, CardinalityTable):
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
