"""Baseline counts, comparison tables, rendering, and round-trips."""

from __future__ import annotations

import io
import json

import pytest

from crossbifix import (
    CardinalityRow,
    WordSet,
    cbfs,
    check_set,
    compare_table,
    kernel_cardinality,
    read_word_set,
    render,
)
from crossbifix.cli import COMPARE_CAP

KERNEL = {3: 1, 4: 1, 5: 2, 6: 3, 7: 5, 8: 8, 9: 13, 10: 21, 11: 34, 12: 55, 13: 89, 14: 144, 15: 233}


class TestKernel:
    def test_values(self):
        for n, expected in KERNEL.items():
            assert kernel_cardinality(n) == expected

    def test_recurrence(self):
        for n in range(5, 40):
            assert kernel_cardinality(n) == kernel_cardinality(n - 1) + kernel_cardinality(n - 2)

    def test_starts_at_three(self):
        with pytest.raises(ValueError, match="the baseline starts at length 3, got 2"):
            kernel_cardinality(2)


class TestCompareTable:
    def test_full_range(self):
        rows = compare_table(3, 15)
        assert type(rows) is tuple
        assert all(type(row) is CardinalityRow for row in rows)
        assert [row.n for row in rows] == list(range(3, 16))
        assert [row.bf for row in rows] == [4, 6, 12, 20, 40, 74, 148, 284, 568, 1116, 2232, 4424, 8848]
        assert [row.cbfs for row in rows] == [1, 1, 2, 3, 5, 8, 14, 23, 42, 72, 132, 227, 429]
        assert [row.kernel for row in rows] == [KERNEL[n] for n in range(3, 16)]

    def test_improvement_starts_at_nine(self):
        assert [row.n for row in compare_table(3, 15) if row.improved] == list(range(9, 16))

    def test_single_row(self):
        (row,) = compare_table(9, 9)
        assert row.cbfs == 14
        assert row.kernel == 13
        assert row.improved

    def test_closed_forms_have_no_cap(self):
        assert compare_table(3, 30)[-1].n == 30

    def test_range_validation(self):
        with pytest.raises(ValueError):
            compare_table(8, 5)
        with pytest.raises(ValueError):
            compare_table(2, 5)


class TestRowAndTable:
    def test_row_bounds(self):
        # The rows validate nothing, so the table's closed forms must keep this.
        for row in compare_table(3, COMPARE_CAP):
            assert 0 <= row.cbfs <= row.bf
            assert row.improved == (row.cbfs > row.kernel)


class TestRender:
    def test_word_set_text(self):
        assert render(cbfs(5), "text") == "11010\n11100\n"

    def test_word_set_csv(self):
        assert render(cbfs(5), "csv") == "word\n11010\n11100\n"

    def test_word_set_json_round_trip(self):
        for n in (3, 6, 9):
            original = cbfs(n)
            rebuilt = WordSet.from_json_dict(json.loads(render(original, "json")))
            assert rebuilt == original

    def test_table_csv_header(self):
        lines = render(compare_table(3, 6), "csv").splitlines()
        assert lines[0] == "n,bf,cbfs,kernel"
        assert lines[1] == "3,4,1,1"
        assert len(lines) == 5

    def test_table_text_marks_improvements(self):
        text = render(compare_table(8, 9), "text")
        lines = text.splitlines()
        assert lines[1].endswith("8") and not lines[1].endswith("*")
        assert lines[2].endswith("*")
        assert lines[-1] == "(* construction exceeds the baseline)"

    def test_footer_only_when_marked(self):
        text = render(compare_table(3, 8), "text")
        assert "*" not in text

    def test_table_json(self):
        payload = json.loads(render(compare_table(9, 10), "json"))
        assert (payload["n_min"], payload["n_max"], len(payload["rows"])) == (9, 10, 2)
        assert payload["rows"][0] == {"n": 9, "bf": 148, "cbfs": 14, "kernel": 13, "improved": True}

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render(cbfs(5), "xml")
        with pytest.raises(ValueError):
            render(compare_table(3, 4), "xml")
        with pytest.raises(TypeError):
            render(["110"], "text")

    def test_only_a_word_set_or_a_row_tuple(self):
        rows = compare_table(3, 4)
        for item in ((), list(rows), check_set(cbfs(5)), ("110",)):
            with pytest.raises(TypeError, match="^cannot render "):
                render(item, "text")


class TestWordInput:
    def test_parse_skips_blanks(self):
        word_set = read_word_set(io.StringIO("110\n\n101\n"))
        assert word_set.words == ("101", "110")

    def test_parse_reports_line_number(self):
        with pytest.raises(ValueError, match="^line 2: binary word may contain only"):
            read_word_set(io.StringIO("110\n1x0"))

    def test_parse_names_a_bad_line_after_many_good_ones(self):
        text = "110\n" * 70_000 + "\n1 0\n2\n"
        with pytest.raises(ValueError, match="^line 70002: binary word may contain only .*'1 0'$"):
            read_word_set(io.StringIO(text))
        assert read_word_set(io.StringIO(text[: -len("1 0\n2\n")])).words == ("110",)

    def test_mixed_lengths_name_no_line(self):
        # No word is bad, so WordSet's own message stands, as on the command line.
        with pytest.raises(ValueError, match=r"^one set holds words of lengths \[3, 4\]$"):
            read_word_set(io.StringIO("110\n1100\n"))

    def test_read_from_path(self, tmp_path):
        source = tmp_path / "words.txt"
        source.write_text("11010\n11100\n")
        word_set = read_word_set(source)
        assert word_set.words == cbfs(5).words
        assert word_set.provenance == "user"

    def test_read_from_stream(self):
        word_set = read_word_set(io.StringIO("110\n"))
        assert word_set.words == ("110",)
        assert "110" in word_set

    def test_decode_error_names_its_byte_in_the_file(self, tmp_path):
        # The text is decoded in one read, so the position counts from the
        # file's start, not from the 8 KiB chunk that iteration would decode.
        source = tmp_path / "words.txt"
        source.write_bytes(b"110\n" * 2250 + b"\xff\n")
        with pytest.raises(UnicodeDecodeError, match=r"\bposition 9000\b"):
            read_word_set(source)
        with open(source) as handle, pytest.raises(UnicodeDecodeError, match=r"\bposition 9000\b"):
            read_word_set(handle)

    def test_rebuild_rejects_wrong_cardinality(self):
        payload = json.loads(render(cbfs(5), "json"))
        payload["cardinality"] = 3
        with pytest.raises(ValueError):
            WordSet.from_json_dict(payload)


def test_provenance_is_part_of_identity():
    a = WordSet.from_words(["110"])
    b = cbfs(3)
    assert a.words == b.words
    assert a != b
