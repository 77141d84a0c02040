"""End-to-end runs of the command-line verbs via main()."""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from crossbifix import (
    WordSet,
    bifix_free_count,
    cbfs,
    cbfs_cardinality,
    check_set,
    enumerate_bifix_free,
    expansion_blocker,
    sets,
    verification,
)
from crossbifix import cli
from crossbifix.cli import (
    COMPARE_CAP,
    COUNT_CAP,
    INDEX_CAP,
    INPUT_CAP,
    NAIVE_CAP,
    VIOLATION_CAP,
    main,
)
from crossbifix.errors import NoBlockerError
from crossbifix.sets import _index_bytes


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_text(self, capsys):
        code, out, err = run(capsys, "construct", "--n", "5")
        assert code == 0
        assert out == "11010\n11100\n"
        assert err == ""

    def test_json(self, capsys):
        code, out, _ = run(capsys, "construct", "--n", "6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 6
        assert payload["cardinality"] == 3
        assert payload["words"] == ["101100", "110100", "111000"]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "set.txt"
        code, out, _ = run(capsys, "construct", "--n", "4", "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == "1100\n"

    def test_output_bad_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "set.txt"
        code, out, err = run(capsys, "construct", "--n", "4", "--output", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_too_short(self, capsys):
        code, _, err = run(capsys, "construct", "--n", "2")
        assert code == 2
        assert err.startswith("error:")

    def test_cap(self, capsys):
        started = time.perf_counter()
        code, out, err = run(capsys, "construct", "--n", "41")
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "cap" in err

    def test_raised_cap(self, capsys):
        code, _, _ = run(capsys, "construct", "--n", "5", "--cap", "4")
        assert code == 2
        assert run(capsys, "construct", "--n", "5", "--cap", "5")[0] == 0

    def test_deterministic(self, capsys):
        first = run(capsys, "construct", "--n", "11")
        second = run(capsys, "construct", "--n", "11")
        assert first == second


class TestCount:
    def test_constructed(self, capsys):
        assert run(capsys, "count", "--n", "9") == (0, "14\n", "")

    def test_bifix_free(self, capsys):
        assert run(capsys, "count", "--n", "9", "--bf") == (0, "148\n", "")

    def test_ternary(self, capsys):
        assert run(capsys, "count", "--n", "3", "--bf", "--q", "3") == (0, "18\n", "")

    def test_q_requires_bf(self, capsys):
        code, _, err = run(capsys, "count", "--n", "3", "--q", "3")
        assert code == 2
        assert "--bf" in err

    def test_cap(self, capsys):
        for argv in (["--n", str(COUNT_CAP + 1)], ["--n", "2000000"], ["--n", "200000", "--bf"]):
            started = time.perf_counter()
            code, out, err = run(capsys, "count", *argv)
            assert time.perf_counter() - started < 0.2
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            assert "cap" in err

    def test_cap_scales_with_alphabet(self, capsys):
        assert run(capsys, "count", "--n", str(COUNT_CAP), "--bf")[0] == 0
        # 3**3154 < 2**5000 < 3**3155
        assert run(capsys, "count", "--n", "3154", "--bf", "--q", "3")[0] == 0
        code, out, err = run(capsys, "count", "--n", "3155", "--bf", "--q", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "cap" in err


class TestEnumerate:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3")
        assert code == 0
        assert out == "001\n011\n100\n110\n"

    def test_cap(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "30")
        assert code == 2
        assert "cap" in err

    def test_raised_cap(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "1", "--cap", "1")
        assert code == 0
        assert out == "0\n1\n"


class TestVerify:
    def test_good_file(self, capsys, tmp_path):
        source = tmp_path / "good.txt"
        source.write_text("111001010\n110101000\n")
        code, out, _ = run(capsys, "verify", "--input", str(source))
        assert code == 0
        assert out == "ok\n"

    def test_bad_pair(self, capsys, tmp_path):
        source = tmp_path / "bad.txt"
        source.write_text("111001100\n110011010\n")
        code, out, _ = run(capsys, "verify", "--input", str(source))
        assert code == 1
        assert out.splitlines()[0] == "violations: 1"
        assert out.splitlines()[1] == "110011010 111001100 1100"

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("110\n"))
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert out == "ok\n"

    def test_json(self, capsys, tmp_path):
        source = tmp_path / "bad.txt"
        source.write_text("1001\n")
        code, out, _ = run(capsys, "verify", "--input", str(source), "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["violations"] == [{"a": "1001", "b": "1001", "factor": "1"}]

    def test_both_methods(self, capsys, tmp_path):
        source = tmp_path / "words.txt"
        source.write_text("11010\n11100\n")
        for method in ("naive", "trie"):
            code, out, _ = run(capsys, "verify", "--input", str(source), "--method", method)
            assert (code, out) == (0, "ok\n")

    def test_parse_error(self, capsys, tmp_path):
        source = tmp_path / "bad.txt"
        source.write_text("110\n1x0\n")
        code, _, err = run(capsys, "verify", "--input", str(source))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("text", ["110\f100", "110\x1cabc"], ids=["form-feed", "file-separator"])
    def test_only_line_ends_split_lines(self, capsys, tmp_path, text):
        # str.splitlines would read these one-line files as two lines.
        source = tmp_path / "one-line.txt"
        source.write_bytes(text.encode())
        code, out, err = run(capsys, "verify", "--input", str(source))
        assert (code, out) == (2, "")
        assert err == f"error: line 1: binary word may contain only '0' and '1', got {text!r}\n"

    @pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_end_lines(self, capsys, tmp_path, end):
        source = tmp_path / "words.txt"
        source.write_bytes(end.join([b"110", b"", b"100", b""]))
        assert run(capsys, "verify", "--input", str(source)) == (1, "violations: 1\n100 110 10\n", "")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--input", str(tmp_path / "nope.txt"))
        assert code == 2
        assert err.startswith("error:")

    def test_construct_pipes_into_verify(self, capsys, monkeypatch):
        for n in range(3, 17):
            code, out, _ = run(capsys, "construct", "--n", str(n))
            assert code == 0
            monkeypatch.setattr(sys, "stdin", io.StringIO(out))
            code, out, _ = run(capsys, "verify", "--input", "-")
            assert (code, out) == (0, "ok\n")

    def test_naive_cap(self, capsys, tmp_path):
        sizes = {}
        for n in (14, 16):
            run(capsys, "construct", "--n", str(n), "--output", str(tmp_path / f"{n}.txt"))
            sizes[n] = len((tmp_path / f"{n}.txt").read_text().split())
        assert sizes[14] ** 2 * 13 <= NAIVE_CAP < sizes[16] ** 2 * 15
        big = str(tmp_path / "16.txt")
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--input", big, "--method", "naive")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "naive cap" in err and err.count("\n") == 1
        assert run(capsys, "verify", "--input", big, "--method", "trie")[:2] == (0, "ok\n")
        small = str(tmp_path / "14.txt")
        assert run(capsys, "verify", "--input", small, "--method", "naive")[:2] == (0, "ok\n")

    @staticmethod
    def all_words(path: Path, n: int) -> str:
        path.write_text("".join(format(x, f"0{n}b") + "\n" for x in range(2**n)))
        return str(path)

    def test_violations_under_the_cap_are_listed(self, capsys, tmp_path):
        source = self.all_words(tmp_path / "all8.txt", 8)
        code, out, err = run(capsys, "verify", "--input", source)
        assert (code, err) == (1, "")
        assert 65024 <= VIOLATION_CAP
        lines = out.splitlines()
        assert lines[0] == "violations: 65024"
        assert len(lines) == 65025

    @pytest.mark.parametrize("method", ["naive", "trie"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_violation_cap(self, capsys, tmp_path, method, fmt):
        source = self.all_words(tmp_path / "all9.txt", 9)
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--input", source, "--method", method, "--format", fmt)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == f"error: 261120 violations exceed the verify cap {VIOLATION_CAP}\n"

    @staticmethod
    def rendered_report(report, fmt: str) -> tuple[int, str]:
        """verify's exit code and stdout, rendered from check_set's witnesses."""
        code = 0 if report.set_ok else 1
        if fmt == "json":
            violations = [
                {"a": v.word_a, "b": v.word_b, "factor": v.factor.bits} for v in report.violations
            ]
            payload = {
                "ok": report.set_ok,
                "method": report.method,
                "checked_pairs": report.checked_pairs,
                "violations": violations,
            }
            return code, json.dumps(payload) + "\n"
        if report.set_ok:
            return code, "ok\n"
        lines = [f"violations: {len(report.violations)}"]
        lines += [f"{v.word_a} {v.word_b} {v.factor.bits}" for v in report.violations]
        return code, "\n".join(lines) + "\n"

    @staticmethod
    def random_sets(rng: random.Random, n: int) -> list[WordSet]:
        """Clean and dirty sets of length n: greedy codes, cbfs samples and random words.

        At n = 12 one set of 100 random words costs words**2 * (n - 1)
        above VIOLATION_CAP, so verify counts its violations first.
        """
        universe = [format(x, f"0{n}b") for x in range(2**n)]
        bifix_free = list(enumerate_bifix_free(n))
        greedy: list[str] = []
        for word in rng.sample(bifix_free, min(len(bifix_free), 60)):
            if check_set(WordSet(n, greedy + [word])).set_ok:
                greedy.append(word)
        sets = [greedy, rng.sample(universe, min(len(universe), rng.randint(1, 40)))]
        if n >= 3:
            built = list(cbfs(n))
            sets.append(rng.sample(built, rng.randint(1, len(built))))
            sets.append(built + [rng.choice(universe)])
        if n == 12:
            sets.append(rng.sample(universe, 100))
        return [WordSet.from_words(words) for words in sets]

    def test_output_matches_the_witness_records(self, capsys, tmp_path):
        rng = random.Random(2311)
        outcomes = set()
        for n in range(1, 13):
            for i, word_set in enumerate(self.random_sets(rng, n)):
                source = tmp_path / f"{n}-{i}.txt"
                source.write_text("".join(w + "\n" for w in word_set))
                reports = {method: check_set(word_set, method) for method in ("naive", "trie")}
                assert reports["naive"].violations == reports["trie"].violations
                keys = [(v.word_a, v.word_b, len(v.factor)) for v in reports["naive"].violations]
                assert keys == sorted(set(keys))
                for method, report in reports.items():
                    for fmt in ("text", "json"):
                        argv = ("--input", str(source), "--method", method, "--format", fmt)
                        code, out, err = run(capsys, "verify", *argv)
                        assert (code, out) == self.rendered_report(report, fmt)
                        assert err == ""
                        outcomes.add((n, code))
        # Every length saw a clean set; every length from 2 saw a dirty one.
        assert outcomes == {(n, 0) for n in range(1, 13)} | {(n, 1) for n in range(2, 13)}

    @pytest.mark.parametrize("method", ["naive", "trie"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_builds_no_witness(self, capsys, tmp_path, monkeypatch, method, fmt):
        words = [format(x, "07b") for x in range(0, 128, 3)]
        source = tmp_path / "dirty.txt"
        source.write_text("".join(w + "\n" for w in words))
        expected = self.rendered_report(check_set(WordSet(7, words), method), fmt)
        assert expected[0] == 1

        def refuse(*args):
            raise AssertionError("verify built a witness")

        monkeypatch.setattr(verification, "ConflictWitness", refuse)
        monkeypatch.setattr(verification, "Factor", refuse)
        argv = ("--input", str(source), "--method", method, "--format", fmt)
        assert run(capsys, "verify", *argv) == (*expected, "")

    @pytest.mark.parametrize("method", ["naive", "trie"])
    @pytest.mark.parametrize("size", [40, 100])
    def test_builds_the_join_once(self, capsys, tmp_path, monkeypatch, method, size):
        rng = random.Random(size)
        word_set = WordSet(12, {format(rng.getrandbits(12), "012b") for _ in range(size)})
        source = tmp_path / "words.txt"
        source.write_text("".join(w + "\n" for w in word_set))
        expected = self.rendered_report(check_set(word_set, method), "text")
        assert expected[0] == 1
        builds = []
        build = verification._suffix_holders

        def counted(ws):
            builds.append(ws)
            return build(ws)

        monkeypatch.setattr(verification, "_suffix_holders", counted)
        monkeypatch.setattr(cli, "_suffix_holders", counted, raising=False)
        assert run(capsys, "verify", "--input", str(source), "--method", method) == (*expected, "")
        # Above the count threshold the count tallies suffix values and builds no join.
        assert (len(word_set) ** 2 * 11 > VIOLATION_CAP) == (size == 100)
        assert len(builds) == (method == "trie")
        # All 512 words of length 9 are refused by the count alone.
        source.write_text("".join(format(x, "09b") + "\n" for x in range(512)))
        refused = f"error: 261120 violations exceed the verify cap {VIOLATION_CAP}\n"
        assert run(capsys, "verify", "--input", str(source), "--method", method) == (2, "", refused)
        assert len(builds) == (method == "trie")


class TestNonExpandable:
    def test_built_set(self, capsys):
        code, out, _ = run(capsys, "nonexpandable", "--n", "7")
        assert code == 0
        assert out == "non-expandable\n"

    def test_expandable_file(self, capsys, tmp_path):
        source = tmp_path / "partial.txt"
        source.write_text("1101100\n1110010\n1110100\n1111000\n")
        code, out, _ = run(capsys, "nonexpandable", "--input", str(source))
        assert code == 1
        assert out == "expandable: 1101010\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "nonexpandable", "--n", "5", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "non_expandable": True,
            "n": 5,
            "cardinality": 2,
            "expanding_word": None,
        }

    def test_built_set_cap(self, capsys):
        code, out, err = run(capsys, "nonexpandable", "--n", "41")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_needs_a_set(self, capsys):
        code, _, err = run(capsys, "nonexpandable")
        assert code == 2
        assert "--input" in err

    def test_built_set_too_short(self, capsys):
        # --n 0 selects the built set, which does not exist below length 3
        code, out, err = run(capsys, "nonexpandable", "--n", "0")
        assert (code, out, err) == (2, "", "error: no construction below length 3, got 0\n")


class TestWitness:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "witness", "--gamma", "100", "--n", "3")
        assert code == 0
        assert out == "100 110 10\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "witness", "--gamma", "10000", "--n", "5", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"a": "10000", "b": "11100", "factor": "100"}

    def test_json_writes_the_blocker_fields(self, capsys):
        blocked = 0
        for n in range(3, 10):
            members = cbfs(n)
            for x in range(2**n):
                gamma = format(x, f"0{n}b")
                if gamma in members:
                    continue
                try:
                    w = expansion_blocker(gamma, members)
                except NoBlockerError as exc:
                    expected = (1, "", f"error: {exc}\n")
                else:
                    payload = {"a": w.word_a, "b": w.word_b, "factor": w.factor.bits}
                    expected = (0, json.dumps(payload) + "\n", "")
                    blocked += 1
                argv = ("--gamma", gamma, "--n", str(n), "--format", "json")
                assert run(capsys, "witness", *argv) == expected
        assert blocked > 900

    def test_no_blocker(self, capsys, tmp_path):
        source = tmp_path / "one.txt"
        source.write_text("11010\n")
        code, out, err = run(capsys, "witness", "--gamma", "11100", "--input", str(source))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_member_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "witness", "--gamma", "110", "--n", "3")
        assert code == 2
        assert err.startswith("error:")

    def test_built_set_too_short(self, capsys):
        code, out, err = run(capsys, "witness", "--gamma", "110", "--n", "0")
        assert (code, out, err) == (2, "", "error: no construction below length 3, got 0\n")


class TestIndexCap:
    @pytest.mark.parametrize(
        "argv",
        [["verify"], ["nonexpandable"], ["witness", "--gamma", "0" * 64000]],
        ids=lambda argv: argv[0],
    )
    def test_long_word_refused_before_its_index(self, capsys, tmp_path, monkeypatch, argv):
        source = tmp_path / "long.txt"
        source.write_text("110" * 21333 + "1\n")

        def refuse(*args):
            raise AssertionError("built the factor index")

        monkeypatch.setattr(sets, "_factor_sets", refuse)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--input", str(source))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == f"error: a factor index of 519 MB exceeds the index cap {INDEX_CAP} MB\n"

    @pytest.mark.parametrize(
        "argv",
        [["verify"], ["nonexpandable"], ["witness", "--gamma", "0" * 33001]],
        ids=lambda argv: argv[0],
    )
    def test_oversized_set_refused_before_it_is_built(self, capsys, monkeypatch, argv):
        # One 33,001-letter word alone is estimated at 140 MB; the estimate counts
        # lines, and its two copies reach 280 MB.
        monkeypatch.setattr(sys, "stdin", io.StringIO(("110" * 11000 + "1\n") * 2))

        def refuse(*args, **kwargs):
            raise AssertionError("built the WordSet")

        monkeypatch.setattr(WordSet, "__init__", refuse)
        code, out, err = run(capsys, *argv, "--input", "-")
        assert (code, out) == (2, "")
        assert err == f"error: a factor index of 280 MB exceeds the index cap {INDEX_CAP} MB\n"

    def test_cap_refuses_before_a_bad_line_is_named(self, capsys, monkeypatch):
        # The estimate reads only the line count and the first word's length,
        # so an over-cap input is refused before any word is checked.
        word = "110" * 11000 + "1"
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"{word}\n{word[:-1]}x\n"))
        code, out, err = run(capsys, "verify")
        assert (code, out) == (2, "")
        assert err == f"error: a factor index of 280 MB exceeds the index cap {INDEX_CAP} MB\n"

    def test_cap_admits_the_built_sets(self):
        # construct --n 24 | verify must pass; all bifix-free words of length 22 must not.
        assert _index_bytes(cbfs_cardinality(24), 24) // 10**6 == 123 <= INDEX_CAP
        assert _index_bytes(bifix_free_count(2, 22), 22) // 10**6 == 538 > INDEX_CAP

    def test_estimate_follows_the_levels(self):
        # Level k holds min(words, 2**k) values in each of its two sets.
        assert _index_bytes(1, 3) == 2 * 3 * 60
        assert _index_bytes(5, 3) == 2 * (2 + 4 + 5) * 60
        assert _index_bytes(1, 8) == 2 * (7 * 60 + 61)

    def test_closed_form_matches_the_level_sum(self):
        # The oracle sums every level: min(words, 2**k) values in each of two sets.
        def level_sum(count, n):
            top = count.bit_length()
            return sum(2 * min(count, 1 << min(k, top)) * (60 + k // 8) for k in range(1, n + 1))

        counts = [*range(300), 2**20 - 1, 2**20, 2**20 + 1, 281_076, 10**9, 2**64 + 3]
        for count in counts:
            for n in [*range(70), 100, 1000]:
                assert _index_bytes(count, n) == level_sum(count, n), (count, n)

    def test_one_long_line_refused_at_once(self, capsys, monkeypatch):
        # Under the input cap; the estimate takes O(log words) steps, not O(n).
        monkeypatch.setattr(sys, "stdin", io.StringIO("1" * 6_400_000 + "\n"))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: a factor index of 5120763 MB exceeds the index cap {INDEX_CAP} MB\n"


class TestInputCap:
    REFUSED = f"error: an input longer than {INPUT_CAP} characters exceeds the input cap\n"

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    @pytest.mark.parametrize(
        "argv",
        [["verify"], ["nonexpandable"], ["witness", "--gamma", "110"]],
        ids=lambda argv: argv[0],
    )
    def test_endless_file_refused(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--input", "/dev/zero")
        assert time.perf_counter() - start < 2
        assert (code, out, err) == (2, "", self.REFUSED)

    @pytest.mark.parametrize("extra, expected", [("", (0, "ok\n", "")), ("1", (2, "", REFUSED))])
    def test_refused_one_character_past_the_cap(self, capsys, monkeypatch, extra, expected):
        text = ("1\n" * INPUT_CAP)[:INPUT_CAP] + extra
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run(capsys, "verify") == expected

    def test_cap_admits_every_bifix_free_word_of_length_20(self):
        # The largest full length the index cap admits, with CR LF line ends too.
        count = bifix_free_count(2, 20)
        assert _index_bytes(count, 20) // 10**6 <= INDEX_CAP
        assert _index_bytes(bifix_free_count(2, 21), 21) // 10**6 > INDEX_CAP
        assert count * 22 <= INPUT_CAP


class TestMaxSet:
    def test_text(self, capsys):
        code, out, err = run(capsys, "maxset", "--n", "6")
        assert code == 0
        assert len(out.splitlines()) == 3
        assert err == "cardinality 3, proven optimal\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "maxset", "--n", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["optimal"] is True
        assert payload["cardinality"] == 2
        assert payload["provenance"] == "search"

    def test_cap(self, capsys):
        started = time.perf_counter()
        code, out, err = run(capsys, "maxset", "--n", "22", "--time-limit", "1")
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "cap" in err

    def test_negative_time_limit(self, capsys):
        code, out, err = run(capsys, "maxset", "--n", "10", "--time-limit", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_small_n_same_word_with_and_without_deadline(self, capsys):
        for n, word in ((3, "110"), (4, "1100")):
            for limit in ((), ("--time-limit", "0")):
                code, out, _ = run(capsys, "maxset", "--n", str(n), *limit)
                assert (code, out) == (0, word + "\n")

    def test_deadline_reported(self, capsys):
        code, out, err = run(capsys, "maxset", "--n", "11", "--time-limit", "0.1")
        assert code == 0
        assert len(out.splitlines()) >= 42
        assert err.endswith("best found before the deadline\n")


class TestCompare:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "compare", "--from", "3", "--to", "9", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,bf,cbfs,kernel"
        assert lines[-1] == "9,148,14,13"

    def test_text_marker(self, capsys):
        code, out, _ = run(capsys, "compare", "--from", "3", "--to", "12")
        assert code == 0
        assert "  *" in out

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "compare", "--from", "9", "--to", "3")
        assert code == 2
        assert err.startswith("error:")

    def test_cap(self, capsys):
        for top in (COMPARE_CAP + 1, 2000):
            started = time.perf_counter()
            code, out, err = run(capsys, "compare", "--from", "3", "--to", str(top))
            assert time.perf_counter() - started < 0.2
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            assert "cap" in err


ERROR_BYTES = [
    pytest.param(
        b"110\n1100\n",
        ["verify"],
        (2, "", "error: one set holds words of lengths [3, 4]\n"),
        id="mixed-lengths",
    ),
    pytest.param(
        b"110\n01x1\n",
        ["verify"],
        (2, "", "error: line 2: binary word may contain only '0' and '1', got '01x1'\n"),
        id="parse-error",
    ),
    pytest.param(
        b"\xff\xfe01",
        ["verify"],
        (2, "", "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"),
        id="not-utf-8",
    ),
    pytest.param(
        None,
        ["witness", "--gamma", "0101", "--n", "5"],
        (2, "", "error: candidate has length 4, set holds 5\n"),
        id="witness-length",
    ),
    *(
        pytest.param(
            None,
            [verb, "--n", "2"],
            (2, "", "error: no construction below length 3, got 2\n"),
            id=f"{verb}-too-short",
        )
        for verb in ("construct", "count", "nonexpandable")
    ),
    pytest.param(
        None,
        ["enumerate", "--n", "25"],
        (2, "", "error: n=25 exceeds the enumeration cap 24\n"),
        id="enumerate-cap",
    ),
    pytest.param(
        b"11010\n",
        ["witness", "--gamma", "11100"],
        (1, "", "error: 11100 shares no factor with any member\n"),
        id="no-blocker",
    ),
    # A file and a length name two sets; neither is picked over the other.
    *(
        pytest.param(
            b"1100\n",
            argv,
            (2, "", "error: pass --input FILE or --n N, not both\n"),
            id=f"{argv[0]}-input-and-n",
        )
        for argv in (["nonexpandable", "--n", "5"], ["witness", "--gamma", "10000", "--n", "5"])
    ),
]


@pytest.mark.parametrize("content, argv, expected", ERROR_BYTES)
def test_error_bytes(capsys, tmp_path, content, argv, expected):
    if content is not None:
        source = tmp_path / "words.txt"
        source.write_bytes(content)
        argv = [*argv, "--input", str(source)]
    assert run(capsys, *argv) == expected


VERBS = ("construct", "count", "enumerate", "verify", "nonexpandable", "witness", "maxset", "compare")

# Help, usage errors and verb names in odd places; verify reads "1100" from stdin.
ARGV_CORPUS = [
    *([verb, "-h"] for verb in VERBS),
    *([verb] for verb in VERBS),
    [],
    ["frobnicate"],
    ["coun", "--n", "5"],
    ["-h", "construct"],
    ["--", "count", "--n", "5"],
    ["count", "--n=5"],
    ["count", "--n", "five"],
    ["construct", "--n", "5", "--format", "xml"],
    ["count", "--n", "5", "--bogus"],
    ["count", "--n", "5", "count"],
    ["construct", "count"],
    ["verify", "--input", "count"],
    ["witness", "--gamma", "compare", "--n", "5"],
    ["--help"],
    ["count", "-h", "verify"],
    ["verify", "--input", "maxset", "-h"],
    ["coun", "-h"],
    ["-h", "frobnicate"],
    ["witness", "-h", "--gamma", "1"],
]


class TestParsing:
    def test_no_verb(self, capsys):
        assert run(capsys, *[])[0] == 2

    def test_unknown_verb(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required(self, capsys):
        assert run(capsys, "construct")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.mark.parametrize("argv", ARGV_CORPUS, ids=lambda argv: " ".join(argv) or "(none)")
    def test_same_bytes_as_a_parser_with_every_verb(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")
        results, lazy = [], cli._build_parser
        for build in (lazy, lambda _: lazy(list(cli._VERBS))):
            monkeypatch.setattr(cli, "_build_parser", build)
            monkeypatch.setattr(sys, "stdin", io.StringIO("1100\n"))
            results.append(run(capsys, *argv))
        assert results[0] == results[1]

    def test_registers_only_the_named_verb(self, capsys, monkeypatch):
        calls = []
        add_argument = argparse.ArgumentParser.add_argument

        def record(parser, *names, **kwargs):
            calls.append((parser.prog, names))
            return add_argument(parser, *names, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", record)
        assert run(capsys, "count", "--n", "5") == (0, "2\n", "")
        # A parser adds its own -h when it is made; only one that argparse can reach needs it.
        helped = {prog for prog, names in calls if names == ("-h", "--help")}
        assert helped == {"crossbifix", "crossbifix count"}
        assert {prog for prog, names in calls if names != ("-h", "--help")} == {"crossbifix count"}

    def test_argv_from_sys_argv_or_an_iterator(self, capsys, monkeypatch):
        argv = ["count", "--n", "9", "--bf"]
        expected = run(capsys, *argv)
        assert expected == (0, "148\n", "")
        assert (main(iter(argv)), *capsys.readouterr()) == expected
        monkeypatch.setattr(sys, "argv", ["crossbifix", *argv])
        assert (main(), *capsys.readouterr()) == expected


# Each crossbifix line of the README's "## Command line" block, without
# its comment, and what it prints: stdout exactly (str) or its line count
# (int), then stderr.  A pipe runs its first command into the second's stdin.
README_EXAMPLES = {
    "crossbifix construct --n 8": (cbfs_cardinality(8), ""),
    "crossbifix count --n 15": ("429\n", ""),
    "crossbifix count --n 9 --bf": ("148\n", ""),
    "crossbifix count --n 4 --bf --q 3": ("48\n", ""),
    "crossbifix enumerate --n 6": (bifix_free_count(2, 6), ""),
    "crossbifix construct --n 12 | crossbifix verify": ("ok\n", ""),
    "crossbifix nonexpandable --n 11": ("non-expandable\n", ""),
    "crossbifix witness --gamma 10000 --n 5": ("10000 11100 100\n", ""),
    "crossbifix maxset --n 10": (24, "cardinality 24, proven optimal\n"),
    # a header, one row for each n = 3..15, and the marker's footnote
    "crossbifix compare --from 3 --to 15": (1 + 13 + 1, ""),
}


def test_readme_examples(capsys, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    commands = [line for line in lines if line.startswith("crossbifix")]
    assert sorted(commands) == sorted(README_EXAMPLES)
    for command, (stdout, stderr) in README_EXAMPLES.items():
        *feeds, last = command.split(" | ")
        for feed in feeds:
            code, out, _ = run(capsys, *feed.split()[1:])
            assert code == 0, feed
            monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, out, err = run(capsys, *last.split()[1:])
        assert code == 0, command
        assert err == stderr, command
        if isinstance(stdout, int):
            assert len(out.splitlines()) == stdout, command
        else:
            assert out == stdout, command


def test_console_script_installed():
    """Check the [project.scripts] declaration and its target in a separate process, uninstalled."""
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as handle:
        entry = tomllib.load(handle)["project"]["scripts"]["crossbifix"]
    module, attr = entry.split(":")
    # The same wrapper pip writes into the generated console script.
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "count", "--n", "12"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "72\n"
