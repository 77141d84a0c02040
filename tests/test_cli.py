"""End-to-end runs of the command-line verbs via main()."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from crossbifix import bifix_free_count, cbfs_cardinality
from crossbifix.cli import COMPARE_CAP, COUNT_CAP, NAIVE_CAP, VIOLATION_CAP, main


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


class TestParsing:
    def test_no_verb(self, capsys):
        assert run(capsys, *[])[0] == 2

    def test_unknown_verb(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required(self, capsys):
        assert run(capsys, "construct")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


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
