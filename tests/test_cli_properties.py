"""Property test of all eight verbs: any argv and stdin end in an exit code, never a traceback."""

from __future__ import annotations

import contextlib
import io
import re
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from crossbifix.cli import main  # noqa: E402


def values(valid: tuple, garbage: tuple) -> tuple[st.SearchStrategy, st.SearchStrategy]:
    return st.sampled_from(valid), st.sampled_from(garbage)


# argparse's int() takes Unicode digits, underscores and signs, so no
# garbage value here may parse to more than 12: "maxset --n ١٢" runs as 12.
# The edge values come last, as hypothesis draws early entries more often.
INTS = values(
    tuple(map(str, [*range(3, 13), *range(-2, 3)])),
    ("", "x", "1.5", "0x1f", "+3", " 7 ", "١٢", "1_2", "--n"),
)
# maxset --n without a short deadline: n = 10 alone takes about 0.5 s.
SEARCH_INTS = values(tuple(map(str, [*range(3, 10), *range(-2, 3)])), ("", "x", "٩", "0_9"))
SHORT_LIMITS = values(("0", "0.01", "0.05", "0.2"), ("0",))
OTHER_LIMITS = values(("inf",), ("-1", "nan", "x", ""))
FORMATS = values(("text", "json", "csv"), ("xml", ""))
CHECK_FORMATS = values(("text", "json"), ("csv", ""))
# Placeholders for paths under the test's own directory.
INPUTS = values(("-", "IN"), ("MISSING", "DIR"))
OUTPUTS = values(("-", "OUT"), ("NO/OUT", "DIR"))
WORDS = st.text("01", min_size=1, max_size=12)
GAMMAS = (WORDS, st.sampled_from(("", "01x", "2", "-")))

# Each verb's flags and their values; None marks a flag that takes none.
VERBS = {
    "construct": {"--n": INTS, "--cap": INTS, "--format": FORMATS},
    "count": {"--n": INTS, "--bf": None, "--q": INTS},
    "enumerate": {"--n": INTS, "--cap": INTS, "--format": FORMATS},
    "verify": {
        "--input": INPUTS,
        "--method": values(("naive", "trie"), ("fast",)),
        "--format": CHECK_FORMATS,
    },
    "nonexpandable": {"--input": INPUTS, "--n": INTS, "--cap": INTS, "--format": CHECK_FORMATS},
    "witness": {"--gamma": GAMMAS, "--input": INPUTS, "--n": INTS, "--format": CHECK_FORMATS},
    "maxset": {"--n": SEARCH_INTS, "--time-limit": OTHER_LIMITS, "--cap": INTS, "--format": FORMATS},
    "compare": {"--from": INTS, "--to": INTS, "--format": FORMATS},
}
OFTEN = st.sampled_from((True,) * 7 + (False,))

# The last stderr line of an argparse refusal, after its usage lines.
USAGE_ERROR = re.compile(r"crossbifix( \w+)?: error: .+")


@st.composite
def cases(draw, verb: str) -> tuple[list[str], bytes]:
    """The verb, most of its flags, and stdin: all valid, or some of them garbage."""
    options = {**VERBS[verb], "--output": OUTPUTS, "-h": None, "--bogus": None}
    chosen = []
    if verb == "maxset" and draw(st.booleans()):
        # A short deadline bounds the search at any n up to the cap, so it is always passed.
        options.update({"--n": INTS, "--time-limit": SHORT_LIMITS})
        chosen.append("--time-limit")
    garbage = draw(st.booleans())
    n = draw(st.integers(1, 12))  # the length of the words on stdin
    if verb == "witness" and not garbage:
        # A candidate of the set's length gets past the length check.
        gamma = st.text("01", min_size=n, max_size=n)
        options.update({"--gamma": (gamma, None), "--n": (st.just(str(n)), None)})
    chosen += [flag for flag in VERBS[verb] if flag not in chosen and draw(OFTEN)]
    if not garbage and {"--input", "--n"} <= set(chosen):
        chosen.remove(draw(st.sampled_from(("--input", "--n"))))
    if garbage:
        chosen += [flag for flag in ("-h", "--bogus") if not draw(OFTEN)]
    if not draw(OFTEN):
        chosen.append("--output")
    argv = [verb]
    for flag in draw(st.permutations(chosen)):
        argv.append(flag)
        if options[flag] is not None:
            good, bad = options[flag]
            argv.append(draw(st.one_of(good, bad) if garbage else good))
    # Words of one length and blank lines, or those mixed with other lengths,
    # other characters and bytes that are not UTF-8.
    lines = st.one_of(st.text("01", min_size=n, max_size=n), st.just(""))
    if garbage:
        lines = st.one_of(lines, WORDS, st.text("01 x2\t\f\x1cé", max_size=6))
    end = draw(st.sampled_from(("\n", "\r\n", "\r")))
    stdin = end.join(draw(st.lists(lines, min_size=0 if garbage else 1, max_size=12))).encode()
    if garbage and draw(st.booleans()):
        stdin = draw(st.binary(max_size=16))
    return argv, stdin


@pytest.fixture(scope="module")
def paths(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("fuzz")
    names = {"IN": "in.txt", "MISSING": "missing.txt", "OUT": "out.txt", "NO/OUT": "no/out.txt"}
    return {"DIR": str(root), **{key: str(root / name) for key, name in names.items()}}


def run(argv: list[str], data: bytes) -> tuple[int, str, str]:
    """main(argv) in process, with data as a UTF-8 stdin, and its captured output."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin.close()
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("verb", VERBS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_verb_ends_in_an_exit_code(paths, verb, data):
    argv, stdin = data.draw(cases(verb))
    with open(paths["IN"], "wb") as handle:
        handle.write(stdin)
    code, out, err = run([paths.get(arg, arg) for arg in argv], stdin)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out + err, argv
    if code == 2:
        one_line = err.startswith("error: ") and err.count("\n") == 1
        assert one_line or USAGE_ERROR.fullmatch(err.splitlines()[-1]), (argv, err)
