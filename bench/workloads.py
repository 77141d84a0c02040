"""The benchmark's workloads: certify, maxset and cli.

Each builder takes a seeded random.Random, a scratch directory for word
files and the imported crossbifix package, and returns one round: a
list of jobs that the runner repeats until the run's time is up.  Every
round of a run holds the same jobs, so every run does whole rounds of
the same work; the seed picks the parameters and the order.

A job's run() calls the program and returns what it produced; check()
holds that output against the independent computations in oracle.py
and raises CheckFailed on a mismatch.  run() looks the program's
functions up on each call, so the tracer's wrappers are the ones used.

Why each round holds what it does: jobs of one kind cost about the same,
so a round sorts into groups.  The counts put the median at the middle of
one group and p90 at the middle of another, so both come from the same
jobs whatever the seed and however many rounds fit.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import optima
import oracle
from oracle import require

# Length -> jobs per round.  p50 is the middle n = 13 job and p90 the
# middle n = 14 one; n = 15..18 come once each and weigh on jobs_per_s.
CERTIFY_ROUND = {12: 16, 13: 68, 14: 12, 15: 1, 16: 1, 17: 1, 18: 1}
CANDIDATES_PER_JOB = 3
# Length -> jobs per round.  p50 is the middle n = 8 search and p90 the
# middle n = 9 one; the one n = 10 search takes most of a round's time.
MAXSET_ROUND = {5: 3, 6: 3, 7: 7, 8: 44, 9: 12, 10: 1}
# The cli workload's word length for every call whose cost grows with it,
# the size of its clean sets (drawn from a random maximal cross-bifix-free
# set) and of its dirty sets: random bifix-free words, redrawn until they
# hold about DIRTY_VIOLATIONS violations, so every seed's dirty sets cost alike.
CLI_N = 12
WITNESS_N = 8
CLEAN_SIZE = 24
DIRTY_SIZE = 16
DIRTY_VIOLATIONS = range(240, 261)


@dataclass
class Job:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def random_outside(rng, n: int, members, count: int) -> list[str]:
    """count distinct bifix-free words of length n that are not members."""
    picked: list[str] = []
    while len(picked) < count:
        x = rng.getrandbits(n)
        w = format(x, f"0{n}b")
        if not oracle.has_border(x, n) and w not in members and w not in picked:
            picked.append(w)
    return picked


def built_set(cb, n: int) -> list[str]:
    """The program's set for length n, as input for other jobs, checked first."""
    words = [str(w) for w in cb.cbfs(n).words]
    oracle.check_code_set(words, n, oracle.cbfs_size(n))
    return words


# ----------------------------------------------------------------- certify


def check_certify(n: int, candidates: list[str], out) -> None:
    word_set, report, verdict, witnesses, text = out
    words = [str(w) for w in word_set.words]
    oracle.check_code_set(words, n, oracle.cbfs_size(n))
    require(report.set_ok and not report.violations, f"check_set flags the length-{n} set")
    require(verdict == (True, None), f"is_non_expandable gives {verdict} at n={n}")
    members = set(words)
    for gamma, witness in zip(candidates, witnesses, strict=True):
        got = (str(witness.word_a), str(witness.word_b), str(witness.factor.bits))
        oracle.check_witness(*got, gamma, members)
        require(got == oracle.blocker(gamma, words), f"{got} is not the first blocker of {gamma}")
    require(text == "".join(f"{w}\n" for w in sorted(words)), f"render of the length-{n} set")


def certify(rng, scratch: Path, cb) -> list[Job]:
    """The paper's pipeline: build, check, certify non-expandable, block, render."""

    def pipeline(n: int, candidates: list[str]):
        word_set = cb.cbfs(n)
        report = cb.check_set(word_set)
        verdict = cb.is_non_expandable(word_set, n)
        witnesses = [cb.expansion_blocker(gamma, word_set) for gamma in candidates]
        return word_set, report, verdict, witnesses, cb.render(word_set)

    jobs = []
    for n, repeats in CERTIFY_ROUND.items():
        members = set(built_set(cb, n))
        for _ in range(repeats):
            candidates = random_outside(rng, n, members, CANDIDATES_PER_JOB)
            jobs.append(
                Job(
                    f"certify n={n}",
                    functools.partial(pipeline, n, candidates),
                    functools.partial(check_certify, n, candidates),
                )
            )
    rng.shuffle(jobs)
    return jobs


# ------------------------------------------------------------------ maxset


def check_maxset(n: int, optimum: int, out) -> None:
    word_set, proven = out
    require(proven, f"the n={n} search did not prove its optimum")
    oracle.check_code_set([str(w) for w in word_set.words], n, optimum)


def maxset(rng, scratch: Path, cb) -> list[Job]:
    """Exact maximum-set searches run to a proven optimum."""
    sizes = optima.load()

    def search(n: int):
        return cb.max_set_search(n)

    jobs = [
        Job(
            f"maxset n={n}",
            functools.partial(search, n),
            functools.partial(check_maxset, n, sizes[n]),
        )
        for n, repeats in MAXSET_ROUND.items()
        for _ in range(repeats)
    ]
    rng.shuffle(jobs)
    return jobs


# --------------------------------------------------------------------- cli


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """crossbifix.cli.main(argv) in process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["crossbifix.cli"].main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_job(argv: list[str], code: int, stdout, stderr: str = "") -> Job:
    """A CLI call, its expected exit code and stderr, and stdout as text or a validator.

    Rounds repeat the call, so an output already checked once passes at once.
    """
    passed: set = set()

    def check(out) -> None:
        if out in passed:
            return
        got_code, got_out, got_err = out
        require(got_code == code, f"{' '.join(argv)} exits {got_code}, expected {code}")
        require(got_err == stderr, f"{' '.join(argv)} writes {got_err!r} to stderr")
        if callable(stdout):
            stdout(got_out)
        else:
            require(got_out == stdout, f"{' '.join(argv)} prints {got_out[:60]!r}")
        passed.add(out)

    return Job(" ".join(argv), functools.partial(call_cli, argv), check)


def words_text(words) -> str:
    return "".join(f"{w}\n" for w in words)


def violation_lines(words: list[str]) -> str:
    found = oracle.violations(words)
    return f"violations: {len(found)}\n" + "".join(f"{a} {b} {f}\n" for a, b, f in found)


def check_construct_json(n: int, text: str) -> None:
    payload = json.loads(text)
    size = oracle.cbfs_size(n)
    require(payload["n"] == n and payload["cardinality"] == size, "construct json header")
    require(payload["provenance"] == oracle.cbfs_provenance(n), "construct json provenance")
    require(payload["words"] == sorted(payload["words"]), "construct json word order")
    oracle.check_code_set(payload["words"], n, size)


def compare_rows(lo: int, hi: int) -> list[tuple[int, int, int, int]]:
    return [
        (n, len(bifix_free(n)), oracle.cbfs_size(n), oracle.fibonacci_baseline(n))
        for n in range(lo, hi + 1)
    ]


def check_compare_text(lo: int, hi: int, text: str) -> None:
    """The aligned table, split into cells; a star marks rows where cbfs beats the baseline."""
    rows = compare_rows(lo, hi)
    expected = [["n", "bf", "cbfs", "kernel"]]
    expected += [[str(v) for v in row] + (["*"] if row[2] > row[3] else []) for row in rows]
    if any(built > kernel for _, _, built, kernel in rows):
        expected.append(["(*", "construction", "exceeds", "the", "baseline)"])
    require([line.split() for line in text.splitlines()] == expected, f"compare {lo}..{hi} table")


def check_compare_json(lo: int, hi: int, text: str) -> None:
    rows = [
        {"n": n, "bf": bf, "cbfs": built, "kernel": kernel, "improved": built > kernel}
        for n, bf, built, kernel in compare_rows(lo, hi)
    ]
    require(json.loads(text) == {"n_min": lo, "n_max": hi, "rows": rows}, f"compare {lo}..{hi} json")


@functools.cache
def bifix_free(n: int) -> list[str]:
    return oracle.bifix_free_words(n)


def cli(rng, scratch: Path, cb) -> list[Job]:
    """A mix of all eight verbs at n <= 14, most of them cheap, some on dirty sets.

    Lengths and set sizes that set a call's cost are fixed, so the mix
    costs the same under every seed; the seed picks the words, the
    lengths of the closed-form counts and tables, and the order.  Sorted
    by cost a round of 30 holds 10 calls under 3 ms (count, compare,
    witness, verify trie on a clean set), 10 `construct --n 12` calls
    (p50), 5 of 4-5 ms (verify naive on a clean set, enumerate, maxset,
    nonexpandable --n 10), 4 dirty verifies (p90) and the costliest, a
    nonexpandable call on a set with one word cut.
    """
    sizes = optima.load()
    jobs: list[Job] = []

    def write(name: str, words) -> str:
        path = scratch / name
        path.write_text(words_text(words))
        return str(path)

    for _ in range(2):
        n = rng.randint(3, 14)
        jobs.append(cli_job(["count", "--n", str(n)], 0, f"{oracle.cbfs_size(n)}\n"))
    n = rng.randint(2, 14)
    jobs.append(cli_job(["count", "--n", str(n), "--bf"], 0, f"{len(bifix_free(n))}\n"))
    n = rng.randint(2, 7)
    expected = f"{oracle.bifix_free_count_q(3, n)}\n"
    jobs.append(cli_job(["count", "--n", str(n), "--bf", "--q", "3"], 0, expected))

    for fmt in ("text", "csv", "json"):
        lo = rng.randint(3, 8)
        hi = rng.randint(lo, 14)
        argv = ["compare", "--from", str(lo), "--to", str(hi), "--format", fmt]
        if fmt == "text":
            expected = functools.partial(check_compare_text, lo, hi)
        elif fmt == "csv":
            expected = "n,bf,cbfs,kernel\n" + "".join(
                f"{n},{bf},{built},{kernel}\n" for n, bf, built, kernel in compare_rows(lo, hi)
            )
        else:
            expected = functools.partial(check_compare_json, lo, hi)
        jobs.append(cli_job(argv, 0, expected))

    members = built_set(cb, WITNESS_N)
    for gamma in random_outside(rng, WITNESS_N, set(members), 2):
        a, b, factor = oracle.blocker(gamma, members)
        argv = ["witness", "--gamma", gamma, "--n", str(WITNESS_N)]
        jobs.append(cli_job(argv, 0, f"{a} {b} {factor}\n"))

    clean = oracle.greedy_code_set(CLI_N, rng)
    for i, method in enumerate(("trie", "naive")):
        path = write(f"clean{i}.txt", sorted(rng.sample(clean, CLEAN_SIZE)))
        jobs.append(cli_job(["verify", "--input", path, "--method", method], 0, "ok\n"))

    for fmt in ("text",) * 4 + ("csv",) * 3 + ("json",) * 3:
        if fmt == "json":
            validate = functools.partial(check_construct_json, CLI_N)
        else:
            validate = functools.partial(
                oracle.check_word_lines,
                n=CLI_N,
                size=oracle.cbfs_size(CLI_N),
                header="word" if fmt == "csv" else None,
            )
        jobs.append(cli_job(["construct", "--n", str(CLI_N), "--format", fmt], 0, validate))

    for _ in range(2):
        jobs.append(cli_job(["enumerate", "--n", "10"], 0, words_text(bifix_free(10))))
    validate = functools.partial(oracle.check_word_lines, n=7, size=sizes[7])
    stderr = f"cardinality {sizes[7]}, proven optimal\n"
    jobs.append(cli_job(["maxset", "--n", "7"], 0, validate, stderr))
    jobs.append(cli_job(["nonexpandable", "--n", "9"], 0, "non-expandable\n"))

    for i, (method, fmt) in enumerate(
        [("naive", "text"), ("naive", "text"), ("trie", "text"), ("trie", "json")]
    ):
        words = sorted(rng.sample(bifix_free(CLI_N), DIRTY_SIZE))
        while len(oracle.violations(words)) not in DIRTY_VIOLATIONS:
            words = sorted(rng.sample(bifix_free(CLI_N), DIRTY_SIZE))
        path = write(f"dirty{i}.txt", words)
        argv = ["verify", "--input", path, "--method", method, "--format", fmt]
        if fmt == "text":
            jobs.append(cli_job(argv, 1, violation_lines(words)))
        else:
            expected = [{"a": a, "b": b, "factor": f} for a, b, f in oracle.violations(words)]

            def check_json(text: str, expected=expected, method=method) -> None:
                payload = json.loads(text)
                require(payload["ok"] is False and payload["method"] == method, "verify json header")
                require(payload["violations"] == expected, "verify json violations")

            jobs.append(cli_job(argv, 1, check_json))

    words = built_set(cb, CLI_N)
    words.remove(rng.choice(words))
    path = write("minus_one.txt", words)
    expected = f"expandable: {oracle.first_expander(words, CLI_N)}\n"
    jobs.append(cli_job(["nonexpandable", "--input", path], 1, expected))

    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"certify": certify, "maxset": maxset, "cli": cli}
