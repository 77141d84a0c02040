"""Self-test of the benchmark, in a short mode of about a minute.

    python3 bench/selftest.py

1. Each workload's checks pass the program's real outputs and fail on
   corrupted copies: a set with one word flipped or missing, a wrong
   count, verdict, witness or rendering, a wrong exit code or stderr.
2. Each workload runs one short run, untraced and traced, in a child
   process with zero failed jobs, printing exactly the metric names
   BENCHMARK.json declares.
3. In a directory holding only BENCHMARK.json and bench/, the benchmark
   exits non-zero without printing a result.
4. optima.json agrees with networkx, where networkx is installed.

Exits 0 when every step passes.
"""

from __future__ import annotations

import importlib.util
import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import crossbifix  # noqa: E402
import crossbifix.cli  # noqa: E402,F401

import optima  # noqa: E402
from oracle import CheckFailed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def flip_first_bit(words) -> list[str]:
    """The first word with its first bit flipped: a 1...0 word becomes 0...0, bordered."""
    words = [str(w) for w in words]
    head = words[0]
    return [("0" if head[0] == "1" else "1") + head[1:]] + words[1:]


def must_fail(check, out, what: str) -> None:
    try:
        check(out)
    except CheckFailed:
        print(f"  caught: {what}")
        return
    raise AssertionError(f"the check passed a corrupted output: {what}")


def first_job(jobs, prefix: str, suffix: str = ""):
    return next(job for job in jobs if job.label.startswith(prefix) and job.label.endswith(suffix))


def corrupted_outputs_are_caught(scratch: Path) -> None:
    rng = random.Random(3)
    certify = WORKLOADS["certify"](rng, scratch, crossbifix)
    job = first_job(certify, "certify n=12")
    out = job.run()
    job.check(out)
    word_set, report, verdict, witnesses, text = out
    print(f"{job.label}: the real output passes")
    flipped = SimpleNamespace(words=tuple(flip_first_bit(word_set.words)))
    must_fail(job.check, (flipped, report, verdict, witnesses, text), "a set with one word flipped")
    short = SimpleNamespace(words=word_set.words[1:])
    must_fail(job.check, (short, report, verdict, witnesses, text), "a set one word short")
    must_fail(job.check, (word_set, report, (False, witnesses[0].word_a), witnesses, text), "an expandable verdict")
    w = witnesses[0]
    swapped = SimpleNamespace(word_a=w.word_b, word_b=w.word_a, factor=w.factor)
    must_fail(job.check, (word_set, report, verdict, [swapped, *witnesses[1:]], text), "a witness with its words swapped")
    must_fail(job.check, (word_set, report, verdict, witnesses, text.split("\n", 1)[1]), "a rendering one line short")

    maxset = WORKLOADS["maxset"](rng, scratch, crossbifix)
    job = first_job(maxset, "maxset n=9")
    word_set, proven = out = job.run()
    job.check(out)
    print(f"{job.label}: the real output passes")
    must_fail(job.check, (SimpleNamespace(words=word_set.words[1:]), proven), "a search one word short")
    must_fail(job.check, (SimpleNamespace(words=tuple(flip_first_bit(word_set.words))), proven), "a searched set with one word flipped")
    must_fail(job.check, (word_set, False), "an unproven search")

    cli = WORKLOADS["cli"](rng, scratch, crossbifix)
    for prefix, suffix in (
        ("count --n", ""),
        ("construct", "text"),
        ("verify --input", "text"),
        ("nonexpandable --input", ""),
        ("witness", ""),
        ("maxset", ""),
        ("compare", "text"),
    ):
        job = first_job(cli, prefix, suffix)
        code, stdout, stderr = out = job.run()
        job.check(out)
        print(f"{job.label}: the real output passes")
        must_fail(job.check, (code + 1, stdout, stderr), "a wrong exit code")
        must_fail(job.check, (code, stdout, stderr + "error: x\n"), "an extra stderr line")
        lines = stdout.splitlines(keepends=True)
        if prefix == "construct":
            must_fail(job.check, (code, "".join(w + "\n" for w in flip_first_bit(stdout.split())), stderr), "a set with one word flipped")
        elif prefix == "count --n":
            must_fail(job.check, (code, f"{int(stdout) + 1}\n", stderr), "a wrong count")
        else:
            must_fail(job.check, (code, "".join(lines[:-1]), stderr), "output one line short")


def short_runs_are_clean() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = ["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)]
            run = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), *argv],
                check=True, capture_output=True, text=True, timeout=180,
            )
            result = json.loads(run.stdout.splitlines()[-1])
            names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
            if not trace and result["attempted"] < 100:
                names.remove("job_p90_ms")
            assert result["correct"] and result["failed"] == 0, run.stderr
            assert sorted(result["metrics"]) == sorted(names), sorted(result["metrics"])
            print(f"{workload} trace {trace}: {result['attempted']} jobs, none failed, {len(names)} metrics")


def bare_directory_fails() -> None:
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        run = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert run.returncode != 0 and not run.stdout.strip(), (run.returncode, run.stdout)
    print(f"without src/ the benchmark exits {run.returncode} and prints no result")


def main() -> int:
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as scratch:
        corrupted_outputs_are_caught(Path(scratch))
    short_runs_are_clean()
    bare_directory_fails()
    if importlib.util.find_spec("networkx"):
        assert optima.main(["--check"]) == 0
    else:
        print("networkx is not installed: optima.json not recomputed")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
