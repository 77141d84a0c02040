"""Command-line front door.

Verbs: construct, count, enumerate, verify, nonexpandable, witness,
maxset, compare.  Word files are newline-separated 0/1 strings with
blank lines ignored; '-' names stdin or stdout.  Exit codes: 0 success,
1 a verification failed (violations found, set expandable, or no
blocker), 2 usage or input errors.

Each call adds the arguments, and -h, of only the verb its argv names,
as argparse parses no other subparser; the top-level parser keeps -h,
and its verb list comes from the help= strings.  Building the parser and
parsing `count --n 5` takes about 0.48 ms, against 0.63 ms with -h on
every subparser and 1.08 ms with every verb's arguments (the median over
5-8 processes of the min of 7 runs of 300 calls, CPython 3.11.7, x86-64):
a small saving next to the ~80 ms a fresh interpreter takes to start.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Iterable

from .combinatorics import DEFAULT_ENUMERATION_CAP, bifix_free_count, enumerate_bifix_free
from .construction import cbfs, cbfs_cardinality
from .errors import CapExceededError, NoBlockerError
from .report import _json_line, _read_lines, _word_set, compare_table, render
from .sets import WordSet, _index_bytes
from .verification import (
    DEFAULT_SEARCH_CAP,
    _checked_pairs,
    _violation_count,
    _violations,
    expansion_blocker,
    is_non_expandable,
    max_set_search,
)

# The closed forms are exact big ints and a table's cost grows faster than
# n**2: count --n 5000 takes 2-3 ms, compare --from 3 --to 800 70 ms
# (CPython 3.11, x86-64).  Larger calls are refused before computing; --bf
# counts are held to q**n <= 2**COUNT_CAP.
COUNT_CAP = 5000
COMPARE_CAP = 800

# verify --method naive costs about 60-70 ns per ordered word pair and factor
# length (CPython 3.11, x86-64): 0.16 s for cbfs(15), 0.61 s for cbfs(16) and
# 2.0 s for cbfs(17).  It is refused above NAIVE_CAP of them, about 0.2 s.
NAIVE_CAP = 3_000_000

# verify holds every violation as an output line before it prints any: all
# 2**n words of length 8, 9 and 10 carry 65,024, 261,120 and 1,046,528,
# taking about 0.04-0.1 s and 26 MB, 0.15-0.4 s and 60 MB, and 0.8-1.3 s and
# 190 MB, json the most (CPython 3.11, x86-64).  A set whose naive cost
# exceeds VIOLATION_CAP has them counted first (under 10 ms) and is refused
# above VIOLATION_CAP.
VIOLATION_CAP = 100_000

# An --input set whose factor index (WordSet._index) sets._index_bytes puts
# above INDEX_CAP MB is refused once its lines are read, before any word is
# checked or the set is built: verify took 1.22 s and 569 MB on one random
# 64,000-letter word (520 MB), 0.41 s and 161 MB on 32,000 letters (132 MB)
# (CPython 3.11, x86-64).  construct --n 24 | verify passes (123 MB); all
# bifix-free words of length 22 (538 MB) are refused in 0.18 s and 109 MB
# (a fresh process, from the import to the end of main, min of 5, CPython 3.11.7).
INDEX_CAP = 250

# --input is read by report._read_lines in one read() of at most INPUT_CAP + 1
# characters, and a longer input is refused before any line is split: an endless stdin or
# /dev/zero is refused in 0.06 s and 27 MB.  INPUT_CAP admits the largest
# full length INDEX_CAP does, all 281,076 bifix-free words of length 20:
# 5,902,596 characters with LF line ends, 6,183,672 with CR LF.  Reading an
# input of INPUT_CAP characters and building its set peaks at 255 MB, for
# 1.6 million lines of 10 with CR LF; verify's violation count refuses the
# length-20 set in 1.2-1.4 s at 196 MB (a fresh process, CPython 3.11.7, x86-64).
INPUT_CAP = 6_500_000


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _built_set(n: int, cap: int) -> WordSet:
    # cbfs grows like 2**n / n**1.5, so refuse before building anything.
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the enumeration cap {cap}")
    return cbfs(n)


def _load_set(args: argparse.Namespace) -> WordSet:
    source, n = getattr(args, "input", None), getattr(args, "n", None)
    if source and n is not None:
        raise ValueError("pass --input FILE or --n N, not both")
    if source:
        lines = _read_lines(sys.stdin if source == "-" else source, INPUT_CAP)
        # The non-blank lines bound the distinct words, so the estimate needs no word checked.
        count, first = len(lines) - lines.count(""), next(filter(None, lines), "")
        if (mb := _index_bytes(count, len(first)) // 10**6) > INDEX_CAP:
            raise CapExceededError(f"a factor index of {mb} MB exceeds the index cap {INDEX_CAP} MB")
        return _word_set(lines)
    if n is not None:
        return _built_set(n, getattr(args, "cap", DEFAULT_ENUMERATION_CAP))
    raise ValueError("pass --input FILE or --n N to select a set")


def _cmd_construct(args: argparse.Namespace) -> int:
    _emit(render(_built_set(args.n, args.cap), args.format), args.output)
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    if args.n > COUNT_CAP:
        raise CapExceededError(f"n={args.n} exceeds the count cap {COUNT_CAP}")
    if args.bf and args.q > 2 and args.n * math.log2(args.q) > COUNT_CAP:
        raise CapExceededError(f"q**n exceeds the count cap 2**{COUNT_CAP}")
    if args.bf:
        value = bifix_free_count(args.q, args.n)
    else:
        if args.q != 2:
            raise ValueError("--q only applies to --bf counts")
        value = cbfs_cardinality(args.n)
    _emit(f"{value}\n", args.output)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    _emit(render(enumerate_bifix_free(args.n, cap=args.cap), args.format), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    word_set, method = _load_set(args), args.method
    cost = len(word_set) ** 2 * (word_set.n - 1)
    if method == "naive" and cost > NAIVE_CAP:
        raise CapExceededError(f"words**2 * (n - 1) = {cost} exceeds the naive cap {NAIVE_CAP}")
    if cost > VIOLATION_CAP and (count := _violation_count(word_set)) > VIOLATION_CAP:
        raise CapExceededError(f"{count} violations exceed the verify cap {VIOLATION_CAP}")
    triples = _violations(word_set, method)
    if args.format == "json":
        # json.dumps's bytes for ok, method, checked_pairs and each violation's a, b and
        # factor, written out here: the words are 0/1 text, so no field needs escaping.
        items = ", ".join(
            f'{{"a": "{a}", "b": "{b}", "factor": "{a[:k]}"}}' for a, b, k in triples
        )
        ok = not items
        head = f'"ok": {"true" if ok else "false"}, "method": "{method}"'
        head += f', "checked_pairs": {_checked_pairs(word_set, method)}'
        _emit(f'{{{head}, "violations": [{items}]}}\n', args.output)
    else:
        lines = [f"{a} {b} {a[:k]}" for a, b, k in triples]
        ok = not lines
        text = f"violations: {len(lines)}\n" + "\n".join(lines) + "\n" if lines else "ok\n"
        _emit(text, args.output)
    return 0 if ok else 1


def _cmd_nonexpandable(args: argparse.Namespace) -> int:
    word_set = _load_set(args)
    verdict, gamma = is_non_expandable(word_set, word_set.n, cap=args.cap)
    if args.format == "json":
        payload = {
            "non_expandable": verdict,
            "n": word_set.n,
            "cardinality": len(word_set),
            "expanding_word": gamma,
        }
        _emit(_json_line(payload), args.output)
    elif verdict:
        _emit("non-expandable\n", args.output)
    else:
        _emit(f"expandable: {gamma}\n", args.output)
    return 0 if verdict else 1


def _cmd_witness(args: argparse.Namespace) -> int:
    word_set = _load_set(args)
    try:
        witness = expansion_blocker(args.gamma, word_set)
    except NoBlockerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    a, b, factor = witness.word_a, witness.word_b, witness.factor.bits
    if args.format == "json":
        _emit(_json_line({"a": a, "b": b, "factor": factor}), args.output)
    else:
        _emit(f"{a} {b} {factor}\n", args.output)
    return 0


def _cmd_maxset(args: argparse.Namespace) -> int:
    word_set, optimal = max_set_search(args.n, time_limit=args.time_limit, cap=args.cap)
    if args.format == "json":
        payload = word_set.to_json_dict()
        payload["optimal"] = optimal
        _emit(_json_line(payload), args.output)
    else:
        _emit(render(word_set, args.format), args.output)
        summary = "proven optimal" if optimal else "best found before the deadline"
        print(f"cardinality {len(word_set)}, {summary}", file=sys.stderr)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.n_max > COMPARE_CAP:
        raise CapExceededError(f"n={args.n_max} exceeds the compare cap {COMPARE_CAP}")
    _emit(render(compare_table(args.n_min, args.n_max), args.format), args.output)
    return 0


def _add_format(parser: argparse.ArgumentParser, choices: tuple[str, ...]) -> None:
    parser.add_argument("--format", choices=choices, default="text", help="output format")


def _construct_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="word length (n >= 3)")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP, help="enumeration cap on n")
    _add_format(p, ("text", "json", "csv"))


def _count_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="word length")
    p.add_argument("--bf", action="store_true", help="count all bifix-free words instead")
    p.add_argument("--q", type=int, default=2, help="alphabet size for --bf (default 2)")


def _enumerate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="word length")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP, help="enumeration cap on n")
    _add_format(p, ("text", "json", "csv"))


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", default="-", metavar="FILE", help="word file, '-' for stdin")
    p.add_argument("--method", choices=("naive", "trie"), default="trie")
    _add_format(p, ("text", "json"))


def _nonexpandable_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", default=None, metavar="FILE", help="word file, '-' for stdin")
    p.add_argument("--n", type=int, default=None, help="use the built set of this length")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP, help="enumeration cap on n")
    _add_format(p, ("text", "json"))


def _witness_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", required=True, metavar="WORD", help="the candidate word")
    p.add_argument("--input", default=None, metavar="FILE", help="word file, '-' for stdin")
    p.add_argument("--n", type=int, default=None, help="use the built set of this length")
    _add_format(p, ("text", "json"))


def _maxset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="word length")
    p.add_argument("--time-limit", type=float, default=None, metavar="SECONDS")
    p.add_argument("--cap", type=int, default=DEFAULT_SEARCH_CAP, help="search cap on n")
    _add_format(p, ("text", "json", "csv"))


def _compare_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--from", dest="n_min", type=int, required=True, help="first length")
    p.add_argument("--to", dest="n_max", type=int, required=True, help="last length")
    _add_format(p, ("text", "json", "csv"))


# verb: (help, handler, the function that adds its arguments before --output)
_VERBS = {
    "construct": ("build the cross-bifix-free set for a length", _cmd_construct, _construct_args),
    "count": ("closed-form cardinalities", _cmd_count, _count_args),
    "enumerate": ("list every bifix-free word of a length", _cmd_enumerate, _enumerate_args),
    "verify": ("check a word set for shared prefix/suffix factors", _cmd_verify, _verify_args),
    "nonexpandable": (
        "certify that no bifix-free word can join a set",
        _cmd_nonexpandable,
        _nonexpandable_args,
    ),
    "witness": ("show which member blocks a candidate word", _cmd_witness, _witness_args),
    "maxset": ("search a maximum cross-bifix-free set", _cmd_maxset, _maxset_args),
    "compare": ("counts per length next to the Fibonacci baseline", _cmd_compare, _compare_args),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossbifix",
        description="Construct, count, and certify cross-bifix-free sets of binary words.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, _, add_arguments) in _VERBS.items():
        # argparse parses only the subparser an argv element equal to its name selects,
        # so no other subparser needs its arguments or prints its -h help.
        named = verb in argv
        p = sub.add_parser(verb, help=help_text, add_help=named)
        if named:
            add_arguments(p)
            p.add_argument("--output", metavar="FILE", help="write here instead of stdout")
    return parser


def main(argv: Iterable[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _VERBS[args.verb][1](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
