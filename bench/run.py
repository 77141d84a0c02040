"""Run one workload of the crossbifix benchmark against the package in src/.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Workloads: certify, maxset, cli (see workloads.py and README.md).  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones:
setup_s, jobs_per_s, job_p50_ms, job_p90_ms and peak_rss_mb.  With
--trace 1 they are each layer's self time, entries and work counts per
round, and a per-function table goes to bench/out/.  A one-line summary
goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_IMPORTS = 21
# A run goes on past --seconds until it holds this many jobs, so that p90
# always has ten jobs above it.
MIN_JOBS = 100

sys.path.insert(0, str(BENCH))

import timing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_program():
    """Import crossbifix from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import crossbifix
    import crossbifix.cli  # noqa: F401  (the tracer wraps what this module binds)

    if not Path(crossbifix.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"crossbifix came from {crossbifix.__file__}, not from {SRC}")
    return crossbifix


# The child times the import the console script makes, then the reference
# loop, so its import time can be scaled to the nominal speed.
_PROBE = f"""
import sys, time
sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]
start = time.perf_counter()
import crossbifix.cli
took = time.perf_counter() - start
import timing
print(took, timing.ref_sample(5))
"""


def measure_setup() -> float:
    """Median seconds, at the nominal speed, to import crossbifix.cli in a fresh interpreter.

    An installed package imports from bytecode, so the children read and
    write bytecode under bench/out/, whatever PYTHONDONTWRITEBYTECODE says;
    an untimed first child compiles it.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    argv = [sys.executable, "-c", _PROBE]
    subprocess.run(argv, check=True, capture_output=True, env=env)
    times = []
    for _ in range(SETUP_IMPORTS):
        probe = subprocess.run(argv, check=True, capture_output=True, text=True, env=env)
        took, ref = map(float, probe.stdout.split())
        times.append(took * timing.REF_NOMINAL_S / ref)
    return statistics.median(times)


def run_rounds(jobs, seconds: float, clock: timing.RefClock) -> tuple[int, list[str]]:
    """Repeat the round until seconds have passed and MIN_JOBS ran; check outputs untimed."""
    failures: list[str] = []
    rounds = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or rounds * len(jobs) < MIN_JOBS:
        for job in jobs:
            timed = len(clock.jobs)
            try:
                # The output is freed right after its check, outside any timing.
                job.check(clock.time(job.run))
            except Exception as exc:  # a crash or a wrong output fails this job only
                failures.append(f"{job.label}: {type(exc).__name__}: {exc}")
                del clock.jobs[timed:]
        rounds += 1
    return rounds, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cb = import_program()
    OUT.mkdir(exist_ok=True)
    setup_s = None if args.trace else measure_setup()
    clock = timing.RefClock()
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        jobs = WORKLOADS[args.workload](random.Random(args.seed), Path(scratch), cb)
        tracer = None
        if args.trace:
            # Traced runs leave the reference loop out, so its time does
            # not land in the layers' spans; they report no job times.
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        gc.collect()
        with contextlib.nullcontext() if tracer else clock:
            rounds, failures = run_rounds(jobs, args.seconds, clock)

    for failure in failures[:5]:
        print(f"failed: {failure}", file=sys.stderr)
    attempted = rounds * len(jobs)
    summary = (
        f"{args.workload} seed {args.seed}: {rounds} rounds, {attempted} jobs, "
        f"{len(failures)} failed, raw p50 {statistics.median(t for t, _, _ in clock.jobs) * 1e3:.3f} ms, "
        f"raw job time per round {sum(t for t, _, _ in clock.jobs) / rounds:.3f} s"
    )
    if tracer is None:
        ends = timing.summarise(clock.scaled())
        refs = [ref for _, _, ref in clock.samples]
        summary += (
            f", scaled p50 {ends['job_p50_ms'][0]:.3f} ms, "
            f"reference median {statistics.median(refs) * 1e3:.3f} ms"
        )
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"setup_s": (setup_s, "s"), **ends, "peak_rss_mb": (peak_mb, "MB")}
    else:
        metrics = tracer.metrics(rounds)
    print(summary, file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, rounds=rounds)
    if tracer is not None:
        record["functions"] = tracer.functions(rounds)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
