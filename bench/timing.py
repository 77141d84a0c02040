"""Drift-corrected job timing.

The CPU of a shared machine runs at a speed that drifts by a quarter
within seconds, so a raw median taken at one moment disagrees with one
taken a minute later.  A fixed pure-Python reference loop, timed every
REF_EVERY_S on a timer, tracks that speed.  Each job's time is scaled
by REF_NOMINAL_S / (reference time around the job), which gives its time
on a machine where the loop takes exactly REF_NOMINAL_S.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_NOMINAL_S = 0.001
REF_EVERY_S = 0.1
_WORDS = [format(i * 40503 & 0xFFFF, "016b") for i in range(90)]
_MASKS = [(i * 0x9E3779B97F4A7C15) ** 5 % (1 << 300) for i in range(1, 301)]


class _Pair:
    __slots__ = ("left", "right")

    def __init__(self, left, right) -> None:
        self.left = left
        self.right = right

    def pick(self, flag: int):
        return self.left if flag else self.right


def ref_loop() -> int:
    """About 1 ms of fixed work in three equal parts, one like each workload.

    String slices and set probes (certify), big-int masking (maxset) and
    small objects, method calls and dicts (cli).  Each kind of code slows
    by its own amount when the machine is contended; the mix tracked the
    three workloads' jobs better on average than any one part alone.
    """
    seen = set()
    hits = 0
    for w in _WORDS:
        for k in range(1, 16):
            if w[:k] in seen:
                hits += 1
            seen.add(w[16 - k:])
    for _ in range(4):
        m = (1 << 300) - 1
        for a in _MASKS:
            rest = m & ~a
            hits += (rest & -rest).bit_length() + rest.bit_count()
            m ^= a >> 3
    for i in range(800):
        pair = _Pair(i, "x")
        hits += pair.pick(i & 1) if i & 1 else len(pair.pick(0))
        hits += {"k": i, "v": [i]}["k"]
    return hits


def ref_sample(repeats: int = 3) -> float:
    """Median seconds of a few back-to-back reference loops."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        ref_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class RefClock:
    """Reference samples on a timer, and job times corrected by them.

    Inside `with RefClock():` a SIGALRM every REF_EVERY_S runs a sample
    wherever the main thread is, in the middle of a job too, so a job of
    several seconds is corrected by the speed during it.  Sampling time
    that falls inside a job is taken off the job's time.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # start, end, ref seconds
        self.jobs: list[tuple[float, int, int]] = []  # seconds, first and last sample index

    def __enter__(self) -> RefClock:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        ref = ref_sample()
        self.samples.append((start, time.perf_counter(), ref))

    def time(self, job):
        """Run job(); log its seconds less any sampling inside it; return its result."""
        first = len(self.samples)
        began = time.perf_counter()
        out = job()
        ended = time.perf_counter()
        last = len(self.samples)
        paused = sum(
            max(0.0, min(end, ended) - max(start, began))
            for start, end, _ in self.samples[first:last]
        )
        self.jobs.append((ended - began - paused, first, last))
        return out

    def scaled(self) -> list[float]:
        """Each job's seconds at the nominal reference speed.

        A job is scaled by the mean of the samples taken during it and the
        one just before and just after it.
        """
        refs = [ref for _, _, ref in self.samples]
        out = []
        for seconds, first, last in self.jobs:
            around = refs[max(first - 1, 0) : last + 1]
            out.append(seconds * REF_NOMINAL_S * len(around) / sum(around))
        return out


def summarise(scaled: list[float]) -> dict:
    """jobs_per_s, job_p50_ms and, with ten jobs or more above it, job_p90_ms."""
    out = {
        "jobs_per_s": (len(scaled) / sum(scaled), "1/s"),
        "job_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
    }
    if len(scaled) >= 100:
        out["job_p90_ms"] = (statistics.quantiles(scaled, n=10)[8] * 1e3, "ms")
    return out
