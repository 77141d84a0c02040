"""Per-layer spans around calls into crossbifix, recorded from the benchmark.

install() replaces each public function of a layer module, under every
name a crossbifix module (or the package) binds it to, with a wrapper
that opens a span; for classes it wraps __new__, __post_init__ and the
public methods and properties in place.  No program file changes.

A span opens only when a layer is entered from another layer or from
the benchmark; a call inside the same layer runs unwrapped, so calls
count entries into a layer and nested helpers add no spans.  A layer's
self time is the time inside its spans minus the time of the spans they
contain.  Spans are folded into totals as they close.
"""

from __future__ import annotations

import enum
import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("words", "sets", "combinatorics", "construction", "verification", "report", "cli")


def _length(result) -> int:
    return len(result)


# Counts of work done, taken from what a layer entry returns.
WORK = {
    "combinatorics.dyck_paths": (("combinatorics.words_out", _length),),
    "combinatorics.enumerate_bifix_free": (("combinatorics.words_out", _length),),
    "verification.check_set": (
        ("verification.check_set.probes", lambda report: report.checked_pairs),
        ("verification.check_set.violations", lambda report: len(report.violations)),
    ),
}
for _name in ("cbfs", "cbfs_odd", "cbfs_even_m_even", "cbfs_even_m_odd", "exclusion_set"):
    WORK[f"construction.{_name}"] = (("construction.words_out", _length),)
COUNTED_CALLS = ("verification.is_non_expandable", "verification.max_set_search")


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.work: Counter = Counter()

    def _wrap(self, layer: str, qualname: str, fn):
        stack, self_ns, calls, work = self._stack, self.self_ns, self.calls, self.work
        hooks = WORK.get(qualname, ())
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self_ns[qualname] += elapsed - frame[1]
                calls[qualname] += 1
            for name, measure in hooks:
                work[name] += measure(result)
            return result

        return traced

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__new__", "__post_init__"):
                continue
            qualname = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                setattr(cls, attr, type(raw)(self._wrap(layer, qualname, raw.__func__)))
            elif isinstance(raw, property):
                setattr(cls, attr, property(self._wrap(layer, qualname, raw.fget)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(layer, qualname, raw))

    def install(self) -> None:
        """Wrap every layer of the already imported crossbifix package."""
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"crossbifix.{layer}"]
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[obj] = self._wrap(layer, f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, enum.Enum):
                    self._wrap_class(layer, obj)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "crossbifix":
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    setattr(module, name, replacements[obj])

    def metrics(self, rounds: int) -> dict:
        """Per-round self time, entries and work counts of every layer."""
        out = {}
        for layer in LAYERS:
            mine = [q for q in self.calls if q.split(".")[0] == layer]
            out[f"{layer}.self_ms"] = (sum(self.self_ns[q] for q in mine) / 1e6 / rounds, "ms")
            out[f"{layer}.calls"] = (sum(self.calls[q] for q in mine) / rounds, "count")
        for name in sorted({n for hooks in WORK.values() for n, _ in hooks}):
            out[name] = (self.work[name] / rounds, "count")
        for qualname in COUNTED_CALLS:
            out[f"{qualname}.calls"] = (self.calls[qualname] / rounds, "count")
        return out

    def functions(self, rounds: int) -> dict:
        """Per-round self time and entries of each wrapped function, slowest first."""
        ranked = sorted(self.calls, key=lambda q: -self.self_ns[q])
        return {
            q: {"self_ms": self.self_ns[q] / 1e6 / rounds, "calls": self.calls[q] / rounds}
            for q in ranked
        }
