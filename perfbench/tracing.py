"""Per-layer tracing of endoscope, installed from outside the package.

Every public module function and public method of every ``endoscope.*``
module is replaced by a wrapper that records a span (name, start, end,
parent span, job id).  ``from .x import y`` copies a function object into the
importing module, so every module attribute that *is* the original function
is replaced, not only the one in the defining module.  The arithmetic dunders
of the four value types are only counted: they run millions of times, and a
span each would swamp the measurement.

A layer is a module; its self time is the time inside its spans minus the
time inside their child spans.  Spans are kept in flat arrays in memory and
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

PACKAGE = "endoscope"
COUNTED_CLASSES = ("QPoly", "NFElement", "QuatElement", "ComplexEnclosure")
ARITHMETIC_DUNDERS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
    "__pow__", "__truediv__", "__rtruediv__", "__floordiv__", "__mod__",
)
# private functions counted (no span) because a per-layer ratio needs them
COUNTED_PRIVATE = {"numfield": ("_cm_structure_uncached",)}


def package_modules() -> dict[str, types.ModuleType]:
    """Loaded ``endoscope`` submodules by short name (``qpoly``, ``cli`` ...)."""
    return {
        name.split(".", 1)[1]: mod
        for name, mod in sorted(sys.modules.items())
        if name.startswith(PACKAGE + ".") and mod is not None
    }


def _public_targets(mod: types.ModuleType):
    """(owner, attribute, function, kind) for everything a module defines that gets traced."""
    short = mod.__name__.split(".", 1)[1]
    for name, value in vars(mod).items():
        if getattr(value, "__module__", None) != mod.__name__:
            continue
        if isinstance(value, types.FunctionType) and not name.startswith("_"):
            yield mod, name, value, "span"
        elif isinstance(value, type) and not name.startswith("_"):
            for attr, member in vars(value).items():
                if attr in ARITHMETIC_DUNDERS and name in COUNTED_CLASSES:
                    yield value, attr, member, "count"
                elif not attr.startswith("_") and isinstance(
                    member, (types.FunctionType, staticmethod, classmethod)
                ):
                    yield value, attr, member, "span"
    for name in COUNTED_PRIVATE.get(short, ()):
        yield mod, name, getattr(mod, name), "count"


class Tracer:
    """Spans and call counts for one run; ``install``/``remove`` patch the package."""

    def __init__(self):
        self.names: list[str] = []  # span/count key index -> "module.attr"
        self.layer_of: list[str] = []  # key index -> module
        self.counts = Counter()  # "module.attr" -> calls
        self.escalations = 0  # isolate_roots calls above the job's precision
        self.job = -1
        self.job_precision = 128
        # one entry per span, in start order
        self.key = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_of = array("i")
        self._stack: list[int] = []
        self._plan: list[tuple[object, str, object, object]] = []  # owner, attribute, original, wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Swap every traced function for its wrapper; may be called again after ``remove``."""
        if not self._plan:
            self._plan = self._make_plan()
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in reversed(self._plan):
            setattr(owner, attr, original)

    def _make_plan(self) -> list[tuple[object, str, object, object]]:
        plan = []
        wrappers = {}  # id(original function) -> wrapper
        modules = package_modules()
        for short, mod in modules.items():
            for owner, attr, member, kind in list(_public_targets(mod)):
                fn = member.__func__ if isinstance(member, (staticmethod, classmethod)) else member
                key = self._key(f"{short}.{attr.strip('_')}", short)
                wrapper = self._span_wrapper(fn, key) if kind == "span" else self._count_wrapper(fn, key)
                wrappers[id(fn)] = wrapper
                if isinstance(member, staticmethod):
                    wrapper = staticmethod(wrapper)
                elif isinstance(member, classmethod):
                    wrapper = classmethod(wrapper)
                plan.append((owner, attr, member, wrapper))
        # copies made by `from .x import y` in other modules and in the package
        planned = {(id(owner), attr) for owner, attr, _, _ in plan}
        for mod in [sys.modules[PACKAGE], *modules.values()]:
            for attr, value in vars(mod).items():
                if isinstance(value, types.FunctionType) and id(value) in wrappers and (id(mod), attr) not in planned:
                    plan.append((mod, attr, value, wrappers[id(value)]))
        return plan

    def _key(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _count_wrapper(self, fn, key: int):
        counts, name = self.counts, self.names[key]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, fn, key: int):
        counts, name = self.counts, self.names[key]
        stack, starts, ends = self._stack, self.start, self.end
        keys, parents, jobs = self.key, self.parent, self.job_of
        observe = self._isolate_observer(fn) if name == "enclosures.isolate_roots" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name] += 1
            if observe is not None:
                observe(args, kwargs)
            index = len(starts)
            keys.append(key)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return traced

    def _isolate_observer(self, fn):
        signature = inspect.signature(fn)

        def observe(args, kwargs):
            bits = signature.bind(*args, **kwargs).arguments.get("precision_bits", 128)
            if bits > self.job_precision:
                self.escalations += 1

        return observe

    # -- derived numbers -------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: span time minus the time of child spans."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {layer: 0.0 for layer in self.layer_of}
        for i, k in enumerate(self.key):
            out[self.layer_of[k]] += (self.end[i] - self.start[i]) - child[i]
        return out

    def root_seconds(self) -> float:
        """Wall time inside top-level spans (the calls into ``cli.main``)."""
        return sum(self.end[i] - self.start[i] for i, p in enumerate(self.parent) if p < 0)

    def layer_calls(self) -> Counter:
        out = Counter()
        for name, calls in self.counts.items():
            out[name.split(".", 1)[0]] += calls
        return out

    def write(self, path: Path) -> None:
        """Spans as CSV: name, start and end (seconds from the first span), parent row, job id.

        The parent is the 0-based row of the enclosing span, -1 for a root.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,job\n")
            for k, s, e, p, j in zip(self.key, self.start, self.end, self.parent, self.job_of):
                fh.write(f"{names[k]},{s - t0:.9f},{e - t0:.9f},{p},{j}\n")
