"""In-memory span recorder that wraps the public functions of weylfit's modules.

A span is (id, name, start, end, parent, session).  Parents come from a
thread-local stack, so calls made by worker threads start their own roots.
Spans stay in memory and are written out once, when the command ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from types import ModuleType


class Recorder:
    def __init__(self, session: str):
        self.session = session
        self.spans: list[list] = []  # [id, name, start, end, parent, session]
        self.counts: dict[str, float] = {}
        self.broken: set[str] = set()  # counters whose function changed shape
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counter=None):
        """Return `fn` wrapped in a span named `name`; `counter` is (metric, count)."""
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [next(self._ids), name, time.monotonic(), None,
                    stack[-1] if stack else None, self.session]
            self.spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = time.monotonic()
            if counter is not None:
                self._count(counter, signature, args, kwargs, result)
            return result

        return traced

    def _count(self, counter, signature, args, kwargs, result) -> None:
        metric, count = counter
        if metric in self.broken:
            return
        try:
            value = count(signature.bind(*args, **kwargs).arguments, result)
        except (KeyError, TypeError, AttributeError, OSError):
            # the function no longer has the argument or result the
            # counter reads: drop the metric rather than fail the command
            self.broken.add(metric)
            return
        self.counts[metric] = self.counts.get(metric, 0) + value


def install(recorder: Recorder, modules: dict[str, ModuleType], counters: dict) -> list[str]:
    """Wrap every public function defined in `modules`; return the span names.

    Every reference to a wrapped function in any of the modules is rebound,
    so calls made inside a module or through `from x import f` are traced.
    """
    wrapped = {}
    for short, module in modules.items():
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                name = f"{short}.{attr}"
                wrapped[value] = (name, recorder.wrap(name, value, counters.get(name)))
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value][1])
    return sorted(name for name, _ in wrapped.values())


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append(span)
    out = {}
    for span in spans:
        start, end = span[2], span[3]
        covered, reach = 0.0, start
        for child in sorted(children.get(span[0], ()), key=lambda c: c[2]):
            lo, hi = max(child[2], reach), min(child[3], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span[0]] = (end - start) - covered
    return out
