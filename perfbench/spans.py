"""Benchmark-side spans around the program's public entry points.

The benchmark never edits the program: it replaces module or class
attributes with timing wrappers before the workload runs.  Only
synchronous functions are wrapped, and every thread keeps its own span
stack, so the spans of one thread nest exactly and a span's self time
is its duration minus the durations of its direct children.

Each finished span is kept as one record
``(layer, start, end, self_s, root, amount, tag)`` in memory and
written out when the traced process ends.  ``root`` is the layer of
the outermost span open on the thread when the span started (``None``
for a span that is itself outermost); ``amount`` carries a per-call
size (rows predicted, bytes parsed) where the wrapper knows one;
``tag`` is the value of :data:`TAG` in the calling context (the
daemon launcher sets it to the id of the request being served).
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable

__all__ = ["TAG", "Recorder", "load_records", "self_times", "intervals"]

#: Context-local tag stamped on every span record.
TAG: contextvars.ContextVar = contextvars.ContextVar("perfbench_tag",
                                                     default=None)


class Recorder:
    """Collects span records from every thread of one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self.records: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, fn: Callable, layer: str,
              amount: Callable[[tuple, Any], float] | None = None
              ) -> Callable:
        """*fn* wrapped in a span named *layer*."""
        records = self.records
        stack_of = self._stack
        clock = time.perf_counter
        tag = TAG.get

        def wrapper(*args, **kwargs):
            stack = stack_of()
            root = stack[0][1] if stack else None
            frame = [0.0, layer]
            stack.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                size = amount(args, result) if amount is not None \
                    and result is not None else 0
                records.append((layer, t0, t1, dur - frame[0], root, size,
                                tag()))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def patch(self, owner: Any, attr: str, layer: str,
              amount: Callable[[tuple, Any], float] | None = None) -> None:
        """Replace ``owner.attr`` (function, method or staticmethod)
        with a timed wrapper.  A missing entry point is an error: a
        layer that silently read 0 would pass for a speed-up."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) \
            else None
        if raw is None:
            raw = getattr(owner, attr, None)
        if raw is None:
            raise AttributeError(
                f"{getattr(owner, '__name__', owner)}.{attr} is gone; "
                f"the {layer!r} layer cannot be measured")
        if isinstance(raw, staticmethod):
            setattr(owner, attr,
                    staticmethod(self.timed(raw.__func__, layer, amount)))
        else:
            setattr(owner, attr,
                    self.timed(getattr(owner, attr), layer, amount))

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps({"records": self.records}))


def load_records(path: str | Path) -> list[tuple]:
    return [tuple(r) for r in json.loads(Path(path).read_text())["records"]]


def self_times(records: list[tuple]) -> dict[str, dict[str, float]]:
    """Per-layer totals: ``self_s``, ``total_s`` (duration), ``calls``,
    ``amount``, and ``root_s`` (duration of spans with no parent)."""
    out: dict[str, dict[str, float]] = {}
    for layer, t0, t1, self_s, root, amount, _ in records:
        row = out.setdefault(layer, {"self_s": 0.0, "total_s": 0.0,
                                     "calls": 0, "amount": 0.0,
                                     "root_s": 0.0})
        row["self_s"] += self_s
        row["total_s"] += t1 - t0
        row["calls"] += 1
        row["amount"] += amount
        if root is None:
            row["root_s"] += t1 - t0
    return out


def intervals(records: list[tuple]) -> tuple[float, float]:
    """(sum, union length) of the outermost spans' durations: the two
    differ only when outermost spans overlap."""
    roots = sorted((r[1], r[2]) for r in records if r[4] is None)
    total = sum(b - a for a, b in roots)
    union = 0.0
    end = float("-inf")
    for a, b in roots:
        if b > end:
            union += b - max(a, end)
            end = b
    return total, union
