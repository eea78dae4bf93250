"""Live introspection: flight recorder ring and streaming quantiles.

The offline telemetry layer answers *what happened* after a command
exits (``--trace`` + ``pml-mpi report``).  A long-running daemon needs
the complementary question answered while it is still serving: *what
just happened* — the last N request decisions, shed/degrade events,
hot-reloads, and adaptation verdicts.  This module provides that as a
:class:`FlightRecorder`: a bounded ring buffer of structured
:class:`Event` records on an injectable clock.

Design constraints, matching the rest of ``obs``:

* **Bounded.**  The ring holds at most ``capacity`` events; older
  events are evicted and counted in :attr:`FlightRecorder.dropped`.
  A daemon that serves for a month holds the same memory as one that
  served for a minute.
* **Lock-light.**  One short critical section per event (a deque
  append plus a tick increment); no allocation beyond the event
  itself.  Hot paths record at batch granularity, not per query, so
  the cost is one event per served block whatever its size.
* **Deterministic.**  Events carry a monotonically increasing ``tick``
  (total events ever recorded, never reset by eviction) and a clock
  timestamp; under a fake clock two identical call sequences produce
  byte-identical tails.
* **JSON-total.**  Event fields are restricted to JSON scalars, so
  ``tail`` responses and trace exports never hit a serialization
  error mid-flight.

:func:`quantiles` layers streaming p50/p95/p99 estimation on the
existing fixed-log2-bucket :class:`~repro.obs.telemetry.Histogram`:
within the bucket containing the target rank the estimate
interpolates linearly between the bucket's power-of-two bounds, so
the error is bounded by one bucket width and the estimate is
deterministic for a deterministic observation sequence.

A module-level *ambient* recorder mirrors the ambient tracer/registry
pattern: library code calls :func:`get_recorder` and records only when
the installed recorder is enabled; the default recorder is disabled so
non-daemon paths pay one attribute check and nothing else.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Any, Callable, Iterator

from contextlib import contextmanager

from .telemetry import HIST_MIN_EXP, Histogram, UNDERFLOW_EXP

__all__ = [
    "DEFAULT_CAPACITY",
    "EVENT_KINDS",
    "Event",
    "FlightRecorder",
    "bucket_bounds",
    "get_recorder",
    "quantiles",
    "quantiles_from_buckets",
    "set_recorder",
    "use_recorder",
]

DEFAULT_CAPACITY = 256

#: Closed set of event kinds — the ``tail`` protocol response schema
#: promises clients a kind from this set, so adding one is a protocol
#: decision, not a call-site convenience.
EVENT_KINDS = (
    "request",   # one answered daemon request (op, status, ms)
    "error",     # a non-ok answer worth surfacing (code, detail)
    "reload",    # a hot-reload attempt (status, version)
    "adapt",     # an adaptation verdict (verdict, lineage fields)
    "lifecycle",  # boot / drain / restart markers
)

#: JSON scalar types allowed as event field values.
_SCALAR = (str, int, float, bool, type(None))


class Event:
    """One structured flight-recorder entry."""

    __slots__ = ("kind", "tick", "t", "fields")

    def __init__(self, kind: str, tick: int, t: float,
                 fields: dict[str, Any]) -> None:
        self.kind = kind
        self.tick = tick
        self.t = t
        self.fields = fields

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "tick": self.tick, "t": self.t,
                **self.fields}


class FlightRecorder:
    """Bounded ring of the last ``capacity`` events.

    Thread-safe: the daemon records from its event-loop thread, its
    worker threads, and signal handlers.  The critical section is one
    deque append — contention is bounded by event *rate*, which is at
    most one per request batch.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 clock: Callable[[], float] = time.monotonic,
                 enabled: bool = True) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.clock = clock
        self.enabled = enabled
        self._ring: deque[Event] = deque(maxlen=capacity)
        self._tick = 0
        self._lock = threading.Lock()

    def record(self, kind: str, **fields: Any) -> Event | None:
        """Append one event; returns it, or ``None`` when disabled."""
        if not self.enabled:
            return None
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r} "
                f"(expected one of {', '.join(EVENT_KINDS)})")
        for key, value in fields.items():
            if not isinstance(value, _SCALAR):
                raise TypeError(
                    f"event field {key!r} must be a JSON scalar, "
                    f"got {type(value).__name__}")
        t = float(self.clock())
        with self._lock:
            self._tick += 1
            event = Event(kind, self._tick, t, fields)
            self._ring.append(event)
        return event

    def tail(self, n: int | None = None) -> list[dict[str, Any]]:
        """The newest ``n`` events (oldest first), as plain dicts."""
        with self._lock:
            events = list(self._ring)
        if n is not None:
            if n < 0:
                raise ValueError(f"n must be >= 0, got {n}")
            events = events[len(events) - min(n, len(events)):]
        return [e.to_dict() for e in events]

    @property
    def total(self) -> int:
        """Events ever recorded (monotone; survives eviction)."""
        return self._tick

    @property
    def dropped(self) -> int:
        """Events evicted from the ring so far."""
        with self._lock:
            return self._tick - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)


# ---------------------------------------------------------------------------
# Streaming quantiles over log2 histogram buckets
# ---------------------------------------------------------------------------

def bucket_bounds(exp: int) -> tuple[float, float]:
    """``(lower, upper]`` value bounds of log2 bucket ``exp``.

    The underflow bucket collapses to ``(0, 0]`` (non-positive values
    carry no magnitude information); the bottom in-range bucket's
    lower bound is 0 because values below ``2**HIST_MIN_EXP`` clamp
    into it.
    """
    if exp <= UNDERFLOW_EXP:
        return 0.0, 0.0
    if exp <= HIST_MIN_EXP:
        return 0.0, math.ldexp(1.0, exp)
    return math.ldexp(1.0, exp - 1), math.ldexp(1.0, exp)


def quantiles_from_buckets(buckets: dict[int, int],
                           qs: tuple[float, ...] = (0.5, 0.95, 0.99),
                           ) -> dict[float, float]:
    """Quantile estimates from a ``{exponent: count}`` bucket map.

    For each ``q`` the target rank ``q * total`` is located in the
    cumulative bucket sequence and the estimate interpolates linearly
    within that bucket's bounds — bounded error (one bucket width),
    no stored observations.  An empty histogram estimates 0.0
    everywhere.
    """
    for q in qs:
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
    total = sum(buckets.values())
    out: dict[float, float] = {}
    if total == 0:
        return {q: 0.0 for q in qs}
    ordered = sorted(buckets.items())
    for q in qs:
        rank = q * total
        cumulative = 0
        estimate = bucket_bounds(ordered[-1][0])[1]
        for exp, count in ordered:
            if count == 0:
                continue
            if cumulative + count >= rank:
                lower, upper = bucket_bounds(exp)
                fraction = (rank - cumulative) / count
                estimate = lower + fraction * (upper - lower)
                break
            cumulative += count
        out[q] = estimate
    return out


def quantiles(histogram: Histogram,
              qs: tuple[float, ...] = (0.5, 0.95, 0.99),
              ) -> dict[float, float]:
    """Quantile estimates for a live :class:`Histogram`."""
    with histogram._lock:
        buckets = dict(histogram.buckets)
    return quantiles_from_buckets(buckets, qs)


# ---------------------------------------------------------------------------
# Ambient recorder
# ---------------------------------------------------------------------------

#: Library default: a disabled recorder, so instrumentation sites cost
#: one attribute check unless a daemon (or test) installs a real one.
_ACTIVE_RECORDER = FlightRecorder(capacity=1, enabled=False)


def get_recorder() -> FlightRecorder:
    """The process's ambient flight recorder (disabled by default)."""
    return _ACTIVE_RECORDER


def set_recorder(recorder: FlightRecorder) -> FlightRecorder:
    """Install *recorder* as ambient; returns the previous one."""
    global _ACTIVE_RECORDER
    previous, _ACTIVE_RECORDER = _ACTIVE_RECORDER, recorder
    return previous


@contextmanager
def use_recorder(recorder: FlightRecorder | None = None,
                 ) -> Iterator[FlightRecorder]:
    """Scoped installation of an ambient recorder (restored on exit)."""
    recorder = recorder if recorder is not None else FlightRecorder()
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
