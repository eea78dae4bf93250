"""A small discrete-event simulation engine.

This is the execution substrate for the simulated MPI library: ranks are
generator-based processes that yield *events* (timeouts, resource
requests, mailbox receives), and the engine advances a simulated clock
through a binary-heap event calendar.  The style follows SimPy, but the
implementation is self-contained and deliberately minimal — only the
primitives the collective algorithms need.

Typical use::

    sim = Simulator()

    def worker(sim, mbox):
        yield sim.timeout(1.5)
        msg = yield mbox.get()
        ...

    Process(sim, worker(sim, mbox))
    sim.run()
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (double-trigger, etc.)."""


class Event:
    """A one-shot occurrence with a value and resume callbacks."""

    __slots__ = ("sim", "callbacks", "_value", "_ok", "triggered")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok = True
        self.triggered = False

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event now; callbacks run at the current sim time."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self._value = value
        self.sim._queue_event(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception to raise in the waiter."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self._ok = False
        self._value = exc
        self.sim._queue_event(self)
        return self


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        super().__init__(sim)
        self.triggered = True
        sim._schedule(sim.now + delay, self)


class Process(Event):
    """Wraps a generator; completes (as an Event) when the generator
    returns.  The generator yields Events and is resumed with each
    event's value."""

    __slots__ = ("_gen",)

    def __init__(self, sim: "Simulator",
                 gen: Generator[Event, Any, Any]) -> None:
        super().__init__(sim)
        self._gen = gen
        # Bootstrap on a zero-delay event so creation order does not
        # matter within a time step.
        init = Event(sim)
        init.callbacks.append(self._resume)
        init.succeed(None)

    def _resume(self, event: Event) -> None:
        try:
            if event._ok:
                target = self._gen.send(event._value)
            else:
                target = self._gen.throw(event._value)
        except StopIteration as stop:
            if not self.triggered:
                self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}, expected an Event"
            )
        target.callbacks.append(self._resume)


class Simulator:
    """Event calendar + clock."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._pending: deque[Event] = deque()

    # -- scheduling ----------------------------------------------------
    def _schedule(self, when: float, event: Event) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, event))

    def _queue_event(self, event: Event) -> None:
        """Queue an already-triggered event for processing at now."""
        self._schedule(self.now, event)

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def event(self) -> Event:
        return Event(self)

    def process(self, gen: Generator[Event, Any, Any]) -> Process:
        return Process(self, gen)

    # -- running -------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Process events until the calendar drains (or *until*).
        Returns the final simulation time."""
        while self._heap:
            when, _, event = self._heap[0]
            if until is not None and when > until:
                self.now = until
                return self.now
            heapq.heappop(self._heap)
            self.now = when
            callbacks, event.callbacks = event.callbacks, []
            for cb in callbacks:
                cb(event)
        return self.now


class AllOf(Event):
    """Fires when every child event has fired; value is the list of
    child values in input order."""

    __slots__ = ("_waiting", "_events")

    def __init__(self, sim: Simulator, events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._waiting = len(self._events)
        if self._waiting == 0:
            self.succeed([])
            return
        for ev in self._events:
            ev.callbacks.append(self._child_done)

    def _child_done(self, event: Event) -> None:
        if not event._ok:
            if not self.triggered:
                self.fail(event._value)
            return
        self._waiting -= 1
        if self._waiting == 0 and not self.triggered:
            self.succeed([ev._value for ev in self._events])


class Resource:
    """A FIFO resource with integer capacity (e.g. a NIC port engine).

    ``request()`` returns an Event that fires when a slot is granted;
    the holder must call ``release()`` exactly once.
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._queue: deque[Event] = deque()

    def request(self) -> Event:
        ev = self.sim.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(None)
        else:
            self._queue.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release without matching request")
        if self._queue:
            # Hand the slot directly to the next waiter.
            self._queue.popleft().succeed(None)
        else:
            self._in_use -= 1

    def use(self, hold_time: float) -> Generator[Event, Any, None]:
        """Generator helper: acquire, hold for *hold_time*, release."""
        yield self.request()
        try:
            yield self.sim.timeout(hold_time)
        finally:
            self.release()


class Mailbox:
    """Tag/sender-matched message store (MPI-style matching).

    Messages are (src, tag, payload) triples.  ``get`` blocks until a
    message matching the requested (src, tag) is present.  FIFO per
    (src, tag) channel, which mirrors MPI's non-overtaking guarantee.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._messages: dict[tuple[int, int], deque[Any]] = {}
        self._waiting: dict[tuple[int, int], deque[Event]] = {}

    def put(self, src: int, tag: int, payload: Any) -> None:
        key = (src, tag)
        waiters = self._waiting.get(key)
        if waiters:
            waiters.popleft().succeed(payload)
            if not waiters:
                del self._waiting[key]
        else:
            self._messages.setdefault(key, deque()).append(payload)

    def get(self, src: int, tag: int) -> Event:
        key = (src, tag)
        msgs = self._messages.get(key)
        ev = self.sim.event()
        if msgs:
            ev.succeed(msgs.popleft())
            if not msgs:
                del self._messages[key]
        else:
            self._waiting.setdefault(key, deque()).append(ev)
        return ev

    @property
    def undelivered(self) -> int:
        """Messages put but never matched by a get (should be 0 after a
        clean collective)."""
        return sum(len(q) for q in self._messages.values())
