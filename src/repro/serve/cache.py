"""Bounded LRU memo used by the selection service.

A thin, deterministic LRU on :class:`collections.OrderedDict`:
``get`` marks recency, ``put`` evicts the least-recently-used entry
once ``capacity`` is exceeded.  Hit/miss/eviction totals are plain
integer attributes — the service mirrors them into its typed
``serve.*`` counters so the memo itself stays dependency-free.

Thread-safe: every operation holds one internal lock, so the daemon's
worker threads can share a cache without torn recency updates or lost
counter increments (``get`` both reads and reorders, which is *not*
atomic on a bare OrderedDict).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import repeat
from typing import Any, Hashable

__all__ = ["LRUCache"]

#: Unique miss sentinel so ``None`` can be cached as a real value.
_MISSING = object()


class LRUCache:
    """Least-recently-used mapping with a hard capacity bound."""

    def __init__(self, capacity: int) -> None:
        if not isinstance(capacity, int) or isinstance(capacity, bool) \
                or capacity < 1:
            raise ValueError(
                f"capacity must be a positive integer, got {capacity!r}")
        self.capacity = capacity
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (marking it most recent) or
        *default*; counts a hit or a miss either way."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self.hits += 1
            self._data.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh *key* as most recent, evicting the oldest
        entry if the cache would exceed its capacity."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def get_many(self, keys: list[Hashable],
                 counts: list[int] | None = None) -> list[Any]:
        """Probe many distinct keys under one lock acquisition.

        Returns one value (or ``None``) per key.  A hit counts
        ``counts[i]`` hits (a batch answering several duplicates from
        one entry counts each of them); a miss always counts once,
        because the batch computes a missing key once and its
        duplicates count as deduplicated, not as misses.  Recency is
        marked once per distinct hit key, in the order given, so
        duplicate traffic does not inflate recency.
        """
        with self._lock:
            out = list(map(self._data.get, keys, repeat(_MISSING)))
            nmiss = out.count(_MISSING)
            self.misses += nmiss
            if nmiss == len(out):
                # All-miss probe (a cold batch): nothing to re-rank.
                return [None] * len(out)
            move = self._data.move_to_end
            for i, value in enumerate(out):
                if value is _MISSING:
                    out[i] = None
                else:
                    self.hits += counts[i] if counts is not None else 1
                    move(keys[i])
            return out

    def put_many(self, items: list[tuple[Hashable, Any]]) -> int:
        """Insert many entries under one lock acquisition, in order;
        returns how many evictions they caused."""
        with self._lock:
            if not self._data and len(items) <= self.capacity:
                # Empty cache, everything fits: a plain dict build is
                # loop-equivalent as long as the keys are distinct
                # (with duplicates the per-item loop would rank the
                # *last* occurrence, so fall through for those).
                staged = dict(items)
                if len(staged) == len(items):
                    self._data.update(staged)
                    return 0
            before = self.evictions
            for key, value in items:
                if key in self._data:
                    self._data.move_to_end(key)
                self._data[key] = value
                if len(self._data) > self.capacity:
                    self._data.popitem(last=False)
                    self.evictions += 1
            return self.evictions - before

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def keys(self) -> list[Hashable]:
        """Keys from least to most recently used (a snapshot)."""
        with self._lock:
            return list(self._data)
