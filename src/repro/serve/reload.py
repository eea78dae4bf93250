"""Atomic hot-reload of model bundles for the selection daemon.

The daemon serves from an immutable :class:`Snapshot` — a fully built
:class:`~repro.serve.service.SelectionService` (plus the heuristic
floor service used for deadline degradation) tagged with the bundle
file's checksum.  :class:`SnapshotStore` owns the current snapshot and
swaps it under a lock:

* **watch** — :meth:`SnapshotStore.poll` checksums the bundle file; an
  unchanged checksum is a no-op, so the daemon can poll cheaply.
* **verify** — a changed file is loaded through
  :func:`~repro.core.bundle.load_selector`, which validates format,
  version and the embedded CRC before any model object is built.
* **swap** — only a bundle that loaded cleanly replaces the current
  snapshot, atomically under the store lock.  In-flight requests keep
  serving from the old snapshot object (they hold a reference; nothing
  is mutated), so a reload never tears a batch.
* **roll back** — a bundle that fails validation is *rejected*: the
  current snapshot stays in place and the failure is reported, not
  raised.  Rejected reloads do **not** quarantine the file — the
  writer may still be mid-replace; only a bundle that kills a *boot*
  is quarantined (by the daemon, which knows it crashed on it).

Snapshots share one metrics registry across swaps, so ``serve.*`` and
``guard.*`` counters keep accumulating monotonically through reloads —
the counter-partition invariants the chaos harness asserts span
snapshot generations.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..core.bundle import load_selector
from ..core.resilience import ArtifactError
from ..hwmodel.specs import ClusterSpec
from ..obs.telemetry import MetricsRegistry
from ..smpi.guard import GuardedSelector
from ..smpi.heuristics import MvapichDefaultSelector
from .service import SelectionService

__all__ = [
    "ReloadResult",
    "Snapshot",
    "SnapshotStore",
    "file_crc32",
]

#: Snapshot sources.
SOURCE_BUNDLE = "bundle"
SOURCE_FLOOR = "heuristic-floor"


def file_crc32(path: str | Path) -> str | None:
    """CRC32 of the file's bytes as ``"crc32:%08x"``, or ``None`` when
    the file is missing/unreadable (a distinct "no artifact" state)."""
    try:
        data = Path(path).read_bytes()
    except OSError:
        return None
    return f"crc32:{zlib.crc32(data) & 0xFFFFFFFF:08x}"


@dataclass(frozen=True)
class Snapshot:
    """One immutable serving generation.

    ``service`` answers model-backed queries; ``floor`` is the
    heuristic-only service the daemon degrades to when a request's
    deadline expires (it never does model inference, so its latency is
    bounded by table arithmetic).  Both enforce the full guard ladder.
    """

    version: int
    source: str                 # SOURCE_BUNDLE or SOURCE_FLOOR
    bundle_path: str | None
    checksum: str | None
    service: SelectionService
    floor: SelectionService
    #: Adaptation lineage of the loaded bundle (parent checksum,
    #: feedback window, …) when it was produced by the challenger
    #: trainer; ``None`` for offline-trained bundles and the floor.
    lineage: dict[str, Any] | None = None

    def describe(self) -> str:
        origin = self.bundle_path if self.source == SOURCE_BUNDLE \
            else "heuristic floor"
        return f"snapshot v{self.version} ({origin})"


@dataclass(frozen=True)
class ReloadResult:
    """Outcome of one reload attempt."""

    status: str                 # "reloaded" | "unchanged" | "rejected"
    detail: str
    version: int

    def to_dict(self) -> dict[str, Any]:
        return {"status": self.status, "detail": self.detail,
                "version": self.version}


class SnapshotStore:
    """Owner of the daemon's current :class:`Snapshot`.

    Thread-safe: :meth:`current` and the swap in :meth:`reload` are
    guarded by one lock.  Bundle loading and service construction
    happen *outside* the lock — a slow or corrupt bundle never stalls
    readers on the old snapshot.
    """

    def __init__(self, spec: ClusterSpec, bundle_path: str | Path | None,
                 cache_size: int = 4096,
                 registry: MetricsRegistry | None = None) -> None:
        self.spec = spec
        self.bundle_path = Path(bundle_path) \
            if bundle_path is not None else None
        self.cache_size = cache_size
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._lock = threading.Lock()
        self._snapshot: Snapshot | None = None
        self._version = 0

    # -- construction ----------------------------------------------------
    def _floor_service(self) -> SelectionService:
        """A fresh heuristic-floor service (its own guard + memo, same
        shared registry — floor decisions count in the same serve.* /
        guard.* totals)."""
        return SelectionService(
            GuardedSelector(MvapichDefaultSelector(),
                            registry=self.registry), self.spec,
            cache_size=self.cache_size, registry=self.registry)

    def _build(self, source: str, checksum: str | None) -> Snapshot:
        lineage = None
        if source == SOURCE_BUNDLE:
            assert self.bundle_path is not None
            inner = load_selector(self.bundle_path)
            for model in inner.models.values():
                candidate = model.metadata.get("lineage")
                if isinstance(candidate, dict):
                    lineage = candidate
                    break
            selector = GuardedSelector(inner, registry=self.registry)
            service = SelectionService(
                selector, self.spec, cache_size=self.cache_size,
                registry=self.registry)
            bundle = str(self.bundle_path)
        else:
            service = self._floor_service()
            bundle, checksum = None, None
        self._version += 1
        return Snapshot(version=self._version, source=source,
                        bundle_path=bundle, checksum=checksum,
                        service=service, floor=self._floor_service(),
                        lineage=lineage)

    # -- lifecycle -------------------------------------------------------
    def boot(self) -> tuple[Snapshot, str | None]:
        """Build the initial snapshot.

        Returns ``(snapshot, error_detail)``: on a clean bundle load the
        detail is ``None``; when the bundle is missing or invalid the
        store falls back to a heuristic-floor snapshot and the detail
        says why (the daemon decides whether to quarantine).
        """
        error: str | None = None
        if self.bundle_path is None:
            snapshot = self._build(SOURCE_FLOOR, None)
        else:
            checksum = file_crc32(self.bundle_path)
            try:
                if checksum is None:
                    raise FileNotFoundError(self.bundle_path)
                snapshot = self._build(SOURCE_BUNDLE, checksum)
            except (ArtifactError, FileNotFoundError) as exc:
                error = f"{type(exc).__name__}: {exc}"
                snapshot = self._build(SOURCE_FLOOR, None)
        with self._lock:
            self._snapshot = snapshot
        return snapshot, error

    def current(self) -> Snapshot:
        with self._lock:
            if self._snapshot is None:
                raise RuntimeError("SnapshotStore is not booted")
            return self._snapshot

    def poll(self) -> ReloadResult:
        """Reload iff the bundle file's checksum changed."""
        current = self.current()
        if self.bundle_path is None:
            return ReloadResult("unchanged", "no bundle configured",
                                current.version)
        checksum = file_crc32(self.bundle_path)
        if checksum is None:
            # The file vanished: keep serving the loaded snapshot (the
            # writer may be mid-replace); never degrade on a poll.
            return ReloadResult("unchanged", "bundle file unreadable",
                                current.version)
        if checksum == current.checksum:
            return ReloadResult("unchanged", "checksum unchanged",
                                current.version)
        return self.reload(checksum=checksum)

    def reload(self, checksum: str | None = None) -> ReloadResult:
        """Verify-then-swap the bundle; reject (keep current) on any
        validation failure."""
        current = self.current()
        if self.bundle_path is None:
            return ReloadResult("rejected", "no bundle configured",
                                current.version)
        if checksum is None:
            checksum = file_crc32(self.bundle_path)
        if checksum is None:
            return ReloadResult("rejected", "bundle file unreadable",
                                current.version)
        try:
            snapshot = self._build(SOURCE_BUNDLE, checksum)
        except ArtifactError as exc:
            # Roll back: the current snapshot stays in place (the build
            # failed before the version was advanced or the swap taken).
            return ReloadResult(
                "rejected", f"{type(exc).__name__}: {exc}",
                current.version)
        with self._lock:
            self._snapshot = snapshot
        return ReloadResult(
            "reloaded", f"now serving {snapshot.describe()}",
            snapshot.version)
