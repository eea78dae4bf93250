"""The runtime feedback log: versioned, checksummed JSONL of measured
collective times.

One :class:`FeedbackRecord` is one runtime observation — "on this
cluster, for this communicator shape and message size, the deployed
selector executed *algorithm* and these per-algorithm times were
measured".  ``times`` always contains the executed algorithm; when the
runtime also micro-benchmarked alternatives (the ACCLAiM-style probe),
their times ride along and sharpen the oracle.  ``tick`` is a logical
sequence stamp (monotonically non-decreasing), *not* a wall-clock
time — every adaptation decision is a pure function of the log
contents, so replays are byte-identical.  Producers may assign ticks
explicitly; records left at the default ``tick=0`` are auto-stamped
by :meth:`FeedbackLog.append` so the adaptation fence keeps seeing
fresh rows.

The on-disk format mirrors the trace/dataset artifacts: line 1 is a
``{"__meta__": {...}}`` header with format name, schema version,
record count, and a CRC32 over the record lines; each subsequent line
is one record with sorted keys and compact separators.  Writes go
through :func:`repro.core.resilience.atomic_write_text`; loading
raises the shared typed artifact errors, and the adaptation loop
quarantines (never deletes) a corrupt log via
:func:`repro.core.resilience.quarantine`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..core.dataset import CollectiveRecord
from ..core.resilience import (
    CorruptArtifactError,
    FileLock,
    StaleArtifactError,
    atomic_write_text,
    checksum_lines,
    quarantine,
)
from ..obs.telemetry import get_registry

__all__ = [
    "FEEDBACK_FORMAT",
    "FEEDBACK_VERSION",
    "FeedbackLog",
    "FeedbackRecord",
    "record_from_decision",
]

FEEDBACK_FORMAT = "pml-mpi/feedback"
#: Bump on incompatible record-schema changes.
FEEDBACK_VERSION = 1


@dataclass(frozen=True)
class FeedbackRecord:
    """One runtime-measured selection outcome."""

    cluster: str
    collective: str
    nodes: int
    ppn: int
    msg_size: int
    algorithm: str           # what the deployed selector executed
    times: dict[str, float]  # algorithm -> measured seconds (>= 1 entry)
    tick: int = 0            # producer-assigned logical sequence stamp

    @property
    def best_algorithm(self) -> str:
        """The oracle-from-measurements choice for this observation."""
        return min(self.times, key=self.times.__getitem__)

    @property
    def best_time(self) -> float:
        return min(self.times.values())

    @property
    def executed_time(self) -> float:
        return self.times[self.algorithm]

    def regret(self) -> float:
        """Relative regret of the executed choice vs the measured
        oracle: ``t_executed / t_best - 1`` (0 when it was optimal)."""
        return self.executed_time / self.best_time - 1.0

    def to_collective_record(self) -> CollectiveRecord:
        """The same observation as a training row."""
        return CollectiveRecord(
            cluster=self.cluster, collective=self.collective,
            nodes=self.nodes, ppn=self.ppn, msg_size=self.msg_size,
            times=dict(self.times))

    def to_dict(self) -> dict[str, Any]:
        return {
            "cluster": self.cluster, "collective": self.collective,
            "nodes": self.nodes, "ppn": self.ppn,
            "msg_size": self.msg_size, "algorithm": self.algorithm,
            "times": self.times, "tick": self.tick,
        }


def validate_record(data: Any, where: str = "feedback") -> FeedbackRecord:
    """Strictly validate one decoded record object.

    Raises :class:`CorruptArtifactError` on any structural problem —
    wrong types, empty/non-finite/non-positive times, an executed
    algorithm missing from ``times``, a negative tick.
    """
    if not isinstance(data, dict):
        raise CorruptArtifactError(f"{where}: record is not an object")
    for key in ("cluster", "collective", "algorithm"):
        if not isinstance(data.get(key), str) or not data[key]:
            raise CorruptArtifactError(
                f"{where}: {key!r} must be a non-empty string")
    for key in ("nodes", "ppn", "msg_size"):
        v = data.get(key)
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise CorruptArtifactError(
                f"{where}: {key!r} must be a positive integer")
    tick = data.get("tick", 0)
    if not isinstance(tick, int) or isinstance(tick, bool) or tick < 0:
        raise CorruptArtifactError(
            f"{where}: 'tick' must be a non-negative integer")
    times = data.get("times")
    if not isinstance(times, dict) or not times:
        raise CorruptArtifactError(
            f"{where}: 'times' must be a non-empty object")
    for name, t in times.items():
        if not isinstance(name, str) or not name:
            raise CorruptArtifactError(
                f"{where}: algorithm names must be non-empty strings")
        if isinstance(t, bool) or not isinstance(t, (int, float)) \
                or not math.isfinite(t) or t <= 0:
            raise CorruptArtifactError(
                f"{where}: time for {name!r} must be a finite positive "
                f"number, got {t!r}")
    if data["algorithm"] not in times:
        raise CorruptArtifactError(
            f"{where}: executed algorithm {data['algorithm']!r} has no "
            f"measured time")
    extra = set(data) - {"cluster", "collective", "nodes", "ppn",
                         "msg_size", "algorithm", "times", "tick"}
    if extra:
        raise CorruptArtifactError(
            f"{where}: unknown fields {sorted(extra)}")
    return FeedbackRecord(
        cluster=data["cluster"], collective=data["collective"],
        nodes=data["nodes"], ppn=data["ppn"],
        msg_size=data["msg_size"], algorithm=data["algorithm"],
        times={k: float(v) for k, v in times.items()}, tick=tick)


def record_from_decision(cluster: str, decision: dict[str, Any],
                         times: dict[str, float],
                         tick: int = 0) -> FeedbackRecord:
    """Build a feedback record from a daemon/service decision dict
    (the :meth:`SelectionDecision.to_dict` shape) plus the runtime's
    measured times for that call.

    The decision's ``algorithm`` may legitimately be missing from
    *times* when the runtime measured only alternatives; in that case
    the executed time must still be supplied, so this raises the same
    typed error the log loader would.
    """
    if decision.get("algorithm") is None:
        raise CorruptArtifactError(
            "cannot build feedback from an invalid decision "
            "(algorithm is None)")
    return validate_record({
        "cluster": cluster,
        "collective": decision["collective"],
        "nodes": decision["nodes"],
        "ppn": decision["ppn"],
        "msg_size": decision["msg_size"],
        "algorithm": decision["algorithm"],
        "times": dict(times),
        "tick": tick,
    }, where="decision feedback")


def _record_line(record: FeedbackRecord) -> str:
    return json.dumps(record.to_dict(), sort_keys=True,
                      separators=(",", ":")) + "\n"


class FeedbackLog:
    """Append-mostly feedback artifact with strict load validation.

    ``append`` rewrites the whole file atomically (header checksum
    covers every record line), so a mid-append kill leaves either the
    old valid log or the new valid log — never a torn one.  Feedback
    volumes here are adaptation windows (hundreds to thousands of
    rows), not traces, so the rewrite is cheap.

    Mutations (``append``, and the quarantine rename inside
    ``load_or_quarantine``) are serialized through a sibling
    ``<name>.lock`` :class:`~repro.core.resilience.FileLock`: the
    atomic write only protects against torn files, so without the
    lock two concurrent producers' load-merge-rewrite cycles would
    silently drop each other's records.
    """

    def __init__(self, path: str | Path,
                 lock_timeout_s: float = 10.0) -> None:
        self.path = Path(path)
        self.lock_path = self.path.with_name(self.path.name + ".lock")
        self.lock_timeout_s = lock_timeout_s

    def _lock(self) -> FileLock:
        # Contended lock: leave the file in place on release
        # (unlinking a contended flock file opens a two-holders race).
        return FileLock(self.lock_path, timeout_s=self.lock_timeout_s)

    # -- reading ---------------------------------------------------------
    def load(self) -> list[FeedbackRecord]:
        """Strictly load every record; raises typed artifact errors.

        A missing file is an empty log (the steady state before the
        first runtime observation arrives), not an error.
        """
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return []
        except OSError as exc:
            raise CorruptArtifactError(
                f"feedback log unreadable: {exc}") from exc
        lines = text.splitlines()
        if not lines:
            raise CorruptArtifactError("feedback log is empty (no header)")
        try:
            header = json.loads(lines[0])
        except ValueError as exc:
            raise CorruptArtifactError(
                f"feedback header is not JSON: {exc}") from exc
        meta = header.get("__meta__") if isinstance(header, dict) else None
        if not isinstance(meta, dict):
            raise CorruptArtifactError("feedback log has no __meta__ header")
        if meta.get("format") != FEEDBACK_FORMAT:
            raise CorruptArtifactError(
                f"not a feedback log: format={meta.get('format')!r}")
        if meta.get("version") != FEEDBACK_VERSION:
            raise StaleArtifactError(
                f"feedback log version {meta.get('version')!r}, "
                f"expected {FEEDBACK_VERSION}")
        body = [ln + "\n" for ln in lines[1:]]
        crc = checksum_lines(body)
        if meta.get("crc32") != crc:
            raise CorruptArtifactError(
                f"feedback checksum mismatch: header says "
                f"{meta.get('crc32')!r}, records hash to {crc!r}")
        if meta.get("records") != len(body):
            raise CorruptArtifactError(
                f"feedback record count mismatch: header says "
                f"{meta.get('records')!r}, found {len(body)}")
        records = []
        for i, line in enumerate(body):
            try:
                data = json.loads(line)
            except ValueError as exc:
                raise CorruptArtifactError(
                    f"feedback line {i + 2} is not JSON: {exc}") from exc
            records.append(validate_record(data, where=f"line {i + 2}"))
        return records

    def load_or_quarantine(self) -> tuple[list[FeedbackRecord],
                                          Path | None]:
        """The adaptation loop's ingestion path: a corrupt or stale log
        is quarantined (renamed ``*.corrupt``) and ingestion continues
        with an empty window instead of crashing the sidecar.

        Counts ``adapt.feedback.loads`` = ``adapt.feedback.ok`` +
        ``adapt.feedback.quarantined`` on the ambient registry.
        """
        registry = get_registry()
        registry.counter("adapt.feedback.loads").inc()
        with self._lock():
            try:
                records = self.load()
            except (CorruptArtifactError, StaleArtifactError):
                registry.counter("adapt.feedback.quarantined").inc()
                moved = quarantine(self.path)
                return [], moved
        registry.counter("adapt.feedback.ok").inc()
        return records, None

    # -- writing ---------------------------------------------------------
    def append(self, records: list[FeedbackRecord]) -> Path:
        """Append validated records, atomically rewriting the log.

        The existing log is loaded strictly first — appending to a
        corrupt log raises rather than laundering garbage under a
        fresh checksum.  The load-merge-rewrite runs under the log's
        file lock so concurrent producers cannot lose each other's
        records.

        Records carrying the default ``tick=0`` on a non-empty log (or
        after another default-tick record in the same batch) are
        auto-stamped with the next monotonic tick: the adaptation
        fence filters on ``tick > fence_tick``, so a producer that
        never manages ticks would otherwise have every row after the
        first batch silently dropped as already-judged.  An explicit
        non-zero tick is always kept as given.
        """
        with self._lock():
            existing = self.load()
            last = max((r.tick for r in existing), default=-1)
            stamped = []
            for r in records:
                v = validate_record(r.to_dict())
                if v.tick == 0 and last >= 0:
                    v = dataclasses.replace(v, tick=last + 1)
                stamped.append(v)
                last = max(last, v.tick)
            merged = existing + stamped
            body = [_record_line(r) for r in merged]
            header = json.dumps({"__meta__": {
                "format": FEEDBACK_FORMAT, "version": FEEDBACK_VERSION,
                "records": len(body), "crc32": checksum_lines(body),
            }}, sort_keys=True, separators=(",", ":")) + "\n"
            atomic_write_text(self.path, header + "".join(body))
        get_registry().counter("adapt.feedback.appended").inc(len(records))
        return self.path

    def window(self, size: int) -> list[FeedbackRecord]:
        """The most recent *size* records (by file order, which the
        producer keeps tick-sorted), strictly loaded."""
        records = self.load()
        return records[-size:] if size > 0 else []
