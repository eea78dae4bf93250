"""Versioned JSONL trace export and strictly-validated loading.

The on-disk format mirrors the dataset cache (PR 1): line 1 is a
``{"__meta__": {...}}`` header carrying the format name, schema
version, record count and a CRC32 over the record lines; every
subsequent line is one record object::

    {"type": "span",      "id": 3, "parent": 1, "name": "tune",
     "start": 0.0, "end": 1.5, "attrs": {...}}
    {"type": "counter",   "name": "guard.queries", "value": 12}
    {"type": "gauge",     "name": "tune.n_configs", "value": 84.0}
    {"type": "histogram", "name": "collect.best_time_us",
     "count": 9, "sum": 123.4, "buckets": {"3": 4, "4": 5}}

Records are serialized with sorted keys and compact separators, spans
in id order and metrics in name order, so a deterministic run (fake
clock, fixed seed) produces a byte-identical file.

Writes go through :func:`repro.core.resilience.atomic_write_text`
(tmp + ``os.replace``); loading raises the same typed artifact errors
``pml-mpi doctor`` understands — :class:`CorruptArtifactError` for
garbage, :class:`StaleArtifactError` for a trace from another schema
era.  :func:`export_trace` *appends* by default: an existing valid
trace's records are retained (span ids re-based, metrics merged), so a
multi-command session (``collect`` → ``train`` → ``tune`` → ``select``,
each with ``--trace t.jsonl``) accumulates one coherent trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .telemetry import MetricsRegistry, Tracer, get_registry, get_tracer

__all__ = ["TRACE_FORMAT", "TRACE_VERSION", "TraceData",
           "encode_trace", "export_trace", "load_trace", "parse_trace"]

TRACE_FORMAT = "pml-mpi/trace"
#: Bump on incompatible record-schema changes.
TRACE_VERSION = 1

_RECORD_TYPES = ("span", "counter", "gauge", "histogram")


def _resilience():
    """Lazy import: keeps this package a leaf (``repro.core.__init__``
    pulls in modules that import ``repro.obs`` at module level)."""
    from ..core import resilience
    return resilience


@dataclass
class TraceData:
    """A validated, in-memory trace."""

    spans: list[dict[str, Any]] = field(default_factory=list)
    metrics: list[dict[str, Any]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.spans) + len(self.metrics)

    def counters(self) -> dict[str, int]:
        return {m["name"]: m["value"] for m in self.metrics
                if m["type"] == "counter"}

    def gauges(self) -> dict[str, float]:
        return {m["name"]: m["value"] for m in self.metrics
                if m["type"] == "gauge"}

    def histograms(self) -> dict[str, dict[str, Any]]:
        return {m["name"]: m for m in self.metrics
                if m["type"] == "histogram"}

    def root_spans(self) -> list[dict[str, Any]]:
        """Top-level spans (the pipeline *stages*), in id order."""
        return [s for s in self.spans if s["parent"] is None]

    def children(self) -> dict[int | None, list[dict[str, Any]]]:
        out: dict[int | None, list[dict[str, Any]]] = {}
        for s in self.spans:
            out.setdefault(s["parent"], []).append(s)
        return out


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _record_line(record: dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")) + "\n"


def _merge_metrics(old: list[dict[str, Any]],
                   new: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Fold *new* metric records into *old* by (name, type).

    Counters and histograms accumulate; gauges take the newer value.
    A kind collision (same name, different type) is a caller bug and
    raises ``ValueError``.
    """
    merged: dict[str, dict[str, Any]] = {m["name"]: dict(m) for m in old}
    for record in new:
        name = record["name"]
        prev = merged.get(name)
        if prev is None:
            merged[name] = dict(record)
            continue
        if prev["type"] != record["type"]:
            raise ValueError(
                f"metric {name!r} changed kind between trace runs "
                f"({prev['type']} vs {record['type']})")
        if record["type"] == "counter":
            prev["value"] += record["value"]
        elif record["type"] == "gauge":
            prev["value"] = record["value"]
        else:  # histogram
            prev["count"] += record["count"]
            prev["sum"] += record["sum"]
            buckets = dict(prev["buckets"])
            for exp, count in record["buckets"].items():
                buckets[exp] = buckets.get(exp, 0) + count
            prev["buckets"] = {e: buckets[e]
                               for e in sorted(buckets, key=int)}
    return [merged[name] for name in sorted(merged)]


def _rebase_spans(existing: list[dict[str, Any]],
                  new: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Re-id *new* spans to follow *existing* ones."""
    offset = max((s["id"] for s in existing), default=0)
    out = list(existing)
    for s in new:
        s = dict(s)
        s["id"] += offset
        if s["parent"] is not None:
            s["parent"] += offset
        out.append(s)
    return out


def encode_trace(spans: list[dict[str, Any]],
                 metrics: list[dict[str, Any]]) -> str:
    """The full JSONL document (header + records) for a trace."""
    res = _resilience()
    lines = [_record_line(s) for s in spans]
    lines += [_record_line(m) for m in metrics]
    header = {"__meta__": {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "records": len(lines),
        "crc32": res.checksum_lines(lines),
    }}
    return _record_line(header) + "".join(lines)


def export_trace(path: str | Path, tracer: Tracer | None = None,
                 registry: MetricsRegistry | None = None,
                 append: bool = True) -> Path:
    """Atomically write (or extend) the trace file at *path*.

    With ``append=True`` (the default) an existing valid trace's
    records are kept: new span ids are re-based past the old ones and
    metrics merge by name.  An existing *corrupt* file raises instead
    of being silently clobbered — quarantine or delete it first.

    The load→rebase→merge→rewrite cycle runs under a sibling file
    lock (``<path>.lock``), so two processes finishing with the same
    ``--trace`` file at the same time serialize: both runs' spans and
    metrics land in the final trace instead of the slower writer
    resurrecting the pre-merge file it loaded before the faster one
    wrote.  The lock file stays in place on release (unlinking a
    contended lock opens a two-holders race — same rule as the
    feedback log).
    """
    path = Path(path)
    res = _resilience()
    tracer = tracer if tracer is not None else get_tracer()
    registry = registry if registry is not None else get_registry()
    spans = tracer.export_spans()
    metrics = registry.export_metrics()
    path.parent.mkdir(parents=True, exist_ok=True)
    with res.FileLock(path.with_name(path.name + ".lock"),
                      timeout_s=30.0):
        if append and path.exists():
            previous = load_trace(path)
            spans = _rebase_spans(previous.spans, spans)
            metrics = _merge_metrics(previous.metrics, metrics)
        return res.atomic_write_text(path, encode_trace(spans, metrics))


# ---------------------------------------------------------------------------
# Strict loading
# ---------------------------------------------------------------------------

def _fail(where: str, message: str) -> None:
    raise _resilience().CorruptArtifactError(f"{where}: {message}")


def _check_number(where: str, record: dict, key: str,
                  allow_none: bool = False) -> None:
    value = record.get(key)
    if value is None and allow_none:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(where, f"{key} is not a number ({value!r})")
    if not math.isfinite(value):
        _fail(where, f"{key} is not finite ({value!r})")


def _validate_span(where: str, record: dict[str, Any],
                   seen_ids: set[int]) -> None:
    if set(record) != {"type", "id", "parent", "name", "start", "end",
                       "attrs"}:
        _fail(where, f"span keys {sorted(record)} do not match schema")
    span_id = record["id"]
    if isinstance(span_id, bool) or not isinstance(span_id, int) \
            or span_id < 1:
        _fail(where, f"span id {span_id!r} is not a positive integer")
    if span_id in seen_ids:
        _fail(where, f"duplicate span id {span_id}")
    parent = record["parent"]
    if parent is not None:
        if isinstance(parent, bool) or not isinstance(parent, int):
            _fail(where, f"span parent {parent!r} is not an integer")
        if parent not in seen_ids:
            _fail(where, f"span {span_id} references unknown parent "
                         f"{parent} (parents must precede children)")
    if not isinstance(record["name"], str) or not record["name"]:
        _fail(where, "span name must be a non-empty string")
    _check_number(where, record, "start")
    _check_number(where, record, "end", allow_none=True)
    if record["end"] is not None and record["end"] < record["start"]:
        _fail(where, f"span {span_id} ends before it starts "
                     f"({record['end']} < {record['start']})")
    if not isinstance(record["attrs"], dict):
        _fail(where, "span attrs must be an object")
    seen_ids.add(span_id)


def _validate_metric(where: str, record: dict[str, Any],
                     seen_names: set[str]) -> None:
    name = record.get("name")
    if not isinstance(name, str) or not name:
        _fail(where, "metric name must be a non-empty string")
    if name in seen_names:
        _fail(where, f"duplicate metric {name!r}")
    seen_names.add(name)
    if record["type"] == "counter":
        if set(record) != {"type", "name", "value"}:
            _fail(where, f"counter keys {sorted(record)} do not match "
                         f"schema")
        value = record["value"]
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < 0:
            _fail(where, f"counter {name!r} value {value!r} is not a "
                         f"non-negative integer")
    elif record["type"] == "gauge":
        if set(record) != {"type", "name", "value"}:
            _fail(where, f"gauge keys {sorted(record)} do not match "
                         f"schema")
        _check_number(where, record, "value")
    else:  # histogram
        if set(record) != {"type", "name", "count", "sum", "buckets"}:
            _fail(where, f"histogram keys {sorted(record)} do not "
                         f"match schema")
        count = record["count"]
        if isinstance(count, bool) or not isinstance(count, int) \
                or count < 0:
            _fail(where, f"histogram {name!r} count {count!r} invalid")
        _check_number(where, record, "sum")
        buckets = record["buckets"]
        if not isinstance(buckets, dict):
            _fail(where, f"histogram {name!r} buckets is not an object")
        total = 0
        for exp, bucket_count in buckets.items():
            try:
                int(exp)
            except (TypeError, ValueError):
                _fail(where, f"histogram {name!r} bucket key {exp!r} "
                             f"is not an integer exponent")
            if isinstance(bucket_count, bool) \
                    or not isinstance(bucket_count, int) \
                    or bucket_count < 1:
                _fail(where, f"histogram {name!r} bucket {exp!r} count "
                             f"{bucket_count!r} invalid")
            total += bucket_count
        if total != count:
            _fail(where, f"histogram {name!r} bucket counts sum to "
                         f"{total}, header says {count}")


def parse_trace(text: str, where: str = "trace") -> TraceData:
    """Parse and strictly validate a trace document.

    Any structural problem raises
    :class:`~repro.core.resilience.CorruptArtifactError`; a trace from
    another ``TRACE_VERSION`` raises
    :class:`~repro.core.resilience.StaleArtifactError`.
    """
    res = _resilience()
    lines = text.splitlines(keepends=True)
    if not lines:
        _fail(where, "file is empty")
    try:
        first = json.loads(lines[0])
    except ValueError as exc:
        raise res.CorruptArtifactError(
            f"{where}: line 1 is not JSON: {exc}") from None
    if not isinstance(first, dict) or "__meta__" not in first \
            or not isinstance(first["__meta__"], dict):
        _fail(where, "missing __meta__ header on line 1")
    meta = first["__meta__"]
    fmt = meta.get("format")
    if fmt != TRACE_FORMAT:
        _fail(where, f"not a trace file (format {fmt!r})")
    version = meta.get("version")
    if version != TRACE_VERSION:
        raise res.StaleArtifactError(
            f"{where}: trace version {version!r}, expected "
            f"{TRACE_VERSION!r}")
    body = lines[1:]
    expected = meta.get("records")
    if expected != len(body):
        _fail(where, f"truncated: header says {expected!r} records, "
                     f"found {len(body)}")
    stored_crc = meta.get("crc32")
    actual = res.checksum_lines(body)
    if stored_crc != actual:
        _fail(where, f"checksum mismatch: stored {stored_crc!r}, "
                     f"computed {actual}")

    data = TraceData()
    seen_ids: set[int] = set()
    seen_names: set[str] = set()
    for lineno, line in enumerate(body, 2):
        rec_where = f"{where} line {lineno}"
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise res.CorruptArtifactError(
                f"{rec_where}: not JSON: {exc}") from None
        if not isinstance(record, dict):
            _fail(rec_where, "record is not an object")
        rtype = record.get("type")
        if rtype not in _RECORD_TYPES:
            _fail(rec_where, f"unknown record type {rtype!r}")
        if rtype == "span":
            _validate_span(rec_where, record, seen_ids)
            data.spans.append(record)
        else:
            _validate_metric(rec_where, record, seen_names)
            data.metrics.append(record)
    return data


def load_trace(path: str | Path) -> TraceData:
    """Load and strictly validate the trace file at *path*."""
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise _resilience().CorruptArtifactError(
            f"cannot read trace {path}: {exc}") from None
    return parse_trace(text, where=f"trace {path}")
