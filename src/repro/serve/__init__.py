"""Batched selection serving layer.

:class:`SelectionService` answers batches of (collective, job shape,
message size) queries for one cluster on one path: invalid rows
answered inline, quantized + LRU-memoized keys, one vectorized
guard-ladder pass for the distinct misses, JSONL in/out for the
``pml-mpi select`` and ``select-batch`` subcommands.  See
:mod:`repro.serve.service` for the full flow.

On top of it, :mod:`repro.serve.daemon` is the persistent ``pml-mpi
serve`` process: a Unix-socket NDJSON server with admission control,
per-request deadlines, atomic bundle hot-reload
(:mod:`repro.serve.reload`) and crash-safe restart;
:class:`DaemonClient` is the matching blocking client.
"""

from .cache import LRUCache
from .client import DaemonClient, DaemonError
from .columnar import QueryBlock
from .daemon import (
    DAEMON_COUNTER_KEYS,
    DaemonConfig,
    SelectionDaemon,
)
from .protocol import PROTOCOL_VERSION, ProtocolError
from .reload import ReloadResult, Snapshot, SnapshotStore, file_crc32
from .service import (
    ACTION_INVALID,
    SERVE_COUNTER_KEYS,
    DecisionBlock,
    SelectionDecision,
    SelectionQuery,
    SelectionService,
    decisions_to_jsonl,
    queries_from_jsonl,
    quantize_msg_size,
)

__all__ = [
    "ACTION_INVALID",
    "DAEMON_COUNTER_KEYS",
    "DaemonClient",
    "DaemonConfig",
    "DaemonError",
    "DecisionBlock",
    "LRUCache",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueryBlock",
    "ReloadResult",
    "SERVE_COUNTER_KEYS",
    "SelectionDaemon",
    "SelectionDecision",
    "SelectionQuery",
    "SelectionService",
    "Snapshot",
    "SnapshotStore",
    "decisions_to_jsonl",
    "file_crc32",
    "queries_from_jsonl",
    "quantize_msg_size",
]
