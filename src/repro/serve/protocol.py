"""Wire protocol of the selection daemon.

Newline-delimited JSON over a Unix domain socket: each request is one
JSON object on one line, each response is one JSON object on one line,
and responses carry the request's ``id`` so a pipelining client can
match them up.  Plain text + stdlib ``json`` keeps the daemon
dependency-free and debuggable with ``socat`` / ``nc``.

Requests::

    {"id": 1, "op": "select", "queries": [{"collective": "allgather",
     "nodes": 2, "ppn": 8, "msg_size": 4096}], "deadline_ms": 50}
    {"id": 2, "op": "ping"}
    {"id": 3, "op": "stats"}
    {"id": 4, "op": "reload"}
    {"id": 5, "op": "shutdown"}
    {"id": 6, "op": "metrics"}
    {"id": 7, "op": "tail", "n": 32}
    {"id": 8, "op": "health"}

Protocol **v2** added the three introspection ops (all answered even
while draining — an operator must be able to watch a drain):
``metrics`` returns the whole registry as Prometheus exposition text
(``body``), ``tail`` returns the newest ``n`` flight-recorder events
(``n`` optional, capped at :data:`MAX_TAIL_EVENTS` so the response
stays bounded), and ``health`` returns the daemon's SLO burn-rate
verdict (``ok`` / ``warn`` / ``page``).  v1 clients are unaffected:
no v1 request or response shape changed.

Responses are ``{"id": ..., "ok": true, ...}`` on success or
``{"id": ..., "ok": false, "error": {"code": ..., "detail": ...}}``
on failure, with ``code`` drawn from a small closed set
(:data:`ERROR_CODES`) so clients can switch on it:

``bad-request``
    The line was not a well-formed request (parse error, unknown op,
    oversized line or batch).  Note the asymmetry with *malformed
    queries*: a syntactically valid ``select`` whose queries are
    semantically junk still succeeds — each junk query comes back as a
    decision with ``action="invalid"``, exactly like the offline
    ``select-batch`` path.

Query contract: ``nodes``, ``ppn`` and ``msg_size`` must be JSON
integers (``true`` and ``1024.0`` are not) with ``1 <= msg_size <=
2**62``, and the job shape must fit the served cluster; ``collective``
must name a known collective.  Any other query is answered
``invalid``, whatever the daemon's memo holds, so an answer never
depends on which queries came before it.
``overloaded``
    Admission control refused the request (breaker open or the
    in-flight cap reached).  Back off and retry; do not queue.
``draining``
    The daemon is shutting down and no longer admits work.
``internal``
    The never-raises contract was violated inside the daemon.  Counted
    separately so the chaos harness can assert it stays at zero.

Parsing is strict and total: :func:`parse_request` raises only
:class:`ProtocolError` (carrying the error code for the response), and
:func:`encode` emits deterministic JSON (sorted keys, compact
separators) so byte-identical requests get byte-identical responses.

The select path is columnar on the wire in both directions: the parser
turns a batch into one :class:`~repro.serve.columnar.QueryBlock`, and
:func:`encode` writes a :class:`~repro.serve.service.DecisionBlock`
reply straight from its columns, byte-identical to ``json.dumps`` of
:meth:`~repro.serve.service.DecisionBlock.to_dicts` (DESIGN.md §11).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from json.encoder import encode_basestring_ascii
from operator import is_not
from typing import Any

import numpy as np

from .columnar import QueryBlock
from .service import DecisionBlock, SelectionQuery

__all__ = [
    "DEFAULT_MAX_BATCH",
    "DEFAULT_TAIL_EVENTS",
    "ERROR_CODES",
    "MAX_LINE_BYTES",
    "MAX_TAIL_EVENTS",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "encode",
    "error_response",
    "ok_response",
    "parse_request",
]

#: v2: introspection ops ``metrics`` / ``tail`` / ``health``.
PROTOCOL_VERSION = 2

#: A request line longer than this is rejected before JSON parsing —
#: the daemon's read buffer is bounded, so a hostile client cannot
#: balloon memory with one endless line.
MAX_LINE_BYTES = 1 << 20

#: Default cap on queries per ``select`` request.
DEFAULT_MAX_BATCH = 10_000

#: ``tail`` response bounds: default and hard cap on events returned.
DEFAULT_TAIL_EVENTS = 32
MAX_TAIL_EVENTS = 512

OPS = ("select", "ping", "stats", "reload", "shutdown",
       "metrics", "tail", "health")

ERROR_CODES = ("bad-request", "overloaded", "draining", "internal")


class ProtocolError(ValueError):
    """A request the daemon must answer with an error response."""

    def __init__(self, detail: str, code: str = "bad-request") -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(detail)
        self.code = code
        self.detail = detail


@dataclass(frozen=True)
class Request:
    """One parsed client request.

    ``block`` holds a ``select`` batch in columnar form, built in one
    column pass at parse time (``None`` for every other op): the daemon
    feeds it straight into the service, so parsing a 10k-query line
    allocates no per-query objects.  Nothing writes to it afterwards,
    which lets a deadline-floor answer read it while an abandoned
    batch may still be running on it.
    """

    id: Any
    op: str
    block: QueryBlock | None = None
    deadline_ms: float | None = None
    n: int | None = None

    @property
    def queries(self) -> tuple[SelectionQuery, ...]:
        """The batch as :class:`SelectionQuery` objects, built from the
        block's columns on each access (``()`` for non-select ops)."""
        if self.block is None:
            return ()
        return tuple(map(SelectionQuery, *self.block.cols))


def _check_query(index: int, record: Any) -> None:
    """Raise for a row that is not an object with the four query keys."""
    if not isinstance(record, dict):
        raise ProtocolError(
            f"queries[{index}] must be a JSON object, "
            f"got {type(record).__name__}")
    missing = [k for k in ("collective", "nodes", "ppn", "msg_size")
               if k not in record]
    if missing:
        raise ProtocolError(
            f"queries[{index}] missing key(s): {', '.join(missing)}")
    # Values pass through verbatim: semantic junk (negative sizes,
    # bogus shapes) is the *service's* job to classify as invalid
    # decisions, not the protocol's job to reject.


def parse_request(line: str | bytes,
                  max_batch: int = DEFAULT_MAX_BATCH) -> Request:
    """Parse one request line; raises :class:`ProtocolError` only."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                f"request line exceeds {MAX_LINE_BYTES} bytes")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not UTF-8: {exc}") from None
    elif len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"request line exceeds {MAX_LINE_BYTES} bytes")
    try:
        record = json.loads(line)
    except ValueError as exc:  # also an int past the digit limit
        raise ProtocolError(f"request is not valid JSON: {exc}") \
            from None
    if not isinstance(record, dict):
        raise ProtocolError(
            f"request must be a JSON object, "
            f"got {type(record).__name__}")
    op = record.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r} (expected one of {', '.join(OPS)})")
    req_id = record.get("id")
    if not isinstance(req_id, (str, int)) or isinstance(req_id, bool):
        raise ProtocolError("request id must be a string or integer")

    deadline_ms = record.get("deadline_ms")
    if deadline_ms is not None:
        # ``json.loads`` parses ``NaN``, ``Infinity`` and ``1e400`` to
        # non-finite floats and a long digit string to an int past the
        # float range; the range check fails for all of them.
        if isinstance(deadline_ms, bool) \
                or not isinstance(deadline_ms, (int, float)) \
                or not 0 < deadline_ms <= sys.float_info.max:
            raise ProtocolError(
                f"deadline_ms must be a finite positive number, "
                f"got {deadline_ms!r}")
        deadline_ms = float(deadline_ms)

    n: int | None = None
    if op == "tail":
        raw_n = record.get("n")
        if raw_n is not None:
            if isinstance(raw_n, bool) or not isinstance(raw_n, int) \
                    or not 1 <= raw_n <= MAX_TAIL_EVENTS:
                raise ProtocolError(
                    f"tail n must be an integer in "
                    f"[1, {MAX_TAIL_EVENTS}], got {raw_n!r}")
            n = raw_n

    block: QueryBlock | None = None
    if op == "select":
        raw = record.get("queries")
        if not isinstance(raw, list) or not raw:
            raise ProtocolError(
                "select requires a non-empty queries array")
        if len(raw) > max_batch:
            raise ProtocolError(
                f"batch of {len(raw)} exceeds max_batch={max_batch}")
        try:
            block = QueryBlock.from_records(raw)
        except (TypeError, KeyError):
            # A row is not an object or lacks a key; the column pass
            # stops at the first bad cell of a column, so name the
            # first bad row in row order instead.
            for i, r in enumerate(raw):
                _check_query(i, r)
            raise
    return Request(id=req_id, op=op, block=block,
                   deadline_ms=deadline_ms, n=n)


def _json(value: Any) -> str:
    """*value* as deterministic JSON text (sorted keys, compact
    separators) — every response's one ``json.dumps`` call."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _value_json(value: Any) -> str:
    """One value's JSON text, as ``json.dumps`` writes it: strings
    through the escaper ``json.dumps`` itself uses (``ensure_ascii``),
    plain ints through ``repr`` (``int.__repr__``, as ``json.dumps``),
    anything else an invalid row echoes (floats, bools, None, lists,
    objects) through :func:`_json`."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return repr(value)
    return _json(value)


def _column_json(values: list) -> list[str]:
    """:func:`_value_json` of every value of one column, with one
    C-level pass for an all-string or all-int column (every query
    column of a well-formed batch).  In any other column the strings
    still take one C-level pass and only the other values (a decision's
    ``None`` algorithm on an invalid row, say) go one at a time."""
    kinds = list(map(type, values))
    if kinds.count(str) == len(values):
        return list(map(encode_basestring_ascii, values))
    if kinds.count(int) == len(values):
        return list(map(repr, values))
    others = list(compress(count(), map(is_not, kinds, repeat(str))))
    texts = list(values)
    for i in others:
        texts[i] = ""
    texts = list(map(encode_basestring_ascii, texts))
    for i in others:
        texts[i] = _value_json(values[i])
    return texts


#: A decision row's keys in ``sort_keys`` order, each with the text
#: that precedes its value.
_ROW_KEYS = sorted(("collective", "nodes", "ppn", "msg_size",
                    "algorithm", "action", "detail", "cached"))
_ROW_PREFIXES = [("{" if i == 0 else ",") + encode_basestring_ascii(k)
                 + ":" for i, k in enumerate(_ROW_KEYS)]


def _decisions_json(block: DecisionBlock) -> str:
    """The JSON text of ``block.to_dicts()``, written column by column
    (no per-row dict): each row is its key prefixes interleaved with
    its eight value texts."""
    c_col, n_col, p_col, m_col = block.cols
    columns = {
        "collective": _column_json(c_col),
        "nodes": _column_json(n_col),
        "ppn": _column_json(p_col),
        "msg_size": _column_json(m_col),
        "algorithm": _column_json(block.algorithms.tolist()),
        "action": _column_json(block.actions.tolist()),
        "detail": _column_json(block.details.tolist()),
        "cached": np.where(block.cached, "true", "false").tolist(),
    }
    parts: list = []
    for key, prefix in zip(_ROW_KEYS, _ROW_PREFIXES):
        parts += (repeat(prefix), columns[key])
    rows = "".join(chain.from_iterable(zip(*parts, repeat("},"))))
    return "[" + rows[:-1] + "]"


def encode(payload: dict[str, Any]) -> bytes:
    """One response as a deterministic JSON line (sorted keys,
    compact separators, trailing newline).

    A :class:`~repro.serve.service.DecisionBlock` under
    ``"decisions"`` is written from its columns; the line is
    byte-identical to encoding the payload with the block's
    :meth:`~repro.serve.service.DecisionBlock.to_dicts` in its place.
    """
    block = payload.get("decisions")
    if not isinstance(block, DecisionBlock):
        return (_json(payload) + "\n").encode("utf-8")
    body = ",".join(
        encode_basestring_ascii(key) + ":"
        + (_decisions_json(block) if key == "decisions"
           else _json(value))
        for key, value in sorted(payload.items()))
    return ("{" + body + "}\n").encode("utf-8")


def ok_response(req_id: Any, **payload: Any) -> dict[str, Any]:
    return {"id": req_id, "ok": True, **payload}


def error_response(req_id: Any, code: str, detail: str) -> dict[str, Any]:
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    return {"id": req_id, "ok": False,
            "error": {"code": code, "detail": detail}}
