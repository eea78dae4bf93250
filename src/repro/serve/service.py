"""The batched selection service (the "serving layer").

An MPI build farm or a tuning daemon does not ask one query at a time:
it arrives with thousands of (collective, job shape, message size)
queries for one cluster.  :class:`SelectionService` answers such
batches on one path, :meth:`SelectionService.select_block`, without
weakening any runtime-guard guarantee:

1. **Validate** — rows that break the query contract (unknown
   collective; nodes, ppn or msg_size not a non-bool integer; shape
   outside the cluster; msg_size outside ``[1, 2**62]``) become
   decisions with ``action="invalid"`` and ``algorithm=None`` instead
   of aborting the batch.  They are answered before dedup and never
   enter the memo, so an answer never depends on memo history.
2. **Quantize** — message sizes are snapped to the nearest power of
   two (the paper's grids are power-of-two anyway), so near-identical
   queries share one memo entry.
3. **Deduplicate** — duplicate keys inside a batch are answered once;
   keys seen in earlier batches are answered from a bounded
   :class:`~repro.serve.cache.LRUCache` memo.
4. **Guard** — the distinct unanswered keys go through
   :meth:`~repro.smpi.guard.GuardedSelector.explain_block` in one call
   (vectorized OOD routing, inference and feasibility checks), whose
   answers equal the scalar ladder :meth:`~repro.smpi.guard.
   GuardedSelector.explain` on each quantized key.

Health counters live under ``serve.*`` and satisfy the partition
invariant ``serve.queries == serve.cache_hits + serve.deduped +
serve.cache_misses`` (every query is answered exactly one way);
``serve.invalid`` counts the subset of misses that were invalid rows
(each invalid row counts once in both), ``serve.evictions`` mirrors
the memo's evictions, and the ``serve.batch_size`` histogram records
batch fan-in.  Each batch runs under a ``serve.batch`` span.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..hwmodel.specs import ClusterSpec
from ..obs.live import get_recorder
from ..obs.telemetry import MetricsRegistry, get_tracer
from ..simcluster.machine import Machine
from ..smpi.guard import GuardedSelector
from ..smpi.heuristics import (
    MAX_MSG_SIZE,
    AlgorithmSelector,
    InvalidQueryError,
    validate_query,
)
from .cache import LRUCache
from .columnar import QueryBlock, collective_names, quantize_block

__all__ = [
    "ACTION_INVALID",
    "SERVE_COUNTER_KEYS",
    "DecisionBlock",
    "SelectionDecision",
    "SelectionQuery",
    "SelectionService",
    "decisions_to_jsonl",
    "queries_from_jsonl",
    "quantize_msg_size",
]

#: Decision action for malformed queries (the guard's ACTION_* names
#: cover everything the ladder can do with a *valid* query).
ACTION_INVALID = "invalid"

#: Counter names under ``serve.``, in reporting order.  The middle
#: three partition ``queries`` exactly; ``invalid`` is a subset of
#: ``cache_misses`` and ``evictions`` mirrors the memo.
SERVE_COUNTER_KEYS = (
    "queries",
    "cache_hits",
    "deduped",
    "cache_misses",
    "invalid",
    "evictions",
)


@dataclass(frozen=True)
class SelectionQuery:
    """One selection request against the service's cluster."""

    collective: str
    nodes: int
    ppn: int
    msg_size: int


@dataclass(frozen=True)
class SelectionDecision:
    """The service's answer to one :class:`SelectionQuery`.

    ``algorithm`` is ``None`` exactly when ``action == "invalid"``;
    otherwise ``action`` is one of the guard's ACTION_* values and the
    algorithm is feasible for the queried communicator shape.
    ``cached`` is true when the answer came from the memo or from an
    earlier duplicate in the same batch.
    """

    collective: str
    nodes: int
    ppn: int
    msg_size: int
    algorithm: str | None
    action: str
    detail: str = ""
    cached: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "collective": self.collective,
            "nodes": self.nodes,
            "ppn": self.ppn,
            "msg_size": self.msg_size,
            "algorithm": self.algorithm,
            "action": self.action,
            "detail": self.detail,
            "cached": self.cached,
        }


class DecisionBlock:
    """Columnar result of :meth:`SelectionService.select_block`.

    Holds the four original query columns plus object arrays of
    ``algorithm`` / ``action`` / ``detail`` and a bool ``cached`` array,
    all row-aligned with the input batch.  :meth:`to_decisions` /
    :meth:`to_dicts` materialize per-row Python objects on demand — the
    selection pipeline itself never does.  Every row echoes its *own*
    query values.
    """

    __slots__ = ("n", "cols", "algorithms", "actions", "details",
                 "cached")

    def __init__(self, cols: tuple[list, list, list, list],
                 algorithms: np.ndarray, actions: np.ndarray,
                 details: np.ndarray, cached: np.ndarray) -> None:
        self.n = len(cols[0])
        self.cols = cols
        self.algorithms = algorithms
        self.actions = actions
        self.details = details
        self.cached = cached

    def to_decisions(self) -> list[SelectionDecision]:
        """One :class:`SelectionDecision` per input row, in order."""
        c_col, n_col, p_col, m_col = self.cols
        # Frozen-dataclass __init__ pays one guarded object.__setattr__
        # per field; swapping in the instance dict wholesale builds the
        # same (equal, hashable, repr-identical) objects at under half
        # the cost — this is the only per-row work left on a 10k block.
        new = SelectionDecision.__new__
        set_ = object.__setattr__
        out = []
        append = out.append
        for i, (a, act, det, cf) in enumerate(zip(
                self.algorithms.tolist(), self.actions.tolist(),
                self.details.tolist(), self.cached.tolist())):
            d = new(SelectionDecision)
            set_(d, "__dict__", {
                "collective": c_col[i], "nodes": n_col[i],
                "ppn": p_col[i], "msg_size": m_col[i],
                "algorithm": a, "action": act, "detail": det,
                "cached": cf,
            })
            append(d)
        return out

    def to_dicts(self) -> list[dict[str, Any]]:
        """Per-row dicts shaped like :meth:`SelectionDecision.to_dict`,
        without building decisions.  The daemon writes its replies
        straight from the columns (:func:`repro.serve.protocol.encode`);
        these dicts are the oracle that writer is tested against."""
        c_col, n_col, p_col, m_col = self.cols
        return [
            {
                "collective": c_col[i],
                "nodes": n_col[i],
                "ppn": p_col[i],
                "msg_size": m_col[i],
                "algorithm": a,
                "action": act,
                "detail": det,
                "cached": cf,
            }
            for i, (a, act, det, cf) in enumerate(zip(
                self.algorithms.tolist(), self.actions.tolist(),
                self.details.tolist(), self.cached.tolist()))
        ]


def quantize_msg_size(msg_size: Any) -> Any:
    """Snap a positive integer message size to the nearest power of two
    by log2 distance, rounding *up* from the geometric midpoint
    (``m >= 2^e * sqrt(2)`` rounds to ``2^(e+1)``).  Accepts plain and
    NumPy integers — ``validate_query`` treats them as one type, so
    they must share memo keys — and always returns a plain ``int``.
    Anything else — bools, floats, non-positive values, junk types —
    passes through unchanged.  This is the memo key of a valid query;
    :func:`~repro.serve.columnar.quantize_block` is its columnar twin.

    The comparison is exact integer arithmetic (``m*m >= 2^(2e+1)``),
    not ``round(log2(m))``: float log2 misrounds near midpoints for
    large ``m`` (e.g. 398065729532861 is above the geometric midpoint
    of [2**48, 2**49] but its float log2 is exactly 48.5, which
    banker's rounding would send *down*).
    """
    if isinstance(msg_size, bool) \
            or not isinstance(msg_size, (int, np.integer)) \
            or msg_size <= 0:
        return msg_size
    m = int(msg_size)
    e = m.bit_length() - 1
    if m * m >= 1 << (2 * e + 1):
        e += 1
    return 1 << e


class SelectionService:
    """Batched, memoized, guard-enforced algorithm selection for one
    cluster.

    *selector* may be a :class:`~repro.smpi.guard.GuardedSelector`
    (used as-is) or any plain selector (wrapped in a fresh guard that
    counts into the service's registry, so every served decision still
    passes the full ladder).
    """

    def __init__(self, selector: AlgorithmSelector, spec: ClusterSpec,
                 cache_size: int = 4096,
                 registry: MetricsRegistry | None = None) -> None:
        #: Like GuardedSelector: a fresh per-instance registry unless
        #: the caller passes one to aggregate (the CLI passes the
        #: ambient registry so ``--trace`` captures serve.* and
        #: guard.* metrics).
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.guard = selector if isinstance(selector, GuardedSelector) \
            else GuardedSelector(selector, registry=self.registry)
        self.spec = spec
        self.cache = LRUCache(cache_size)
        self._counters = {k: self.registry.counter(f"serve.{k}")
                          for k in SERVE_COUNTER_KEYS}
        self._batch_size = self.registry.histogram("serve.batch_size")
        # Batches are serialized per service: the guard ladder mutates
        # breaker state and counters with no internal locking, and the
        # partition invariant (queries == hits + deduped + misses) must
        # hold at every observable instant.  Concurrent callers (the
        # daemon's worker threads) queue here; the memoized hot path
        # makes serialized batches cheap.
        self._batch_lock = threading.Lock()

    def select(self, query: SelectionQuery) -> SelectionDecision:
        """One query through :meth:`select_block`."""
        return self.select_block([query]).to_decisions()[0]

    def select_batch(self, queries: Sequence[SelectionQuery]
                     ) -> list[SelectionDecision]:
        """:meth:`select_block`, as one decision object per query."""
        return self.select_block(queries).to_decisions()

    def select_block(self, queries: QueryBlock | Sequence[SelectionQuery]
                     ) -> DecisionBlock:
        """Answer a whole batch, one decision per query, in order.

        Accepts a :class:`~repro.serve.columnar.QueryBlock` (the
        daemon's parser builds one per request;
        :meth:`~repro.serve.columnar.QueryBlock.from_records` builds one
        from raw mappings) or :class:`SelectionQuery`-shaped objects.
        A block is only read, never written, so two services may answer
        the same block at once.  Never raises for malformed queries —
        see the module docstring for the validate/dedup/memo/guard
        flow.  Thread-safe: batches from concurrent callers are
        serialized.
        """
        blk = queries if isinstance(queries, QueryBlock) \
            else QueryBlock.from_queries(queries)
        with self._batch_lock, \
                get_tracer().span("serve.batch", queries=blk.n):
            out = self._answer(blk)
        # Flight-recorder hook, at batch granularity (one event per
        # block, outside the batch lock).  The ambient recorder is
        # disabled outside a daemon, so the offline paths pay one
        # attribute check.
        recorder = get_recorder()
        if recorder.enabled:
            recorder.record("request", op="select_block",
                            queries=blk.n)
        return out

    def _answer(self, blk: QueryBlock) -> DecisionBlock:
        """Decide every row of *blk* (batch lock held)."""
        n = blk.n
        self._counters["queries"].inc(n)
        self._batch_size.observe(n)
        alg = np.empty(n, dtype=object)
        act = np.empty(n, dtype=object)
        det = np.empty(n, dtype=object)
        cached = np.zeros(n, dtype=bool)
        valid = (blk.columnar
                 & (blk.nodes64 >= 1)
                 & (blk.nodes64 <= self.spec.max_nodes)
                 & (blk.ppn64 >= 1)
                 & (blk.ppn64 <= self.spec.node.cpu.threads_per_node)
                 & (blk.msg64 >= 1) & (blk.msg64 <= MAX_MSG_SIZE))
        bad = np.flatnonzero(~valid)
        if len(bad):
            self._counters["cache_misses"].inc(len(bad))
            self._counters["invalid"].inc(len(bad))
            act[bad] = ACTION_INVALID
            c_col, n_col, p_col, m_col = blk.cols
            for r in bad.tolist():
                det[r] = self._invalid_detail(
                    c_col[r], n_col[r], p_col[r], m_col[r])
        rows = np.flatnonzero(valid)
        if len(rows):
            self._answer_valid(blk, rows, alg, act, det, cached)
        return DecisionBlock(blk.cols, alg, act, det, cached)

    def _invalid_detail(self, collective: Any, nodes: Any, ppn: Any,
                        msg: Any) -> str:
        """Why the scalar ladder rejects this (known-invalid) query:
        the job-shape check first, then :func:`validate_query`."""
        try:
            machine = Machine(self.spec, nodes, ppn)
        except (TypeError, ValueError) as exc:
            return f"bad job shape: {exc}"
        try:
            validate_query(collective, machine, msg)
        except InvalidQueryError as exc:
            return str(exc)
        raise RuntimeError(
            "query classified invalid but validates: "
            f"{(collective, nodes, ppn, msg)!r}")

    def _answer_valid(self, blk: QueryBlock, rows: np.ndarray,
                      alg: np.ndarray, act: np.ndarray, det: np.ndarray,
                      cached: np.ndarray) -> None:
        """Quantize and deduplicate the valid *rows*, answer the
        distinct keys from the memo or one ``explain_block`` call, and
        scatter the answers back over the rows."""
        k = len(rows)
        cid = blk.cids[rows]
        nod = blk.nodes64[rows]
        ppn = blk.ppn64[rows]
        msgq = quantize_block(blk.msg64[rows])
        # Group-by over the four key columns via one stable lexsort —
        # ~10x cheaper than ``np.unique`` on a structured dtype (void
        # comparisons sort byte-wise).  Stability means the original
        # indices inside each sorted group stay ascending, so the group
        # head IS the key's first occurrence.
        so = np.lexsort((msgq, ppn, nod, cid))
        cs, ns, ps, ms = cid[so], nod[so], ppn[so], msgq[so]
        new = np.empty(k, dtype=bool)
        new[0] = True
        new[1:] = ((cs[1:] != cs[:-1]) | (ns[1:] != ns[:-1])
                   | (ps[1:] != ps[:-1]) | (ms[1:] != ms[:-1]))
        gid = np.cumsum(new) - 1
        nuniq = int(gid[-1]) + 1
        inverse = np.empty(k, dtype=np.int64)
        inverse[so] = gid
        counts = np.bincount(gid, minlength=nuniq)
        first = so[np.flatnonzero(new)]
        # Distinct keys in first-occurrence order: memo probes, puts and
        # the guard's row-order walk follow the batch order.
        order = np.argsort(first, kind="stable")
        rank = np.empty(nuniq, dtype=np.int64)
        rank[order] = np.arange(nuniq)
        first, counts = first[order], counts[order]
        inv = rank[inverse]
        ucid, unodes, uppn, umsg = (cid[first], nod[first], ppn[first],
                                    msgq[first])
        unames = collective_names(ucid)
        ukeys = list(zip(unames.tolist(), unodes.tolist(),
                         uppn.tolist(), umsg.tolist()))

        values = self.cache.get_many(ukeys, counts.tolist())
        hit = np.fromiter((v is not None for v in values),
                          np.bool_, nuniq)
        # Per-occurrence accounting: every duplicate of a hit key
        # counts as a hit; a missed key costs one miss plus one dedup
        # per extra occurrence.
        self._counters["cache_hits"].inc(int(counts[hit].sum()))
        self._counters["cache_misses"].inc(int(nuniq - hit.sum()))
        self._counters["deduped"].inc(int((counts[~hit] - 1).sum()))

        ualg = np.empty(nuniq, dtype=object)
        uact = np.empty(nuniq, dtype=object)
        udet = np.empty(nuniq, dtype=object)
        hidx = np.flatnonzero(hit)
        if len(hidx):
            ualg[hidx], uact[hidx], udet[hidx] = zip(
                *[values[i] for i in hidx.tolist()])
        miss = np.flatnonzero(~hit)
        if len(miss):
            ualg[miss], uact[miss], udet[miss] = self.guard.explain_block(
                self.spec, unames[miss], unodes[miss], uppn[miss],
                umsg[miss])
            # Reuse the probe-key tuples (all of them on a cold batch)
            # instead of rebuilding them column-by-column.
            mkeys = ukeys if len(miss) == nuniq \
                else [ukeys[i] for i in miss.tolist()]
            mvals = zip(ualg[miss].tolist(), uact[miss].tolist(),
                        udet[miss].tolist())
            self._counters["evictions"].inc(
                self.cache.put_many(list(zip(mkeys, mvals))))

        alg[rows] = ualg[inv]
        act[rows] = uact[inv]
        det[rows] = udet[inv]
        cached[rows] = hit[inv] | (np.arange(k) != first[inv])

    @property
    def counters(self) -> dict[str, int]:
        """Snapshot of the serve.* counters, in reporting order."""
        return {k: c.value for k, c in self._counters.items()}


# -- JSONL I/O --------------------------------------------------------------

def queries_from_jsonl(text: str) -> list[SelectionQuery]:
    """Parse one query per JSONL line.

    Each line must be a JSON object with ``collective``, ``nodes``,
    ``ppn`` and ``msg_size`` keys; values are passed through verbatim
    (the service classifies malformed ones as ``invalid`` decisions
    rather than this parser rejecting them), but a line that is not a
    JSON object with those keys raises ``ValueError`` with its line
    number — that is a broken file, not a malformed query.
    """
    queries: list[SelectionQuery] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: not valid JSON: {exc}") \
                from None
        if not isinstance(record, dict):
            raise ValueError(f"line {lineno}: expected a JSON object, "
                             f"got {type(record).__name__}")
        missing = [k for k in ("collective", "nodes", "ppn", "msg_size")
                   if k not in record]
        if missing:
            raise ValueError(
                f"line {lineno}: missing key(s): {', '.join(missing)}")
        queries.append(SelectionQuery(
            collective=record["collective"], nodes=record["nodes"],
            ppn=record["ppn"], msg_size=record["msg_size"]))
    return queries


def decisions_to_jsonl(decisions: list[SelectionDecision]) -> str:
    """Serialize decisions as deterministic JSONL (sorted keys, compact
    separators, trailing newline) — byte-identical for identical
    decision lists, which the golden regression fixture relies on."""
    lines = [json.dumps(d.to_dict(), sort_keys=True,
                        separators=(",", ":"))
             for d in decisions]
    return "".join(line + "\n" for line in lines)
