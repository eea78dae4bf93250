"""The persistent selection daemon (``pml-mpi serve``).

A build farm does not fork a Python interpreter per query batch: it
keeps one warm daemon per cluster and multiplexes every client over a
Unix domain socket (see :mod:`repro.serve.protocol` for the wire
format).  This module is the daemon: a single-process stdlib
``asyncio`` server routing batches through the existing
:class:`~repro.serve.service.SelectionService` / guard ladder, wrapped
in the production controls the offline paths never needed:

* **Admission control / backpressure** — a bounded in-flight cap:
  a request beyond it is *shed* at once with a typed ``overloaded``
  error, never queued.  Work stays bounded by the cap alone: at most
  ``max_inflight`` requests await an answer, a deadline miss
  cancels its batch if it has not started, and a started batch
  finishes on its pool thread.  Neither a shed request nor a miss
  sheds any other client.
* **Per-request deadlines** — ``deadline_ms`` bounds the model path
  via ``asyncio.wait_for``; on expiry the request degrades to the
  snapshot's heuristic-floor service (bounded arithmetic, no model
  inference) and the response is marked ``degraded="deadline-floor"``.
  The client always gets decisions before its deadline matters.
* **One breaker** — the serving guard's
  (:class:`~repro.smpi.guard.GuardedSelector`): while it is open the
  snapshot answers with the heuristic.  ``health`` and ``stats``
  report its state as ``breaker``.
* **Atomic hot-reload** — a background task polls the bundle file's
  checksum and swaps a freshly validated
  :class:`~repro.serve.reload.Snapshot` under the store lock;
  in-flight requests finish on the snapshot they started with, and a
  bundle that fails validation is rejected (old snapshot keeps
  serving — see :mod:`repro.serve.reload`).
* **Graceful drain** — SIGTERM/SIGINT (or the ``shutdown`` op) stops
  accepting work: new selects get a typed ``draining`` error,
  in-flight requests finish (up to ``drain_timeout_s``), then the
  socket, ready file and lock are removed.
* **Crash-safe restart** — the state dir holds a PID-owner lock file
  (see :class:`~repro.core.resilience.FileLock`): a dead owner's lock
  is recognized and recovered, and a *boot sentinel* written before
  model load means a bundle that killed the last boot is detected and
  quarantined (``*.corrupt``) instead of crash-looping the daemon.

Health counters live under ``serve.daemon.*`` and satisfy the request
partition ``requests == ok + deadline_floor + bad_request +
overloaded + draining + internal`` (every request line is answered in
exactly one way; ``internal`` must stay 0 — the chaos soak asserts
both).  Each request is recorded as a ``serve.daemon.request`` span
and a ``serve.daemon.request_s`` histogram observation, so
``pml-mpi report`` on a ``--trace`` file shows per-request traces.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..core.resilience import FileLock, atomic_write_text, quarantine
from ..hwmodel.specs import ClusterSpec
from ..obs.expo import render_prometheus
from ..obs.live import FlightRecorder, quantiles, set_recorder
from ..obs.slo import DEFAULT_SLOS, SloSpec, SloTracker
from ..obs.telemetry import get_registry, get_tracer
from .columnar import QueryBlock
from .protocol import (
    DEFAULT_MAX_BATCH,
    DEFAULT_TAIL_EVENTS,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    encode,
    error_response,
    ok_response,
    parse_request,
)
from .reload import Snapshot, SnapshotStore, file_crc32
from .service import DecisionBlock

__all__ = [
    "DAEMON_AUX_KEYS",
    "DAEMON_COUNTER_KEYS",
    "DaemonConfig",
    "SelectionDaemon",
]

#: Counter names under ``serve.daemon.``; after ``requests``, the rest
#: partition it exactly (``internal`` is the never-raises escape hatch
#: and must stay 0).
DAEMON_COUNTER_KEYS = (
    "requests",
    "ok",
    "deadline_floor",
    "bad_request",
    "overloaded",
    "draining",
    "internal",
)

#: Additional (non-partition) lifecycle counters.
DAEMON_AUX_KEYS = (
    "connections",
    "reloads",
    "reload_rejected",
    "boot_fallback",
    "crash_recovered",
    "quarantined_boot",
)


@dataclass(frozen=True)
class DaemonConfig:
    """Everything one daemon instance needs to boot and serve."""

    spec: ClusterSpec
    socket_path: Path
    state_dir: Path
    bundle: Path | None = None
    max_inflight: int = 4
    default_deadline_ms: float = 1_000.0
    max_batch: int = DEFAULT_MAX_BATCH
    cache_size: int = 4096
    reload_poll_s: float = 2.0
    drain_timeout_s: float = 5.0
    ready_file: Path | None = None
    lock_timeout_s: float = 2.0
    #: Flight-recorder ring size (the ``tail`` op's visible history).
    recorder_capacity: int = 256
    #: Live SLOs evaluated by the ``health`` op.
    slos: tuple[SloSpec, ...] = DEFAULT_SLOS


def _consume_result(future: concurrent.futures.Future) -> None:
    """Swallow the result/exception of an abandoned worker future (a
    deadline-expired batch that had started keeps running, one still
    queued is cancelled; either outcome is irrelevant but an
    unretrieved exception would warn at GC time)."""
    try:
        future.exception()
    except concurrent.futures.CancelledError:
        pass


class SelectionDaemon:
    """One serving process: boot, run the socket loop, drain."""

    def __init__(self, config: DaemonConfig) -> None:
        self.config = config
        self.registry = get_registry()
        self.store = SnapshotStore(
            config.spec, config.bundle, cache_size=config.cache_size,
            registry=self.registry)
        self._counters = {
            k: self.registry.counter(f"serve.daemon.{k}")
            for k in DAEMON_COUNTER_KEYS + DAEMON_AUX_KEYS}
        self._request_s = self.registry.histogram(
            "serve.daemon.request_s")
        self.recorder = FlightRecorder(
            capacity=config.recorder_capacity)
        self.slo = SloTracker(config.slos, registry=self.registry)
        self._prev_recorder: FlightRecorder | None = None
        self._lock: FileLock | None = None
        self._booted = False
        self._draining = False
        self._inflight = 0
        self._drain_event: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None
        self._reload_pool: concurrent.futures.ThreadPoolExecutor | None \
            = None
        self.tracer = get_tracer()

    # -- paths -----------------------------------------------------------
    @property
    def lock_path(self) -> Path:
        return self.config.state_dir / "daemon.lock"

    @property
    def sentinel_path(self) -> Path:
        return self.config.state_dir / "boot.json"

    # -- boot ------------------------------------------------------------
    def boot(self) -> "SelectionDaemon":
        """Acquire the state-dir lock, recover from a previous crash,
        and build the initial snapshot.  Raises
        :class:`~repro.core.resilience.LockTimeoutError` when another
        live daemon owns the state dir."""
        cfg = self.config
        cfg.state_dir.mkdir(parents=True, exist_ok=True)

        # A lock file whose recorded owner is dead is the corpse of a
        # crashed daemon: clean shutdowns unlink it (unlink_on_release).
        owner = FileLock.read_owner(self.lock_path)
        if owner is not None and not FileLock.pid_alive(owner["pid"]):
            self._counters["crash_recovered"].inc()
        self._lock = FileLock(self.lock_path,
                              timeout_s=cfg.lock_timeout_s,
                              unlink_on_release=True)
        self._lock.acquire()

        # Boot sentinel: written before model load, removed after.  A
        # leftover sentinel naming the *same* bundle bytes means that
        # artifact killed the last boot mid-load — quarantine it
        # instead of crash-looping on it.
        self._recover_boot_sentinel()
        checksum = file_crc32(cfg.bundle) if cfg.bundle is not None \
            else None
        atomic_write_text(self.sentinel_path, json.dumps({
            "pid": os.getpid(),
            "bundle": str(cfg.bundle) if cfg.bundle else None,
            "checksum": checksum,
        }))

        snapshot, error = self.store.boot()
        if error is not None:
            # The bundle failed validation (cleanly): serve the
            # heuristic floor, and quarantine the artifact so the next
            # boot does not retry it.  A merely *missing* bundle is not
            # an artifact to quarantine.
            self._counters["boot_fallback"].inc()
            if cfg.bundle is not None and cfg.bundle.exists():
                try:
                    quarantine(cfg.bundle)
                    self._counters["quarantined_boot"].inc()
                except OSError:
                    pass
        self.sentinel_path.unlink(missing_ok=True)
        self._booted = True
        # The daemon owns its process: its recorder becomes ambient so
        # service-level instrumentation (select_block events) lands in
        # the same ring the ``tail`` op serves.  Restored in _cleanup
        # for in-process test runs.
        self._prev_recorder = set_recorder(self.recorder)
        current = self.store.current()
        self.recorder.record(
            "lifecycle", what="boot", snapshot=current.version,
            source=current.source,
            fallback=error is not None)
        return self

    def _recover_boot_sentinel(self) -> None:
        try:
            sentinel = json.loads(self.sentinel_path.read_text())
        except (OSError, ValueError):
            return
        self.sentinel_path.unlink(missing_ok=True)
        if not isinstance(sentinel, dict):
            return
        bundle = self.config.bundle
        if bundle is None or not bundle.exists():
            return
        if sentinel.get("bundle") != str(bundle):
            return
        if sentinel.get("checksum") != file_crc32(bundle):
            return  # the bundle changed since the crash: give it a shot
        self._counters["crash_recovered"].inc()
        try:
            quarantine(bundle)
            self._counters["quarantined_boot"].inc()
        except OSError:
            return

    # -- serving ---------------------------------------------------------
    def run(self) -> int:
        """Serve until drained (blocking).  Returns 0."""
        if not self._booted:
            raise RuntimeError("SelectionDaemon.run() before boot()")
        try:
            asyncio.run(self._serve())
        finally:
            self._cleanup()
        return 0

    def initiate_drain(self) -> None:
        """Stop admitting work; callable from signal handlers, the
        shutdown op, or tests (must run on the event-loop thread)."""
        if not self._draining:
            self.recorder.record("lifecycle", what="drain")
        self._draining = True
        if self._drain_event is not None:
            self._drain_event.set()

    async def _serve(self) -> None:
        cfg = self.config
        loop = asyncio.get_running_loop()
        self._drain_event = asyncio.Event()
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, cfg.max_inflight),
            thread_name_prefix="pml-serve")
        self._reload_pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="pml-reload")
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.initiate_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                break  # non-main-thread run (tests) or odd platform

        cfg.socket_path.parent.mkdir(parents=True, exist_ok=True)
        cfg.socket_path.unlink(missing_ok=True)
        server = await asyncio.start_unix_server(
            self._handle_connection, path=str(cfg.socket_path),
            limit=2 * 1024 * 1024)
        reload_task = asyncio.ensure_future(self._reload_loop())
        self._write_ready_file()
        try:
            await self._drain_event.wait()
        finally:
            reload_task.cancel()
            server.close()
            await server.wait_closed()
            deadline = time.monotonic() + cfg.drain_timeout_s
            while self._inflight > 0 and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
            # Close idle client connections so their handler tasks
            # exit on EOF instead of being cancelled mid-readline by
            # the loop teardown (which would log a spurious traceback).
            for conn_writer in list(self._conn_writers):
                conn_writer.close()
            if self._conn_tasks:
                await asyncio.wait(set(self._conn_tasks),
                                   timeout=cfg.drain_timeout_s)
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._reload_pool.shutdown(wait=False, cancel_futures=True)

    def _write_ready_file(self) -> None:
        if self.config.ready_file is None:
            return
        snapshot = self.store.current()
        atomic_write_text(self.config.ready_file, json.dumps({
            "pid": os.getpid(),
            "socket": str(self.config.socket_path),
            "protocol": PROTOCOL_VERSION,
            "snapshot": snapshot.version,
            "source": snapshot.source,
        }))

    async def _reload_loop(self) -> None:
        """Poll the bundle checksum; swap on change (see reload.py).

        The poll tick doubles as the daemon's observability heartbeat:
        each pass snapshots the SLO tracker, so burn-rate windows have
        history even between ``health`` calls.
        """
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.reload_poll_s)
            self.slo.tick()
            try:
                result = await loop.run_in_executor(
                    self._reload_pool, self.store.poll)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                self._counters["reload_rejected"].inc()
                self.recorder.record(
                    "reload", status="rejected",
                    detail=f"{type(exc).__name__}: {exc}",
                    version=self.store.current().version)
                continue
            if result.status == "reloaded":
                self._counters["reloads"].inc()
            elif result.status == "rejected":
                self._counters["reload_rejected"].inc()
            if result.status != "unchanged":
                self.recorder.record(
                    "reload", status=result.status,
                    version=self.store.current().version)

    # -- connections -----------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._counters["connections"].inc()
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line exceeded the stream limit: answer and close
                    # (the stream cannot be resynchronized).
                    self._counters["requests"].inc()
                    self._counters["bad_request"].inc()
                    writer.write(encode(error_response(
                        None, "bad-request", "request line too long")))
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self._dispatch(line)
                writer.write(encode(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._conn_writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    OSError):
                pass

    async def _dispatch(self, line: bytes) -> dict[str, Any]:
        """Answer one request line; never raises (the ``internal``
        counter records contract violations).

        ``requests`` and the request's terminal counter are both
        incremented in the ``finally`` — consecutively, on the loop
        thread, with no await between them — so the partition
        invariant holds at *every* ``stats`` observation, not just at
        quiescence (an in-flight request is simply not counted yet).
        """
        t0 = time.perf_counter()
        op, status, req_id = "?", "internal", None
        try:
            try:
                request = parse_request(line, self.config.max_batch)
            except ProtocolError as exc:
                op, status = "parse", "bad_request"
                return error_response(None, exc.code, exc.detail)
            op, req_id = request.op, request.id
            response, status = await self._handle(request)
            return response
        except Exception as exc:  # the never-raises escape hatch
            status = "internal"
            return error_response(
                req_id, "internal",
                f"{type(exc).__name__}: {exc}")
        finally:
            self._counters["requests"].inc()
            self._counters[status].inc()
            self._record_request(op, status, t0)

    def _record_request(self, op: str, status: str,
                        t0: float) -> None:
        t1 = time.perf_counter()
        self._request_s.observe(t1 - t0)
        self.recorder.record(
            "request", op=op, status=status,
            ms=round((t1 - t0) * 1e3, 3))
        if status == "internal":
            # The never-raises contract was violated: emit a distinct
            # error event so a kind-filtered tail surfaces it.
            self.recorder.record("error", code="internal", op=op)
        if self.tracer.enabled:
            # Handlers interleave on the event loop, so per-request
            # spans are built as records and adopted via merge() — the
            # tracer's open-span stack never sees them out of order.
            self.tracer.merge([{
                "id": 1, "parent": None,
                "name": "serve.daemon.request",
                "start": t0, "end": t1,
                "attrs": {"op": op, "status": status},
            }])

    async def _handle(self, request: Request
                      ) -> tuple[dict[str, Any], str]:
        """Route one parsed request; returns (response, counter_key)."""
        if request.op == "ping":
            return ok_response(
                request.id, protocol=PROTOCOL_VERSION,
                snapshot=self.store.current().version,
                draining=self._draining), "ok"
        if request.op == "stats":
            return self._stats_response(request), "ok"
        if request.op == "metrics":
            # Rendered synchronously on the event-loop thread — the
            # thread every serve.daemon.* counter is bumped on — so one
            # exposition is an internally consistent snapshot and the
            # request partition invariant holds inside every scrape
            # (this request itself is not counted until its dispatch
            # finishes).
            return ok_response(
                request.id, protocol=PROTOCOL_VERSION,
                format="prometheus/0.0.4",
                body=render_prometheus(self.registry)), "ok"
        if request.op == "tail":
            n = request.n if request.n is not None \
                else DEFAULT_TAIL_EVENTS
            return ok_response(
                request.id, protocol=PROTOCOL_VERSION,
                events=self.recorder.tail(n),
                total=self.recorder.total,
                dropped=self.recorder.dropped,
                capacity=self.recorder.capacity), "ok"
        if request.op == "health":
            self.slo.tick()
            report = self.slo.evaluate()
            current = self.store.current()
            p = quantiles(self._request_s)
            return ok_response(
                request.id, protocol=PROTOCOL_VERSION,
                verdict=report["verdict"], slos=report["slos"],
                snapshot=current.version, draining=self._draining,
                breaker=current.service.guard.breaker.state,
                request_s={"count": self._request_s.count,
                           "p50": p[0.5], "p95": p[0.95],
                           "p99": p[0.99]}), "ok"
        if request.op == "shutdown":
            self.initiate_drain()
            return ok_response(request.id, draining=True), "ok"
        if request.op == "reload":
            if self._draining:
                return error_response(
                    request.id, "draining",
                    "daemon is draining"), "draining"
            loop = asyncio.get_running_loop()
            result = await loop.run_in_executor(
                self._reload_pool, self.store.reload)
            if result.status == "reloaded":
                self._counters["reloads"].inc()
            elif result.status == "rejected":
                self._counters["reload_rejected"].inc()
            if result.status != "unchanged":
                self.recorder.record(
                    "reload", status=result.status,
                    version=self.store.current().version)
            return ok_response(request.id, **result.to_dict()), "ok"
        return await self._handle_select(request)

    def _stats_response(self, request: Request) -> dict[str, Any]:
        snapshot = self.store.current()
        return ok_response(
            request.id,
            protocol=PROTOCOL_VERSION,
            snapshot={"version": snapshot.version,
                      "source": snapshot.source,
                      "checksum": snapshot.checksum,
                      "lineage": snapshot.lineage},
            draining=self._draining,
            inflight=self._inflight,
            breaker=snapshot.service.guard.breaker.state,
            counters=self.registry.counters())

    async def _handle_select(self, request: Request
                             ) -> tuple[dict[str, Any], str]:
        if self._draining:
            return error_response(
                request.id, "draining",
                "daemon is draining"), "draining"
        # Admission control: the in-flight cap sheds the marginal
        # request at once — never queue.
        if self._inflight >= self.config.max_inflight:
            return error_response(
                request.id, "overloaded",
                f"{self._inflight} requests in flight "
                f"(cap {self.config.max_inflight})"), "overloaded"

        snapshot = self.store.current()  # pinned for this request
        deadline_ms = request.deadline_ms \
            if request.deadline_ms is not None \
            else self.config.default_deadline_ms
        assert self._pool is not None
        self._inflight += 1
        try:
            future = self._pool.submit(
                self._run_batch, snapshot, request.block)
            future.add_done_callback(_consume_result)
            try:
                decisions = await asyncio.wait_for(
                    asyncio.wrap_future(future),
                    timeout=deadline_ms / 1000.0)
            except asyncio.TimeoutError:
                # Deadline expired: degrade to the heuristic floor
                # (bounded arithmetic, never model inference).  The
                # cancel passes through wrap_future, so a batch still
                # queued never runs; one already running finishes on
                # its pool thread, reading the same (never written)
                # block as the floor.
                return ok_response(
                    request.id,
                    decisions=snapshot.floor.select_block(request.block),
                    snapshot=snapshot.version,
                    degraded="deadline-floor"), "deadline_floor"
            return ok_response(
                request.id, decisions=decisions,
                snapshot=snapshot.version), "ok"
        finally:
            self._inflight -= 1

    @staticmethod
    def _run_batch(snapshot: Snapshot,
                   block: QueryBlock) -> DecisionBlock:
        # The parsed block flows straight into the columnar path and
        # the reply is written from the decision columns — no per-query
        # object or per-row dict is built anywhere on the daemon path.
        return snapshot.service.select_block(block)

    # -- teardown --------------------------------------------------------
    def _cleanup(self) -> None:
        self.config.socket_path.unlink(missing_ok=True)
        if self.config.ready_file is not None:
            self.config.ready_file.unlink(missing_ok=True)
        if self._lock is not None:
            self._lock.release()
            self._lock = None
        if self._prev_recorder is not None:
            set_recorder(self._prev_recorder)
            self._prev_recorder = None

    @property
    def counters(self) -> dict[str, int]:
        """Snapshot of the serve.daemon.* counters, in key order."""
        return {k: c.value for k, c in self._counters.items()}
