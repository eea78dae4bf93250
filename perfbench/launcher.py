"""Traced daemon launcher: ``python3 perfbench/launcher.py OUT ARGS...``.

Wraps the serving layers' entry points in benchmark-side spans (see
``spans.py``), then runs ``repro.cli.main(ARGS)`` — a ``pml-mpi serve``
invocation, with the program's own ``--trace`` — in this process.
Every span is tagged with the id of the request it served: the id is
set in the connection's context when its line is parsed, and thread
pool submissions carry the submitting context to the worker.  After
the daemon drains, the span records, plus a timestamped snapshot of
the daemon's counters after every request, go to OUT as JSON.

An entry point that is missing stops the launcher before the daemon
boots: a layer must never read 0 because a refactor renamed it.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from spans import TAG, Recorder  # noqa: E402

#: Counter families snapshotted after each request.
COUNTER_PREFIXES = ("serve.", "guard.")


class _TimedLock:
    """A lock whose acquisitions are recorded as wait spans."""

    def __init__(self, lock, recorder: Recorder) -> None:
        self._lock = lock
        self._acquire = recorder.timed(lock.acquire,
                                       "serve.service.lock_wait")

    def acquire(self, *args, **kwargs):
        return self._acquire(*args, **kwargs)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self):
        self._acquire()
        return self

    def __exit__(self, *exc) -> None:
        self._lock.release()


def _require(owner, attr: str):
    value = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    if value is None:
        raise AttributeError(f"{owner.__name__}.{attr} is gone; the "
                             f"daemon cannot be measured")
    return value


def install(recorder: Recorder, snapshots: list) -> None:
    from repro.core import inference
    from repro.ml import forest
    from repro.serve import daemon, reload, service
    from repro.simcluster import machine
    from repro.smpi import guard
    from repro.smpi.collectives import base

    parse = _require(daemon, "parse_request")

    def parse_tagged(line, *args, **kwargs):
        TAG.set(None)
        request = parse(line, *args, **kwargs)
        TAG.set(request.id)
        return request

    daemon.parse_request = parse_tagged

    submit = concurrent.futures.ThreadPoolExecutor.submit

    def submit_in_context(self, fn, /, *args, **kwargs):
        return submit(self, contextvars.copy_context().run, fn, *args,
                      **kwargs)

    concurrent.futures.ThreadPoolExecutor.submit = submit_in_context

    def nbytes(args, result):
        return len(args[0])

    def rows(args, result):
        return len(args[1])

    targets = [
        (daemon, "parse_request", "serve.protocol.parse", nbytes),
        (daemon, "encode", "serve.protocol.encode",
         lambda args, result: len(result)),
        (daemon.SelectionDaemon, "_run_batch", "serve.daemon.run_batch"),
        (daemon.SelectionDaemon, "_record_request", "obs.record_request"),
        (service.SelectionService, "select_block",
         "serve.service.select_block"),
        (service.DecisionBlock, "to_dicts", "serve.service.to_dicts"),
        (guard.GuardedSelector, "explain_block", "smpi.guard.explain_block"),
        (inference, "feature_block", "core.features.feature_block"),
        (forest.RandomForestClassifier, "predict_batch", "ml.tree.predict",
         rows),
        (reload.SnapshotStore, "reload", "serve.reload.reload"),
        (reload, "load_selector", "core.bundle.load"),
        (machine.Machine, "evaluate", "simcluster"),
        (machine.Machine, "round_time", "simcluster.round"),
        (base.CollectiveAlgorithm, "estimate", "smpi.collectives"),
    ]
    for owner, attr, layer, *amount in targets:
        recorder.patch(owner, attr, layer, *amount)

    init = _require(service.SelectionService, "__init__")

    def timed_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        lock = getattr(self, "_batch_lock", None)
        if lock is None:
            raise AttributeError("SelectionService._batch_lock is gone; "
                                 "lock waits cannot be measured")
        self._batch_lock = _TimedLock(lock, recorder)

    service.SelectionService.__init__ = timed_init

    record = _require(daemon.SelectionDaemon, "_record_request")

    def snap(self, *args, **kwargs):
        record(self, *args, **kwargs)
        counters = self.registry.counters()
        snapshots.append((time.perf_counter(), {
            k: v for k, v in counters.items()
            if k.startswith(COUNTER_PREFIXES)}))

    daemon.SelectionDaemon._record_request = snap


def main() -> int:
    out = Path(sys.argv[1])
    recorder = Recorder()
    snapshots: list = []
    install(recorder, snapshots)
    from repro import cli

    try:
        rc = cli.main(sys.argv[2:])
    finally:
        # Worker threads may still append; copy under the GIL.
        records = list(recorder.records)
        out.write_text(json.dumps({"records": records,
                                   "snapshots": list(snapshots)}))
    return rc


if __name__ == "__main__":
    sys.exit(main())
