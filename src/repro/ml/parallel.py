"""Process-pool parallelism for the ensemble trainers.

The estimators in this package are pure NumPy, so Python's GIL makes
thread pools useless for tree fitting; a process pool is the only way
to use more than one core.  Determinism is preserved by *pre-drawing*
every per-task seed from the master RNG in serial order before any
work is dispatched — parallel results are bit-identical to serial.

Worker functions handed to :func:`parallel_map` must be module-level
(picklable).  ``n_jobs`` follows the scikit-learn convention:
``None``/``1`` serial, ``-1`` one worker per CPU, ``k > 1`` exactly
*k* workers.

Pool spawn/pickle overhead dominates small fits, so callers that know
how much work they are dispatching pass ``work_units`` — an abstract
size (rows x estimators for ensembles, candidates x folds x rows for
grid search) — and :func:`resolve_n_jobs` engages the pool
*adaptively*: never more workers than cores, and never fewer than
``PARALLEL_MIN_UNITS_PER_WORKER`` units each, degrading all the way to
serial for small workloads.  On the paper's full 18-cluster campaign
(20,603 records) two workers on a 2-vCPU host cut ``offline_train``
from 67.3 s to 37.5 s and ``collect_dataset`` from 539 s to 275 s; a
two-cluster training set (about 200 rows x 100 trees per collective)
stays serial.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

from ..obs.telemetry import (
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
    use_telemetry,
)

#: Smallest amount of work (abstract units; see module docstring) that
#: justifies one pool worker: a worker costs roughly one fork + two
#: pickles (~20-40 ms), and 50k row-estimator units of tree fitting
#: cost an order of magnitude more than that.  The full-campaign fit
#: (20,603 records over two collectives, x 100 trees) engages two
#: workers and runs 1.8x faster than serial on 2 vCPUs.
PARALLEL_MIN_UNITS_PER_WORKER = 50_000


def resolve_n_jobs(n_jobs: int | None,
                   work_units: int | None = None) -> int:
    """Normalize an ``n_jobs`` knob to a concrete worker count.

    When *work_units* is given, the count is resolved *adaptively*:
    capped at the machine's core count (extra processes on a saturated
    machine are pure overhead) and shrunk so every worker receives at
    least :data:`PARALLEL_MIN_UNITS_PER_WORKER` units of work — down to
    ``1`` (serial, no pool) for workloads too small to amortize the
    fork + pickle cost.  Without *work_units* the requested count is
    honored verbatim (the pre-adaptive contract).
    """
    if n_jobs is None:
        jobs = 1
    elif n_jobs == -1:
        jobs = os.cpu_count() or 1
    elif not isinstance(n_jobs, int) or isinstance(n_jobs, bool) \
            or n_jobs < 1:
        raise ValueError(
            f"n_jobs must be a positive int, -1, or None; got {n_jobs!r}")
    else:
        jobs = n_jobs
    if work_units is None or jobs == 1:
        return jobs
    if not isinstance(work_units, int) or isinstance(work_units, bool) \
            or work_units < 0:
        raise ValueError(
            f"work_units must be a non-negative int, got {work_units!r}")
    affordable = work_units // PARALLEL_MIN_UNITS_PER_WORKER
    return max(1, min(jobs, os.cpu_count() or 1, affordable))


def chunk_evenly(items: Sequence[Any], n_chunks: int) -> list[list[Any]]:
    """Split *items* into at most *n_chunks* contiguous, near-equal
    chunks (never returns empty chunks)."""
    n_chunks = max(1, min(n_chunks, len(items)))
    size, extra = divmod(len(items), n_chunks)
    chunks, start = [], 0
    for i in range(n_chunks):
        end = start + size + (1 if i < extra else 0)
        chunks.append(list(items[start:end]))
        start = end
    return chunks


def _traced_worker(payload: tuple[Callable[[Any], Any], Any]
                   ) -> tuple[Any, list[dict], list[dict]]:
    """Run one task under a fresh per-worker tracer/registry and ship
    the telemetry home alongside the result.

    Worker processes cannot share the parent's ambient tracer, so spans
    recorded inside worker code would silently vanish; this wrapper
    captures them as plain dicts for :meth:`Tracer.merge` /
    :meth:`MetricsRegistry.merge_records` on the parent side.
    """
    fn, item = payload
    with use_telemetry(Tracer(), MetricsRegistry()) as (tracer, registry):
        result = fn(item)
        return result, tracer.export_spans(), registry.export_metrics()


def parallel_map(fn: Callable[[Any], Any], items: Sequence[Any],
                 n_jobs: int | None,
                 work_units: int | None = None) -> list[Any]:
    """``[fn(x) for x in items]``, fanned over a process pool when
    ``n_jobs`` allows it.  Results are returned in input order, so the
    caller sees identical output regardless of worker count.

    *work_units* (when known) enables the adaptive engagement rule of
    :func:`resolve_n_jobs`: too-small workloads run serially instead
    of paying pool overhead they cannot recoup.

    When the ambient tracer is enabled, tasks are dispatched through
    :func:`_traced_worker` and each worker's spans/metrics are merged
    back (in input order) — traced parallel runs keep the full span
    tree instead of losing everything behind the process boundary.
    """
    jobs = resolve_n_jobs(n_jobs, work_units=work_units)
    items = list(items)
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    tracer = get_tracer()
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        if not tracer.enabled:
            return list(pool.map(fn, items))
        results = []
        registry = get_registry()
        for result, spans, metrics in pool.map(
                _traced_worker, [(fn, item) for item in items]):
            tracer.merge(spans)
            registry.merge_records(metrics)
            results.append(result)
        return results
