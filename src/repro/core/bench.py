"""Reproducible micro-benchmark harness for the framework's hot paths.

Times the operations that dominate PML-MPI's end-to-end cost —
ensemble training, batch inference, compile-time tuning-table
generation, runtime table lookup, and batched selection serving (the
columnar block pipeline against the scalar guard ladder) — plus the
``active_collect`` entry, which records the simulated core-hours the
active-learning acquisition loop needs to match the exhaustive
sweep's accuracy — and writes a machine-readable
``BENCH_results.json`` with the schema::

    { "<benchmark name>": {"wall_s": <float>, "config": {...}} }

Each entry's ``config`` records the parameters that make the number
interpretable (rows, trees, jobs, lookup counts, observed ratios), so
two runs of the harness can be compared without reading the code.

The harness never *asserts* speedups — on a single-core container a
process pool is pure overhead — it records what it measured.  What it
*does* verify is correctness: the parallel forest fit must produce
bit-identical predictions and importances to the serial one, and the
lookup benchmark records the per-lookup cost ratio between a small and
a large table (near 1.0 when lookup is independent of stored-config
count, as the bisect + memoized-nearest design guarantees).
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

import numpy as np

from ..hwmodel.registry import get_cluster
from ..obs.telemetry import get_tracer
from ..smpi.collectives import base
from ..smpi.tuning import TuningTable
from .dataset import collect_dataset
from .inference import generate_tuning_table
from .resilience import atomic_write_text

#: Runtime lookups timed against each table (the paper's O(1) claim).
DEFAULT_LOOKUPS = 1_000_000
#: Lookups in ``--quick`` mode (smoke tests, CI).
QUICK_LOOKUPS = 50_000

#: Cluster / collective the data-dependent benchmarks draw from; RI is
#: the smallest campaign in the registry, so collection stays cheap.
BENCH_CLUSTER = "RI"
BENCH_COLLECTIVE = "allgather"


def _time_once(fn) -> float:
    """One wall-clock timing of ``fn()`` with collection suspended —
    the ``timeit`` convention — so a generational GC pause landing
    inside the run doesn't masquerade as a slower hot path.  Starts
    from a freshly collected heap and restores the collector after."""
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


def _best_of(fn, repeats: int) -> float:
    """Minimum wall time over *repeats* calls (noise-robust)."""
    return min(_time_once(fn) for _ in range(repeats))


def _best_of_paired(fns: list, repeats: int) -> list[float]:
    """Minimum wall time per closure, timed *interleaved*: each round
    times every closure once, in order, after one untimed warm-up pass.

    Ratios between entries (speedup claims) are what this protects —
    timing all repeats of A and then all of B lets a CPU-frequency or
    cache-state drift between the two phases skew A/B; round-robin
    sampling exposes both to the same machine state."""
    for fn in fns:
        fn()  # warm-up: lazy imports, memoized tables, branch caches
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            best[i] = min(best[i], _time_once(fn))
    return best


def _bench_dataset():
    return collect_dataset(clusters=[get_cluster(BENCH_CLUSTER)],
                           collectives=(BENCH_COLLECTIVE,),
                           use_cache=False)


def _grow_rows(X: np.ndarray, y: np.ndarray,
               target_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Tile a small campaign matrix up to *target_rows* rows — the
    fit benchmark needs enough work for a process pool to be worth
    engaging at all (42 rows never is)."""
    if len(X) >= target_rows:
        return X, y
    reps = -(-target_rows // len(X))  # ceil division
    return (np.tile(X, (reps, 1))[:target_rows],
            np.tile(y, reps)[:target_rows])


def _forest_benchmarks(X: np.ndarray, y: np.ndarray, jobs: int,
                       repeats: int, n_estimators: int,
                       predict_rows: int,
                       fit_rows: int) -> dict[str, dict]:
    from ..ml.forest import RandomForestClassifier
    from ..ml.parallel import resolve_n_jobs

    X_fit, y_fit = _grow_rows(X, y, fit_rows)

    def fit(n_jobs):
        rf = RandomForestClassifier(n_estimators=n_estimators,
                                    random_state=0, n_jobs=n_jobs)
        rf.fit(X_fit, y_fit)
        return rf

    serial_s = _best_of(lambda: fit(1), repeats)
    # The adaptive gate caps workers at the core count and the
    # available work; when it resolves to 1 the "parallel" fit runs
    # the *identical* serial code path (no pool), so timing it again
    # would only measure noise — the speedup is 1.0 by construction.
    effective_jobs = resolve_n_jobs(
        jobs, work_units=len(X_fit) * n_estimators)
    if effective_jobs > 1:
        parallel_s = _best_of(lambda: fit(jobs), repeats)
    else:
        parallel_s = serial_s

    rf_serial, rf_parallel = fit(1), fit(jobs)
    bit_identical = bool(
        np.array_equal(rf_serial.predict(X_fit), rf_parallel.predict(X_fit))
        and np.allclose(rf_serial.feature_importances_,
                        rf_parallel.feature_importances_))

    reps = max(1, -(-predict_rows // len(X)))  # ceil division
    X_big = np.tile(X, (reps, 1))[:predict_rows]
    predict_s = _best_of(lambda: rf_serial.predict(X_big), repeats)

    base_cfg = {"n_estimators": n_estimators, "n_rows": int(len(X_fit))}
    return {
        "forest_fit_serial": {
            "wall_s": serial_s,
            "config": {**base_cfg, "n_jobs": 1},
        },
        "forest_fit_parallel": {
            "wall_s": parallel_s,
            "config": {**base_cfg, "n_jobs": jobs,
                       "effective_jobs": effective_jobs,
                       "pool_engaged": effective_jobs > 1,
                       "bit_identical_to_serial": bit_identical,
                       "speedup_vs_serial": serial_s / parallel_s
                       if parallel_s > 0 else float("inf")},
        },
        "forest_predict_batch": {
            "wall_s": predict_s,
            "config": {"n_estimators": n_estimators,
                       "n_rows": int(len(X)),
                       "predict_rows": int(len(X_big))},
        },
    }


def _table_generation_benchmark(selector, repeats: int) -> dict[str, dict]:
    spec = get_cluster(BENCH_CLUSTER)
    report = None

    def gen():
        nonlocal report
        report = generate_tuning_table(selector, spec)

    wall = _best_of(gen, repeats)
    return {
        "table_generation": {
            "wall_s": wall,
            "config": {"cluster": spec.name,
                       "collective": BENCH_COLLECTIVE,
                       "n_configs": report.n_configs},
        },
    }


def _synthetic_table(n_nodes: int, n_ppn: int,
                     n_breakpoints: int) -> TuningTable:
    """A table with ``n_nodes * n_ppn`` configs of *n_breakpoints*
    breakpoints each, cycling through real algorithm names."""
    algos = sorted(base.algorithm_names(BENCH_COLLECTIVE))
    table = TuningTable(cluster="bench")
    for i in range(n_nodes):
        for j in range(n_ppn):
            nodes, ppn = 2 ** i, 2 ** j
            for k in range(n_breakpoints):
                table.add(BENCH_COLLECTIVE, nodes, ppn, 2 ** (k + 3),
                          algos[(i + j + k) % len(algos)])
    return table


def _lookup_benchmark(lookups: int, repeats: int) -> dict[str, dict]:
    small = _synthetic_table(2, 2, 8)        # 4 configs
    large = _synthetic_table(16, 16, 32)     # 256 configs
    # Query mix: exact hits, nearest-config misses, and a spread of
    # message sizes (including past the last breakpoint).
    rng = np.random.default_rng(0)
    queries = [(int(2 ** rng.integers(0, 6)), int(2 ** rng.integers(0, 6)),
                int(2 ** rng.integers(0, 40)))
               for _ in range(512)]

    def run(table: TuningTable) -> float:
        table.lookup(BENCH_COLLECTIVE, 2, 2, 64)  # freeze outside timing
        lookup = table.lookup
        n_q = len(queries)

        def body():
            for i in range(lookups):
                nodes, ppn, msg = queries[i % n_q]
                lookup(BENCH_COLLECTIVE, nodes, ppn, msg)

        return _best_of(body, repeats)

    small_s, large_s = run(small), run(large)
    small_cfgs = sum(len(c) for c in small.entries.values())
    large_cfgs = sum(len(c) for c in large.entries.values())
    return {
        "table_lookup": {
            "wall_s": large_s,
            "config": {
                "lookups": lookups,
                "stored_configs": large_cfgs,
                "small_table_configs": small_cfgs,
                "small_table_wall_s": small_s,
                # ~1.0 when lookup cost is independent of table size;
                # would approach large_cfgs / small_cfgs (64x) if
                # lookups scanned the stored configs linearly.
                "per_lookup_ratio_large_vs_small":
                    large_s / small_s if small_s > 0 else float("inf"),
            },
        },
    }


def _batch_selection_benchmark(selector, repeats: int, n_queries: int,
                               scalar_queries: int) -> dict[str, dict]:
    """One cold service block vs the scalar guard ladder over the same
    query stream — the serving layer's headline number.

    The scalar side runs :meth:`~repro.smpi.guard.GuardedSelector.
    explain` (the oracle the block path answers for) on each query's
    quantized key, over a prefix of *scalar_queries* queries (a full
    10k scalar pass would dominate the harness wall time), and is
    compared per query; ``identical_to_scalar`` checks (algorithm,
    action, detail) of the block against the scalar ladder on that
    prefix.
    """
    from ..serve import SelectionQuery, SelectionService, quantize_msg_size
    from ..simcluster.machine import Machine
    from ..smpi.guard import GuardedSelector

    spec = get_cluster(BENCH_CLUSTER)
    rng = np.random.default_rng(0)
    shapes = [(int(nodes), int(ppn))
              for nodes in spec.node_counts
              for ppn in spec.ppn_values if nodes * ppn >= 2]
    queries: list[SelectionQuery] = []
    machines: dict[tuple[int, int], Machine] = {}
    for _ in range(n_queries):
        nodes, ppn = shapes[int(rng.integers(len(shapes)))]
        exp = int(rng.integers(6, 21))
        msg = int(2 ** exp + rng.integers(0, 2 ** exp))
        queries.append(SelectionQuery(BENCH_COLLECTIVE, nodes, ppn, msg))
        if (nodes, ppn) not in machines:
            machines[(nodes, ppn)] = Machine(spec, nodes, ppn)
    prefix = queries[:scalar_queries]

    def scalar():
        guard = GuardedSelector(selector)
        return [guard.explain(q.collective, machines[(q.nodes, q.ppn)],
                              quantize_msg_size(q.msg_size))
                for q in prefix]

    def columnar():
        # Cold service each repeat: the memo never carries over, so
        # the number reflects dedup + vectorized inference, not a
        # pre-warmed cache.
        service = SelectionService(GuardedSelector(selector), spec,
                                   cache_size=len(queries))
        return service.select_block(queries)

    # The gated claim is the scalar->columnar *ratio*, so the two
    # closures are timed interleaved (see _best_of_paired).
    scalar_s, columnar_s = _best_of_paired([scalar, columnar],
                                           max(repeats, 5))
    block = columnar()
    identical = [(d.algorithm, d.action, d.detail) for d in scalar()] \
        == list(zip(block.algorithms[:len(prefix)].tolist(),
                    block.actions[:len(prefix)].tolist(),
                    block.details[:len(prefix)].tolist()))
    scalar_per_query = scalar_s / len(prefix)
    columnar_per_query = columnar_s / len(queries)
    return {
        "serve_batch_columnar": {
            "wall_s": columnar_s,
            "config": {
                "cluster": spec.name,
                "collective": BENCH_COLLECTIVE,
                "n_queries": len(queries),
                "distinct_keys": len({
                    (q.nodes, q.ppn, quantize_msg_size(q.msg_size))
                    for q in queries}),
                "scalar_queries": len(prefix),
                "scalar_wall_s": scalar_s,
                "identical_to_scalar": bool(identical),
                "speedup_vs_scalar":
                    scalar_per_query / columnar_per_query
                    if columnar_per_query > 0 else float("inf"),
            },
        },
    }


def _flight_recorder_benchmark(selector, repeats: int, n_queries: int,
                               block: int = 64) -> dict[str, dict]:
    """Columnar serving with the flight recorder enabled vs disabled.

    The observability acceptance bar: recording one structured event
    per served block must cost < 5 % on the hot path.  The stream is
    served in daemon-sized blocks (one ``select_block`` — and thus one
    ``record()`` — per *block*, not per query), and the two sides are
    timed interleaved so machine noise hits both equally.  Overhead is
    reported as ``on/off - 1``; small negative values are timer noise.
    """
    from ..obs.live import FlightRecorder, use_recorder
    from ..serve import SelectionQuery, SelectionService
    from ..smpi.guard import GuardedSelector

    spec = get_cluster(BENCH_CLUSTER)
    rng = np.random.default_rng(1)
    shapes = [(int(nodes), int(ppn))
              for nodes in spec.node_counts
              for ppn in spec.ppn_values if nodes * ppn >= 2]
    queries = []
    for _ in range(n_queries):
        nodes, ppn = shapes[int(rng.integers(len(shapes)))]
        exp = int(rng.integers(6, 21))
        msg = int(2 ** exp + rng.integers(0, 2 ** exp))
        queries.append(SelectionQuery(BENCH_COLLECTIVE, nodes, ppn, msg))
    blocks = [queries[i:i + block]
              for i in range(0, len(queries), block)]

    def serve_blocks():
        # Cold service per repeat, warm across blocks — the daemon's
        # shape: one long-lived service, many small batches.
        service = SelectionService(GuardedSelector(selector), spec,
                                   cache_size=len(queries))
        for chunk in blocks:
            service.select_block(chunk)

    def enabled():
        with use_recorder(FlightRecorder(capacity=256)):
            serve_blocks()

    on_s, off_s = _best_of_paired([enabled, serve_blocks],
                                  max(repeats, 5))
    overhead = (on_s / off_s - 1.0) if off_s > 0 else 0.0
    return {
        "flight_recorder_overhead": {
            "wall_s": on_s,
            "config": {
                "cluster": spec.name,
                "collective": BENCH_COLLECTIVE,
                "n_queries": len(queries),
                "block": block,
                "blocks": len(blocks),
                "capacity": 256,
                "base_wall_s": off_s,
                "overhead_frac": overhead,
            },
        },
    }


def _split_accuracy(train_ds, test_ds, collectives) -> float:
    """Test accuracy of per-collective models fit on *train_ds*.

    Records are trained in canonical (cluster, collective, nodes, ppn,
    msg) order so exhaustive and active campaigns — which benchmark
    the same configs in different orders — fit identical forests."""
    from .dataset import TuningDataset
    from .training import train_model

    train_ds = TuningDataset(sorted(
        train_ds.records,
        key=lambda r: (r.cluster, r.collective, r.nodes, r.ppn,
                       r.msg_size)))
    correct = total = 0
    for collective in collectives:
        test = [r for r in test_ds.records
                if r.collective == collective]
        if not test:
            continue
        total += len(test)
        if not any(r.collective == collective
                   for r in train_ds.records):
            continue
        model = train_model(train_ds, collective, family="rf", seed=0)
        sub = TuningDataset(test)
        predicted = model.predict(sub.feature_matrix())
        correct += int(np.sum(predicted == sub.labels()))
    return correct / total if total else 0.0


def _active_collect_benchmark(quick: bool) -> dict[str, dict]:
    """Core-hours-to-accuracy of the active-learning acquisition loop
    vs the exhaustive sweep it replaces (the paper's growing-overhead
    argument, quantified).

    Both campaigns are fully deterministic (simulated measurements,
    seeded acquisition), so the recorded ratios are machine-independent
    facts about the loop, not timings — ``wall_s`` records how long
    the acquisition run itself took on this machine.
    """
    from ..active import (
        ActiveConfig,
        Candidate,
        dataset_core_hours,
        run_active_collection,
    )
    from .splits import split_dataset

    collectives = (("allgather",) if quick
                   else ("allgather", "alltoall"))
    clusters = [get_cluster("RI"), get_cluster("Ray")]
    full = collect_dataset(clusters=clusters, collectives=collectives,
                           use_cache=False)
    train_ds, test_ds = split_dataset(full, "random")
    pool = [Candidate(r.cluster, r.collective, r.nodes, r.ppn,
                      r.msg_size) for r in train_ds.records]

    result = None

    def acquire():
        nonlocal result
        result = run_active_collection(
            clusters=clusters, collectives=collectives,
            config=ActiveConfig(), pool=pool, use_cache=False)

    wall = _time_once(acquire)
    exhaustive_ch = dataset_core_hours(train_ds.records)
    exhaustive_acc = _split_accuracy(train_ds, test_ds, collectives)
    active_acc = _split_accuracy(result.dataset, test_ds, collectives)
    return {
        "active_collect": {
            "wall_s": wall,
            "config": {
                "clusters": [s.name for s in clusters],
                "collectives": list(collectives),
                "split": "random",
                "pool_configs": len(pool),
                "benchmarked": len(result.schedule),
                "rounds": result.rounds,
                "stop_reason": result.stop_reason,
                "exhaustive_core_hours": exhaustive_ch,
                "active_core_hours": result.core_hours,
                # The headline pair the CI gate holds the loop to:
                # spend <= half the core-hours, stay within 2 % of the
                # exhaustive sweep's test accuracy.
                "core_hours_ratio": result.core_hours / exhaustive_ch
                if exhaustive_ch > 0 else float("inf"),
                "saving_vs_exhaustive": exhaustive_ch / result.core_hours
                if result.core_hours > 0 else float("inf"),
                "exhaustive_accuracy": exhaustive_acc,
                "active_accuracy": active_acc,
                "accuracy_gap": exhaustive_acc - active_acc,
            },
        },
    }


def run_benchmarks(quick: bool = False, jobs: int = 4, repeats: int = 3,
                   lookups: int | None = None,
                   progress: bool = False) -> dict[str, dict]:
    """Run every benchmark; returns the results mapping."""
    if lookups is None:
        lookups = QUICK_LOOKUPS if quick else DEFAULT_LOOKUPS
    n_estimators = 16 if quick else 100
    predict_rows = 5_000 if quick else 50_000
    #: Rows the fit benchmark is grown to: large enough that, on a
    #: multi-core machine, the adaptive gate engages the pool and the
    #: parallel fit genuinely wins.
    fit_rows = 256 if quick else 2_048
    repeats = max(1, repeats if not quick else 1)

    def note(msg: str) -> None:
        if progress:
            print(f"[bench] {msg}")

    note(f"collecting {BENCH_CLUSTER}/{BENCH_COLLECTIVE} dataset")
    dataset = _bench_dataset()
    sub = dataset.filter(collective=BENCH_COLLECTIVE)
    X, y = sub.feature_matrix(), sub.labels()

    from .framework import offline_train
    note("training the bench selector")
    selector = offline_train(dataset, family="rf",
                             collectives=(BENCH_COLLECTIVE,),
                             n_jobs=jobs)

    tracer = get_tracer()
    results: dict[str, dict] = {}
    note(f"forest fit/predict ({n_estimators} trees, jobs={jobs})")
    with tracer.span("bench.forest", trees=n_estimators, jobs=jobs):
        results.update(_forest_benchmarks(X, y, jobs, repeats,
                                          n_estimators, predict_rows,
                                          fit_rows))
    note("tuning-table generation")
    with tracer.span("bench.table_generation"):
        results.update(_table_generation_benchmark(selector, repeats))
    note(f"table lookup ({lookups} lookups)")
    with tracer.span("bench.lookup", lookups=lookups):
        results.update(_lookup_benchmark(lookups, repeats))
    n_queries = 2_000 if quick else 10_000
    scalar_queries = 500 if quick else 2_000
    note(f"batched selection service ({n_queries} queries)")
    with tracer.span("bench.serve_batch", queries=n_queries):
        results.update(_batch_selection_benchmark(
            selector, repeats, n_queries, scalar_queries))
    note("flight-recorder overhead (columnar blocks)")
    with tracer.span("bench.flight_recorder", queries=n_queries):
        results.update(_flight_recorder_benchmark(
            selector, repeats, n_queries))
    note("active-learning collection vs exhaustive sweep")
    with tracer.span("bench.active_collect"):
        results.update(_active_collect_benchmark(quick))
    return results


def validate_bench_results(results: object) -> dict[str, dict]:
    """Check the ``name -> {wall_s, config}`` schema; raises
    ``ValueError`` with the offending entry on any violation."""
    if not isinstance(results, dict) or not results:
        raise ValueError("bench results must be a non-empty JSON object")
    for name, entry in results.items():
        if not isinstance(name, str):
            raise ValueError(f"benchmark name {name!r} is not a string")
        if not isinstance(entry, dict):
            raise ValueError(f"{name}: entry is not an object")
        extra = set(entry) - {"wall_s", "config"}
        if extra or set(entry) != {"wall_s", "config"}:
            raise ValueError(
                f"{name}: entry keys {sorted(entry)} != "
                f"['config', 'wall_s']")
        wall = entry["wall_s"]
        if isinstance(wall, bool) or not isinstance(wall, (int, float)) \
                or not wall >= 0:
            raise ValueError(f"{name}: wall_s {wall!r} is not a "
                             f"non-negative number")
        if not isinstance(entry["config"], dict):
            raise ValueError(f"{name}: config is not an object")
    return results


def validate_bench_file(path: str | Path) -> dict[str, dict]:
    """Load and schema-check a ``BENCH_results.json``."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"bench results are not valid JSON: {exc}") \
            from None
    return validate_bench_results(payload)


def write_bench_results(results: dict[str, dict],
                        path: str | Path) -> Path:
    """Validate and atomically write the results file."""
    validate_bench_results(results)
    return atomic_write_text(Path(path),
                             json.dumps(results, indent=2) + "\n")
