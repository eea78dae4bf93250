"""Dataset collection: the paper's Table I benchmark campaign, run on
the simulator.

For every cluster in the registry and every (collective, #nodes, PPN,
message size) in its sampled grid, all candidate algorithms are measured
(OMB-style averaged iterations, :func:`repro.smpi.tuning.measured_time`)
and the fastest becomes the record's label.  Configurations with fewer
than two ranks, or whose buffers do not fit node memory, are dropped —
the same holes that keep the paper's per-cluster sample counts slightly
below the full grid.

Collection over 18 clusters takes a couple of minutes, so results are
cached as gzipped JSON-lines under ``~/.cache/pml_mpi`` (override with
``PML_MPI_CACHE`` or the ``cache_dir`` argument).
"""

from __future__ import annotations

import gzip
import json
import logging
import math
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..hwmodel.registry import all_clusters, get_cluster
from ..hwmodel.specs import ClusterSpec
from ..ml.parallel import parallel_map
from ..obs.telemetry import get_registry, get_tracer
from ..simcluster.conditions import FaultProfile
from ..simcluster.machine import Machine
from ..smpi.collectives import base
from ..smpi.collectives.base import COLLECTIVES
from ..smpi.tuning import measured_time
from .features import ALL_FEATURE_NAMES, feature_block
from .resilience import (
    CorruptArtifactError,
    RetryPolicy,
    StaleArtifactError,
    TransientCollectionError,
    atomic_commit,
    checksum_lines,
    quarantine,
    tmp_path_for,
)

log = logging.getLogger(__name__)

#: Bump when the cost model or grids change incompatibly.
DATASET_VERSION = "1"
DATASET_FORMAT = "pml-mpi/dataset"

#: Default retry behavior for fault-injected collection: backoff is
#: kept at zero delay because the "fabric" here is simulated — the
#: retry *structure* (fresh attempt, new luck) is what matters.
DEFAULT_COLLECTION_RETRY = RetryPolicy(max_attempts=6, base_delay_s=0.0,
                                       jitter=0.0)


@dataclass(frozen=True)
class CollectiveRecord:
    """One benchmarked configuration with per-algorithm timings."""

    cluster: str
    collective: str
    nodes: int
    ppn: int
    msg_size: int
    times: dict[str, float]  # algorithm -> measured seconds

    @property
    def label(self) -> str:
        """The fastest algorithm (the classification target)."""
        return min(self.times, key=self.times.__getitem__)

    @property
    def best_time(self) -> float:
        return min(self.times.values())


@dataclass
class TuningDataset:
    """A list of records plus feature-matrix assembly."""

    records: list[CollectiveRecord] = field(default_factory=list)
    #: Header metadata of the cache file this dataset was loaded from
    #: (``{}`` for datasets built in memory).  Carries the full
    #: uncompressed cache key and, for active-learning runs, the
    #: acquisition trajectory (schedule, decisions, core-hours).
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    # -- filtering -------------------------------------------------------
    def filter(self, collective: str | None = None,
               clusters: set[str] | None = None,
               max_nodes: int | None = None,
               min_nodes: int | None = None) -> "TuningDataset":
        """Subset by collective, cluster membership, or node range."""
        out = []
        for r in self.records:
            if collective is not None and r.collective != collective:
                continue
            if clusters is not None and r.cluster not in clusters:
                continue
            if max_nodes is not None and r.nodes > max_nodes:
                continue
            if min_nodes is not None and r.nodes < min_nodes:
                continue
            out.append(r)
        return TuningDataset(out)

    def clusters(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for r in self.records:
            seen.setdefault(r.cluster, None)
        return tuple(seen)

    def counts_by_cluster(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records:
            out[r.cluster] = out.get(r.cluster, 0) + 1
        return out

    def label_distribution(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records:
            out[r.label] = out.get(r.label, 0) + 1
        return dict(sorted(out.items()))

    # -- matrix form -------------------------------------------------------
    def feature_matrix(self) -> np.ndarray:
        """(n, 14) matrix in :data:`ALL_FEATURE_NAMES` order, one
        :func:`feature_block` per cluster."""
        mpi = np.array([(r.nodes, r.ppn, r.msg_size) for r in self.records],
                       dtype=float).reshape(-1, 3)
        names = np.array([r.cluster for r in self.records])
        out = np.empty((len(self.records), len(ALL_FEATURE_NAMES)))
        for name in dict.fromkeys(names.tolist()):
            rows = names == name
            out[rows] = feature_block(get_cluster(name), *mpi[rows].T)
        return out

    def labels(self) -> np.ndarray:
        return np.array([r.label for r in self.records])

    # -- (de)serialization -------------------------------------------------
    def save(self, path: str | Path, cache_key: str | None = None,
             extra_meta: dict | None = None) -> Path:
        """Atomic write with an embedded checksum header line.

        The first line is ``{"__meta__": {...}}`` carrying the dataset
        format/version, record count, and a CRC32 over the record
        lines; a mid-write kill leaves a ``*.tmp`` alongside and the
        previous cache intact.

        ``cache_key`` embeds the *full uncompressed* campaign key the
        cache was written under — loaders verify it against the key
        they expect instead of trusting the CRC-32 digest in the file
        name alone, so two campaigns whose keys collide in the digest
        can never silently serve each other's records.  ``extra_meta``
        merges additional header fields (the active-learning loop
        stores its acquisition trajectory there).
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps({
            "cluster": r.cluster, "collective": r.collective,
            "nodes": r.nodes, "ppn": r.ppn,
            "msg_size": r.msg_size, "times": r.times,
        }) + "\n" for r in self.records]
        header = {
            "format": DATASET_FORMAT,
            "version": DATASET_VERSION,
            "records": len(lines),
            "crc32": checksum_lines(lines),
        }
        if extra_meta:
            for k, v in extra_meta.items():
                header.setdefault(k, v)
        if cache_key is not None:
            header["cache_key"] = cache_key
        meta = {"__meta__": header}
        tmp = tmp_path_for(path)
        # No write time and no file name in the gzip header, so equal
        # datasets give equal files wherever and whenever written.
        with open(tmp, "wb") as raw:
            with gzip.GzipFile(filename="", mode="wb", fileobj=raw,
                               mtime=0) as fh:
                fh.write((json.dumps(meta) + "\n").encode("utf-8"))
                fh.write("".join(lines).encode("utf-8"))
            raw.flush()
            os.fsync(raw.fileno())
        return atomic_commit(tmp, path)

    @classmethod
    def load(cls, path: str | Path) -> "TuningDataset":
        """Strictly-validated load.

        Truncated gzip streams, undecodable lines, checksum or count
        mismatches and semantically invalid records (unknown
        collectives/algorithms, non-finite or non-positive times) raise
        :class:`CorruptArtifactError`; a cache from another
        ``DATASET_VERSION`` raises :class:`StaleArtifactError`.
        Pre-checksum caches (no ``__meta__`` first line) are accepted
        when their records validate.
        """
        path = Path(path)
        try:
            with gzip.open(path, "rt") as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            raise
        except (OSError, EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise CorruptArtifactError(
                f"cannot read dataset cache {path}: {exc}") from None
        body = lines
        header: dict = {}
        if lines:
            try:
                first = json.loads(lines[0])
            except ValueError as exc:
                raise CorruptArtifactError(
                    f"dataset cache {path} line 1 is not JSON: "
                    f"{exc}") from None
            if isinstance(first, dict) and "__meta__" in first:
                meta = first["__meta__"]
                body = lines[1:]
                if not isinstance(meta, dict):
                    raise CorruptArtifactError(
                        f"dataset cache {path} has a malformed header")
                header = meta
                version = meta.get("version")
                if version != DATASET_VERSION:
                    raise StaleArtifactError(
                        f"dataset cache {path} has version {version!r}, "
                        f"expected {DATASET_VERSION!r}")
                expected = meta.get("records")
                if expected is not None and expected != len(body):
                    raise CorruptArtifactError(
                        f"dataset cache {path} truncated: header says "
                        f"{expected} records, found {len(body)}")
                stored_crc = meta.get("crc32")
                if stored_crc is not None:
                    actual = checksum_lines(body)
                    if stored_crc != actual:
                        raise CorruptArtifactError(
                            f"dataset cache {path} checksum mismatch: "
                            f"stored {stored_crc}, computed {actual}")
        records = []
        for lineno, line in enumerate(body, 1):
            try:
                d = json.loads(line)
                record = CollectiveRecord(
                    cluster=d["cluster"], collective=d["collective"],
                    nodes=int(d["nodes"]), ppn=int(d["ppn"]),
                    msg_size=int(d["msg_size"]),
                    times={k: float(v) for k, v in d["times"].items()})
            except (json.JSONDecodeError, KeyError, TypeError,
                    ValueError, AttributeError) as exc:
                raise CorruptArtifactError(
                    f"dataset cache {path} record {lineno} is "
                    f"malformed: {exc}") from None
            _validate_record(record, path, lineno)
            records.append(record)
        return cls(records, meta=header)


def _validate_record(r: CollectiveRecord, path: Path,
                     lineno: int) -> None:
    """Semantic validation of one cached record."""
    where = f"dataset cache {path} record {lineno}"
    try:
        known = set(base.algorithm_names(r.collective))
    except KeyError:
        raise CorruptArtifactError(
            f"{where}: unknown collective {r.collective!r}") from None
    if r.nodes < 1 or r.ppn < 1 or r.msg_size < 0:
        raise CorruptArtifactError(
            f"{where}: invalid configuration "
            f"({r.nodes} nodes, {r.ppn} ppn, {r.msg_size} B)")
    if not r.times:
        raise CorruptArtifactError(f"{where}: no timings")
    for algo, t in r.times.items():
        if algo not in known:
            raise CorruptArtifactError(
                f"{where}: unknown algorithm {algo!r} for "
                f"{r.collective}")
        if not math.isfinite(t) or t <= 0.0:
            raise CorruptArtifactError(
                f"{where}: non-finite or non-positive time "
                f"{t!r} for {algo}")


#: Memoized feasibility grids: the same (cluster, collective) grid is
#: re-derived by collection, the oracle, and the benchmarks.
_FEASIBLE_CACHE: dict[tuple, tuple[tuple[int, int, int], ...]] = {}


def feasible_configs(spec: ClusterSpec, collective: str
                     ) -> list[tuple[int, int, int]]:
    """The (nodes, ppn, msg) grid of one cluster after feasibility
    filtering (>= 2 ranks; buffers fit memory for every algorithm).

    Memoized per (spec, collective, registered algorithms) — specs are
    frozen dataclasses, so the grid is a pure function of the key."""
    algos = list(base.algorithms(collective).values())
    cache_key = (spec, collective,
                 tuple(sorted(base.algorithm_names(collective))))
    cached = _FEASIBLE_CACHE.get(cache_key)
    if cached is not None:
        return list(cached)
    out = []
    for nodes in spec.node_counts:
        for ppn in spec.ppn_values:
            p = nodes * ppn
            if p < 2:
                continue
            machine = Machine(spec, nodes, ppn)
            for msg in spec.msg_sizes:
                need = max(a.buffer_bytes(p, msg) for a in algos)
                if machine.fits_memory(need):
                    out.append((nodes, ppn, msg))
    if len(_FEASIBLE_CACHE) < 4096:
        _FEASIBLE_CACHE[cache_key] = tuple(out)
    return out


def _measure_with_faults(machine: Machine, collective: str,
                         algo_name: str, msg_size: int,
                         faults: FaultProfile,
                         retry: RetryPolicy) -> float:
    """One algorithm's measurement under injected faults, retried.

    Each attempt rolls fresh seeded luck: an injected measurement
    failure or a transient rank stall raises
    :class:`TransientCollectionError` and the retry policy re-measures;
    the *successful* measurement itself is unchanged, so a faulty
    campaign converges to the clean one.
    """
    key = (machine.spec.name, collective, algo_name,
           machine.nodes, machine.ppn, msg_size)
    attempt_box = [0]
    retries = get_registry().counter("collect.fault_retries")

    def attempt() -> float:
        attempt_box[0] += 1
        n = attempt_box[0]
        if faults.attempt_fails(*key, attempt=n):
            raise TransientCollectionError(
                f"injected measurement failure: {collective}/"
                f"{algo_name} at {machine.nodes}x{machine.ppn}/"
                f"{msg_size}B (attempt {n})")
        if faults.attempt_stalls(*key, attempt=n):
            raise TransientCollectionError(
                f"transient rank stall ({faults.stall_multiplier(*key, attempt=n):.0f}x "
                f"deadline overrun): {collective}/{algo_name} at "
                f"{machine.nodes}x{machine.ppn}/{msg_size}B "
                f"(attempt {n})")
        return measured_time(machine, collective, algo_name, msg_size)

    def note(n: int, exc: BaseException) -> None:
        retries.inc()
        log.debug("measurement retry %d: %s", n, exc)

    return retry.call(attempt, on_retry=note)


def benchmark_config(spec: ClusterSpec, collective: str, nodes: int,
                     ppn: int, msg_size: int,
                     faults: FaultProfile | None = None,
                     retry: RetryPolicy | None = None
                     ) -> CollectiveRecord:
    """Measure every algorithm of *collective* at one configuration.

    With a non-clean *faults* profile, each per-algorithm measurement
    runs under *retry* (default :data:`DEFAULT_COLLECTION_RETRY`);
    exhausted retries propagate :class:`TransientCollectionError` and
    the caller decides whether to drop the configuration.
    """
    return _benchmark(Machine(spec, nodes, ppn), collective, msg_size,
                      faults, retry)


def _benchmark(machine: Machine, collective: str, msg_size: int,
               faults: FaultProfile | None,
               retry: RetryPolicy | None) -> CollectiveRecord:
    """:func:`benchmark_config` on a given machine (whose plans every
    message size of its job shape shares)."""
    if faults is None or faults.is_clean:
        times = {
            name: measured_time(machine, collective, name, msg_size)
            for name in base.algorithm_names(collective)
        }
    else:
        retry = retry or DEFAULT_COLLECTION_RETRY
        times = {
            name: _measure_with_faults(machine, collective, name,
                                       msg_size, faults, retry)
            for name in base.algorithm_names(collective)
        }
    return CollectiveRecord(machine.spec.name, collective, machine.nodes,
                            machine.ppn, msg_size, times)


def _cache_dir(cache_dir: str | Path | None) -> Path:
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get("PML_MPI_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "pml_mpi"


def dataset_cache_key(clusters: list[ClusterSpec],
                      collectives: tuple[str, ...],
                      faults: FaultProfile | None = None,
                      suffix: str = "") -> str:
    """The full, uncompressed campaign cache key.

    Encodes the cluster set, the collectives, any fault profile, and —
    via *suffix* — the acquisition trajectory of an active-learning
    run (seed, batch size, budget, plateau rule: the parameters that
    fully determine which configs get benchmarked, and in what order).
    The key is stored verbatim in the cache's ``__meta__`` header and
    verified on load; the CRC-32 digest of it only names the file.
    """
    key = "-".join(sorted(c.name.replace(" ", "_") for c in clusters)) \
        + "-" + "-".join(collectives)
    if faults is not None and not faults.is_clean:
        key += "-" + faults.cache_key()
    if suffix:
        key += "-" + suffix
    return key


def _cache_digest(key: str) -> int:
    """CRC-32 digest naming the cache file (collisions are survivable:
    the full key inside the file is what loaders trust)."""
    return zlib.crc32(key.encode())


def dataset_cache_path(key: str,
                       cache_dir: str | Path | None = None) -> Path:
    """Cache-file path for one campaign key."""
    return _cache_dir(cache_dir) / \
        f"dataset_v{DATASET_VERSION}_{_cache_digest(key):08x}.jsonl.gz"


def load_cached_dataset(cache: Path, expected_key: str,
                        progress: bool = False) -> TuningDataset | None:
    """Load one cache file, verifying the *full* stored key.

    Returns ``None`` when the file is absent or was quarantined.  A
    cache whose ``__meta__`` carries a different campaign key — e.g.
    an active-learning run whose key collides with an exhaustive
    sweep's CRC-32 digest — is quarantined exactly like a corrupt one
    (counted under ``collect.cache_key_mismatch``): the digest in the
    file name is a lookup hint, never an identity proof.  Pre-key
    caches (no ``cache_key`` header) are trusted when their records
    validate, as before.
    """
    registry = get_registry()
    try:
        dataset = TuningDataset.load(cache)
    except FileNotFoundError:
        return None
    except (CorruptArtifactError, StaleArtifactError) as exc:
        registry.counter("collect.cache_quarantined").inc()
        moved = quarantine(cache)
        log.warning("cache invalid (%s); quarantined to %s",
                    exc, moved.name)
        if progress:
            print(f"[collect] cache invalid ({exc}); "
                  f"quarantined to {moved.name}, re-collecting")
        return None
    stored = dataset.meta.get("cache_key")
    if stored is not None and stored != expected_key:
        registry.counter("collect.cache_key_mismatch").inc()
        registry.counter("collect.cache_quarantined").inc()
        moved = quarantine(cache)
        log.warning(
            "cache %s belongs to campaign %r, expected %r (digest "
            "collision); quarantined to %s", cache.name, stored,
            expected_key, moved.name)
        if progress:
            print(f"[collect] cache key mismatch (digest collision); "
                  f"quarantined to {moved.name}, re-collecting")
        return None
    registry.counter("collect.cache_hits").inc()
    log.info("dataset cache hit: %s (%d records)", cache.name,
             len(dataset))
    return dataset


def _collect_chunk(spec: ClusterSpec, collective: str,
                   faults: FaultProfile | None = None,
                   retry: RetryPolicy | None = None
                   ) -> tuple[list[CollectiveRecord], int]:
    """Benchmark one (cluster, collective) — the unit of parallelism.

    Top-level so it pickles into worker processes; measurements are
    pure functions of the configuration, so parallel collection is
    bit-identical to serial.  Each job shape is measured on one
    :class:`Machine`, so each algorithm's plan is built once per shape
    and sized for every message size of the grid.  Returns ``(records,
    dropped)`` where *dropped* counts configurations whose measurements
    exhausted their retries — collection survives flaky fabrics instead
    of crashing.
    """
    records: list[CollectiveRecord] = []
    dropped = 0
    machine = None
    with get_tracer().span("collect.chunk", cluster=spec.name,
                           collective=collective) as span:
        for nodes, ppn, msg in feasible_configs(spec, collective):
            if machine is None or (machine.nodes, machine.ppn) \
                    != (nodes, ppn):
                machine = Machine(spec, nodes, ppn)
            try:
                records.append(_benchmark(machine, collective, msg,
                                          faults, retry))
            except TransientCollectionError:
                dropped += 1
        if span is not None:
            span.attributes["configs"] = len(records)
            span.attributes["dropped"] = dropped
    return records, dropped


def _collect_chunk_task(task: tuple) -> tuple[list[CollectiveRecord], int]:
    """One-argument adapter for :func:`repro.ml.parallel.parallel_map`."""
    spec, collective, faults, retry = task
    return _collect_chunk(spec, collective, faults, retry)


def collect_dataset(clusters: list[ClusterSpec] | None = None,
                    collectives: tuple[str, ...] = COLLECTIVES,
                    cache_dir: str | Path | None = None,
                    use_cache: bool = True,
                    progress: bool = False,
                    workers: int | None = None,
                    faults: FaultProfile | None = None,
                    retry: RetryPolicy | None = None) -> TuningDataset:
    """The full Table I campaign (cached after the first run).

    ``workers`` follows the ``n_jobs`` convention of
    :func:`~repro.ml.parallel.parallel_map` (``None``/``1`` serial, -1
    one worker per core): more than one worker fans the (cluster,
    collective) chunks out over a process pool, and results are
    concatenated in deterministic chunk order regardless of completion
    order.

    A cached file that fails validation is quarantined (renamed to
    ``*.corrupt``) and the campaign re-runs — a corrupt cache never
    crashes collection and never silently feeds bad data to training.
    ``faults``/``retry`` inject transient measurement failures and rank
    stalls (seeded, reproducible) and bound the per-measurement
    retries; see :class:`~repro.simcluster.conditions.FaultProfile`.
    """
    if clusters is None:
        clusters = all_clusters()
    key = dataset_cache_key(clusters, collectives, faults)
    cache = dataset_cache_path(key, cache_dir)
    registry = get_registry()
    if use_cache and cache.exists():
        dataset = load_cached_dataset(cache, key, progress=progress)
        if dataset is not None:
            return dataset

    chunks = [(spec, collective) for spec in clusters
              for collective in collectives]
    records: list[CollectiveRecord] = []
    total_dropped = 0
    with get_tracer().span("collect.campaign", clusters=len(clusters),
                           chunks=len(chunks)):
        results = parallel_map(
            _collect_chunk_task,
            [(spec, coll, faults, retry) for spec, coll in chunks],
            workers)
        best_us = registry.histogram("collect.best_time_us")
        for (spec, coll), (chunk, dropped) in zip(chunks, results):
            total_dropped += dropped
            if progress:
                print(f"[collect] {spec.name}: {coll} "
                      f"({len(chunk)} configs)")
            for record in chunk:
                best_us.observe(record.best_time * 1e6)
            records.extend(chunk)
    registry.counter("collect.configs").inc(len(records))
    registry.counter("collect.dropped").inc(total_dropped)
    log.info("collected %d records over %d chunks (%d dropped)",
             len(records), len(chunks), total_dropped)
    if total_dropped:
        log.warning("dropped %d configs after exhausted retries",
                    total_dropped)
        if progress:
            print(f"[collect] dropped {total_dropped} configs after "
                  f"exhausted retries")
    dataset = TuningDataset(records)
    if use_cache:
        dataset.save(cache, cache_key=key)
    return dataset
