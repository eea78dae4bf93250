"""Tuning tables, measurement, and the oracle selector.

A *tuning table* is the JSON artifact the paper's framework emits at MPI
compile time (Fig. 4): for each (collective, #nodes, PPN) it stores a
list of message-size breakpoints mapping to algorithm names.  Runtime
lookup is constant-time: exact (nodes, ppn) entry when present, else the
nearest sampled configuration in log-space.

``measured_time`` is the single source of truth for "running" a
collective: the analytic schedule estimate of the machine's cost model,
multiplied by averaged log-normal iteration noise (seeded by the full
configuration, so measurements are reproducible).  Dataset collection,
the oracle, and the OMB-style microbenchmark all share it.
"""

from __future__ import annotations

import bisect
import json
import math
import zlib
from pathlib import Path

import numpy as np

from ..hwmodel.registry import get_cluster
from ..obs.telemetry import get_registry
from ..simcluster.machine import Machine
from .collectives import base
from .heuristics import AlgorithmSelector, validate_query

#: Per-iteration relative noise of a simulated measurement.
NOISE_SIGMA = 0.03
#: OMB-style averaging iterations.
DEFAULT_ITERATIONS = 10

#: Schema identifiers embedded in the persisted JSON artifact.
TABLE_FORMAT = "pml-mpi/tuning-table"
TABLE_VERSION = 1

#: Memoized measurements (the simulator is deterministic, so a repeated
#: configuration never needs re-measuring).  Bounded; cleared wholesale
#: on overflow — entries are cheap to recompute.
_MEASURE_CACHE: dict[tuple, float] = {}
_MEASURE_CACHE_MAX = 1 << 20

#: Cap on the per-table nearest-config memo (distinct *queried* job
#: shapes, not stored configs).
_NEAREST_CACHE_MAX = 1 << 16


def _resilience():
    """Lazy import: ``repro.core`` imports this module at package-init
    time, so a module-level ``from ..core.resilience import ...`` here
    would be a circular import."""
    from ..core import resilience
    return resilience


def _config_seed(*parts: object) -> int:
    return zlib.crc32("|".join(str(p) for p in parts).encode())


def clear_measurement_cache() -> None:
    """Drop every memoized :func:`measured_time` result."""
    _MEASURE_CACHE.clear()


def measured_time(machine: Machine, collective: str, algo_name: str,
                  msg_size: int, iterations: int = DEFAULT_ITERATIONS,
                  noise: bool = True) -> float:
    """Average measured runtime (seconds) of one algorithm at one
    configuration, reproducing an OMB-style timing loop.

    Measurements are pure functions of the configuration (the noise is
    seeded by it), so results are memoized — the oracle and dataset
    collection hit each configuration many times."""
    # ``machine.params`` must be part of the key: degraded machines
    # (congestion / latency jitter) share spec/nodes/ppn with the clean
    # allocation but price schedules differently.
    key = (machine.spec, machine.params, collective, algo_name,
           machine.nodes, machine.ppn, msg_size, iterations, noise)
    try:
        return _MEASURE_CACHE[key]
    except KeyError:
        pass
    algo = base.get_algorithm(collective, algo_name)
    t = algo.estimate(machine, msg_size)
    if noise:
        seed = _config_seed(machine.spec.name, collective, algo_name,
                            machine.nodes, machine.ppn, msg_size)
        rng = np.random.default_rng(seed)
        factors = np.exp(rng.normal(0.0, NOISE_SIGMA, size=iterations))
        t = t * float(factors.mean())
    if len(_MEASURE_CACHE) >= _MEASURE_CACHE_MAX:
        _MEASURE_CACHE.clear()
    _MEASURE_CACHE[key] = t
    return t


class OracleSelector(AlgorithmSelector):
    """Exhaustive offline micro-benchmarking: measure every algorithm,
    pick the fastest.  The gold standard the paper bounds itself
    against (and the generator of dataset labels)."""

    def __init__(self, iterations: int = DEFAULT_ITERATIONS) -> None:
        self.iterations = iterations

    def select(self, collective: str, machine: Machine,
               msg_size: int) -> str:
        validate_query(collective, machine, msg_size)
        times = {
            name: measured_time(machine, collective, name, msg_size,
                                self.iterations)
            for name in base.algorithm_names(collective)
        }
        return min(times, key=times.__getitem__)


class TuningTable:
    """Per-cluster lookup table: (collective, nodes, ppn) -> breakpoints.

    ``entries[collective][(nodes, ppn)]`` is a list of
    ``(max_msg_size, algorithm)`` pairs; a lookup takes the first
    breakpoint whose ``max_msg_size`` is >= the requested size (or the
    last entry for larger messages).

    Hot-path layout: ``add`` is O(1) amortized (append + dirty flag,
    duplicates replaced last-write-wins); the first lookup after a
    mutation freezes the table — one sort per config plus a log-space
    config index — after which each lookup is an O(log b) bisect over
    the breakpoints, with nearest-config resolution memoized per
    queried job shape (amortized O(1)).  Ties in the log-space config
    distance break deterministically toward the smallest
    ``(nodes, ppn)``.  Touching ``entries`` directly conservatively
    invalidates the frozen index, so external mutation stays safe.
    """

    def __init__(self, cluster: str,
                 entries: dict[str, dict[tuple[int, int],
                                         list[tuple[int, str]]]]
                 | None = None) -> None:
        self.cluster = cluster
        self._entries = entries if entries is not None else {}
        self._dirty = True
        #: collective -> {(nodes, ppn): (sorted sizes, algorithms)}
        self._index: dict[str, dict[tuple[int, int],
                                    tuple[list[int], list[str]]]] = {}
        #: collective -> (sorted config keys, log2 nodes, log2 ppn)
        self._config_index: dict[str, tuple[list[tuple[int, int]],
                                            np.ndarray, np.ndarray]] = {}
        #: (collective, nodes, ppn) -> chosen config key
        self._nearest: dict[tuple[str, int, int], tuple[int, int]] = {}
        #: (collective, key) -> position of each size in the entries
        #: list, so replace-on-duplicate needs no scan.
        self._positions: dict[tuple[str, tuple[int, int]],
                              dict[int, int]] = {}
        #: Lookup counters, (re)bound to the ambient registry at freeze
        #: time so the hot path pays one cached ``inc`` per lookup
        #: instead of a registry dict probe.
        self._c_exact = self._c_nearest = self._c_memo = None

    def __repr__(self) -> str:
        n = sum(len(bps) for cfgs in self._entries.values()
                for bps in cfgs.values())
        return (f"TuningTable(cluster={self.cluster!r}, "
                f"collectives={sorted(self._entries)}, "
                f"breakpoints={n})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TuningTable):
            return NotImplemented
        return (self.cluster == other.cluster
                and self._entries == other._entries)

    @property
    def entries(self) -> dict:
        """The raw breakpoint store.  Any access may mutate the nested
        dicts, so the frozen lookup index and the replace-on-duplicate
        position map are conservatively invalidated."""
        self._dirty = True
        self._positions = {}
        return self._entries

    @entries.setter
    def entries(self, value: dict) -> None:
        self._entries = value
        self._dirty = True
        self._positions = {}

    # -- construction ---------------------------------------------------
    def add(self, collective: str, nodes: int, ppn: int,
            msg_size: int, algorithm: str) -> None:
        """Record one breakpoint; a duplicate ``(collective, nodes,
        ppn, msg_size)`` *replaces* the stored algorithm (last write
        wins) instead of accumulating a conflicting twin."""
        base.get_algorithm(collective, algorithm)  # validate name
        if isinstance(msg_size, float) and not math.isfinite(msg_size):
            raise ValueError(f"message size must be finite, got {msg_size}")
        msg_size = int(msg_size)
        if msg_size < 0:
            raise ValueError(f"message size must be >= 0, got {msg_size}")
        if nodes < 1 or ppn < 1:
            raise ValueError(
                f"nodes/ppn must be >= 1, got ({nodes}, {ppn})")
        cfg = self._entries.setdefault(collective, {})
        key = (nodes, ppn)
        bps = cfg.setdefault(key, [])
        pos = self._positions.get((collective, key))
        if pos is None:
            # (Re)build the position map from the live list — O(b)
            # once after external ``entries`` access, O(1) otherwise.
            pos = {size: i for i, (size, _) in enumerate(bps)}
            self._positions[(collective, key)] = pos
        if msg_size in pos:
            bps[pos[msg_size]] = (msg_size, algorithm)
        else:
            pos[msg_size] = len(bps)
            bps.append((msg_size, algorithm))
        self._dirty = True

    # -- freeze ----------------------------------------------------------
    def _freeze(self) -> None:
        """Build the lookup index: one sort per config, done once per
        batch of mutations instead of per ``add``."""
        index: dict[str, dict[tuple[int, int],
                              tuple[list[int], list[str]]]] = {}
        config_index: dict[str, tuple[list[tuple[int, int]],
                                      np.ndarray, np.ndarray]] = {}
        for coll, configs in self._entries.items():
            per: dict[tuple[int, int], tuple[list[int], list[str]]] = {}
            for key, bps in configs.items():
                dedup: dict[int, str] = {}
                for size, algo in bps:  # last write wins
                    dedup[size] = algo
                sizes = sorted(dedup)
                per[key] = (sizes, [dedup[s] for s in sizes])
            index[coll] = per
            keys = sorted(configs)
            config_index[coll] = (
                keys,
                np.log2(np.array([k[0] for k in keys], dtype=float)),
                np.log2(np.array([k[1] for k in keys], dtype=float)),
            )
        self._index = index
        self._config_index = config_index
        self._nearest = {}
        registry = get_registry()
        registry.counter("table.freeze").inc()
        self._c_exact = registry.counter("table.lookup.exact")
        self._c_nearest = registry.counter("table.lookup.nearest")
        self._c_memo = registry.counter("table.lookup.nearest_memo_hit")
        self._dirty = False

    def _nearest_config(self, collective: str, nodes: int,
                        ppn: int) -> tuple[int, int]:
        """Nearest sampled config in log space, memoized per queried
        job shape.  ``argmin`` over keys pre-sorted ascending by
        ``(nodes, ppn)`` makes distance ties deterministic: the
        smallest configuration wins."""
        cache_key = (collective, nodes, ppn)
        hit = self._nearest.get(cache_key)
        if hit is not None:
            self._c_memo.inc()
            return hit
        keys, log_nodes, log_ppn = self._config_index[collective]
        dist = ((log_nodes - math.log2(nodes)) ** 2
                + (log_ppn - math.log2(ppn)) ** 2)
        best = keys[int(np.argmin(dist))]
        if len(self._nearest) >= _NEAREST_CACHE_MAX:
            self._nearest.clear()
        self._nearest[cache_key] = best
        return best

    # -- lookup -----------------------------------------------------------
    def lookup(self, collective: str, nodes: int, ppn: int,
               msg_size: int) -> str:
        if self._dirty:
            self._freeze()
        try:
            configs = self._index[collective]
        except KeyError:
            raise KeyError(
                f"tuning table for {self.cluster} has no "
                f"{collective} entries") from None
        if not configs:
            raise ValueError(
                f"tuning table for {self.cluster} has an empty "
                f"{collective} section")
        key = (nodes, ppn)
        entry = configs.get(key)
        if entry is None:
            self._c_nearest.inc()
            key = self._nearest_config(collective, nodes, ppn)
            entry = configs[key]
        else:
            self._c_exact.inc()
        sizes, algos = entry
        if not sizes:
            raise ValueError(
                f"tuning table for {self.cluster} has no breakpoints "
                f"for {collective} at {key[0]}x{key[1]}")
        i = bisect.bisect_left(sizes, msg_size)
        return algos[i] if i < len(algos) else algos[-1]

    # -- validation -------------------------------------------------------
    def validate(self) -> None:
        """Structural sanity check; raises ``CorruptArtifactError``.

        Rejects empty tables, empty per-config breakpoint lists,
        NaN/negative message-size keys, unknown collective or
        algorithm names, and *conflicting duplicate breakpoints* (two
        algorithms claiming the same message size — which would make
        the decision depend on sort stability) — the
        nonsensical-decision classes Hunold's performance-guidelines
        work shows tuned tables can encode.
        """
        res = _resilience()
        if not self.cluster or not isinstance(self.cluster, str):
            raise res.CorruptArtifactError("table has no cluster name")
        if not self.entries:
            raise res.CorruptArtifactError(
                f"table for {self.cluster} has no entries")
        for coll, configs in self.entries.items():
            if not configs:
                raise res.CorruptArtifactError(
                    f"table for {self.cluster} has an empty "
                    f"{coll} section")
            for (nodes, ppn), bps in configs.items():
                if not bps:
                    raise res.CorruptArtifactError(
                        f"{coll} {nodes}x{ppn}: empty breakpoint list")
                if nodes < 1 or ppn < 1:
                    raise res.CorruptArtifactError(
                        f"{coll}: invalid config {nodes}x{ppn}")
                seen: dict[int, str] = {}
                for size, algo in bps:
                    if (isinstance(size, float)
                            and not math.isfinite(size)) or size < 0:
                        raise res.CorruptArtifactError(
                            f"{coll} {nodes}x{ppn}: invalid message "
                            f"size {size!r}")
                    try:
                        base.get_algorithm(coll, algo)
                    except KeyError as exc:
                        raise res.CorruptArtifactError(str(exc)) from None
                    prev = seen.get(size)
                    if prev is not None and prev != algo:
                        raise res.CorruptArtifactError(
                            f"{coll} {nodes}x{ppn}: conflicting "
                            f"duplicate breakpoint at {size} B "
                            f"({prev!r} vs {algo!r})")
                    seen[size] = algo

    # -- (de)serialization (the paper's JSON artifact) -------------------
    def _collectives_payload(self) -> dict:
        """Serialized form of the *frozen* table: breakpoints deduped
        (last write wins) and sorted exactly once, at freeze time."""
        if self._dirty:
            self._freeze()
        return {
            coll: {
                f"{nodes}x{ppn}": [
                    [s, a] for s, a in zip(*per[(nodes, ppn)])
                ]
                for (nodes, ppn) in sorted(per)
            }
            for coll, per in self._index.items()
        }

    def to_json(self) -> str:
        collectives = self._collectives_payload()
        payload = {
            "format": TABLE_FORMAT,
            "version": TABLE_VERSION,
            "cluster": self.cluster,
            "crc32": _resilience().checksum_payload(collectives),
            "collectives": collectives,
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "TuningTable":
        """Parse and *strictly validate* a persisted table.

        Any problem surfaces as a typed
        :class:`~repro.core.resilience.ArtifactError` — never a raw
        ``KeyError`` / ``json.JSONDecodeError`` — so the compile-time
        setup path can quarantine and fall back instead of crashing.
        Tables written before checksums existed (no ``crc32`` /
        ``version`` field) are accepted if structurally valid.
        """
        res = _resilience()
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise res.CorruptArtifactError(
                f"tuning table is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise res.CorruptArtifactError(
                "tuning table payload is not a JSON object")
        fmt = payload.get("format", TABLE_FORMAT)
        if fmt != TABLE_FORMAT:
            raise res.CorruptArtifactError(
                f"not a tuning table (format {fmt!r})")
        version = payload.get("version", TABLE_VERSION)
        if version != TABLE_VERSION:
            raise res.StaleArtifactError(
                f"unsupported tuning-table version {version!r} "
                f"(expected {TABLE_VERSION})")
        cluster = payload.get("cluster")
        collectives = payload.get("collectives")
        if not isinstance(cluster, str) or not cluster \
                or not isinstance(collectives, dict):
            raise res.CorruptArtifactError(
                "tuning table missing cluster name or collectives map")
        stored_crc = payload.get("crc32")
        if stored_crc is not None:
            actual = res.checksum_payload(collectives)
            if stored_crc != actual:
                raise res.CorruptArtifactError(
                    f"tuning table checksum mismatch: stored "
                    f"{stored_crc}, computed {actual}")
        table = cls(cluster=cluster)
        try:
            for coll, configs in collectives.items():
                for key, bps in configs.items():
                    nodes, ppn = (int(x) for x in key.split("x"))
                    seen: dict[int, str] = {}
                    for max_size, algo in bps:
                        # ``add`` replaces duplicates (last write
                        # wins), which would silently mask a stored
                        # conflict — detect it before adding.
                        size = int(max_size)
                        prev = seen.get(size)
                        if prev is not None and prev != algo:
                            raise res.CorruptArtifactError(
                                f"{coll} {key}: conflicting duplicate "
                                f"breakpoint at {size} B "
                                f"({prev!r} vs {algo!r})")
                        seen[size] = algo
                        table.add(coll, nodes, ppn, max_size, algo)
        except (KeyError, ValueError, TypeError, AttributeError,
                OverflowError) as exc:
            raise res.CorruptArtifactError(
                f"invalid tuning-table entry: {exc}") from None
        table.validate()
        return table

    def save(self, path: str | Path) -> Path:
        """Atomic write: a crash mid-save never clobbers the old table."""
        return _resilience().atomic_write_text(Path(path), self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "TuningTable":
        try:
            text = Path(path).read_text()
        except FileNotFoundError:
            raise
        except (OSError, UnicodeDecodeError) as exc:
            raise _resilience().CorruptArtifactError(
                f"cannot read tuning table {path}: {exc}") from None
        return cls.from_json(text)


class TableSelector(AlgorithmSelector):
    """Constant-time selector backed by a :class:`TuningTable` — the
    artifact PML-MPI's online-inference stage ships to the MPI runtime.

    Off the table's grid the nearest-config answer may be an algorithm
    the queried communicator cannot run (a power-of-two-only family
    looked up for a 6-rank job); such an answer is remapped to
    :func:`~repro.smpi.collectives.base.best_feasible`, as the runtime
    guard remaps an infeasible model prediction."""

    def __init__(self, table: TuningTable) -> None:
        self.table = table

    def select(self, collective: str, machine: Machine,
               msg_size: int) -> str:
        validate_query(collective, machine, msg_size)
        if machine.spec.name != self.table.cluster:
            raise ValueError(
                f"tuning table built for {self.table.cluster}, "
                f"job runs on {machine.spec.name}")
        name = self.table.lookup(collective, machine.nodes, machine.ppn,
                                 msg_size)
        if base.is_feasible(collective, name, machine.p):
            return name
        return base.best_feasible(collective, machine, msg_size)


def build_oracle_table(cluster_name: str, collective: str,
                       node_counts: tuple[int, ...],
                       ppn_values: tuple[int, ...],
                       msg_sizes: tuple[int, ...],
                       iterations: int = DEFAULT_ITERATIONS) -> TuningTable:
    """Exhaustive offline micro-benchmarking of one cluster: the
    time-consuming standard approach the paper's Fig. 1/7 prices."""
    spec = get_cluster(cluster_name)
    oracle = OracleSelector(iterations)
    table = TuningTable(cluster=spec.name)
    for nodes in node_counts:
        for ppn in ppn_values:
            if nodes * ppn < 2:
                continue
            machine = Machine(spec, nodes, ppn)
            for msg in msg_sizes:
                table.add(collective, nodes, ppn, msg,
                          oracle.select(collective, machine, msg))
    return table
