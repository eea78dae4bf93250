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
from collections.abc import Iterable, Mapping
from pathlib import Path

import numpy as np

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

    ``entries[collective][(nodes, ppn)]`` is a tuple of
    ``(max_msg_size, algorithm)`` pairs sorted by size; a lookup takes
    the first breakpoint whose ``max_msg_size`` is >= the requested
    size (or the last entry for larger messages).

    The table is built once, as the paper's compile step emits it, and
    never changes afterwards.  The constructor runs every structural
    check (see :meth:`validate`), sorts each config's breakpoints and
    builds a log-space index of the configs, so a lookup is a dict probe
    plus an O(log b) bisect; a job shape off the grid resolves to the
    nearest sampled config in log space, ties broken toward the
    smallest ``(nodes, ppn)``.
    """

    def __init__(self, cluster: str,
                 entries: Mapping[str, Mapping[tuple[int, int],
                                               Iterable[tuple[int, str]]]]
                 ) -> None:
        res = _resilience()
        if not cluster or not isinstance(cluster, str):
            raise res.CorruptArtifactError("table has no cluster name")
        if not entries:
            raise res.CorruptArtifactError(
                f"table for {cluster} has no entries")
        self.cluster = cluster
        self.entries = {}
        #: collective -> (config keys ascending, log2 nodes, log2 ppn)
        self._index = {}
        try:
            for coll, configs in entries.items():
                per = self.entries[coll] = _section(cluster, coll, configs)
                log_nodes, log_ppn = np.log2(
                    np.array(list(per), dtype=float)).T
                self._index[coll] = (list(per), log_nodes, log_ppn)
        except res.ArtifactError:
            raise
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise res.CorruptArtifactError(
                f"invalid tuning-table entry: {exc}") from None

    def __repr__(self) -> str:
        n = sum(len(bps) for cfgs in self.entries.values()
                for bps in cfgs.values())
        return (f"TuningTable(cluster={self.cluster!r}, "
                f"collectives={sorted(self.entries)}, "
                f"breakpoints={n})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TuningTable):
            return NotImplemented
        return (self.cluster == other.cluster
                and self.entries == other.entries)

    def lookup(self, collective: str, nodes: int, ppn: int,
               msg_size: int) -> str:
        try:
            configs = self.entries[collective]
        except KeyError:
            raise KeyError(
                f"tuning table for {self.cluster} has no "
                f"{collective} entries") from None
        bps = configs.get((nodes, ppn))
        if bps is None:
            keys, log_nodes, log_ppn = self._index[collective]
            dist = ((log_nodes - math.log2(nodes)) ** 2
                    + (log_ppn - math.log2(ppn)) ** 2)
            # ``argmin`` takes the first minimum and the keys ascend.
            bps = configs[keys[int(np.argmin(dist))]]
        # ``(msg_size,)`` sorts before every ``(msg_size, algorithm)``.
        i = bisect.bisect_left(bps, (msg_size,))
        return bps[min(i, len(bps) - 1)][1]

    def validate(self) -> None:
        """No-op: construction already rejected empty tables and
        sections, empty breakpoint lists, invalid job shapes, NaN,
        infinite or negative message sizes, unknown collective or
        algorithm names, and *conflicting duplicate breakpoints* (two
        algorithms claiming one message size) — the nonsensical-decision
        classes Hunold's performance-guidelines work shows tuned tables
        can encode — and nothing changes a table after it is built."""

    # -- (de)serialization (the paper's JSON artifact) -------------------
    def to_json(self) -> str:
        collectives = {
            coll: {f"{nodes}x{ppn}": bps
                   for (nodes, ppn), bps in per.items()}
            for coll, per in self.entries.items()}
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
        ``version`` field) are accepted if structurally valid.  Two
        config keys naming one job shape (``"2x8"`` and ``"02x8"``)
        make the table corrupt.
        """
        res = _resilience()
        try:
            payload = json.loads(text)
        except ValueError as exc:  # also an int past the digit limit
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
        parsed: dict[str, dict[tuple[int, int], list]] = {}
        try:
            for coll, configs in collectives.items():
                per = parsed[coll] = {}
                for key, bps in configs.items():
                    nodes, ppn = (int(x) for x in key.split("x"))
                    if (nodes, ppn) in per:
                        raise ValueError(
                            f"{coll} config key {key!r} repeats "
                            f"{nodes}x{ppn}")
                    per[nodes, ppn] = bps
        except (AttributeError, TypeError, ValueError) as exc:
            raise res.CorruptArtifactError(
                f"invalid tuning-table entry: {exc}") from None
        return cls(cluster, parsed)

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


def _section(cluster: str, coll: str, configs: Mapping
             ) -> dict[tuple[int, int], tuple[tuple[int, str], ...]]:
    """One collective's checked store: configs ascending, each with its
    breakpoints sorted by size and repeated sizes merged (a repeat
    naming another algorithm is corrupt)."""
    corrupt = _resilience().CorruptArtifactError
    if not configs:
        raise corrupt(f"table for {cluster} has an empty {coll} section")
    per = {}
    for (nodes, ppn), bps in sorted(configs.items()):
        if nodes < 1 or ppn < 1:
            raise corrupt(f"{coll}: invalid config {nodes}x{ppn}")
        if not bps:
            raise corrupt(f"{coll} {nodes}x{ppn}: empty breakpoint list")
        by_size: dict[int, str] = {}
        for size, algo in bps:
            if not 0 <= size < math.inf:
                raise corrupt(f"{coll} {nodes}x{ppn}: invalid message "
                              f"size {size!r}")
            base.get_algorithm(coll, algo)
            prev = by_size.setdefault(int(size), algo)
            if prev != algo:
                raise corrupt(f"{coll} {nodes}x{ppn}: conflicting "
                              f"duplicate breakpoint at {int(size)} B "
                              f"({prev!r} vs {algo!r})")
        per[nodes, ppn] = tuple(sorted(by_size.items()))
    return per


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

