"""Chaos/soak harness: three seeded soaks on one skeleton.

* :func:`run_chaos` fires tens of thousands of adversarial queries at a
  :class:`~repro.smpi.guard.GuardedSelector` — fuzzed job shapes,
  malformed inputs, far-out-of-distribution sizes, a fault-injected
  inner selector (:class:`FlakySelector`, driven by a seeded
  :class:`~repro.simcluster.conditions.FaultProfile`), corrupt-model
  labels, and scripted failure storms that trip the circuit breaker.
* :func:`run_daemon_chaos` drives a real ``pml-mpi serve`` subprocess
  through client storms, hot-reload, corruption, SIGKILL and drain.
* :func:`run_adapt_chaos` drives the online adaptation loop against a
  live daemon through poisoned feedback, drift, a worse challenger and
  a mid-promotion SIGKILL.

The guard soak asserts the guard's invariants:

* nothing but typed :class:`~repro.smpi.heuristics.InvalidQueryError`
  ever escapes the guard, and only for malformed queries;
* every answered query returns a registry algorithm that is *feasible*
  for the queried communicator shape;
* the breaker completes at least one open → half-open → closed cycle
  across the scripted storms;
* the guard's health counters reconcile exactly with the query count.

The soaks share one skeleton: a :class:`SoakReport` that records
phases and violations (never raised, so CI prints all of them), one
counter-partition checker (:func:`partition_violations`), one training
step (:func:`train_chaos_selector`) and one daemon lifecycle
(:class:`_Daemon`).  Everything is a pure function of ``seed``: the
breaker runs on a query-tick clock, fault injection is seeded, and the
query streams are drawn from seeded generators — so a failure
reproduces exactly.  Exposed as ``pml-mpi chaos`` and wired into
``scripts/smoke.sh``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar, Mapping

import numpy as np

from ..adapt import VERDICTS, AdaptationLoop, AdaptConfig, FeedbackLog
from ..adapt.feedback import FeedbackRecord
from ..adapt.gate import ChampionChallengerGate, shadow_evaluate
from ..hwmodel.registry import get_cluster
from ..obs.expo import parse_prometheus, prometheus_name
from ..obs.live import EVENT_KINDS
from ..obs.telemetry import MetricsRegistry, get_tracer, use_telemetry
from ..serve.client import DaemonClient, DaemonError
from ..serve.daemon import DAEMON_COUNTER_KEYS
from ..serve.reload import file_crc32
from ..serve.service import SERVE_COUNTER_KEYS
from ..simcluster.conditions import (
    FaultProfile,
    NetworkConditions,
    machine_with_conditions,
)
from ..simcluster.machine import Machine
from ..smpi.collectives import base
from ..smpi.guard import (
    COUNTER_KEYS,
    GuardedSelector,
    InvalidQueryError,
    extract_envelopes,
)
from ..smpi.heuristics import AlgorithmSelector
from ..smpi.tuning import measured_time
from .bundle import load_selector, save_selector
from .dataset import (
    CollectiveRecord,
    TuningDataset,
    collect_dataset,
    feasible_configs,
)
from .inference import PretrainedSelector
from .resilience import (
    CircuitBreaker,
    TransientCollectionError,
    atomic_write_text,
)
from .training import train_model

#: Collectives the harness trains models for (the paper's pair).
CHAOS_COLLECTIVES = ("allgather", "alltoall")
#: Training cluster (small grid -> fast, cached collection).
CHAOS_TRAIN_CLUSTER = "RI"

#: A label no registry knows — what a corrupted model bundle emits.
CORRUPT_LABEL = "__corrupted_label__"

#: The guard soak's fault mix: per inner call, P(raise), P(unknown
#: label) and P(infeasible label); per query, the shares of malformed
#: and far-OOD queries.
FAILURE_RATE = 0.02
GARBAGE_RATE = 0.02
INFEASIBLE_RATE = 0.05
INVALID_FRACTION = 0.1
OOD_FRACTION = 0.1
#: Queries per scripted failure storm (two per run, at 30% and 65%).
STORM_LENGTH = 60
#: Breaker trips to open, and its recovery time in query ticks.
BREAKER_THRESHOLD = 5
RECOVERY_TICKS = 150.0
#: Trees per model: the guard soak's selector, and the daemon and
#: adaptation soaks' hot-swappable bundles.
GUARD_TREES = 20
BUNDLE_TREES = 8

#: Daemon error codes a storm client may legitimately receive.
ALLOWED_DAEMON_ERRORS = ("overloaded", "draining")

#: Counter families whose parts partition their total exactly,
#: ``namespace -> (total, parts)``, read off the key tuples the owning
#: modules export.  ``guard.champion`` / ``guard.challenger`` share the
#: ``guard`` family.
PARTITIONS: dict[str, tuple[str, tuple[str, ...]]] = {
    "guard": (COUNTER_KEYS[0], COUNTER_KEYS[1:7]),
    "serve": (SERVE_COUNTER_KEYS[0], SERVE_COUNTER_KEYS[1:4]),
    "serve.daemon": (DAEMON_COUNTER_KEYS[0], DAEMON_COUNTER_KEYS[1:]),
    "adapt": ("runs", tuple(f"verdict.{v}" for v in VERDICTS)),
    "adapt.feedback": ("loads", ("ok", "quarantined")),
    "adapt.gate": ("evaluations", ("accepted", "rejected")),
}

#: The partitions a daemon's ``stats`` satisfy at quiescence (only the
#: daemon's holds mid-request: a mid-batch service has counted the
#: query but not yet its outcome).
DAEMON_NAMESPACES = ("serve.daemon", "serve", "guard")


def partition_violations(counters: Mapping[str, Any], context: str,
                         *namespaces: str,
                         exposition: bool = False) -> list[str]:
    """Counter-partition violations of *namespaces* in one snapshot.

    *counters* maps registry names (``guard.queries``) to values, or
    with *exposition* parsed Prometheus samples
    (``pml_guard_queries_total``).  A missing counter reads as 0.  The
    daemon family also requires ``internal == 0``.
    """
    out = []
    for namespace in namespaces:
        total, parts = PARTITIONS[
            "guard" if namespace.startswith("guard") else namespace]

        def value(key: str) -> int:
            name = f"{namespace}.{key}"
            if exposition:
                name = f"{prometheus_name(name)}_total"
            return counters.get(name, 0)

        got = {k: value(k) for k in (total, *parts)}
        summed = sum(got[k] for k in parts)
        if summed != got[total]:
            out.append(f"{context}: {namespace} partition {summed} != "
                       f"{total} {got[total]} ({got})")
        if got.get("internal"):
            out.append(f"{context}: {got['internal']} internal errors "
                       f"served")
    return out


def _rng(seed: int, *parts: object) -> np.random.Generator:
    token = "|".join(str(p) for p in ("chaos", seed, *parts))
    return np.random.default_rng(zlib.crc32(token.encode()))


@dataclass(kw_only=True)
class SoakReport:
    """What one soak observed; ``ok`` is the pass/fail verdict.

    Each soak's report adds its own fields and :meth:`headline`;
    :meth:`describe` follows it with the phases, the counters under
    :attr:`counter_prefixes`, the first 20 violations and the banner.
    """

    banner: ClassVar[str] = "CHAOS"
    counter_prefixes: ClassVar[tuple[str, ...]] = ("",)
    counter_width: ClassVar[int] = 22

    seed: int
    wall_s: float = 0.0
    #: Print each phase as it starts.
    progress: bool = field(default=False, repr=False, compare=False)
    phases: list[str] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def phase(self, name: str) -> None:
        self.phases.append(name)
        if self.progress:
            print(f"  phase: {name}")

    def expect(self, condition: bool, message: str) -> bool:
        """Record *message* as a violation unless *condition* holds."""
        if not condition:
            self.violations.append(message)
        return condition

    def headline(self) -> list[str]:
        return []

    def counter_lines(self) -> list[str]:
        return [f"  {name:<{self.counter_width}} {self.counters[name]}"
                for name in sorted(self.counters)
                if name.startswith(self.counter_prefixes)]

    def describe(self) -> str:
        lines = [*self.headline(),
                 *(f"  phase: {phase}" for phase in self.phases),
                 *self.counter_lines(),
                 *(f"VIOLATION: {v}" for v in self.violations[:20])]
        if len(self.violations) > 20:
            lines.append(f"... {len(self.violations) - 20} more")
        lines.append(f"{self.banner} {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Guard soak (``pml-mpi chaos``)
# ---------------------------------------------------------------------------

class FlakySelector(AlgorithmSelector):
    """Fault-injecting wrapper around the inner (model) selector.

    Per call, seeded on the call index: raise a transient failure
    (via the :class:`FaultProfile`), emit a corrupt label, emit a
    deliberately infeasible power-of-two-only algorithm, or answer
    honestly.  ``force_fail`` scripts a failure storm (every call
    raises) so the harness can trip the breaker deterministically.
    """

    def __init__(self, inner: AlgorithmSelector, faults: FaultProfile,
                 garbage_rate: float = GARBAGE_RATE,
                 infeasible_rate: float = INFEASIBLE_RATE,
                 seed: int = 0) -> None:
        self.inner = inner
        self.faults = faults
        self.garbage_rate = garbage_rate
        self.infeasible_rate = infeasible_rate
        self.seed = seed
        self.calls = 0
        self.force_fail = False

    def _infeasible_name(self, collective: str) -> str | None:
        for name, algo in sorted(base.algorithms(collective).items()):
            if algo.requires_power_of_two:
                return name
        return None

    def select(self, collective: str, machine: Machine,
               msg_size: int) -> str:
        i = self.calls
        self.calls += 1
        if self.force_fail or self.faults.attempt_fails(
                "chaos-select", attempt=i):
            raise TransientCollectionError(
                f"injected selector failure (call {i})")
        u = float(_rng(self.seed, "mode", i).uniform())
        if u < self.garbage_rate:
            return CORRUPT_LABEL
        if u < self.garbage_rate + self.infeasible_rate:
            bad = self._infeasible_name(collective)
            if bad is not None:
                return bad
        return self.inner.select(collective, machine, msg_size)


@dataclass
class _BogusMachine:
    """Adversarial stand-in probing the guard's input validation."""

    nodes: Any
    ppn: Any


@dataclass(kw_only=True)
class ChaosReport(SoakReport):
    """Outcome of one guard soak."""

    queries: int
    invalid_rejected: int = 0
    unguarded_exceptions: int = 0
    infeasible_served: int = 0
    breaker_cycles: int = 0
    breaker_transitions: dict[str, int] = field(default_factory=dict)

    def headline(self) -> list[str]:
        return [
            f"queries:              {self.queries}",
            f"seed:                 {self.seed}",
            f"wall:                 {self.wall_s:.2f} s",
            f"invalid rejected:     {self.invalid_rejected}",
            f"unguarded exceptions: {self.unguarded_exceptions}",
            f"infeasible served:    {self.infeasible_served}",
            f"breaker cycles:       {self.breaker_cycles}",
        ]

    def counter_lines(self) -> list[str]:
        return super().counter_lines() + [
            f"  breaker {key:<14} {count}"
            for key, count in sorted(self.breaker_transitions.items())]


def _fit_selector(dataset: TuningDataset, seed: int,
                  n_estimators: int) -> PretrainedSelector:
    return PretrainedSelector({
        coll: train_model(dataset, coll, seed=seed,
                          params={"n_estimators": n_estimators})
        for coll in CHAOS_COLLECTIVES})


def train_chaos_selector(seed: int = 0,
                         n_estimators: int = BUNDLE_TREES
                         ) -> tuple[TuningDataset, PretrainedSelector]:
    """The harness's training step: collect the cached RI dataset and
    fit one *n_estimators*-tree model per :data:`CHAOS_COLLECTIVES`.

    Returns the dataset and the selector; ``save_selector`` the latter
    to get the daemon soaks' hot-swappable bundle.
    """
    dataset = collect_dataset(clusters=[get_cluster(CHAOS_TRAIN_CLUSTER)],
                              collectives=CHAOS_COLLECTIVES,
                              progress=False)
    return dataset, _fit_selector(dataset, seed, n_estimators)


def build_chaos_selector(seed: int = 0, clock=None
                         ) -> tuple[GuardedSelector, FlakySelector]:
    """A guarded, fault-injected selector for the harness (and tests).

    Trains harness-sized models on the cached RI dataset, wraps them
    in a :class:`FlakySelector` with the module's fault mix, and
    guards the result with a breaker on the given ``clock`` (defaults
    to wall time; the harness passes a query-tick counter for
    determinism).
    """
    _, pretrained = train_chaos_selector(seed, GUARD_TREES)
    flaky = FlakySelector(
        pretrained, FaultProfile(failure_rate=FAILURE_RATE, seed=seed),
        seed=seed)
    breaker = CircuitBreaker(failure_threshold=BREAKER_THRESHOLD,
                             recovery_timeout_s=RECOVERY_TICKS,
                             clock=clock or time.monotonic)
    # The guard wraps the *flaky* selector, which has no ``models``
    # attribute — lift the envelopes off the real pretrained models.
    guard = GuardedSelector(flaky, breaker=breaker,
                            envelopes=extract_envelopes(pretrained))
    return guard, flaky


def _invalid_query(rng: np.random.Generator, machine: Machine
                   ) -> tuple[str, Any, Any]:
    """One malformed (collective, machine, msg_size) query."""
    kind = int(rng.integers(5))
    if kind == 0:
        return "allgather", machine, -int(rng.integers(1, 1 << 20))
    if kind == 1:
        return "allgather", machine, 0
    if kind == 2:
        return "no_such_collective", machine, 1024
    if kind == 3:
        return "alltoall", _BogusMachine(nodes=0, ppn=8), 1024
    return "alltoall", _BogusMachine(
        nodes=2, ppn=-int(rng.integers(1, 64))), 4096


def run_chaos(queries: int = 10_000, seed: int = 0,
              progress: bool = False) -> ChaosReport:
    """Soak the guard layer with *queries* adversarial queries.

    Two scripted failure storms (at 30% and 65% of the run) force the
    inner selector to fail on every call for :data:`STORM_LENGTH`
    queries, driving the breaker open; the query-tick clock then walks
    it through half-open recovery.
    """
    if queries < 1:
        raise ValueError("queries must be >= 1")
    tick = [0.0]
    guard, flaky = build_chaos_selector(seed=seed, clock=lambda: tick[0])
    report = ChaosReport(queries=queries, seed=seed)

    # Query machines: in-distribution RI shapes, remap-bait odd shapes
    # (p=6/12 invite power-of-two-only predictions), and far-OOD giants.
    ri = get_cluster(CHAOS_TRAIN_CLUSTER)
    rome = get_cluster("Rome")
    machines = [Machine(ri, 2, 4), Machine(ri, 2, 8),
                Machine(rome, 3, 2), Machine(rome, 3, 4),
                Machine(rome, 6, 2)]
    ood_machines = [Machine(get_cluster("Frontera"), 2048, 16),
                    Machine(get_cluster("Frontera"), 512, 56)]
    storms = [(start, start + STORM_LENGTH)
              for start in (int(queries * 0.30), int(queries * 0.65))]

    t0 = time.perf_counter()
    expected_invalid = 0
    for i in range(queries):
        tick[0] = float(i)
        flaky.force_fail = any(a <= i < b for a, b in storms)
        rng = _rng(seed, "query", i)
        u = float(rng.uniform())
        collective = CHAOS_COLLECTIVES[int(rng.integers(
            len(CHAOS_COLLECTIVES)))]
        if flaky.force_fail:
            # Storm queries must reach the inner selector to trip the
            # breaker, so keep them well-formed and in-distribution.
            machine, msg_size = machines[0], int(rng.integers(1, 1 << 16))
        elif u < INVALID_FRACTION:
            expected_invalid += 1
            collective, machine, msg_size = _invalid_query(
                rng, machines[int(rng.integers(len(machines)))])
            try:
                guard.select(collective, machine, msg_size)
            except InvalidQueryError:
                report.invalid_rejected += 1
            except Exception as exc:
                report.unguarded_exceptions += 1
                report.violations.append(
                    f"query {i}: invalid input leaked "
                    f"{type(exc).__name__}: {exc}")
            else:
                report.violations.append(
                    f"query {i}: invalid input accepted "
                    f"({collective!r}, msg={msg_size!r})")
            continue
        elif u < INVALID_FRACTION + OOD_FRACTION:
            machine = ood_machines[int(rng.integers(len(ood_machines)))]
            msg_size = int(rng.integers(1 << 24, 1 << 28)) \
                if rng.uniform() < 0.5 else int(rng.integers(1, 1 << 20))
        else:
            machine = machines[int(rng.integers(len(machines)))]
            msg_size = int(2 ** rng.uniform(0.0, 21.0))
        try:
            algo = guard.select(collective, machine, msg_size)
        except Exception as exc:
            report.unguarded_exceptions += 1
            report.violations.append(
                f"query {i}: unguarded {type(exc).__name__}: {exc}")
            continue
        p = machine.nodes * machine.ppn
        try:
            feasible = base.is_feasible(collective, algo, p)
        except KeyError:
            feasible = False
        if not feasible:
            report.infeasible_served += 1
            report.violations.append(
                f"query {i}: served infeasible/unknown {algo!r} for "
                f"{collective} at p={p}")
        if progress and (i + 1) % 1000 == 0:
            print(f"  {i + 1}/{queries} queries, "
                  f"{len(report.violations)} violations")

    report.wall_s = time.perf_counter() - t0
    c = report.counters = guard.counters
    report.breaker_transitions = guard.breaker.transition_counts()
    report.breaker_cycles = guard.breaker.cycles()

    # -- cross-cutting invariants ---------------------------------------
    report.violations.extend(partition_violations(
        guard.registry.counters(), "counters", "guard"))
    report.expect(c["queries"] == queries,
                  f"queries counter {c['queries']} != fired {queries}")
    report.expect(c["invalid"] == expected_invalid,
                  f"invalid counter {c['invalid']} != expected "
                  f"{expected_invalid}")
    report.expect(storms[0][1] >= queries or report.breaker_cycles >= 1,
                  "breaker never completed an open->half-open->closed "
                  "cycle")
    return report


# ---------------------------------------------------------------------------
# The daemon lifecycle and storm clients shared by the daemon soaks
# ---------------------------------------------------------------------------

def _daemon_env() -> dict[str, str]:
    """Subprocess env whose PYTHONPATH can import this very ``repro``."""
    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class _StormStats:
    """Thread-safe tally shared by a soak's clients."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.sent = 0
        self.ok = 0
        self.floored = 0
        self.shed = 0
        self.invalid = 0
        self.violations: list[str] = []

    def violation(self, *messages: str) -> None:
        with self.lock:
            self.violations.extend(messages)


class _Daemon:
    """One soak's temp dir and its ``pml-mpi serve`` subprocess.

    Entering makes the temp dir that holds the bundle, socket, ready
    file and daemon log.  :meth:`boot` starts the daemon and waits for
    its readiness record, :meth:`drain` shuts it down gracefully.
    Exiting kills a daemon that is still running, adds the client
    tally's violations to the report, records the soak's wall time and
    removes the temp dir.
    """

    def __init__(self, report: SoakReport, prefix: str) -> None:
        self.report = report
        self.prefix = prefix
        self.tally = _StormStats()
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> _Daemon:
        self.t0 = time.perf_counter()
        self.tmp = Path(tempfile.mkdtemp(prefix=self.prefix))
        self.bundle = self.tmp / "bundle.json"
        self.socket = self.tmp / "daemon.sock"
        self.ready = self.tmp / "ready.json"
        self.log = self.tmp / "daemon.log"
        return self

    def __exit__(self, *exc_info: object) -> None:
        try:
            self.kill()
        finally:
            self.report.violations.extend(self.tally.violations)
            self.report.wall_s = time.perf_counter() - self.t0
            shutil.rmtree(self.tmp, ignore_errors=True)

    def boot(self, state_dir: Path,
             failure: str = "daemon never became ready"
             ) -> dict[str, Any] | None:
        """Start ``pml-mpi serve`` on the bundle; its readiness record,
        or ``None`` (a violation carrying the log tail) when it dies or
        is not ready within 120 s."""
        self.ready.unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "repro.cli", "serve",
               CHAOS_TRAIN_CLUSTER,
               "--bundle", str(self.bundle),
               "--state-dir", str(state_dir),
               "--socket", str(self.socket),
               "--ready-file", str(self.ready),
               "--reload-poll-s", "0.1",
               "--max-inflight", "2",
               "--deadline-ms", "10000",
               "--drain-timeout-s", "5"]
        with open(self.log, "ab") as log:  # the child dups the fd
            self.proc = subprocess.Popen(cmd, stdout=log,
                                         stderr=subprocess.STDOUT,
                                         env=_daemon_env())
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if self.ready.exists():
                try:
                    return json.loads(self.ready.read_text())
                except (OSError, json.JSONDecodeError):
                    pass  # mid-write; retry
            if self.proc.poll() is not None:
                break
            time.sleep(0.05)
        self.report.violations.append(f"{failure}: {self.log_tail()}")
        return None

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)

    def drain(self) -> None:
        """Graceful ``shutdown``: the daemon must exit 0 within 30 s
        and remove its socket."""
        try:
            with DaemonClient(self.socket, timeout_s=30.0) as client:
                client.shutdown()
        except Exception as exc:
            self.report.violations.append(
                f"shutdown op failed: {type(exc).__name__}: {exc}")
        try:
            rc = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.report.violations.append(
                "daemon did not exit within 30 s of shutdown")
            return
        self.report.expect(rc == 0, f"drained daemon exited with "
                                    f"rc={rc}: {self.log_tail()}")
        self.report.expect(not self.socket.exists(),
                           "socket file left behind after drain")

    def log_tail(self, lines: int = 12) -> str:
        try:
            return " | ".join(self.log.read_text(
                errors="replace").splitlines()[-lines:])
        except OSError:
            return "(no daemon log)"


def _check_select_response(response: dict[str, Any], n_queries: int,
                           context: str, stats: _StormStats) -> None:
    decisions = response.get("decisions")
    if not isinstance(decisions, list) or len(decisions) != n_queries:
        stats.violation(
            f"{context}: expected {n_queries} decisions, got "
            f"{type(decisions).__name__}")
        return
    if "snapshot" not in response:
        stats.violation(f"{context}: response has no snapshot version")
    for j, d in enumerate(decisions):
        invalid = d.get("action") == "invalid"
        if (d.get("algorithm") is None) != invalid:
            stats.violation(
                f"{context}: decision {j} breaks the algorithm/action "
                f"invariant: {d!r}")
        if invalid:
            with stats.lock:
                stats.invalid += 1


def _valid_queries(rng: np.random.Generator,
                   n: int) -> list[dict[str, Any]]:
    """Well-formed RI-shaped query dicts (in-distribution sizes)."""
    return [{
        "collective": CHAOS_COLLECTIVES[int(rng.integers(
            len(CHAOS_COLLECTIVES)))],
        "nodes": 2,
        "ppn": int(rng.choice([4, 8])),
        "msg_size": int(2 ** rng.integers(0, 21)),
    } for _ in range(n)]


def _storm_worker(socket_path: Path, cid: int, requests: int,
                  seed: int, stats: _StormStats) -> None:
    """One storm client: a seeded mix of valid batches, semantically
    invalid queries, tiny-deadline requests, pings and stats calls.
    Transport errors and non-allowed error codes are violations — a
    serving daemon never slams the door on a well-behaved client."""
    try:
        client = DaemonClient(socket_path, timeout_s=60.0)
    except OSError as exc:
        stats.violation(f"client {cid}: cannot connect: {exc}")
        return
    try:
        for i in range(requests):
            rng = _rng(seed, "daemon-client", cid, i)
            u = float(rng.uniform())
            context = f"client {cid} request {i}"
            with stats.lock:
                stats.sent += 1
            try:
                if u < 0.08:
                    client.ping()
                elif u < 0.16:
                    stats.violation(*partition_violations(
                        client.stats().get("counters", {}), context,
                        "serve.daemon"))
                elif u < 0.28:
                    # Semantic junk must come back as invalid
                    # *decisions*, never as a protocol error.
                    response = client.select([{
                        "collective": "allgather", "nodes": 2,
                        "ppn": 8,
                        "msg_size": -int(rng.integers(1, 1 << 20)),
                    }])
                    _check_select_response(response, 1, context, stats)
                elif u < 0.40:
                    queries = _valid_queries(rng, 1)
                    response = client.select(queries,
                                             deadline_ms=0.001)
                    _check_select_response(response, len(queries),
                                           context, stats)
                    if response.get("degraded") == "deadline-floor":
                        with stats.lock:
                            stats.floored += 1
                else:
                    queries = _valid_queries(
                        rng, int(rng.integers(1, 9)))
                    response = client.select(queries)
                    _check_select_response(response, len(queries),
                                           context, stats)
                with stats.lock:
                    stats.ok += 1
            except DaemonError as exc:
                if exc.code in ALLOWED_DAEMON_ERRORS:
                    with stats.lock:
                        stats.shed += 1
                else:
                    stats.violation(
                        f"{context}: daemon error [{exc.code}] "
                        f"{exc.detail}")
            except Exception as exc:
                stats.violation(
                    f"{context}: transport failure "
                    f"{type(exc).__name__}: {exc}")
    finally:
        client.close()


def _poll_stats(socket_path: Path, predicate, timeout_s: float = 30.0
                ) -> dict[str, Any] | None:
    """Fresh-connection stats polls until *predicate* accepts one."""
    deadline = time.monotonic() + timeout_s
    last: dict[str, Any] | None = None
    while time.monotonic() < deadline:
        try:
            with DaemonClient(socket_path, timeout_s=30.0) as client:
                last = client.stats()
        except Exception:
            last = None
        if last is not None and predicate(last):
            return last
        time.sleep(0.1)
    return None


#: Counters a ``stats`` probe increments about *itself* — its fresh
#: connection, plus the request/ok pair bumped in the dispatch
#: ``finally`` after the response snapshot is built.  The quiescence
#: comparison must ignore them or two consecutive polls always differ
#: by exactly the poll's own accounting.
_STATS_SELF_COUNTERS = frozenset(
    {"serve.daemon.connections", "serve.daemon.requests",
     "serve.daemon.ok"})


def _poll_quiescent(socket_path: Path, timeout_s: float = 30.0
                    ) -> dict[str, Any] | None:
    """Deadline-bounded wait for daemon quiescence: zero in-flight
    requests and a counter set that stopped moving between two
    consecutive observations (abandoned deadline batches still count
    their serve.*/guard.* outcomes after the floored response went
    out, so a single inflight==0 snapshot is not enough).  The stats
    probes' own request accounting is excluded from the comparison."""
    prev: list[dict[str, Any] | None] = [None]

    def workload(s: dict[str, Any]) -> dict[str, Any]:
        return {k: v for k, v in (s.get("counters") or {}).items()
                if k not in _STATS_SELF_COUNTERS}

    def settled(s: dict[str, Any]) -> bool:
        before, prev[0] = prev[0], s
        if s.get("inflight", 0) != 0:
            return False
        return before is not None \
            and workload(before) == workload(s)

    return _poll_stats(socket_path, settled, timeout_s=timeout_s)


def _scrape_once(client: Any, context: str, stats: _StormStats) -> bool:
    """One observation of the live introspection plane: ``metrics``,
    ``tail`` and ``health`` over an existing connection.

    Checks the scrape-under-storm invariants: the Prometheus export
    must parse, its daemon partition must reconcile *within the single
    scrape* (the exposition is rendered synchronously on the dispatch
    thread), the tail must be a bounded list of well-formed events,
    and the health verdict must come from the closed set.  Returns
    True when the three ops all answered (violations may still have
    been recorded about their payloads)."""
    try:
        metrics = client.metrics()
        tail = client.tail(16)
        health = client.health()
    except Exception as exc:
        stats.violation(f"{context}: introspection op failed "
                        f"{type(exc).__name__}: {exc}")
        return False
    try:
        samples = parse_prometheus(metrics.get("body", ""))
    except ValueError as exc:
        stats.violation(f"{context}: unparseable exposition: {exc}")
        return True
    stats.violation(*partition_violations(
        samples, f"{context}: exposition", "serve.daemon",
        exposition=True))
    events = tail.get("events")
    if not isinstance(events, list) or len(events) > 16:
        stats.violation(
            f"{context}: tail did not return a bounded event list: "
            f"{type(events).__name__}")
    else:
        for event in events:
            if event.get("kind") not in EVENT_KINDS \
                    or not isinstance(event.get("tick"), int):
                stats.violation(
                    f"{context}: malformed tail event {event!r}")
                break
        if tail.get("total", 0) < len(events):
            stats.violation(
                f"{context}: tail total {tail.get('total')} < "
                f"{len(events)} returned events")
    if health.get("verdict") not in ("ok", "warn", "page"):
        stats.violation(f"{context}: health verdict "
                        f"{health.get('verdict')!r} not in closed set")
    return True


def _scrape_worker(socket_path: Path, stop: threading.Event,
                   stats: _StormStats, counted: list[int]) -> None:
    """Scrape loop run alongside the client storm: fresh connection
    per iteration (a scraper reconnects, it does not hold a socket
    open across reloads), counting only scrapes where all three ops
    answered.  Connection refusals are tolerated — the daemon may be
    shedding — but an accepted connection must answer."""
    i = 0
    while not stop.is_set():
        i += 1
        try:
            client = DaemonClient(socket_path, timeout_s=30.0)
        except OSError:
            time.sleep(0.05)
            continue
        try:
            if _scrape_once(client, f"scrape {i}", stats):
                counted[0] += 1
        finally:
            client.close()
        time.sleep(0.02)


# ---------------------------------------------------------------------------
# Daemon soak (``pml-mpi chaos --daemon``)
# ---------------------------------------------------------------------------

@dataclass(kw_only=True)
class DaemonChaosReport(SoakReport):
    """Outcome of one daemon soak."""

    banner: ClassVar[str] = "DAEMON CHAOS"
    counter_prefixes: ClassVar[tuple[str, ...]] = ("serve.daemon.",)
    counter_width: ClassVar[int] = 32

    clients: int
    requests_per_client: int
    requests_sent: int = 0
    ok_responses: int = 0
    deadline_floored: int = 0
    shed: int = 0
    invalid_decisions: int = 0
    reloads_observed: int = 0
    scrapes: int = 0

    def headline(self) -> list[str]:
        return [
            f"seed:               {self.seed}",
            f"clients:            {self.clients} x "
            f"{self.requests_per_client} requests",
            f"wall:               {self.wall_s:.2f} s",
            f"requests sent:      {self.requests_sent}",
            f"ok responses:       {self.ok_responses}",
            f"deadline-floored:   {self.deadline_floored}",
            f"shed (overloaded):  {self.shed}",
            f"invalid decisions:  {self.invalid_decisions}",
            f"reloads observed:   {self.reloads_observed}",
            f"scrapes answered:   {self.scrapes}",
        ]


def run_daemon_chaos(seed: int = 0, clients: int = 4,
                     requests_per_client: int = 40,
                     progress: bool = False) -> DaemonChaosReport:
    """End-to-end soak of the serving daemon, as a real subprocess.

    Phases: boot from a freshly trained bundle → concurrent client
    storm (valid/invalid/tiny-deadline/ping/stats mix) with a
    mid-storm atomic hot-swap to a retrained bundle → corrupt-bundle
    swap (reload must reject, old snapshot keeps serving) → SIGKILL →
    crash-safe restart in the same state dir (stale lock recovered,
    the killer bundle quarantined, heuristic floor serving) →
    graceful ``shutdown`` drain.
    """
    if clients < 1 or requests_per_client < 1:
        raise ValueError("clients and requests_per_client must be >= 1")
    report = DaemonChaosReport(seed=seed, clients=clients,
                               requests_per_client=requests_per_client,
                               progress=progress)
    with _Daemon(report, "pml-daemon-chaos-") as daemon:
        stats = daemon.tally
        bundle, socket_path = daemon.bundle, daemon.socket
        next_bundle = daemon.tmp / "bundle.v2.json"
        state_dir = daemon.tmp / "state"

        report.phase("train bundles (v1, v2)")
        save_selector(train_chaos_selector(seed)[1], bundle)
        save_selector(train_chaos_selector(seed + 1)[1], next_bundle)
        report.expect(bundle.read_bytes() != next_bundle.read_bytes(),
                      "v1 and v2 bundles are byte-identical; hot-swap "
                      "cannot be observed")

        report.phase("boot daemon")
        boot = daemon.boot(state_dir)
        if boot is None:
            return report
        v0 = int(boot.get("snapshot", 0))
        report.expect(boot.get("source") == "bundle",
                      f"boot source {boot.get('source')!r}, expected "
                      f"'bundle'")

        report.phase(f"client storm ({clients} x {requests_per_client})")
        threads = [
            threading.Thread(
                target=_storm_worker,
                args=(socket_path, cid, requests_per_client, seed,
                      stats),
                name=f"storm-{cid}")
            for cid in range(clients)]
        for t in threads:
            t.start()

        report.phase("mid-storm scrape loop (metrics/tail/health)")
        scrape_stop = threading.Event()
        scrape_count = [0]
        scraper = threading.Thread(
            target=_scrape_worker,
            args=(socket_path, scrape_stop, stats, scrape_count),
            name="scraper")
        scraper.start()

        report.phase("mid-storm hot-reload (atomic swap to v2)")
        # Deadline-bounded poll instead of a fixed sleep: swap once the
        # storm is demonstrably underway (every client has landed at
        # least one request).  A finished storm also satisfies this —
        # the swap is still observed through the store's checksum poll.
        _poll_stats(
            socket_path,
            lambda s: s.get("counters", {}).get(
                "serve.daemon.requests", 0) >= clients)
        os.replace(next_bundle, bundle)
        swapped = _poll_stats(
            socket_path,
            lambda s: int(s["snapshot"]["version"]) > v0)
        if report.expect(swapped is not None,
                         "hot-reload to the v2 bundle was never "
                         "observed"):
            report.reloads_observed += 1

        for t in threads:
            t.join()
        scrape_stop.set()
        scraper.join()
        report.scrapes = scrape_count[0]
        report.expect(report.scrapes >= 1,
                      "no introspection scrape was answered during the "
                      "storm window")
        report.requests_sent = stats.sent
        report.ok_responses = stats.ok
        report.deadline_floored = stats.floored
        report.shed = stats.shed
        report.invalid_decisions = stats.invalid

        report.phase("quiescent partition check")
        quiet = _poll_quiescent(socket_path)
        if report.expect(quiet is not None,
                         "stats unavailable after storm"):
            report.counters = dict(quiet.get("counters", {}))
            report.violations.extend(partition_violations(
                report.counters, "post-storm", *DAEMON_NAMESPACES))

        report.phase("quiescent exposition cross-check")
        # At quiescence the Prometheus export must agree *exactly* with
        # the stats counters: over one connection, a `metrics` scrape
        # issued right after `stats` sees precisely the stats request's
        # own accounting (+1 request, +1 ok) on top of the snapshot,
        # because the exposition is rendered on the dispatch thread
        # before the scrape's own increments land.
        try:
            with DaemonClient(socket_path, timeout_s=30.0) as client:
                before = client.stats().get("counters", {})
                samples = parse_prometheus(
                    client.metrics().get("body", ""))
            for key in DAEMON_COUNTER_KEYS:
                name = f"serve.daemon.{key}"
                want = before.get(name, 0) + (key in ("requests", "ok"))
                got = samples.get(f"{prometheus_name(name)}_total", 0)
                report.expect(got == want,
                              f"quiescent scrape: exposition {name} = "
                              f"{got}, stats imply {want}")
        except Exception as exc:
            report.violations.append(
                f"quiescent exposition cross-check failed: "
                f"{type(exc).__name__}: {exc}")

        report.phase("corrupt-bundle swap (reload must reject)")
        atomic_write_text(bundle, '{"broken')
        try:
            with DaemonClient(socket_path, timeout_s=30.0) as client:
                result = client.reload()
                report.expect(result.get("status") == "rejected",
                              f"corrupt reload not rejected: "
                              f"{result!r}")
                # The storm may have tripped the admission breaker;
                # retry through its cooldown (recovery_timeout_s plus
                # one half-open probe) under a hard deadline instead of
                # sleeping a fixed interval.
                queries = _valid_queries(_rng(seed, "post-corrupt"), 4)
                deadline = time.monotonic() + 30.0
                while True:
                    try:
                        response = client.select(queries)
                        break
                    except DaemonError as exc:
                        if exc.code != "overloaded" \
                                or time.monotonic() >= deadline:
                            raise
                        time.sleep(0.1)
                _check_select_response(response, 4, "post-corrupt",
                                       stats)
        except Exception as exc:
            report.violations.append(
                f"daemon unusable after corrupt swap: "
                f"{type(exc).__name__}: {exc}")

        report.phase("SIGKILL daemon")
        daemon.kill()

        report.phase("crash-safe restart (same state dir, corrupt bundle)")
        reboot = daemon.boot(state_dir,
                             "daemon did not recover after SIGKILL")
        if reboot is None:
            return report
        report.expect(reboot.get("source") == "heuristic-floor",
                      f"restart source {reboot.get('source')!r}, "
                      f"expected 'heuristic-floor' (corrupt bundle must "
                      f"not load)")
        report.expect(not bundle.exists(),
                      "corrupt bundle was not quarantined at boot")
        report.expect(any(p.name.startswith("bundle.json.corrupt")
                          for p in daemon.tmp.iterdir()),
                      "no *.corrupt quarantine file after crash restart")
        try:
            with DaemonClient(socket_path, timeout_s=30.0) as client:
                counters = client.stats().get("counters", {})
                report.expect(
                    counters.get("serve.daemon.crash_recovered", 0) >= 1,
                    "restart did not count crash_recovered")
                report.expect(
                    counters.get("serve.daemon.quarantined_boot", 0) >= 1,
                    "restart did not count quarantined_boot")
                response = client.select(_valid_queries(
                    _rng(seed, "post-restart"), 4))
                _check_select_response(response, 4, "post-restart",
                                       stats)
                report.violations.extend(partition_violations(
                    client.stats().get("counters", {}), "post-restart",
                    *DAEMON_NAMESPACES))
                # The introspection plane must come back with the
                # process: a scrape burst against the restarted
                # daemon, same invariants as the mid-storm loop.
                for j in range(3):
                    if _scrape_once(client, f"post-restart scrape {j}",
                                    stats):
                        report.scrapes += 1
        except Exception as exc:
            report.violations.append(
                f"restarted daemon unusable: "
                f"{type(exc).__name__}: {exc}")

        report.phase("protocol garbage (must answer bad-request)")
        try:
            with DaemonClient(socket_path, timeout_s=30.0) as client:
                client._file.write(b"this is not json\n")
                client._file.flush()
                raw = client._file.readline()
                answer = json.loads(raw) if raw else {}
                code = (answer.get("error") or {}).get("code")
                report.expect(answer.get("ok") is False
                              and code == "bad-request",
                              f"garbage line answered with {answer!r}")
        except Exception as exc:
            report.violations.append(
                f"garbage line killed the connection: "
                f"{type(exc).__name__}: {exc}")

        report.phase("graceful shutdown (drain)")
        daemon.drain()
    return report


# ---------------------------------------------------------------------------
# Adaptation soak (``pml-mpi chaos --adapt``): the online loop under
# poisoned feedback, drift storms, a deliberately-worse challenger, and
# mid-promotion SIGKILL
# ---------------------------------------------------------------------------

#: Degraded network reality for drift injection: heavy background
#: load, jitter, and halved link width shift the latency/bandwidth
#: trade-off enough to flip the fastest algorithm on a quarter of the
#: RI grid (so a model trained on the clean fabric accrues regret).
DRIFT_CONDITIONS_KW = {"background_load": 0.6, "latency_jitter": 1.0,
                       "link_width_factor": 0.5}


def synthesize_feedback(spec, selector, conditions=None, tick0: int = 0,
                        repeat: int = 1,
                        collectives=CHAOS_COLLECTIVES):
    """Runtime feedback rows for every feasible grid point: *selector*
    picks as if deployed (it sees the clean machine description), the
    "fabric" — optionally degraded by *conditions* — measures every
    algorithm.  Returns ``(records, next_tick)``.

    This is harness/simulation territory (it leans on
    :func:`measured_time`), which is why it lives here and not in
    ``repro.adapt``: the production loop only ever reads measured
    times out of feedback rows.
    """
    rows = []
    tick = tick0
    for _ in range(repeat):
        for coll in collectives:
            names = sorted(base.algorithm_names(coll))
            for nodes, ppn, msg in feasible_configs(spec, coll):
                machine = Machine(spec, nodes, ppn)
                fabric = machine_with_conditions(machine, conditions) \
                    if conditions is not None else machine
                chosen = selector.select(coll, machine, msg)
                times = {a: measured_time(fabric, coll, a, msg)
                         for a in names}
                rows.append(FeedbackRecord(
                    cluster=spec.name, collective=coll, nodes=nodes,
                    ppn=ppn, msg_size=msg, algorithm=chosen,
                    times=times, tick=tick))
                tick += 1
    return rows, tick


@dataclass(kw_only=True)
class AdaptChaosReport(SoakReport):
    """Everything one adaptation soak observed."""

    banner: ClassVar[str] = "ADAPT CHAOS"
    counter_prefixes: ClassVar[tuple[str, ...]] = (
        "adapt.", "guard.champion.", "guard.challenger.")
    counter_width: ClassVar[int] = 36

    verdicts: list[str] = field(default_factory=list)
    reloads_observed: int = 0
    decision_log_identical: bool = False

    def headline(self) -> list[str]:
        replay = ("byte-identical" if self.decision_log_identical
                  else "DIVERGED")
        return [
            f"seed:                 {self.seed}",
            f"wall:                 {self.wall_s:.2f} s",
            f"verdict sequence:     {' -> '.join(self.verdicts)}",
            f"daemon reloads seen:  {self.reloads_observed}",
            f"decision log replay:  {replay}",
        ]


def run_adapt_chaos(seed: int = 0,
                    progress: bool = False) -> AdaptChaosReport:
    """End-to-end soak of the online adaptation loop.

    Phases: train champion → boot the real daemon on its bundle →
    **poisoned feedback** (quarantined, loop survives) → stable
    feedback (no drift) → **drift storm** (degraded-fabric feedback →
    Page–Hinkley alarm → challenger trained → shadow win → promotion,
    observed by the daemon as a hot reload) → probation confirmation →
    **deliberately-worse challenger** (gate must reject it; then a
    forced promotion of it must auto-demote on probation regret, with
    the champion restored and the offender quarantined) →
    **mid-promotion SIGKILL** (a real subprocess dies between the
    bundle swap and the transaction commit; recovery restores the
    champion and quarantines the half-promoted challenger) → a
    **determinism replay** (the same feedback log folded twice from
    fresh state writes byte-identical decision logs) → quiescent
    counter-partition checks over ``adapt.*`` / ``serve.daemon.*`` /
    both shadow-guard namespaces → graceful drain.
    """
    report = AdaptChaosReport(seed=seed, progress=progress)
    registry = MetricsRegistry()
    expect = report.expect

    def run_and_record(loop) -> Any:
        r = loop.run_once()
        report.verdicts.append(r.verdict)
        return r

    with _Daemon(report, "pml-adapt-chaos-") as daemon, \
            use_telemetry(get_tracer(), registry):
        tmp, bundle, socket_path = daemon.tmp, daemon.bundle, daemon.socket

        def probe_daemon(context: str) -> None:
            """A few valid selects — any client-visible exception is a
            violation (the whole point of the guarded rollout)."""
            try:
                with DaemonClient(socket_path, timeout_s=30.0) as client:
                    response = client.select(_valid_queries(
                        _rng(seed, "adapt-probe", context), 4))
                    _check_select_response(response, 4, context,
                                           daemon.tally)
            except Exception as exc:
                daemon.tally.violation(
                    f"{context}: client-visible failure "
                    f"{type(exc).__name__}: {exc}")

        def await_serving(crc: str, context: str) -> None:
            """The daemon must converge onto the bundle with this CRC."""
            got = _poll_stats(
                socket_path,
                lambda s: s.get("snapshot", {}).get("checksum") == crc)
            if expect(got is not None,
                      f"{context}: daemon never converged onto "
                      f"checksum {crc}"):
                report.reloads_observed += 1

        spec = get_cluster(CHAOS_TRAIN_CLUSTER)
        conditions = NetworkConditions(**DRIFT_CONDITIONS_KW)
        dataset_path = tmp / "dataset.jsonl"
        feedback_path = tmp / "feedback.jsonl"
        state_dir = tmp / "state"

        def adapt_config(bundle_path: Path, state: Path) -> AdaptConfig:
            return AdaptConfig(
                cluster=CHAOS_TRAIN_CLUSTER, bundle_path=bundle_path,
                feedback_path=feedback_path, state_dir=state,
                dataset_path=dataset_path, window=600,
                model_params={"n_estimators": BUNDLE_TREES}, seed=seed,
                probation_rows=20)

        report.phase("train champion bundle + dataset")
        dataset, champion = train_chaos_selector(seed)
        dataset.save(dataset_path)
        save_selector(champion, bundle)
        champion_bytes = bundle.read_bytes()
        champion_crc = file_crc32(bundle)
        loop = AdaptationLoop(adapt_config(bundle, state_dir))
        log = FeedbackLog(feedback_path)

        report.phase("boot daemon on champion")
        if daemon.boot(state_dir / "srv") is None:
            return report
        probe_daemon("post-boot")

        report.phase("poisoned feedback (quarantine, loop survives)")
        feedback_path.write_text("{ not json at all\n")
        r = run_and_record(loop)
        expect(r.verdict == "no_feedback",
               f"poisoned feedback verdict {r.verdict!r}")
        expect(r.quarantined is not None
               and Path(r.quarantined).exists(),
               "poisoned feedback was not quarantined")
        expect(bundle.read_bytes() == champion_bytes,
               "poisoned feedback disturbed the serving bundle")
        probe_daemon("post-poison")

        report.phase("stable feedback (no drift)")
        rows, tick = synthesize_feedback(spec, champion,
                                         conditions=None, tick0=0)
        log.append(rows)
        r = run_and_record(loop)
        expect(r.verdict == "stable",
               f"stable feedback verdict {r.verdict!r}")
        expect(bundle.read_bytes() == champion_bytes,
               "stable feedback swapped the bundle")

        report.phase("drift storm -> challenger -> promotion")
        rows, tick = synthesize_feedback(spec, champion,
                                         conditions=conditions,
                                         tick0=tick, repeat=2)
        log.append(rows)
        r = run_and_record(loop)
        expect(r.verdict == "promoted",
               f"drift storm verdict {r.verdict!r}: {r.detail}")
        expect(bundle.read_bytes() != champion_bytes,
               "promotion did not change the serving bundle")
        expect((state_dir / "champion.backup.json").exists(),
               "promotion left no champion backup")
        await_serving(file_crc32(bundle), "post-promotion")
        probe_daemon("post-promotion")
        try:
            lineage = load_selector(bundle).models[
                CHAOS_COLLECTIVES[0]].metadata.get("lineage")
            expect(isinstance(lineage, dict)
                   and lineage.get("parent_checksum") == champion_crc,
                   f"promoted bundle lineage wrong: {lineage!r}")
        except Exception as exc:
            report.violations.append(
                f"promoted bundle unreadable: {exc}")

        report.phase("probation confirmation")
        promoted = load_selector(bundle)
        rows, tick = synthesize_feedback(spec, promoted,
                                         conditions=conditions,
                                         tick0=tick)
        log.append(rows)
        r = run_and_record(loop)
        expect(r.verdict == "confirmed",
               f"probation verdict {r.verdict!r}: {r.detail}")
        confirmed_bytes = bundle.read_bytes()

        report.phase("deliberately-worse challenger: gate must reject")
        # Labels inverted (1/t): the model learns to pick the
        # *slowest* algorithm for every cell.
        inverted = TuningDataset([
            CollectiveRecord(
                cluster=f.cluster, collective=f.collective,
                nodes=f.nodes, ppn=f.ppn, msg_size=f.msg_size,
                times={a: 1.0 / t for a, t in f.times.items()})
            for f in rows])
        bad = _fit_selector(inverted, seed, 4)
        shadow = shadow_evaluate(promoted, bad, rows[-60:], spec)
        expect(not shadow.promote,
               f"gate promoted a worse challenger: {shadow.to_dict()}")
        expect(bundle.read_bytes() == confirmed_bytes,
               "rejected challenger still changed the bundle")

        report.phase("forced promotion of worse challenger -> auto-demote")
        gate = ChampionChallengerGate(bundle, state_dir,
                                      registry=registry)
        staged = tmp / "bad-challenger.json"
        save_selector(bad, staged)
        gate.promote(staged, tick=tick)
        # A gamed shadow evaluation would have recorded a rosy
        # promise; probation must catch the lie on real feedback.
        (state_dir / "adapt_state.json").write_text(json.dumps(
            {"phase": "probation", "fence_tick": tick - 1,
             "baseline_regret": 0.0}, sort_keys=True,
            separators=(",", ":")) + "\n")
        await_serving(file_crc32(bundle), "post-forced-promotion")
        probe_daemon("post-forced-promotion")
        rows, tick = synthesize_feedback(spec, load_selector(bundle),
                                         conditions=conditions,
                                         tick0=tick)
        log.append(rows)
        r = run_and_record(loop)
        expect(r.verdict == "demoted",
               f"worse-promotion verdict {r.verdict!r}: {r.detail}")
        expect(bundle.read_bytes() == confirmed_bytes,
               "auto-demotion did not restore the champion")
        expect(r.demoted is not None and Path(r.demoted).exists(),
               "demoted challenger was not quarantined")
        await_serving(file_crc32(bundle), "post-demotion")
        probe_daemon("post-demotion")

        report.phase("mid-promotion SIGKILL -> recovery")
        save_selector(bad, staged)
        # The subprocess takes the adapt lock (like a real sidecar run
        # would), performs the real promote() up to and including the
        # bundle swap, then SIGKILLs itself — dying with the
        # transaction uncommitted *and* the lock held.
        script = (
            "import os\n"
            "import repro.adapt.gate as g\n"
            "from repro.core.resilience import FileLock\n"
            f"lock = FileLock({str(state_dir / 'adapt.lock')!r})\n"
            "lock.acquire()\n"
            "real_replace = g.os.replace\n"
            "def crash_replace(a, b):\n"
            "    real_replace(a, b)\n"
            "    os.kill(os.getpid(), 9)\n"
            "g.os.replace = crash_replace\n"
            f"gate = g.ChampionChallengerGate({str(bundle)!r}, "
            f"{str(state_dir)!r})\n"
            f"gate.promote({str(staged)!r}, tick=10 ** 6)\n")
        done = subprocess.run([sys.executable, "-c", script],
                              env=_daemon_env(), capture_output=True,
                              timeout=120)
        expect(done.returncode == -9,
               f"SIGKILL subprocess exited rc={done.returncode}: "
               f"{done.stderr.decode(errors='replace')[-200:]}")
        expect((state_dir / "promotion.json").exists(),
               "killed promotion left no sentinel")
        expect((state_dir / "adapt.lock").exists(),
               "killed promotion left no stale lock to break")
        r = run_and_record(loop)
        expect(r.verdict == "recovered",
               f"post-SIGKILL verdict {r.verdict!r}: {r.detail}")
        expect(registry.counters().get("adapt.lock.broken", 0) >= 1,
               "stale adapt lock was not broken on recovery")
        expect(bundle.read_bytes() == confirmed_bytes,
               "recovery did not restore the champion bundle")
        expect(not (state_dir / "promotion.json").exists(),
               "recovery left the promotion sentinel behind")
        expect(any(p.name.startswith("bundle.json.corrupt")
                   for p in tmp.iterdir()),
               "half-promoted challenger was not quarantined")
        await_serving(file_crc32(bundle), "post-recovery")
        probe_daemon("post-recovery")

        report.phase("determinism replay (two fresh folds, same log)")
        replicas = []
        for name in ("a", "b"):
            rdir = tmp / f"replica-{name}"
            rdir.mkdir()
            rbundle = rdir / "bundle.json"
            rbundle.write_bytes(champion_bytes)
            rloop = AdaptationLoop(adapt_config(rbundle, rdir / "state"))
            for _ in range(2):
                rloop.run_once()
            replicas.append((
                (rdir / "state" / "adapt_decisions.jsonl").read_bytes(),
                rbundle.read_bytes()))
        report.decision_log_identical = \
            replicas[0][0] == replicas[1][0]
        expect(report.decision_log_identical,
               "decision logs diverged between identical replays")
        expect(replicas[0][1] == replicas[1][1],
               "serving bundles diverged between identical replays")

        report.phase("counter partitions (adapt / guards / daemon)")
        report.counters = registry.counters()
        expect(report.counters.get("adapt.runs", 0) > 0,
               "adapt.runs is 0")
        report.violations.extend(partition_violations(
            report.counters, "quiescent", "adapt", "adapt.feedback",
            "adapt.gate", "guard.champion", "guard.challenger"))
        quiet = _poll_quiescent(socket_path)
        if expect(quiet is not None,
                  "daemon stats unavailable at quiescence"):
            report.violations.extend(partition_violations(
                quiet.get("counters", {}), "quiescent",
                *DAEMON_NAMESPACES))

        report.phase("graceful shutdown (drain)")
        daemon.drain()
        expect(daemon.tally.invalid == 0,
               f"{daemon.tally.invalid} probe queries answered invalid")
    return report
