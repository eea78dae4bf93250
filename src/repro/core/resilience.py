"""Deployment resilience: typed artifact errors, retry policies, atomic
validated I/O, quarantine, inter-process locking, and health reporting.

The paper's deployment story (Fig. 4) runs ``setup_cluster`` at MPI
compile time on machines the vendor never saw — exactly where corrupt
caches, half-written tuning tables, concurrent builds and flaky fabrics
live.  This module is the shared substrate that lets the offline→online
pipeline degrade gracefully instead of crashing:

* a typed error taxonomy (:class:`ArtifactError` and friends) so callers
  can distinguish "this file is garbage" from "this file is from another
  era" from "try again",
* :class:`RetryPolicy` — bounded retries with exponential backoff and
  deterministic seeded jitter,
* atomic artifact writes (tmp file + ``os.replace``) with embedded CRC32
  checksums, so a mid-write kill leaves the original intact,
* :func:`quarantine` — corrupt files are renamed to ``*.corrupt`` for
  post-mortem, never deleted,
* :class:`FileLock` — an inter-process lock so concurrent compile-time
  setups on the same table directory don't race,
* :class:`CircuitBreaker` — a closed → open → half-open state machine
  that trips a persistently failing dependency over to its fallback and
  probes for recovery on a deterministic (injectable) clock,
* :class:`HealthReport` / :class:`ArtifactCheck` — a record of which
  degradation-ladder rung served a request, what was quarantined, and
  (for runtime guards) per-query health counters.

This module is deliberately a leaf: it imports nothing from the rest of
``repro`` so every layer (``smpi``, ``simcluster``, ``core``) can use it
without import cycles.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

try:  # POSIX; the O_EXCL fallback below covers everything else
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------

class ArtifactError(ValueError):
    """Base class for every artifact problem.

    Subclasses ``ValueError`` so pre-resilience callers that caught
    ``ValueError`` keep working.
    """


class CorruptArtifactError(ArtifactError):
    """The artifact cannot be trusted: unparsable bytes, checksum
    mismatch, structurally invalid payload, unknown algorithm names,
    non-finite times, …"""


class StaleArtifactError(ArtifactError):
    """The artifact is well-formed but from a different era or place:
    wrong schema version, wrong cluster."""


class LockTimeoutError(ArtifactError):
    """An inter-process :class:`FileLock` could not be acquired in time."""


class TransientCollectionError(RuntimeError):
    """A measurement / generation attempt failed in a retryable way
    (injected fault, rank stall, flaky fabric)."""


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    Delays are fully deterministic for a given ``seed``: attempt *k*
    sleeps ``base_delay_s * backoff**(k-1)`` scaled by a jitter factor
    drawn from a generator seeded on ``(seed, k)``, capped at
    ``max_delay_s``.  ``per_attempt_timeout_s`` is a *cooperative*
    deadline: an attempt whose wall time exceeds it is treated as a
    transient failure (the stalled-measurement case), even if it
    eventually returned.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    backoff: float = 2.0
    jitter: float = 0.25           # +/- fractional jitter on each delay
    max_delay_s: float = 2.0
    per_attempt_timeout_s: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay(self, attempt: int) -> float:
        """Backoff delay (seconds) after failed attempt *attempt* (1-based)."""
        base = self.base_delay_s * self.backoff ** (attempt - 1)
        if self.jitter > 0.0:
            rng = np.random.default_rng(
                zlib.crc32(f"retry|{self.seed}|{attempt}".encode()))
            base *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return min(base, self.max_delay_s)

    def call(self, fn: Callable[[], Any],
             retry_on: tuple[type[BaseException], ...] = (
                 TransientCollectionError,),
             on_retry: Callable[[int, BaseException], None] | None = None,
             sleep: Callable[[float], None] = time.sleep) -> Any:
        """Run ``fn()`` with retries; raise the last error on exhaustion.

        ``on_retry(attempt, exc)`` is invoked after each failed attempt
        (including the last), so callers can record attempts in a
        :class:`HealthReport`.
        """
        last: BaseException | None = None
        for attempt in range(1, self.max_attempts + 1):
            t0 = time.perf_counter()
            try:
                result = fn()
                elapsed = time.perf_counter() - t0
                if (self.per_attempt_timeout_s is not None
                        and elapsed > self.per_attempt_timeout_s):
                    raise TransientCollectionError(
                        f"attempt {attempt} exceeded per-attempt timeout "
                        f"({elapsed:.3f}s > {self.per_attempt_timeout_s}s)")
                return result
            except retry_on as exc:
                last = exc
                if on_retry is not None:
                    on_retry(attempt, exc)
                if attempt < self.max_attempts:
                    sleep(self.delay(attempt))
        assert last is not None
        raise last


# ---------------------------------------------------------------------------
# Atomic, checksummed artifact I/O
# ---------------------------------------------------------------------------

def checksum_payload(payload: Any) -> str:
    """CRC32 of the canonical JSON encoding of *payload*, as 8 hex digits."""
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":")).encode()
    return f"{zlib.crc32(canonical):08x}"


def checksum_lines(lines: Iterable[str]) -> str:
    """CRC32 over a stream of text lines (for JSON-lines artifacts)."""
    crc = 0
    for line in lines:
        crc = zlib.crc32(line.encode(), crc)
    return f"{crc:08x}"


def tmp_path_for(path: Path) -> Path:
    """The sibling temp file an atomic write of *path* goes through."""
    return path.with_name(f"{path.name}.{os.getpid()}.tmp")


def atomic_commit(tmp: Path, final: Path) -> Path:
    """Atomically promote a fully-written temp file to its final name."""
    os.replace(tmp, final)
    return final


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write *data* to *path* atomically (tmp file + ``os.replace``).

    A crash before the final rename leaves the original file intact and
    the partial ``*.tmp`` file on disk for post-mortem (``doctor`` flags
    stray temp files); it never leaves a half-written artifact under the
    final name.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = tmp_path_for(path)
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    return atomic_commit(tmp, path)


def atomic_write_text(path: str | Path, text: str,
                      encoding: str = "utf-8") -> Path:
    return atomic_write_bytes(path, text.encode(encoding))


def quarantine(path: str | Path) -> Path:
    """Rename a corrupt artifact to ``*.corrupt`` (never delete it).

    If a previous quarantine already claimed that name, a numeric suffix
    is appended so no evidence is overwritten.
    """
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    n = 1
    # lexists, not exists: a dangling symlink at a candidate name is
    # still evidence and must not be silently overwritten.
    while os.path.lexists(target):
        target = path.with_name(f"{path.name}.corrupt.{n}")
        n += 1
    os.replace(path, target)
    return target


# ---------------------------------------------------------------------------
# Inter-process file lock
# ---------------------------------------------------------------------------

class FileLock:
    """Advisory inter-process lock around a lock file.

    Uses ``fcntl.flock`` where available (the kernel releases the lock
    when the holder dies, even on SIGKILL); falls back to
    ``O_CREAT|O_EXCL`` elsewhere.  Either way the holder's identity —
    PID and acquisition time — is written *into* the lock file, which
    buys two things:

    * **stale-lock breaking** — the ``O_EXCL`` fallback (where a killed
      process really does leave a dead lock behind) breaks a lock whose
      recorded owner PID no longer exists, or whose file is unreadably
      old (:data:`STALE_AFTER_S`), instead of deadlocking every later
      start;
    * **crash detection** — a lock file that still exists with a dead
      owner PID is forensic evidence of an unclean shutdown.  The
      serving daemon reads it via :meth:`read_owner` /
      :meth:`owner_is_stale` before re-acquiring, so a crash-restart is
      *recognized* (and recovery counted) rather than silent.

    ``unlink_on_release=True`` removes the lock file on a clean release
    — single-instance owners (the daemon pidfile) use it so "file
    exists with dead PID" unambiguously means "crashed".  Leave it off
    (the default) for contended locks: unlinking a contended ``flock``
    file opens the classic two-holders race.
    """

    #: A lock file with an unreadable owner record older than this is
    #: considered abandoned (fallback path only).
    STALE_AFTER_S = 300.0

    def __init__(self, path: str | Path, timeout_s: float = 10.0,
                 poll_s: float = 0.02,
                 unlink_on_release: bool = False) -> None:
        self.path = Path(path)
        self.timeout_s = timeout_s
        self.poll_s = poll_s
        self.unlink_on_release = unlink_on_release
        self._fd: int | None = None

    # -- owner records ---------------------------------------------------
    @staticmethod
    def pid_alive(pid: int) -> bool:
        """Does a process with this PID currently exist?"""
        if not isinstance(pid, int) or isinstance(pid, bool) or pid <= 0:
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:  # pragma: no cover - exists, not ours
            return True
        except OSError:  # pragma: no cover - e.g. pid > pid_max
            return False
        return True

    @classmethod
    def read_owner(cls, path: str | Path) -> dict[str, Any] | None:
        """The ``{"pid": ..., "acquired_at": ...}`` record of the lock's
        last holder, or ``None`` if the file is missing or unreadable
        (pre-record lock files, half-written junk)."""
        try:
            record = json.loads(Path(path).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) \
                or not isinstance(record.get("pid"), int):
            return None
        return record

    @classmethod
    def owner_is_stale(cls, path: str | Path,
                       stale_after_s: float | None = None) -> bool:
        """Is the lock file at *path* abandoned?

        True when the recorded owner PID is dead, or — for lock files
        without a readable owner record — when the file's mtime is
        older than *stale_after_s* (default :data:`STALE_AFTER_S`).
        A missing file is not stale (there is nothing to break).
        """
        path = Path(path)
        owner = cls.read_owner(path)
        if owner is not None:
            return not cls.pid_alive(owner["pid"])
        limit = cls.STALE_AFTER_S if stale_after_s is None else stale_after_s
        try:
            return time.time() - path.stat().st_mtime > limit
        except OSError:
            return False

    def break_stale(self) -> bool:
        """Remove the lock file if it is stale; returns whether it was."""
        if not self.owner_is_stale(self.path):
            return False
        self.path.unlink(missing_ok=True)
        return True

    def _write_owner(self, fd: int) -> None:
        record = json.dumps({"pid": os.getpid(),
                             "acquired_at": time.time()})
        try:
            os.ftruncate(fd, 0)
            os.lseek(fd, 0, os.SEEK_SET)
            os.write(fd, record.encode())
        except OSError:  # pragma: no cover - lock still works without
            pass

    # -- acquire / release ----------------------------------------------
    def acquire(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + self.timeout_s
        while True:
            if self._try_acquire():
                return
            if time.monotonic() >= deadline:
                raise LockTimeoutError(
                    f"could not acquire lock {self.path} within "
                    f"{self.timeout_s}s (concurrent setup in progress?)")
            time.sleep(self.poll_s)

    def _try_acquire(self) -> bool:
        if fcntl is not None:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                os.close(fd)
                return False
            self._fd = fd
            self._write_owner(fd)
            return True
        # Non-flock fallback: a killed holder leaves the file behind,
        # so a dead recorded PID (or an unreadably old file) is broken
        # here instead of deadlocking every later start.
        self.break_stale()
        try:  # pragma: no cover - non-POSIX fallback
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            return False
        self._fd = fd
        self._write_owner(fd)
        return True

    def release(self) -> None:
        if self._fd is None:
            return
        if fcntl is not None:
            if self.unlink_on_release:
                self.path.unlink(missing_ok=True)
            fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
        else:  # pragma: no cover
            os.close(self._fd)
            self.path.unlink(missing_ok=True)
        self._fd = None

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------

#: Circuit-breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Classic three-state breaker for a flaky dependency.

    *closed* — requests flow; ``failure_threshold`` *consecutive*
    recorded failures trip the breaker *open*.  *open* — requests are
    refused (:meth:`allow_request` returns ``False``) until
    ``recovery_timeout_s`` has elapsed on the breaker's clock, at which
    point the breaker moves to *half-open* and admits exactly one probe
    request.  A recorded success in half-open closes the breaker; a
    failure re-opens it (and restarts the recovery timer).

    The clock is injectable (``clock=time.monotonic`` by default), so
    probe timing is fully deterministic under test and in the chaos
    harness (which drives it with a query-tick counter).  The breaker is
    not thread-safe by design: it guards a per-process selector hot
    path, matching the rest of the runtime layer.
    """

    def __init__(self, failure_threshold: int = 5,
                 recovery_timeout_s: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_timeout_s < 0:
            raise ValueError("recovery_timeout_s must be >= 0")
        self.failure_threshold = failure_threshold
        self.recovery_timeout_s = recovery_timeout_s
        self.clock = clock
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        #: Ordered (from, to) state transitions, for audit / tests.
        self.transitions: list[tuple[str, str]] = []

    def _transition(self, new_state: str) -> None:
        if new_state == self.state:
            return
        self.transitions.append((self.state, new_state))
        self.state = new_state
        if new_state == BREAKER_OPEN:
            self._opened_at = self.clock()
            self._probe_in_flight = False
        elif new_state == BREAKER_CLOSED:
            self.consecutive_failures = 0
            self._probe_in_flight = False

    # -- hot-path API ----------------------------------------------------
    def allow_request(self) -> bool:
        """May the guarded dependency be consulted right now?

        In *open*, flips to *half-open* once the recovery timeout has
        elapsed and admits a single probe; further requests are refused
        until that probe's outcome is recorded.
        """
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if self.clock() - self._opened_at >= self.recovery_timeout_s:
                self._transition(BREAKER_HALF_OPEN)
            else:
                return False
        # half-open: one probe at a time
        if self._probe_in_flight:
            return False
        self._probe_in_flight = True
        return True

    def record_success(self) -> None:
        """The guarded dependency answered cleanly."""
        self.consecutive_failures = 0
        self._probe_in_flight = False
        if self.state == BREAKER_HALF_OPEN:
            self._transition(BREAKER_CLOSED)

    def record_failure(self) -> None:
        """The guarded dependency failed (exception or guard trip)."""
        self.consecutive_failures += 1
        if self.state == BREAKER_HALF_OPEN:
            self._transition(BREAKER_OPEN)
        elif (self.state == BREAKER_CLOSED
                and self.consecutive_failures >= self.failure_threshold):
            self._transition(BREAKER_OPEN)
        self._probe_in_flight = False

    # -- audit -----------------------------------------------------------
    def transition_counts(self) -> dict[str, int]:
        """``"from->to" -> count`` over the breaker's lifetime."""
        out: dict[str, int] = {}
        for a, b in self.transitions:
            key = f"{a}->{b}"
            out[key] = out.get(key, 0) + 1
        return out

    def cycles(self) -> int:
        """Completed open → half-open → closed recovery cycles."""
        completed = 0
        stage = 0  # 0: want open, 1: want half-open, 2: want closed
        for _, to in self.transitions:
            if stage == 0 and to == BREAKER_OPEN:
                stage = 1
            elif stage == 1 and to == BREAKER_HALF_OPEN:
                stage = 2
            elif stage == 2:
                if to == BREAKER_CLOSED:
                    completed += 1
                    stage = 0
                elif to == BREAKER_OPEN:
                    stage = 1
        return completed

    def describe(self) -> str:
        return (f"CircuitBreaker(state={self.state}, "
                f"consecutive_failures={self.consecutive_failures}, "
                f"transitions={len(self.transitions)})")


# ---------------------------------------------------------------------------
# Health reporting
# ---------------------------------------------------------------------------

#: Degradation-ladder rungs of ``PmlMpiFramework.setup_cluster``.
RUNG_CACHED = "cached-table"
RUNG_REGENERATED = "regenerated"
RUNG_FALLBACK = "heuristic-fallback"


@dataclass
class ArtifactCheck:
    """One artifact's validation outcome (the unit of ``pml-mpi doctor``)."""

    path: str
    kind: str      # tuning-table | bundle | dataset-cache | ...
    status: str    # ok | corrupt | stale | quarantined | orphan-tmp | unknown
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class HealthReport:
    """Which path served a request, and what went wrong along the way."""

    cluster: str = ""
    rung: str = ""
    attempts: int = 0
    quarantined: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    checks: list[ArtifactCheck] = field(default_factory=list)
    #: Runtime health counters (guarded-selector query statistics,
    #: breaker transitions, ...); empty for pure artifact reports.
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def healthy(self) -> bool:
        """True when nothing degraded: no errors, no quarantined files,
        and every doctor check (if any) passed."""
        return (not self.errors and not self.quarantined
                and all(c.ok for c in self.checks))

    def record_error(self, message: str) -> None:
        self.errors.append(message)

    def record_quarantine(self, path: str | Path) -> None:
        self.quarantined.append(str(path))

    def to_dict(self) -> dict[str, Any]:
        return {
            "cluster": self.cluster,
            "rung": self.rung,
            "attempts": self.attempts,
            "quarantined": list(self.quarantined),
            "errors": list(self.errors),
            "checks": [vars(c) for c in self.checks],
            "counters": dict(self.counters),
        }

    def describe(self) -> str:
        lines = []
        if self.cluster:
            lines.append(f"cluster:     {self.cluster}")
        if self.rung:
            lines.append(f"served via:  {self.rung}")
        if self.attempts:
            lines.append(f"attempts:    {self.attempts}")
        for q in self.quarantined:
            lines.append(f"quarantined: {q}")
        for e in self.errors:
            lines.append(f"error:       {e}")
        for c in self.checks:
            detail = f" ({c.detail})" if c.detail else ""
            lines.append(f"{c.status:<12} {c.kind:<14} {c.path}{detail}")
        for name in sorted(self.counters):
            lines.append(f"counter:     {name} = {self.counters[name]}")
        return "\n".join(lines) if lines else "healthy (nothing to report)"
