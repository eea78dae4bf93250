"""Tests for the deployment resilience layer: typed artifact errors,
atomic I/O, retry/backoff, the setup_cluster degradation ladder, fault
injection, and the artifact doctor."""

import gzip
import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.core import (
    RUNG_CACHED,
    RUNG_FALLBACK,
    RUNG_REGENERATED,
    CorruptArtifactError,
    FileLock,
    LockTimeoutError,
    PmlMpiFramework,
    RetryPolicy,
    StaleArtifactError,
    TransientCollectionError,
    TuningDataset,
    collect_dataset,
    doctor_directory,
    load_selector,
    offline_train,
    save_selector,
)
from repro.core.framework import diagnose_artifact
from repro.core.resilience import (
    atomic_write_text,
    checksum_payload,
    quarantine,
)
from repro.hwmodel import get_cluster
from repro.simcluster import Machine
from repro.simcluster.conditions import FaultProfile
from repro.smpi import TableSelector, TuningTable, algorithm_names
from repro.smpi.heuristics import MvapichDefaultSelector

#: Zero-delay retry policies keep the tests fast.
FAST_RETRY = RetryPolicy(max_attempts=6, base_delay_s=0.0, jitter=0.0)


@pytest.fixture(scope="module")
def selector(mini_dataset):
    return offline_train(mini_dataset)


@pytest.fixture
def framework(selector, tmp_path):
    return PmlMpiFramework(selector, tmp_path, retry=FAST_RETRY)


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_deterministic_jittered_backoff(self):
        p = RetryPolicy(max_attempts=5, base_delay_s=0.1, backoff=2.0,
                        jitter=0.25, max_delay_s=10.0, seed=7)
        delays = [p.delay(k) for k in (1, 2, 3)]
        assert delays == [p.delay(k) for k in (1, 2, 3)]  # seeded
        # Exponential shape survives the +/-25% jitter.
        assert delays[1] > delays[0] and delays[2] > delays[1]
        for k, d in enumerate(delays, 1):
            base = 0.1 * 2.0 ** (k - 1)
            assert 0.75 * base <= d <= 1.25 * base

    def test_delay_capped(self):
        p = RetryPolicy(base_delay_s=1.0, backoff=10.0, jitter=0.0,
                        max_delay_s=2.5)
        assert p.delay(4) == 2.5

    def test_succeeds_after_transient_failures(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientCollectionError("boom")
            return "ok"

        slept = []
        result = RetryPolicy(max_attempts=4, base_delay_s=0.01,
                             jitter=0.0).call(flaky, sleep=slept.append)
        assert result == "ok"
        assert len(calls) == 3
        assert slept == pytest.approx([0.01, 0.02])

    def test_exhaustion_reraises_last_error(self):
        def always():
            raise TransientCollectionError("still down")

        attempts = []
        with pytest.raises(TransientCollectionError, match="still down"):
            RetryPolicy(max_attempts=3, base_delay_s=0.0).call(
                always, on_retry=lambda n, e: attempts.append(n))
        assert attempts == [1, 2, 3]

    def test_non_retryable_errors_propagate_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            RetryPolicy(max_attempts=5, base_delay_s=0.0).call(broken)
        assert len(calls) == 1

    def test_cooperative_per_attempt_timeout(self):
        import time

        def slow():
            time.sleep(0.03)
            return "late"

        policy = RetryPolicy(max_attempts=2, base_delay_s=0.0,
                             per_attempt_timeout_s=0.001)
        with pytest.raises(TransientCollectionError, match="timeout"):
            policy.call(slow)

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


# ---------------------------------------------------------------------------
# Atomic, checksummed writes
# ---------------------------------------------------------------------------

class TestAtomicWrites:
    def test_simulated_midwrite_kill_table(self, selector, tmp_path,
                                           monkeypatch):
        """A kill between tmp-write and rename leaves the original
        intact and the partial tmp file on disk for post-mortem."""
        fw = PmlMpiFramework(selector, tmp_path)
        spec = get_cluster("RI")
        fw.setup_cluster(spec)
        path = fw.table_path("RI")
        before = path.read_text()

        def kill(src, dst):
            raise OSError("simulated kill before rename")

        monkeypatch.setattr("repro.core.resilience.os.replace", kill)
        table = TuningTable.load(path)
        with pytest.raises(OSError, match="simulated kill"):
            table.save(path)
        assert path.read_text() == before  # original intact
        tmps = list(tmp_path.glob("*.tmp"))
        assert len(tmps) == 1  # partial write left for post-mortem

    def test_simulated_midwrite_kill_dataset_and_bundle(
            self, mini_dataset, selector, tmp_path, monkeypatch):
        ds_path = mini_dataset.save(tmp_path / "ds.jsonl.gz")
        bundle_path = save_selector(selector, tmp_path / "b.json")
        ds_before = ds_path.read_bytes()
        bundle_before = bundle_path.read_bytes()

        monkeypatch.setattr(
            "repro.core.resilience.os.replace",
            lambda s, d: (_ for _ in ()).throw(OSError("killed")))
        with pytest.raises(OSError):
            mini_dataset.save(ds_path)
        with pytest.raises(OSError):
            save_selector(selector, bundle_path)
        assert ds_path.read_bytes() == ds_before
        assert bundle_path.read_bytes() == bundle_before
        assert len(list(tmp_path.glob("*.tmp"))) == 2

    def test_quarantine_never_overwrites(self, tmp_path):
        for i in range(3):
            f = tmp_path / "t.json"
            f.write_text(f"garbage {i}")
            quarantine(f)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["t.json.corrupt", "t.json.corrupt.1",
                         "t.json.corrupt.2"]

    def test_quarantine_steps_over_dangling_symlink(self, tmp_path):
        # A dangling symlink squatting on the .corrupt name is still
        # evidence: quarantine must step past it (lexists), never
        # replace it.
        f = tmp_path / "t.json"
        f.write_text("garbage")
        os.symlink(tmp_path / "vanished", tmp_path / "t.json.corrupt")
        moved = quarantine(f)
        assert moved.name == "t.json.corrupt.1"
        assert moved.read_text() == "garbage"
        link = tmp_path / "t.json.corrupt"
        assert os.path.lexists(link) and not link.exists()
        assert os.readlink(link) == str(tmp_path / "vanished")


# ---------------------------------------------------------------------------
# Corrupt-artifact matrix: each artifact kind x each failure mode
# ---------------------------------------------------------------------------

class TestCorruptArtifactMatrix:
    def test_truncated_gzip_cache(self, mini_dataset, tmp_path):
        path = mini_dataset.save(tmp_path / "ds.jsonl.gz")
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])  # truncate mid-stream
        with pytest.raises(CorruptArtifactError):
            TuningDataset.load(path)

    def test_non_gzip_cache(self, tmp_path):
        path = tmp_path / "ds.jsonl.gz"
        path.write_text("this was never gzip")
        with pytest.raises(CorruptArtifactError):
            TuningDataset.load(path)

    def test_dataset_checksum_mismatch(self, mini_dataset, tmp_path):
        path = mini_dataset.save(tmp_path / "ds.jsonl.gz")
        with gzip.open(path, "rt") as fh:
            lines = fh.readlines()
        # Tamper with one record but keep the header checksum.
        lines[1] = lines[1].replace('"nodes": ', '"nodes": 1 + 0 or ')
        with gzip.open(path, "wt") as fh:
            fh.writelines(lines)
        with pytest.raises(CorruptArtifactError):
            TuningDataset.load(path)

    def test_dataset_wrong_version_is_stale(self, mini_dataset,
                                            tmp_path):
        path = mini_dataset.save(tmp_path / "ds.jsonl.gz")
        with gzip.open(path, "rt") as fh:
            lines = fh.readlines()
        meta = json.loads(lines[0])
        meta["__meta__"]["version"] = "0"
        lines[0] = json.dumps(meta) + "\n"
        with gzip.open(path, "wt") as fh:
            fh.writelines(lines)
        with pytest.raises(StaleArtifactError, match="version"):
            TuningDataset.load(path)

    def test_dataset_nonfinite_time_rejected(self, tmp_path):
        lines = [json.dumps({
            "cluster": "RI", "collective": "allgather", "nodes": 2,
            "ppn": 4, "msg_size": 64,
            "times": {"ring": float("nan")}}) + "\n"]
        path = tmp_path / "bad.jsonl.gz"
        with gzip.open(path, "wt") as fh:
            fh.writelines(lines)
        with pytest.raises(CorruptArtifactError, match="non-finite"):
            TuningDataset.load(path)

    def test_dataset_unknown_algorithm_rejected(self, tmp_path):
        lines = [json.dumps({
            "cluster": "RI", "collective": "allgather", "nodes": 2,
            "ppn": 4, "msg_size": 64,
            "times": {"quantum_teleport": 1e-5}}) + "\n"]
        path = tmp_path / "bad.jsonl.gz"
        with gzip.open(path, "wt") as fh:
            fh.writelines(lines)
        with pytest.raises(CorruptArtifactError, match="unknown algorithm"):
            TuningDataset.load(path)

    def test_corrupt_cache_quarantined_and_recollected(self, tmp_path):
        cache_dir = tmp_path / "cache"
        clusters = [get_cluster("RI")]
        first = collect_dataset(clusters=clusters,
                                collectives=("allgather",),
                                cache_dir=cache_dir)
        caches = list(cache_dir.glob("*.jsonl.gz"))
        assert len(caches) == 1
        caches[0].write_text("{definitely not gzip")
        again = collect_dataset(clusters=clusters,
                                collectives=("allgather",),
                                cache_dir=cache_dir)
        assert len(again) == len(first)
        assert list(cache_dir.glob("*.corrupt"))  # evidence kept

    def test_invalid_json_table(self, tmp_path):
        path = tmp_path / "t.tuning.json"
        path.write_text("{not json at all")
        with pytest.raises(CorruptArtifactError, match="not valid JSON"):
            TuningTable.load(path)

    def test_overlong_int_table_is_corrupt(self):
        """``json.loads`` raises a plain ValueError for an int past
        the interpreter's digit limit; the setup ladder only catches
        artifact errors."""
        text = ('{"cluster": "RI", "collectives": {"allgather": '
                '{"2x8": [[%s, "ring"]]}}}' % ("1" * 5000))
        with pytest.raises(CorruptArtifactError, match="not valid JSON"):
            TuningTable.from_json(text)

    def test_table_checksum_mismatch(self, selector, tmp_path):
        fw = PmlMpiFramework(selector, tmp_path)
        fw.setup_cluster(get_cluster("RI"))
        path = fw.table_path("RI")
        payload = json.loads(path.read_text())
        # Flip one decision without updating the checksum (silent
        # bit-rot / manual edit).
        coll = payload["collectives"]["allgather"]
        key = next(iter(coll))
        coll[key][0][1] = "ring" if coll[key][0][1] != "ring" else "bruck"
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptArtifactError, match="checksum"):
            TuningTable.load(path)

    def test_table_wrong_version_is_stale(self, selector, tmp_path):
        fw = PmlMpiFramework(selector, tmp_path)
        fw.setup_cluster(get_cluster("RI"))
        path = fw.table_path("RI")
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(StaleArtifactError, match="version"):
            TuningTable.load(path)

    def test_table_unknown_algorithm(self, tmp_path):
        collectives = {"allgather": {"2x8": [[1024, "quantum"]]}}
        payload = {"format": "pml-mpi/tuning-table", "version": 1,
                   "cluster": "RI",
                   "crc32": checksum_payload(collectives),
                   "collectives": collectives}
        with pytest.raises(CorruptArtifactError):
            TuningTable.from_json(json.dumps(payload))

    def test_table_empty_entries_rejected(self):
        payload = {"cluster": "RI", "collectives": {}}
        with pytest.raises(CorruptArtifactError, match="no entries"):
            TuningTable.from_json(json.dumps(payload))

    def test_table_nan_and_negative_sizes_rejected(self):
        for size in ("NaN", "-5"):
            text = ('{"cluster": "RI", "collectives": {"allgather": '
                    '{"2x8": [[%s, "ring"]]}}}' % size)
            with pytest.raises(CorruptArtifactError):
                TuningTable.from_json(text)

    def test_wrong_version_bundle_is_stale(self, selector, tmp_path):
        path = save_selector(selector, tmp_path / "b.json")
        payload = json.loads(path.read_text())
        payload["bundle_version"] = 0
        path.write_text(json.dumps(payload))
        with pytest.raises(StaleArtifactError, match="bundle version"):
            load_selector(path)

    def test_bundle_checksum_mismatch(self, selector, tmp_path):
        path = save_selector(selector, tmp_path / "b.json")
        payload = json.loads(path.read_text())
        coll = next(iter(payload["models"]))
        payload["models"][coll]["family"] = "tampered"
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptArtifactError, match="checksum"):
            load_selector(path)

    def test_bundle_garbage_json(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text("][")
        with pytest.raises(CorruptArtifactError, match="not valid JSON"):
            load_selector(path)


# ---------------------------------------------------------------------------
# Direct API validation: a table is checked when it is built
# ---------------------------------------------------------------------------

class TestTableValidation:
    @pytest.mark.parametrize("cluster, entries, match", [
        ("", {"allgather": {(2, 8): [(64, "ring")]}}, "no cluster name"),
        ("X", {}, "no entries"),
        ("X", {"allgather": {}}, "empty allgather section"),
        ("X", {"allgather": {(2, 8): []}}, "empty breakpoint list"),
        ("X", {"allgather": {(0, 8): [(64, "ring")]}},
         "invalid config 0x8"),
        ("X", {"allgather": {(2, 8): [(float("nan"), "ring")]}},
         "invalid message size nan"),
        ("X", {"allgather": {(2, 8): [(-1, "ring")]}},
         "invalid message size -1"),
        ("X", {"teleport": {(2, 8): [(64, "ring")]}},
         "unknown collective"),
        ("X", {"allgather": {(2, 8): [(64, "ring", "extra")]}},
         "invalid tuning-table entry"),
    ], ids=["no-cluster", "no-entries", "empty-section",
            "empty-breakpoints", "bad-shape", "nan-size", "negative-size",
            "unknown-collective", "bad-breakpoint"])
    def test_construction_rejects(self, cluster, entries, match):
        """Unknown algorithm names and conflicting duplicates:
        ``test_smpi_heuristics_tuning.py``."""
        with pytest.raises(CorruptArtifactError, match=match):
            TuningTable(cluster, entries)


# ---------------------------------------------------------------------------
# FileLock
# ---------------------------------------------------------------------------

class TestFileLock:
    def test_exclusive_within_timeout(self, tmp_path):
        lock = tmp_path / "x.lock"
        with FileLock(lock):
            other = FileLock(lock, timeout_s=0.05, poll_s=0.01)
            with pytest.raises(LockTimeoutError, match="could not"):
                other.acquire()
        # Released: now acquirable.
        with FileLock(lock, timeout_s=0.05):
            pass

    def test_concurrent_setups_serialize(self, selector, tmp_path):
        """Two concurrent compile-time setups on one table_dir must
        not race: both succeed and exactly one table file remains."""
        spec = get_cluster("RI")
        results, errors = [], []

        def setup():
            try:
                fw = PmlMpiFramework(selector, tmp_path,
                                     retry=FAST_RETRY)
                results.append(fw.setup_cluster(spec))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=setup) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 2
        for sel in results:
            assert isinstance(sel, TableSelector)
        assert len(list(tmp_path.glob("*.tuning.json"))) == 1
        assert not list(tmp_path.glob("*.tmp"))

    def test_owner_record_written_and_read(self, tmp_path):
        lock = tmp_path / "x.lock"
        with FileLock(lock):
            owner = FileLock.read_owner(lock)
            assert owner is not None
            assert owner["pid"] == os.getpid()
            assert owner["acquired_at"] <= time.time()
            assert not FileLock.owner_is_stale(lock)

    def test_unlink_on_release_removes_file(self, tmp_path):
        lock = tmp_path / "x.lock"
        with FileLock(lock, unlink_on_release=True):
            assert lock.exists()
        assert not lock.exists()
        # Default: the file stays (contended-lock mode).
        with FileLock(lock):
            pass
        assert lock.exists()

    def test_dead_pid_owner_is_stale(self, tmp_path):
        """The corpse of a crashed process — a lock file recording a
        PID that no longer exists — must be recognized as stale."""
        lock = tmp_path / "x.lock"
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()  # reaped: the PID is guaranteed dead
        lock.write_text(json.dumps(
            {"pid": proc.pid, "acquired_at": 0.0}))
        assert FileLock.owner_is_stale(lock)
        assert FileLock(lock).break_stale()
        assert not lock.exists()

    def test_live_pid_owner_is_not_stale(self, tmp_path):
        lock = tmp_path / "x.lock"
        lock.write_text(json.dumps(
            {"pid": os.getpid(), "acquired_at": 0.0}))
        assert not FileLock.owner_is_stale(lock)
        assert not FileLock(lock).break_stale()
        assert lock.exists()

    def test_unreadable_record_stale_only_when_old(self, tmp_path):
        lock = tmp_path / "x.lock"
        lock.write_text("not json at all")
        assert FileLock.read_owner(lock) is None
        # Fresh mtime: give the holder the benefit of the doubt.
        assert not FileLock.owner_is_stale(lock)
        # Age the file past the cutoff: abandoned.
        old = time.time() - 10_000.0
        os.utime(lock, (old, old))
        assert FileLock.owner_is_stale(lock)
        assert FileLock.owner_is_stale(lock, stale_after_s=5_000.0)
        assert not FileLock.owner_is_stale(lock,
                                           stale_after_s=20_000.0)

    def test_missing_file_is_not_stale(self, tmp_path):
        lock = tmp_path / "x.lock"
        assert not FileLock.owner_is_stale(lock)
        assert not FileLock(lock).break_stale()

    def test_pid_alive_rejects_junk(self):
        assert FileLock.pid_alive(os.getpid())
        assert not FileLock.pid_alive(-1)
        assert not FileLock.pid_alive(0)
        assert not FileLock.pid_alive(True)
        assert not FileLock.pid_alive("7")

    def test_fallback_path_breaks_stale_lock(self, tmp_path,
                                             monkeypatch):
        """Without flock (O_EXCL fallback) a killed holder's lock file
        would deadlock every later start; a dead recorded PID must be
        broken on acquire instead."""
        import repro.core.resilience as resilience

        monkeypatch.setattr(resilience, "fcntl", None)
        lock = tmp_path / "x.lock"
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        lock.write_text(json.dumps(
            {"pid": proc.pid, "acquired_at": 0.0}))
        with FileLock(lock, timeout_s=0.5, poll_s=0.01):
            owner = FileLock.read_owner(lock)
            assert owner is not None and owner["pid"] == os.getpid()
        assert not lock.exists()  # fallback always unlinks on release

    def test_fallback_path_respects_live_lock(self, tmp_path,
                                              monkeypatch):
        import repro.core.resilience as resilience

        monkeypatch.setattr(resilience, "fcntl", None)
        lock = tmp_path / "x.lock"
        lock.write_text(json.dumps(
            {"pid": os.getpid(), "acquired_at": 0.0}))
        blocked = FileLock(lock, timeout_s=0.05, poll_s=0.01)
        with pytest.raises(LockTimeoutError):
            blocked.acquire()

    def test_two_contenders_racing_one_stale_lock(self, tmp_path,
                                                  monkeypatch):
        """Two processes find the same dead-owner lock at once.  Both
        may observe it stale (the TOCTOU window), but only the first
        break unlinks anything: the second sees a missing file — not
        stale — so it can never unlink the winner's *fresh* lock."""
        import repro.core.resilience as resilience

        monkeypatch.setattr(resilience, "fcntl", None)
        dead_pid = 4242
        real_pid_alive = FileLock.pid_alive
        monkeypatch.setattr(
            FileLock, "pid_alive",
            staticmethod(lambda pid: False if pid == dead_pid
                         else real_pid_alive(pid)))

        lock = tmp_path / "x.lock"
        lock.write_text(json.dumps(
            {"pid": dead_pid, "acquired_at": 0.0}))
        a = FileLock(lock, timeout_s=0.5, poll_s=0.01)
        b = FileLock(lock, timeout_s=0.05, poll_s=0.01)

        # Both contenders pass the staleness check before either acts.
        assert FileLock.owner_is_stale(lock)
        assert FileLock.owner_is_stale(lock)
        assert a.break_stale()
        assert not b.break_stale()  # missing file: nothing to break

        a.acquire()
        try:
            owner = FileLock.read_owner(lock)
            assert owner is not None and owner["pid"] == os.getpid()
            # B must now see a live owner and neither break nor steal.
            assert not FileLock.owner_is_stale(lock)
            assert not b.break_stale()
            with pytest.raises(LockTimeoutError):
                b.acquire()
            assert FileLock.read_owner(lock)["pid"] == os.getpid()
        finally:
            a.release()
        # With the winner gone, the loser acquires cleanly.
        b.acquire()
        b.release()


# ---------------------------------------------------------------------------
# The degradation ladder
# ---------------------------------------------------------------------------

class TestDegradationLadder:
    def test_rung1_valid_cached_table(self, framework):
        spec = get_cluster("RI")
        framework.setup_cluster(spec)
        sel, report = framework.setup_cluster_with_report(spec)
        assert isinstance(sel, TableSelector)
        assert report.rung == RUNG_CACHED
        assert report.healthy

    def test_rung2_corrupt_table_regenerated(self, framework):
        spec = get_cluster("RI")
        framework.setup_cluster(spec)
        path = framework.table_path("RI")
        path.write_text("{broken json")
        sel, report = framework.setup_cluster_with_report(spec)
        assert isinstance(sel, TableSelector)
        assert report.rung == RUNG_REGENERATED
        assert len(report.quarantined) == 1
        assert ".corrupt" in report.quarantined[0]
        # The quarantined file still holds the original bytes.
        from pathlib import Path
        assert Path(report.quarantined[0]).read_text() == "{broken json"
        # And a fresh, valid table exists again.
        TuningTable.load(path).validate()

    def test_rung2_transient_failures_retried(self, framework):
        """A fault rate below certainty: regeneration succeeds after
        retries, and the report counts the attempts."""
        spec = get_cluster("Ray")
        faults = FaultProfile(failure_rate=0.7, seed=3)
        sel, report = framework.setup_cluster_with_report(
            spec, faults=faults)
        assert isinstance(sel, TableSelector)
        assert report.rung == RUNG_REGENERATED
        assert report.attempts >= 1

    def test_rung3_heuristic_fallback(self, framework):
        """Regeneration permanently failing must still hand the MPI
        build a working selector."""
        spec = get_cluster("RI")
        faults = FaultProfile(failure_rate=1.0)
        sel, report = framework.setup_cluster_with_report(
            spec, faults=faults)
        assert report.rung == RUNG_FALLBACK
        assert isinstance(sel, MvapichDefaultSelector)
        assert report.attempts == FAST_RETRY.max_attempts
        machine = Machine(spec, 2, 4)
        algo = sel.select("allgather", machine, 1024)
        assert algo in algorithm_names("allgather")

    def test_acceptance_scenario(self, framework, tmp_path):
        """ISSUE acceptance: 20% transient-failure rate plus a
        corrupted cached table -> still a working selector, the rung is
        named, and doctor flags the quarantined file."""
        spec = get_cluster("RI")
        framework.setup_cluster(spec)
        framework.table_path("RI").write_text('{"cluster": "RI"}')
        faults = FaultProfile(failure_rate=0.2, seed=42)
        sel, report = framework.setup_cluster_with_report(
            spec, faults=faults)
        assert isinstance(sel, TableSelector)
        assert report.rung == RUNG_REGENERATED
        assert report.quarantined
        machine = Machine(spec, 2, 4)
        assert sel.select("allgather", machine, 512) in \
            algorithm_names("allgather")
        doctor = doctor_directory(tmp_path)
        statuses = {c.path: c.status for c in doctor.checks}
        assert any(s == "quarantined" for s in statuses.values())

    def test_force_regenerate_skips_cache(self, framework):
        spec = get_cluster("RI")
        framework.setup_cluster(spec)
        _, report = framework.setup_cluster_with_report(
            spec, force_regenerate=True)
        assert report.rung == RUNG_REGENERATED


# ---------------------------------------------------------------------------
# Fault-injected collection end-to-end
# ---------------------------------------------------------------------------

class TestFaultInjectedCollection:
    def test_20pct_faults_converge_to_clean_dataset(self):
        clusters = [get_cluster("RI")]
        clean = collect_dataset(clusters=clusters,
                                collectives=("allgather",),
                                use_cache=False)
        faulty = collect_dataset(
            clusters=clusters, collectives=("allgather",),
            use_cache=False,
            faults=FaultProfile(failure_rate=0.2, stall_rate=0.05,
                                seed=1),
            retry=RetryPolicy(max_attempts=8, base_delay_s=0.0,
                              jitter=0.0))
        assert len(faulty) == len(clean)
        for a, b in zip(clean.records, faulty.records):
            assert a == b  # retries re-measure; results converge

    def test_certain_failure_drops_configs_without_crashing(self,
                                                            capsys):
        dataset = collect_dataset(
            clusters=[get_cluster("RI")], collectives=("allgather",),
            use_cache=False, progress=True,
            faults=FaultProfile(failure_rate=1.0),
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0,
                              jitter=0.0))
        assert len(dataset) == 0
        assert "dropped" in capsys.readouterr().out

    def test_faulty_and_clean_caches_are_distinct(self, tmp_path):
        clusters = [get_cluster("RI")]
        collect_dataset(clusters=clusters, collectives=("allgather",),
                        cache_dir=tmp_path)
        collect_dataset(clusters=clusters, collectives=("allgather",),
                        cache_dir=tmp_path,
                        faults=FaultProfile(failure_rate=0.3),
                        retry=FAST_RETRY)
        assert len(list(tmp_path.glob("*.jsonl.gz"))) == 2


# ---------------------------------------------------------------------------
# Doctor
# ---------------------------------------------------------------------------

class TestDoctor:
    @pytest.fixture
    def artifact_dir(self, selector, mini_dataset, tmp_path):
        fw = PmlMpiFramework(selector, tmp_path)
        fw.setup_cluster(get_cluster("RI"))
        save_selector(selector, tmp_path / "bundle.json")
        mini_dataset.save(tmp_path / "ds.jsonl.gz")
        return tmp_path

    def test_all_valid(self, artifact_dir):
        report = doctor_directory(artifact_dir)
        assert report.healthy
        kinds = sorted(c.kind for c in report.checks
                       if c.kind != "lock")
        assert kinds == ["bundle", "dataset-cache", "tuning-table"]

    def test_flags_each_failure_mode(self, artifact_dir):
        (artifact_dir / "broken.tuning.json").write_text("{nope")
        (artifact_dir / "stale.json").write_text(json.dumps(
            {"format": "pml-mpi/bundle", "bundle_version": 0,
             "models": {}}))
        (artifact_dir / "ds.jsonl.gz.1234.tmp").write_text("partial")
        (artifact_dir / "old.tuning.json.corrupt").write_text("x")
        report = doctor_directory(artifact_dir)
        assert not report.healthy
        by_name = {c.path.rsplit("/", 1)[-1]: c.status
                   for c in report.checks}
        assert by_name["broken.tuning.json"] == "corrupt"
        assert by_name["stale.json"] == "stale"
        assert by_name["ds.jsonl.gz.1234.tmp"] == "orphan-tmp"
        assert by_name["old.tuning.json.corrupt"] == "quarantined"

    def test_diagnose_unknown_file(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("hello")
        assert diagnose_artifact(path).status == "unknown"


# ---------------------------------------------------------------------------
# Atomic helper round-trip
# ---------------------------------------------------------------------------

class TestAtomicHelpers:
    def test_atomic_write_text_roundtrip(self, tmp_path):
        path = tmp_path / "deep" / "a.txt"
        atomic_write_text(path, "hello")
        assert path.read_text() == "hello"
        assert not list(path.parent.glob("*.tmp"))

    def test_checksum_payload_stable_across_key_order(self):
        assert checksum_payload({"a": 1, "b": 2}) == \
            checksum_payload({"b": 2, "a": 1})


# ---------------------------------------------------------------------------
# Over-long JSON integers
# ---------------------------------------------------------------------------

#: An integer literal past the interpreter's 4,300-digit string limit:
#: ``json.loads`` raises a plain ``ValueError`` on it, which is not a
#: ``JSONDecodeError``.
OVERLONG = "9" * 5000


def _feedback_file(path, header, body):
    from repro.core.resilience import checksum_lines

    if header is None:
        from repro.adapt.feedback import FEEDBACK_FORMAT, FEEDBACK_VERSION
        header = json.dumps({"__meta__": {
            "format": FEEDBACK_FORMAT, "version": FEEDBACK_VERSION,
            "records": len(body),
            "crc32": checksum_lines([b + "\n" for b in body])}})
    path.write_text("\n".join([header, *body]) + "\n")


def _trace_text(header, body):
    from repro.core.resilience import checksum_lines
    from repro.obs.trace_io import TRACE_FORMAT, TRACE_VERSION

    lines = [b + "\n" for b in body]
    if header is None:
        header = json.dumps({"__meta__": {
            "format": TRACE_FORMAT, "version": TRACE_VERSION,
            "records": len(lines), "crc32": checksum_lines(lines)}})
    return header + "\n" + "".join(lines)


def _bundle(tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text('{"bundle_version": ' + OVERLONG + ', "models": {}}')
    with pytest.raises(CorruptArtifactError, match="not valid JSON"):
        load_selector(path)


def _dataset_header(tmp_path):
    path = tmp_path / "ds.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        fh.write('{"__meta__": {"version": ' + OVERLONG + '}}\n')
    with pytest.raises(CorruptArtifactError, match="line 1 is not JSON"):
        TuningDataset.load(path)


def _feedback(tmp_path, where):
    from repro.adapt import FeedbackLog

    path = tmp_path / "feedback.jsonl"
    if where == "header":
        _feedback_file(path, '{"__meta__": ' + OVERLONG + '}', [])
    else:
        _feedback_file(path, None, ['{"tick": ' + OVERLONG + '}'])
    with pytest.raises(CorruptArtifactError, match="not JSON"):
        FeedbackLog(path).load()


def _trace(where):
    from repro.obs.trace_io import parse_trace

    text = (_trace_text('{"__meta__": ' + OVERLONG + '}', [])
            if where == "header"
            else _trace_text(None, ['{"type": ' + OVERLONG + '}']))
    with pytest.raises(CorruptArtifactError, match="not JSON"):
        parse_trace(text)


def _decision_log(tmp_path):
    from repro.core.framework import _load_decision_log

    path = tmp_path / "decisions.jsonl"
    path.write_text('{"tick": ' + OVERLONG + '}\n')
    with pytest.raises(CorruptArtifactError, match="line 1 is not JSON"):
        _load_decision_log(path)


def _queries(tmp_path):
    from repro.serve.service import queries_from_jsonl

    with pytest.raises(ValueError, match="line 1: not valid JSON"):
        queries_from_jsonl('{"collective": "allgather", "nodes": '
                           + OVERLONG + ', "ppn": 8, "msg_size": 1}\n')


def _boot_sentinel(tmp_path):
    """An unreadable boot sentinel is ignored; the boot goes on."""
    from types import SimpleNamespace

    from repro.serve.daemon import SelectionDaemon

    sentinel = tmp_path / "boot.sentinel"
    sentinel.write_text('{"checksum": ' + OVERLONG + '}')
    assert SelectionDaemon._recover_boot_sentinel(
        SimpleNamespace(sentinel_path=sentinel)) is None


def _adapt_state(tmp_path):
    """An unreadable loop state starts clean."""
    from types import SimpleNamespace

    from repro.adapt.loop import AdaptationLoop, _State

    state = tmp_path / "adapt_state.json"
    state.write_text('{"fence_tick": ' + OVERLONG + '}')
    assert AdaptationLoop._load_state(
        SimpleNamespace(state_path=state)) == _State()


def _promotion_sentinel(tmp_path):
    """An unreadable promotion sentinel is cleared, not raised."""
    from repro.adapt.gate import ChampionChallengerGate

    gate = ChampionChallengerGate(tmp_path / "bundle.json", tmp_path)
    gate.sentinel_path.write_text('{"challenger_checksum": '
                                  + OVERLONG + '}')
    assert gate.recover() == "cleared pre-swap promotion sentinel"
    assert not gate.sentinel_path.exists()


def _lock_owner(tmp_path):
    path = tmp_path / "x.lock"
    path.write_text('{"pid": ' + OVERLONG + '}')
    assert FileLock.read_owner(path) is None


def _slo_config(tmp_path):
    from repro.obs.slo import load_slos

    path = tmp_path / "slos.json"
    path.write_text('[{"objective": ' + OVERLONG + '}]')
    with pytest.raises(ValueError, match="cannot read SLO config"):
        load_slos(path)


OVERLONG_READERS = {
    "bundle": _bundle,
    "dataset-header": _dataset_header,
    "feedback-header": lambda tmp: _feedback(tmp, "header"),
    "feedback-line": lambda tmp: _feedback(tmp, "line"),
    "trace-header": lambda tmp: _trace("header"),
    "trace-line": lambda tmp: _trace("line"),
    "decision-log": _decision_log,
    "select-batch-queries": _queries,
    "daemon-boot-sentinel": _boot_sentinel,
    "adapt-state": _adapt_state,
    "promotion-sentinel": _promotion_sentinel,
    "lock-owner": _lock_owner,
    "slo-config": _slo_config,
}


@pytest.mark.parametrize("reader", sorted(OVERLONG_READERS))
def test_overlong_integer_takes_the_readers_error_path(reader, tmp_path):
    """Every artifact reader maps an over-long integer literal the way
    it maps any other unreadable JSON."""
    OVERLONG_READERS[reader](tmp_path)
