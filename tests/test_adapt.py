"""Tests for the online-adaptation package: feedback log schema,
Page–Hinkley drift detection, challenger training lineage, the
champion/challenger gate's crash-safe transaction, and the
``pml-mpi adapt`` state machine."""

import json

import pytest

from repro.adapt import (
    FEEDBACK_FORMAT,
    FEEDBACK_VERSION,
    AdaptConfig,
    AdaptationLoop,
    ChampionChallengerGate,
    DriftMonitor,
    FeedbackLog,
    FeedbackRecord,
    PageHinkley,
    graft_champion_models,
    merge_feedback,
    record_from_decision,
    shadow_evaluate,
    sign_test_p,
    train_challenger,
)
from repro.adapt.drift import replay_regret
from repro.adapt.feedback import validate_record
from repro.core.dataset import CollectiveRecord, TuningDataset
from repro.core.resilience import (
    CorruptArtifactError,
    StaleArtifactError,
)
from repro.hwmodel import get_cluster
from repro.obs.telemetry import MetricsRegistry, Tracer, use_telemetry
from repro.simcluster.machine import Machine
from repro.smpi.collectives import base
from repro.smpi.heuristics import AlgorithmSelector


@pytest.fixture
def registry():
    """Fresh ambient telemetry per test, so counter assertions are
    exact rather than deltas against global state."""
    reg = MetricsRegistry()
    with use_telemetry(Tracer(), reg):
        yield reg


class StaticSelector(AlgorithmSelector):
    """Always answers the same algorithm name."""

    def __init__(self, name):
        self.name = name

    def select(self, collective, machine, msg_size):
        return self.name


def _allgather_pair():
    """Two real, non-power-of-two-restricted allgather algorithms."""
    names = [n for n, a in sorted(base.algorithms("allgather").items())
             if not a.requires_power_of_two]
    return names[0], names[1]


def _record(tick=0, *, fast=None, slow=None, executed=None,
            nodes=2, ppn=4, msg_size=1024, collective="allgather",
            cluster="RI", flip=False):
    """One feedback row where *slow* takes twice *fast*'s time (or the
    reverse with ``flip=True``); the slow algorithm was executed unless
    *executed* says otherwise."""
    a, b = _allgather_pair()
    fast = fast if fast is not None else a
    slow = slow if slow is not None else b
    t_fast, t_slow = (2e-5, 1e-5) if flip else (1e-5, 2e-5)
    return FeedbackRecord(
        cluster=cluster, collective=collective, nodes=nodes, ppn=ppn,
        msg_size=msg_size, algorithm=executed or slow,
        times={fast: t_fast, slow: t_slow}, tick=tick)


# ---------------------------------------------------------------------------
# Feedback record schema
# ---------------------------------------------------------------------------

class TestFeedbackRecord:
    def test_oracle_properties_and_regret(self):
        r = FeedbackRecord(cluster="RI", collective="allgather",
                           nodes=2, ppn=4, msg_size=64, algorithm="b",
                           times={"a": 1e-5, "b": 3e-5}, tick=7)
        assert r.best_algorithm == "a"
        assert r.best_time == pytest.approx(1e-5)
        assert r.executed_time == pytest.approx(3e-5)
        assert r.regret() == pytest.approx(2.0)

    def test_optimal_choice_has_zero_regret(self):
        r = FeedbackRecord(cluster="RI", collective="allgather",
                           nodes=2, ppn=4, msg_size=64, algorithm="a",
                           times={"a": 1e-5, "b": 3e-5})
        assert r.regret() == pytest.approx(0.0)

    def test_to_collective_record(self):
        r = _record(tick=3)
        cr = r.to_collective_record()
        assert isinstance(cr, CollectiveRecord)
        assert (cr.cluster, cr.collective, cr.nodes, cr.ppn,
                cr.msg_size) == ("RI", "allgather", 2, 4, 1024)
        assert cr.times == r.times

    def test_round_trips_through_validate(self):
        r = _record(tick=5)
        assert validate_record(r.to_dict()) == r


class TestValidateRecord:
    def _good(self):
        return {"cluster": "RI", "collective": "allgather", "nodes": 2,
                "ppn": 4, "msg_size": 64, "algorithm": "ring",
                "times": {"ring": 1e-5}, "tick": 0}

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(cluster=""),
        lambda d: d.update(collective=3),
        lambda d: d.update(algorithm=None),
        lambda d: d.update(nodes=0),
        lambda d: d.update(nodes=True),       # bools are not ints
        lambda d: d.update(ppn=-1),
        lambda d: d.update(msg_size="64"),
        lambda d: d.update(tick=-1),
        lambda d: d.update(tick=True),
        lambda d: d.update(times={}),
        lambda d: d.update(times=[1e-5]),
        lambda d: d.update(times={"ring": float("nan")}),
        lambda d: d.update(times={"ring": float("inf")}),
        lambda d: d.update(times={"ring": 0.0}),
        lambda d: d.update(times={"ring": -1e-5}),
        lambda d: d.update(times={"ring": True}),
        lambda d: d.update(times={"": 1e-5}),
        lambda d: d.update(algorithm="bruck"),  # executed unmeasured
        lambda d: d.update(surprise=1),         # unknown field
    ])
    def test_rejects_each_corruption(self, mutate):
        data = self._good()
        mutate(data)
        with pytest.raises(CorruptArtifactError):
            validate_record(data)

    def test_rejects_non_dict(self):
        with pytest.raises(CorruptArtifactError):
            validate_record([1, 2, 3])

    def test_tick_defaults_to_zero(self):
        data = self._good()
        del data["tick"]
        assert validate_record(data).tick == 0


class TestRecordFromDecision:
    def test_builds_from_decision_dict(self):
        decision = {"collective": "allgather", "nodes": 2, "ppn": 4,
                    "msg_size": 64, "algorithm": "ring",
                    "action": "served_model", "detail": "",
                    "cached": False}
        r = record_from_decision("RI", decision, {"ring": 2e-5},
                                 tick=9)
        assert r.cluster == "RI"
        assert r.algorithm == "ring"
        assert r.tick == 9

    def test_invalid_decision_rejected(self):
        with pytest.raises(CorruptArtifactError, match="invalid"):
            record_from_decision("RI", {"algorithm": None}, {})


# ---------------------------------------------------------------------------
# FeedbackLog artifact
# ---------------------------------------------------------------------------

class TestFeedbackLog:
    def test_missing_file_is_empty_log(self, tmp_path):
        assert FeedbackLog(tmp_path / "fb.jsonl").load() == []

    def test_append_load_round_trip(self, tmp_path, registry):
        log = FeedbackLog(tmp_path / "fb.jsonl")
        first = [_record(tick=i) for i in range(3)]
        log.append(first)
        log.append([_record(tick=3)])
        loaded = log.load()
        assert loaded == first + [_record(tick=3)]
        assert registry.counters()["adapt.feedback.appended"] == 4
        header = json.loads(
            (tmp_path / "fb.jsonl").read_text().splitlines()[0])
        meta = header["__meta__"]
        assert meta["format"] == FEEDBACK_FORMAT
        assert meta["version"] == FEEDBACK_VERSION
        assert meta["records"] == 4

    def test_window_returns_tail(self, tmp_path):
        log = FeedbackLog(tmp_path / "fb.jsonl")
        log.append([_record(tick=i) for i in range(5)])
        assert [r.tick for r in log.window(2)] == [3, 4]
        assert log.window(0) == []

    def test_garbage_file_is_corrupt(self, tmp_path):
        path = tmp_path / "fb.jsonl"
        path.write_text("{ not json at all\n")
        with pytest.raises(CorruptArtifactError):
            FeedbackLog(path).load()

    def test_tampered_record_fails_checksum(self, tmp_path):
        log = FeedbackLog(tmp_path / "fb.jsonl")
        log.append([_record(tick=0), _record(tick=1)])
        lines = log.path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace('"tick":0', '"tick":7')
        log.path.write_text("".join(lines))
        with pytest.raises(CorruptArtifactError, match="checksum"):
            log.load()

    def test_future_version_is_stale(self, tmp_path):
        log = FeedbackLog(tmp_path / "fb.jsonl")
        log.append([_record()])
        lines = log.path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["__meta__"]["version"] = FEEDBACK_VERSION + 1
        lines[0] = json.dumps(header, sort_keys=True,
                              separators=(",", ":")) + "\n"
        log.path.write_text("".join(lines))
        with pytest.raises(StaleArtifactError, match="version"):
            log.load()

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "fb.jsonl"
        path.write_text(json.dumps(
            {"__meta__": {"format": "pml-mpi/trace", "version": 1,
                          "records": 0, "crc32": "crc32:00000000"}})
            + "\n")
        with pytest.raises(CorruptArtifactError, match="format"):
            FeedbackLog(path).load()

    def test_quarantine_on_corrupt_counts_partition(self, tmp_path,
                                                    registry):
        path = tmp_path / "fb.jsonl"
        path.write_text("][\n")
        log = FeedbackLog(path)
        records, moved = log.load_or_quarantine()
        assert records == []
        assert moved is not None and moved.name.endswith(".corrupt")
        assert not path.exists()
        # A healthy reload counts on the other side of the partition.
        log.append([_record()])
        records, moved = log.load_or_quarantine()
        assert len(records) == 1 and moved is None
        c = registry.counters()
        assert c["adapt.feedback.loads"] == 2
        assert c["adapt.feedback.loads"] == \
            c["adapt.feedback.ok"] + c["adapt.feedback.quarantined"]

    def test_append_to_corrupt_log_raises(self, tmp_path):
        path = tmp_path / "fb.jsonl"
        path.write_text("garbage\n")
        with pytest.raises(CorruptArtifactError):
            FeedbackLog(path).append([_record()])

    def test_append_auto_stamps_default_ticks(self, tmp_path):
        # A producer that never manages ticks must still produce rows
        # the fence (tick > fence_tick) can see: every default-tick
        # record after the first gets a fresh monotonic tick.
        log = FeedbackLog(tmp_path / "fb.jsonl")
        log.append([_record(), _record(msg_size=2048)])
        assert [r.tick for r in log.load()] == [0, 1]
        log.append([_record(msg_size=4096)])
        assert [r.tick for r in log.load()] == [0, 1, 2]

    def test_append_keeps_explicit_ticks(self, tmp_path):
        log = FeedbackLog(tmp_path / "fb.jsonl")
        log.append([_record(tick=5)])
        log.append([_record(tick=9, msg_size=2048)])
        # ...but a default-tick record on a non-empty log is stamped
        # past the current high-water mark, never left at 0.
        log.append([_record(msg_size=4096)])
        assert [r.tick for r in log.load()] == [5, 9, 10]

    def test_append_blocks_on_held_lock(self, tmp_path):
        from repro.core.resilience import FileLock, LockTimeoutError

        log = FeedbackLog(tmp_path / "fb.jsonl", lock_timeout_s=0.05)
        with FileLock(log.lock_path):
            with pytest.raises(LockTimeoutError):
                log.append([_record()])
        log.append([_record()])  # released lock unblocks the producer
        assert len(log.load()) == 1


# ---------------------------------------------------------------------------
# Page–Hinkley
# ---------------------------------------------------------------------------

class TestPageHinkley:
    def test_stable_stream_never_alarms(self):
        ph = PageHinkley(delta=0.005, threshold=0.5, min_samples=10)
        assert not any(ph.update(0.01) for _ in range(500))

    def test_mean_shift_alarms_and_rearms(self):
        ph = PageHinkley(delta=0.005, threshold=0.5, min_samples=10)
        stream = [0.0] * 50 + [1.0] * 50
        alarms = [i for i, x in enumerate(stream) if ph.update(x)]
        assert alarms
        assert alarms[0] >= 50           # not before the shift
        assert ph.n < 100                # reset re-armed the detector

    def test_deterministic_fold(self):
        stream = [0.0] * 30 + [0.8] * 30 + [0.1] * 30

        def alarms():
            ph = PageHinkley(delta=0.01, threshold=0.3, min_samples=5)
            return [i for i, x in enumerate(stream) if ph.update(x)]

        assert alarms() == alarms()

    def test_min_samples_suppresses_early_alarms(self):
        ph = PageHinkley(delta=0.0, threshold=0.01, min_samples=50)
        assert not any(ph.update(x) for x in [0.0] * 10 + [5.0] * 30)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PageHinkley(threshold=0.0)
        with pytest.raises(ValueError):
            PageHinkley(min_samples=0)


# ---------------------------------------------------------------------------
# Regret replay + drift monitor
# ---------------------------------------------------------------------------

class TestReplayRegret:
    def test_measured_choice_scores_exactly(self):
        fast, slow = _allgather_pair()
        spec = get_cluster("RI")
        machines = {(2, 4): Machine(spec, 2, 4)}
        r = _record()
        assert replay_regret(StaticSelector(fast), machines, r) \
            == pytest.approx(0.0)
        assert replay_regret(StaticSelector(slow), machines, r) \
            == pytest.approx(1.0)

    def test_unmeasured_choice_uses_pessimistic_bound(self, registry):
        spec = get_cluster("RI")
        machines = {(2, 4): Machine(spec, 2, 4)}
        reg = replay_regret(StaticSelector("never_measured"),
                            machines, _record())
        assert reg == pytest.approx(1.0)  # worst measured time
        assert registry.counters()["adapt.regret.unmeasured"] == 1


class TestDriftMonitor:
    def test_optimal_champion_is_stable(self, registry):
        fast, _ = _allgather_pair()
        monitor = DriftMonitor(StaticSelector(fast),
                               get_cluster("RI"))
        state = monitor.observe([_record(tick=i) for i in range(40)])
        assert not state.drift
        assert state.regret_model == pytest.approx(0.0)
        c = registry.counters()
        assert c["adapt.drift.windows"] == 1
        assert "adapt.drift.events" not in c

    def test_regret_shift_fires_drift(self, registry):
        fast, _ = _allgather_pair()
        # The fabric flips mid-window: the once-fast algorithm becomes
        # the slow one, so the static champion's regret jumps 0 -> 1.
        rows = [_record(tick=i) for i in range(30)] + \
               [_record(tick=30 + i, flip=True) for i in range(30)]
        monitor = DriftMonitor(StaticSelector(fast),
                               get_cluster("RI"))
        state = monitor.observe(rows)
        assert state.drift
        assert state.drift_at is not None and state.drift_at >= 30
        assert registry.counters()["adapt.drift.events"] == 1
        assert registry.gauge("adapt.drift.state").value == 1.0

    def test_observe_is_deterministic(self):
        fast, _ = _allgather_pair()
        rows = [_record(tick=i, flip=i >= 20) for i in range(40)]

        def run():
            monitor = DriftMonitor(StaticSelector(fast),
                                   get_cluster("RI"))
            return monitor.observe(rows).to_dict()

        assert run() == run()


# ---------------------------------------------------------------------------
# Sign test + shadow evaluation
# ---------------------------------------------------------------------------

class TestSignTest:
    def test_exact_values(self):
        assert sign_test_p(0, 0) == 1.0
        assert sign_test_p(5, 0) == pytest.approx(1 / 32)
        assert sign_test_p(4, 1) == pytest.approx(6 / 32)
        assert sign_test_p(0, 5) == pytest.approx(1.0)
        assert sign_test_p(10, 10) == pytest.approx(
            sum(__import__("math").comb(20, k)
                for k in range(10, 21)) / 2 ** 20)

    def test_more_wins_is_stronger_evidence(self):
        assert sign_test_p(9, 1) < sign_test_p(6, 4)


class TestShadowEvaluate:
    def test_dominant_challenger_promotes(self, registry):
        fast, slow = _allgather_pair()
        rows = [_record(tick=i) for i in range(20)]
        report = shadow_evaluate(StaticSelector(slow),
                                 StaticSelector(fast), rows,
                                 get_cluster("RI"))
        assert report.promote
        assert report.wins == 20 and report.losses == 0
        assert report.champion_regret == pytest.approx(1.0)
        assert report.challenger_regret == pytest.approx(0.0)
        assert report.p_value < 1e-5
        c = registry.counters()
        assert c["adapt.gate.evaluations"] == 1
        assert c["adapt.gate.accepted"] == 1
        # Both replay streams ran behind their own guard namespace.
        assert c["guard.champion.queries"] == 20
        assert c["guard.challenger.queries"] == 20

    def test_identical_selectors_tie_and_reject(self, registry):
        fast, _ = _allgather_pair()
        rows = [_record(tick=i) for i in range(10)]
        report = shadow_evaluate(StaticSelector(fast),
                                 StaticSelector(fast), rows,
                                 get_cluster("RI"))
        assert not report.promote
        assert report.ties == 10
        assert report.p_value == 1.0
        assert registry.counters()["adapt.gate.rejected"] == 1

    def test_empty_holdout_rejects(self, registry):
        fast, slow = _allgather_pair()
        report = shadow_evaluate(StaticSelector(slow),
                                 StaticSelector(fast), [],
                                 get_cluster("RI"))
        assert not report.promote
        assert report.detail == "no held-out rows"

    def test_insufficient_evidence_rejects(self, registry):
        # Two wins is a real improvement but p = 0.25 > alpha.
        fast, slow = _allgather_pair()
        rows = [_record(tick=i) for i in range(2)]
        report = shadow_evaluate(StaticSelector(slow),
                                 StaticSelector(fast), rows,
                                 get_cluster("RI"))
        assert not report.promote
        assert "inconclusive" in report.detail


# ---------------------------------------------------------------------------
# Challenger training: merge + lineage
# ---------------------------------------------------------------------------

class TestMergeFeedback:
    def test_feedback_replaces_matching_cell(self):
        old = CollectiveRecord(cluster="RI", collective="allgather",
                               nodes=2, ppn=4, msg_size=1024,
                               times={"ring": 9e-5})
        base_ds = TuningDataset([old])
        merged = merge_feedback(base_ds, [_record(tick=1)])
        assert len(merged) == 1
        assert merged.records[0].times == _record(tick=1).times

    def test_novel_cells_extend_and_later_ticks_win(self):
        base_ds = TuningDataset([])
        early, late = _record(tick=1), _record(tick=2, flip=True)
        other = _record(tick=3, msg_size=4096)
        merged = merge_feedback(base_ds, [early, late, other])
        assert len(merged) == 2
        by_size = {r.msg_size: r for r in merged.records}
        assert by_size[1024].times == late.times


@pytest.mark.drift
class TestTrainChallenger:
    def test_lineage_metadata_and_feedback_scope(self):
        rows = [_record(tick=t, msg_size=1 << (6 + t)) for t in
                range(1, 6)]
        challenger = train_challenger(
            TuningDataset([]), rows, seed=3,
            params={"n_estimators": 4},
            parent_checksum="crc32:deadbeef")
        assert list(challenger.models) == ["allgather"]
        lineage = challenger.models["allgather"].metadata["lineage"]
        assert lineage["parent_checksum"] == "crc32:deadbeef"
        assert lineage["feedback_rows"] == 5
        assert lineage["base_rows"] == 0
        assert (lineage["tick_lo"], lineage["tick_hi"]) == (1, 5)
        assert lineage["seed"] == 3

    def test_no_feedback_collectives_raises(self):
        with pytest.raises(ValueError, match="no collectives"):
            train_challenger(TuningDataset([]), [])

    def test_graft_preserves_champion_coverage(self, registry):
        # Champion serves two collectives; drift feedback only covers
        # allgather.  The grafted challenger must keep serving bcast
        # with the champion's model, not drop it to the heuristic
        # floor via KeyError.
        bcast_names = sorted(base.algorithm_names("bcast"))
        bcast_rows = [FeedbackRecord(
            cluster="RI", collective="bcast", nodes=2, ppn=4,
            msg_size=1 << (6 + t), algorithm=bcast_names[0],
            times={bcast_names[0]: 1e-5, bcast_names[1]: 2e-5},
            tick=t) for t in range(1, 6)]
        ag_rows = [_record(tick=t, msg_size=1 << (6 + t))
                   for t in range(1, 6)]
        params = {"n_estimators": 4}
        champion = train_challenger(TuningDataset([]),
                                    ag_rows + bcast_rows, params=params)
        assert set(champion.models) == {"allgather", "bcast"}
        challenger = train_challenger(TuningDataset([]), ag_rows,
                                      params=params)
        assert set(challenger.models) == {"allgather"}
        grafted = graft_champion_models(challenger, champion)
        assert set(grafted.models) == {"allgather", "bcast"}
        assert grafted.models["allgather"] is challenger.models[
            "allgather"]
        assert grafted.models["bcast"] is champion.models["bcast"]
        assert registry.counters()["adapt.challengers.grafted"] == 1
        # Full coverage is a no-op (and no spurious counter).
        assert graft_champion_models(champion, challenger) is champion


# ---------------------------------------------------------------------------
# Champion/challenger gate transaction
# ---------------------------------------------------------------------------

class TestGateTransaction:
    def _gate(self, tmp_path, registry):
        serving = tmp_path / "bundle.json"
        serving.write_text("CHAMPION")
        gate = ChampionChallengerGate(serving, tmp_path / "state",
                                      registry=registry)
        return serving, gate

    def test_promote_swaps_and_backs_up(self, tmp_path, registry):
        serving, gate = self._gate(tmp_path, registry)
        staged = tmp_path / "challenger.json"
        staged.write_text("CHALLENGER")
        gate.promote(staged, tick=5)
        assert serving.read_text() == "CHALLENGER"
        assert gate.backup_path.read_text() == "CHAMPION"
        assert not gate.sentinel_path.exists()
        assert not staged.exists()
        assert registry.counters()["adapt.gate.promoted"] == 1

    def test_recover_noop_without_sentinel(self, tmp_path, registry):
        _, gate = self._gate(tmp_path, registry)
        assert gate.recover() is None
        assert "adapt.gate.recovered" not in registry.counters()

    def test_recover_pre_swap_just_clears_sentinel(self, tmp_path,
                                                   registry):
        serving, gate = self._gate(tmp_path, registry)
        gate.state_dir.mkdir(parents=True, exist_ok=True)
        # Sentinel written, but the rename never happened: the serving
        # checksum still differs from the recorded challenger's.
        gate.sentinel_path.write_text(json.dumps(
            {"challenger_checksum": "crc32:eeeeeeee",
             "champion_checksum": "crc32:11111111", "tick": 1}))
        detail = gate.recover()
        assert "pre-swap" in detail
        assert serving.read_text() == "CHAMPION"  # untouched
        assert not gate.sentinel_path.exists()
        assert registry.counters()["adapt.gate.recovered"] == 1

    def test_recover_post_swap_restores_champion(self, tmp_path,
                                                 registry):
        from repro.serve.reload import file_crc32

        serving, gate = self._gate(tmp_path, registry)
        gate.state_dir.mkdir(parents=True, exist_ok=True)
        gate.backup_path.write_text("CHAMPION")
        serving.write_text("CHALLENGER")  # the swap happened...
        gate.sentinel_path.write_text(json.dumps(
            {"challenger_checksum": file_crc32(serving),
             "champion_checksum": "crc32:11111111", "tick": 1}))
        detail = gate.recover()              # ...then the process died
        assert "restored champion" in detail
        assert serving.read_text() == "CHAMPION"
        quarantined = [p for p in tmp_path.iterdir()
                       if ".corrupt" in p.name]
        assert len(quarantined) == 1
        assert quarantined[0].read_text() == "CHALLENGER"
        c = registry.counters()
        assert c["adapt.gate.recovered"] == 1
        assert c["adapt.gate.quarantined"] == 1

    def test_recover_unreadable_sentinel_is_conservative(self,
                                                         tmp_path,
                                                         registry):
        serving, gate = self._gate(tmp_path, registry)
        gate.state_dir.mkdir(parents=True, exist_ok=True)
        gate.backup_path.write_text("CHAMPION")
        serving.write_text("HALF-PROMOTED")
        gate.sentinel_path.write_text("{ torn write")
        gate.recover()
        # Serving differed from backup: quarantine + restore.
        assert serving.read_text() == "CHAMPION"
        assert registry.counters()["adapt.gate.quarantined"] == 1

    def test_demote_quarantines_and_restores(self, tmp_path, registry):
        serving, gate = self._gate(tmp_path, registry)
        gate.state_dir.mkdir(parents=True, exist_ok=True)
        gate.backup_path.write_text("CHAMPION")
        serving.write_text("REGRESSED")
        moved = gate.demote("probation regression")
        assert serving.read_text() == "CHAMPION"
        assert moved.read_text() == "REGRESSED"
        c = registry.counters()
        assert c["adapt.gate.demoted"] == 1
        assert c["adapt.gate.quarantined"] == 1

    def test_demote_without_backup_refuses(self, tmp_path, registry):
        serving, gate = self._gate(tmp_path, registry)
        with pytest.raises(FileNotFoundError, match="no champion"):
            gate.demote("nothing to restore")
        assert serving.read_text() == "CHAMPION"

    def test_promote_falls_back_on_cross_device_rename(
            self, tmp_path, registry, monkeypatch):
        import errno
        import os as os_mod

        serving, gate = self._gate(tmp_path, registry)
        staged = tmp_path / "challenger.json"
        staged.write_text("CHALLENGER")
        real_replace = os_mod.replace

        def exdev_on_swap(src, dst, *a, **kw):
            if str(src) == str(staged) and str(dst) == str(serving):
                raise OSError(errno.EXDEV,
                              "Invalid cross-device link", str(src))
            return real_replace(src, dst, *a, **kw)

        monkeypatch.setattr(os_mod, "replace", exdev_on_swap)
        gate.promote(staged, tick=3)
        assert serving.read_text() == "CHALLENGER"
        assert gate.backup_path.read_text() == "CHAMPION"
        assert not gate.sentinel_path.exists()
        assert not staged.exists()
        assert registry.counters()["adapt.gate.promoted"] == 1


# ---------------------------------------------------------------------------
# AdaptationLoop state machine (no training needed)
# ---------------------------------------------------------------------------

def _loop(tmp_path, **overrides):
    kwargs = dict(cluster="RI", bundle_path=tmp_path / "bundle.json",
                  feedback_path=tmp_path / "fb.jsonl",
                  state_dir=tmp_path / "state")
    kwargs.update(overrides)
    return AdaptationLoop(AdaptConfig(**kwargs))


class TestAdaptConfig:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            AdaptConfig(cluster="RI", bundle_path="b", feedback_path="f",
                        state_dir="s", window=0)
        with pytest.raises(ValueError):
            AdaptConfig(cluster="RI", bundle_path="b", feedback_path="f",
                        state_dir="s", heldout_fraction=1.0)
        with pytest.raises(ValueError):
            AdaptConfig(cluster="RI", bundle_path="b", feedback_path="f",
                        state_dir="s", probation_rows=0)


class TestAdaptationLoopVerdicts:
    def test_no_feedback(self, tmp_path, registry):
        loop = _loop(tmp_path)
        report = loop.run_once()
        assert report.verdict == "no_feedback"
        assert loop.state_path.exists()
        assert loop.decision_log.exists()
        c = registry.counters()
        assert c["adapt.runs"] == 1
        assert c["adapt.verdict.no_feedback"] == 1

    def test_corrupt_feedback_quarantined_loop_survives(self, tmp_path,
                                                        registry):
        loop = _loop(tmp_path)
        loop.feedback.path.write_text("{ not json at all\n")
        report = loop.run_once()
        assert report.verdict == "no_feedback"
        assert report.quarantined is not None
        assert not loop.feedback.path.exists()
        assert registry.counters()["adapt.feedback.quarantined"] == 1

    def test_unreadable_champion_stays_stable(self, tmp_path,
                                              registry):
        loop = _loop(tmp_path)
        (tmp_path / "bundle.json").write_text("{ not a bundle")
        FeedbackLog(loop.feedback.path).append(
            [_record(tick=i) for i in range(5)])
        report = loop.run_once()
        assert report.verdict == "stable"
        assert "unreadable" in report.detail

    def test_probation_waits_for_enough_rows(self, tmp_path, registry):
        loop = _loop(tmp_path, probation_rows=10)
        loop.state_dir.mkdir(parents=True)
        loop.state_path.write_text(json.dumps(
            {"phase": "probation", "fence_tick": -1,
             "baseline_regret": 0.0}))
        FeedbackLog(loop.feedback.path).append(
            [_record(tick=i) for i in range(3)])
        report = loop.run_once()
        assert report.verdict == "probation_wait"
        assert report.phase == "probation"
        # The fence must NOT advance: these rows are still unjudged.
        assert report.fence_tick == -1

    def test_probation_unreadable_bundle_demotes(self, tmp_path,
                                                 registry):
        loop = _loop(tmp_path, probation_rows=2)
        loop.state_dir.mkdir(parents=True)
        loop.state_path.write_text(json.dumps(
            {"phase": "probation", "fence_tick": -1,
             "baseline_regret": 0.0}))
        (tmp_path / "bundle.json").write_text("{ regressed garbage")
        loop.gate.backup_path.write_text("CHAMPION")
        FeedbackLog(loop.feedback.path).append(
            [_record(tick=i) for i in range(3)])
        report = loop.run_once()
        assert report.verdict == "demoted"
        assert report.phase == "stable"
        assert (tmp_path / "bundle.json").read_text() == "CHAMPION"
        assert registry.counters()["adapt.verdict.demoted"] == 1

    def test_probation_missing_backup_resets_without_crashing(
            self, tmp_path, registry):
        # phase=probation but champion.backup.json is gone (quarantined
        # or hand-edited state): run_once must emit a verdict, not let
        # gate.demote's FileNotFoundError kill the --watch sidecar.
        loop = _loop(tmp_path, probation_rows=2)
        loop.state_dir.mkdir(parents=True)
        loop.state_path.write_text(json.dumps(
            {"phase": "probation", "fence_tick": -1,
             "baseline_regret": 0.0}))
        (tmp_path / "bundle.json").write_text("{ regressed garbage")
        FeedbackLog(loop.feedback.path).append(
            [_record(tick=i) for i in range(3)])
        report = loop.run_once()
        assert report.verdict == "demoted"
        assert report.phase == "stable"
        assert report.demoted is None
        assert "backup missing" in report.detail
        # Serving bundle kept: there was nothing to restore from.
        assert (tmp_path / "bundle.json").read_text() \
            == "{ regressed garbage"
        c = registry.counters()
        assert c["adapt.gate.demote_unrestorable"] == 1

    def test_recovery_runs_before_everything_else(self, tmp_path,
                                                  registry):
        loop = _loop(tmp_path)
        (tmp_path / "bundle.json").write_text("HALF-PROMOTED")
        loop.state_dir.mkdir(parents=True)
        loop.gate.backup_path.write_text("CHAMPION")
        loop.gate.sentinel_path.write_text("{ torn")
        report = loop.run_once()
        assert report.verdict == "recovered"
        assert (tmp_path / "bundle.json").read_text() == "CHAMPION"
        assert registry.counters()["adapt.verdict.recovered"] == 1

    def test_runs_partition_over_verdicts(self, tmp_path, registry):
        loop = _loop(tmp_path)
        for _ in range(3):
            loop.run_once()
        c = registry.counters()
        from repro.adapt import VERDICTS
        assert c["adapt.runs"] == 3
        assert sum(c.get(f"adapt.verdict.{v}", 0)
                   for v in VERDICTS) == 3


# ---------------------------------------------------------------------------
# End-to-end: drift -> challenger -> promote -> confirm, deterministic
# ---------------------------------------------------------------------------

@pytest.mark.drift
class TestAdaptationLoopEndToEnd:
    def test_drift_promotes_then_confirms_deterministically(
            self, tmp_path, registry):
        import shutil

        from repro.core.bundle import load_selector, save_selector
        from repro.core.chaos import (
            DRIFT_CONDITIONS_KW,
            synthesize_feedback,
            train_chaos_selector,
        )
        from repro.simcluster.conditions import NetworkConditions

        bundle = tmp_path / "bundle.json"
        save_selector(train_chaos_selector(seed=0)[1], bundle)
        champion_bytes = bundle.read_bytes()
        spec = get_cluster("RI")
        drifted = NetworkConditions(**DRIFT_CONDITIONS_KW)
        records, tick = synthesize_feedback(
            spec, load_selector(bundle), conditions=drifted,
            tick0=0, repeat=3)
        feedback_path = tmp_path / "fb.jsonl"
        FeedbackLog(feedback_path).append(records)
        fb_stage1 = feedback_path.read_bytes()

        def make_loop(root, fb=feedback_path):
            return AdaptationLoop(AdaptConfig(
                cluster="RI", bundle_path=root / "bundle.json",
                feedback_path=fb,
                state_dir=root / "state", window=600,
                model_params={"n_estimators": 8}, seed=0,
                probation_rows=20))

        loop = make_loop(tmp_path)
        promoted = loop.run_once()
        assert promoted.verdict == "promoted", promoted.detail
        assert promoted.phase == "probation"
        assert bundle.read_bytes() != champion_bytes
        assert loop.gate.backup_path.read_bytes() == champion_bytes
        lineage = load_selector(bundle).models[
            records[0].collective].metadata["lineage"]
        assert lineage["parent_checksum"] is not None

        # Probation: feedback measured under the same drifted fabric
        # confirms the challenger (it was trained on exactly that).
        more, _ = synthesize_feedback(
            spec, load_selector(bundle), conditions=drifted,
            tick0=tick, repeat=1)
        FeedbackLog(feedback_path).append(more)
        confirmed = loop.run_once()
        assert confirmed.verdict == "confirmed", confirmed.detail
        assert confirmed.phase == "stable"

        # Determinism: a fresh fold over the same feedback states from
        # the same champion produces a byte-identical decision log and
        # bundle.
        replica = tmp_path / "replica"
        replica.mkdir()
        (replica / "bundle.json").write_bytes(champion_bytes)
        (replica / "fb.jsonl").write_bytes(fb_stage1)
        rloop = make_loop(replica, fb=replica / "fb.jsonl")
        rloop.run_once()
        (replica / "fb.jsonl").write_bytes(feedback_path.read_bytes())
        rloop.run_once()
        assert (replica / "state" / "adapt_decisions.jsonl") \
            .read_bytes() == loop.decision_log.read_bytes()
        assert (replica / "bundle.json").read_bytes() == \
            bundle.read_bytes()
        shutil.rmtree(replica)
