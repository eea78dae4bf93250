"""Active-learning collection: differential, property and cache tests.

The differential suite holds ``run_active_collection`` to the ISSUE's
acceptance bar on a fixed small cluster pair (RI + Ray): within 2 % of
the exhaustive sweep's test accuracy on all three paper splits while
spending at most half its simulated core-hours, with byte-identical
benchmark schedules and decision logs for the same seed.

The property suite pins the ledger invariants: no configuration is
ever benchmarked twice, spending is monotone and never overshoots the
budget, and a smaller budget's schedule is a strict prefix of a larger
one's (denial happens before charging, so the loop walks one
deterministic schedule and merely stops earlier).

The cache suite covers the quarantine ladder for digest collisions: a
cache file whose ``__meta__`` carries a different full campaign key —
e.g. an active run colliding with an exhaustive sweep's CRC-32 file
name — is quarantined, never silently served.
"""

import numpy as np
import pytest

from repro.active import (
    ActiveConfig,
    BudgetExceededError,
    Candidate,
    CoreHourLedger,
    build_pool,
    dataset_core_hours,
    run_active_collection,
    stratified_seed,
)
from repro.active.acquire import estimated_core_hours
from repro.core.dataset import (
    TuningDataset,
    collect_dataset,
    dataset_cache_key,
    dataset_cache_path,
    load_cached_dataset,
)
from repro.core import dataset as dataset_mod
from repro.core.splits import split_dataset
from repro.core.training import train_model
from repro.hwmodel.registry import get_cluster
from repro.ml.uncertainty import (
    acquisition_order,
    prediction_margin,
    vote_entropy,
)
from repro.obs.telemetry import use_telemetry

pytestmark = pytest.mark.active

#: The fixed small cluster pair and collectives of the differential
#: suite; its random split is the gated active-collection campaign.
PAIR = ("RI", "Ray")
PAIR_COLLECTIVES = ("allgather", "alltoall")

#: The paper's three split methodologies, sized for the pair (node
#: counts only reach 8, so the scale split trains on <= 4).
SPLITS = [
    ("random", {}),
    ("cluster", {"test_clusters": ("Ray",)}),
    ("node", {"max_train_nodes": 4}),
]


def _pair_clusters():
    return [get_cluster(name) for name in PAIR]


def _pool_of(records) -> list[Candidate]:
    return [Candidate(r.cluster, r.collective, r.nodes, r.ppn,
                      r.msg_size) for r in records]


@pytest.fixture(scope="module")
def pair_dataset():
    return collect_dataset(clusters=_pair_clusters(),
                           collectives=PAIR_COLLECTIVES)


@pytest.fixture(scope="module")
def ri_allgather_pool():
    return build_pool([get_cluster("RI")], ("allgather",))


def _split_accuracy(train_ds, test_ds, collectives) -> float:
    """Test accuracy of per-collective models fit on *train_ds*.

    Records are trained in canonical (cluster, collective, nodes, ppn,
    msg) order so exhaustive and active campaigns — which benchmark
    the same configs in different orders — fit identical forests."""
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


def _run(pool, **config_kwargs):
    return run_active_collection(
        clusters=_pair_clusters(), collectives=PAIR_COLLECTIVES,
        config=ActiveConfig(**config_kwargs), pool=pool,
        use_cache=False)


class TestUncertainty:
    def test_vote_entropy_uniform_is_maximal(self):
        proba = np.array([[0.25, 0.25, 0.25, 0.25],
                          [1.0, 0.0, 0.0, 0.0],
                          [0.5, 0.5, 0.0, 0.0]])
        entropy = vote_entropy(proba)
        assert entropy[0] == pytest.approx(np.log(4))
        assert entropy[1] == pytest.approx(0.0)
        assert entropy[2] == pytest.approx(np.log(2))
        assert entropy[0] > entropy[2] > entropy[1]

    def test_vote_entropy_normalizes_rows(self):
        assert vote_entropy(np.array([[2.0, 2.0]]))[0] == \
            pytest.approx(np.log(2))

    def test_prediction_margin(self):
        proba = np.array([[0.6, 0.3, 0.1], [0.4, 0.4, 0.2]])
        margin = prediction_margin(proba)
        assert margin[0] == pytest.approx(0.3)
        assert margin[1] == pytest.approx(0.0)

    def test_single_class_matrix_is_confident(self):
        assert prediction_margin(np.array([[1.0]]))[0] == 1.0

    def test_acquisition_order_deterministic_tiebreak(self):
        proba = np.array([[0.5, 0.5], [0.5, 0.5], [0.9, 0.1]])
        order = acquisition_order(proba)
        assert list(order) == [0, 1, 2]

    def test_rejects_malformed_input(self):
        with pytest.raises(ValueError):
            vote_entropy(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            prediction_margin(np.array([[0.5, float("nan")]]))
        with pytest.raises(ValueError):
            vote_entropy(np.array([[-0.5, 1.5]]))


class TestStratifiedSeed:
    def test_every_job_shape_represented(self, ri_allgather_pool):
        pool = ri_allgather_pool
        indices = stratified_seed(pool, 0.2, seed=0)
        seeded_shapes = {(pool[i].cluster, pool[i].collective,
                          pool[i].nodes, pool[i].ppn) for i in indices}
        all_shapes = {(c.cluster, c.collective, c.nodes, c.ppn)
                      for c in pool}
        assert seeded_shapes == all_shapes

    def test_indices_sorted_and_unique(self, ri_allgather_pool):
        indices = stratified_seed(ri_allgather_pool, 0.3, seed=3)
        assert indices == sorted(set(indices))

    def test_fraction_validated(self, ri_allgather_pool):
        with pytest.raises(ValueError):
            stratified_seed(ri_allgather_pool, 0.0)
        with pytest.raises(ValueError):
            stratified_seed(ri_allgather_pool, 1.5)

    def test_cost_tail_excluded_with_specs(self):
        clusters = _pair_clusters()
        pool = build_pool(clusters, PAIR_COLLECTIVES)
        specs = {s.name: s for s in clusters}
        costs = [estimated_core_hours(specs[c.cluster], c.collective,
                                      c.nodes, c.ppn, c.msg_size)
                 for c in pool]
        cap = 0.01 * sum(costs)
        indices = stratified_seed(pool, 0.2, seed=0, specs=specs)
        assert indices, "seed must not be empty"
        assert all(costs[i] <= cap for i in indices)


class TestCoreHourLedger:
    def test_charge_is_monotone(self):
        ledger = CoreHourLedger(limit_core_h=1.0)
        for cost in (0.1, 0.2, 0.3):
            ledger.charge(cost)
        assert ledger.history == pytest.approx([0.1, 0.3, 0.6])
        assert all(b > a for a, b in zip(ledger.history,
                                         ledger.history[1:]))

    def test_never_overshoots(self):
        ledger = CoreHourLedger(limit_core_h=0.5)
        ledger.charge(0.4)
        assert not ledger.can_afford(0.2)
        with pytest.raises(BudgetExceededError):
            ledger.charge(0.2)
        assert ledger.spent_core_h == pytest.approx(0.4)

    def test_unlimited_ledger(self):
        ledger = CoreHourLedger()
        assert ledger.unlimited
        assert ledger.remaining() == float("inf")
        assert ledger.can_afford(1e9)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            CoreHourLedger(limit_core_h=-1.0)
        with pytest.raises(ValueError):
            CoreHourLedger(1.0).can_afford(-0.1)


class TestActiveConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ActiveConfig(seed_fraction=0.0)
        with pytest.raises(ValueError):
            ActiveConfig(val_fraction=1.0)
        with pytest.raises(ValueError):
            ActiveConfig(batch_size=0)
        with pytest.raises(ValueError):
            ActiveConfig(budget_fraction=0.0)
        with pytest.raises(ValueError):
            ActiveConfig(plateau_patience=0)

    def test_cache_suffix_encodes_trajectory(self):
        a = ActiveConfig()
        b = ActiveConfig(seed=1)
        c = ActiveConfig(budget_core_h=0.5)
        d = ActiveConfig(budget_fraction=0.5)
        suffixes = {cfg.cache_suffix() for cfg in (a, b, c, d)}
        assert len(suffixes) == 4


class TestDifferential:
    """The ISSUE acceptance bar, per split."""

    @pytest.mark.parametrize("method,kwargs", SPLITS,
                             ids=[m for m, _ in SPLITS])
    def test_matches_exhaustive_within_two_percent(self, pair_dataset,
                                                   method, kwargs):
        train_ds, test_ds = split_dataset(pair_dataset, method, **kwargs)
        result = _run(_pool_of(train_ds.records))

        exhaustive_acc = _split_accuracy(train_ds, test_ds,
                                         PAIR_COLLECTIVES)
        active_acc = _split_accuracy(result.dataset, test_ds,
                                     PAIR_COLLECTIVES)
        gap = exhaustive_acc - active_acc
        assert gap <= 0.02, (
            f"{method} split: active accuracy {active_acc:.4f} trails "
            f"exhaustive {exhaustive_acc:.4f} by {gap:.4f} (> 2 %)")

        exhaustive_ch = dataset_core_hours(train_ds.records)
        assert result.core_hours <= 0.5 * exhaustive_ch, (
            f"{method} split: active spent {result.core_hours:.4f} "
            f"core-h, more than half of the exhaustive "
            f"{exhaustive_ch:.4f}")
        assert result.stop_reason in ("plateau", "budget")

    def test_same_seed_byte_identical(self, pair_dataset):
        train_ds, _ = split_dataset(pair_dataset, "cluster",
                                    test_clusters=("Ray",))
        pool = _pool_of(train_ds.records)
        first = _run(pool, seed=5)
        second = _run(pool, seed=5)
        assert first.schedule == second.schedule
        assert first.decision_log_text() == second.decision_log_text()
        assert [r.__dict__ for r in first.dataset.records] == \
            [r.__dict__ for r in second.dataset.records]

    def test_schedule_is_deterministic_in_the_seed_only(
            self, pair_dataset):
        """Seeds index distinct trajectories; everything else is pure."""
        train_ds, _ = split_dataset(pair_dataset, "random")
        pool = _pool_of(train_ds.records)
        a = _run(pool, seed=0, max_rounds=2)
        b = _run(pool, seed=1, max_rounds=2)
        assert a.schedule[:a.seeded] != b.schedule[:b.seeded]


class TestProperties:
    def test_no_config_benchmarked_twice(self, ri_allgather_pool):
        result = _run(ri_allgather_pool, budget_fraction=None)
        assert len(result.schedule) == len(set(result.schedule))
        record_keys = [(r.cluster, r.collective, r.nodes, r.ppn,
                        r.msg_size) for r in result.dataset.records]
        assert len(record_keys) == len(set(record_keys))

    def test_budget_monotone_and_never_overshot(self, ri_allgather_pool):
        budget = 0.0008
        result = _run(ri_allgather_pool, budget_core_h=budget,
                      budget_fraction=None)
        history = result.budget_history
        assert history, "a budget run must charge something"
        assert all(b > a for a, b in zip(history, history[1:]))
        assert history[-1] <= budget
        assert result.core_hours == pytest.approx(history[-1])
        assert result.stop_reason == "budget"
        assert result.denied == 1

    def test_shrinking_budget_yields_schedule_prefix(
            self, ri_allgather_pool):
        budgets = [0.0004, 0.0008, 0.0016, None]
        schedules = [
            _run(ri_allgather_pool, budget_core_h=b,
                 budget_fraction=None).schedule
            for b in budgets
        ]
        for smaller, larger in zip(schedules, schedules[1:]):
            assert len(smaller) <= len(larger)
            assert larger[:len(smaller)] == smaller
        assert len(schedules[0]) < len(schedules[-1])

    def test_counters_partition_the_schedule(self, ri_allgather_pool):
        with use_telemetry() as (_, registry):
            result = _run(ri_allgather_pool, budget_fraction=None)
        counters = registry.counters()
        assert counters["collect.active.seeded"] == result.seeded
        assert counters["collect.active.acquired"] == result.acquired
        assert counters.get("collect.active.dropped", 0) == \
            result.dropped
        # Every attempted config is exactly one of seeded / acquired /
        # dropped; denied configs never ran and are not in the schedule.
        assert result.seeded + result.acquired + result.dropped == \
            len(result.schedule)
        assert result.seeded + result.acquired == len(result.dataset)

    def test_dropped_configs_stay_in_schedule(self, ri_allgather_pool):
        from repro.core.resilience import RetryPolicy
        from repro.simcluster.conditions import FaultProfile

        faults = FaultProfile(failure_rate=0.4, seed=1)
        retry = RetryPolicy(max_attempts=1, base_delay_s=0.0,
                            jitter=0.0)
        result = run_active_collection(
            clusters=[get_cluster("RI")], collectives=("allgather",),
            config=ActiveConfig(budget_fraction=None),
            pool=ri_allgather_pool, faults=faults, retry=retry,
            use_cache=False)
        assert result.dropped > 0
        assert len(result.schedule) == \
            len(result.dataset) + result.dropped


class TestActiveCache:
    def test_cache_roundtrip(self, tmp_path):
        kwargs = dict(clusters=[get_cluster("RI")],
                      collectives=("allgather",),
                      config=ActiveConfig(),
                      cache_dir=tmp_path)
        first = run_active_collection(**kwargs)
        assert not first.cached
        second = run_active_collection(**kwargs)
        assert second.cached
        assert second.schedule == first.schedule
        assert second.decisions == first.decisions
        assert second.core_hours == pytest.approx(first.core_hours)
        assert second.stop_reason == first.stop_reason
        assert [r.__dict__ for r in second.dataset.records] == \
            [r.__dict__ for r in first.dataset.records]

    def test_collision_with_exhaustive_key_quarantined(
            self, tmp_path, monkeypatch):
        """An active cache key whose CRC-32 digest collides with an
        exhaustive sweep's must be quarantined on load, not served."""
        monkeypatch.setattr(dataset_mod, "_cache_digest",
                            lambda key: 0xC0111DED)
        clusters = [get_cluster("RI")]
        exhaustive = collect_dataset(clusters=clusters,
                                     collectives=("allgather",),
                                     cache_dir=tmp_path)
        exhaustive_key = dataset_cache_key(clusters, ("allgather",))
        active_key = dataset_cache_key(
            clusters, ("allgather",),
            suffix=ActiveConfig().cache_suffix())
        path = dataset_cache_path(exhaustive_key, tmp_path)
        assert path == dataset_cache_path(active_key, tmp_path)
        assert path.exists()

        with use_telemetry() as (_, registry):
            loaded = load_cached_dataset(path, active_key)
        assert loaded is None
        counters = registry.counters()
        assert counters["collect.cache_key_mismatch"] == 1
        assert counters["collect.cache_quarantined"] == 1
        assert not path.exists()
        assert list(tmp_path.glob("*.corrupt*"))

        # The exhaustive campaign re-collects cleanly afterwards.
        recollected = collect_dataset(clusters=clusters,
                                      collectives=("allgather",),
                                      cache_dir=tmp_path)
        assert [r.__dict__ for r in recollected.records] == \
            [r.__dict__ for r in exhaustive.records]

    def test_active_cache_collision_survives_end_to_end(
            self, tmp_path, monkeypatch):
        """Full-loop version: the active run finds the exhaustive
        cache squatting on its digest, quarantines it, re-runs the
        acquisition loop, and leaves its own cache behind."""
        monkeypatch.setattr(dataset_mod, "_cache_digest",
                            lambda key: 0xDEADBEEF)
        clusters = [get_cluster("RI")]
        collect_dataset(clusters=clusters, collectives=("allgather",),
                        cache_dir=tmp_path)
        result = run_active_collection(clusters=clusters,
                                       collectives=("allgather",),
                                       config=ActiveConfig(),
                                       cache_dir=tmp_path)
        assert not result.cached
        assert list(tmp_path.glob("*.corrupt*"))
        replay = run_active_collection(clusters=clusters,
                                       collectives=("allgather",),
                                       config=ActiveConfig(),
                                       cache_dir=tmp_path)
        assert replay.cached
        assert replay.schedule == result.schedule

    def test_full_key_stored_in_meta(self, tmp_path):
        clusters = [get_cluster("RI")]
        run_active_collection(clusters=clusters,
                              collectives=("allgather",),
                              config=ActiveConfig(),
                              cache_dir=tmp_path)
        key = dataset_cache_key(clusters, ("allgather",),
                                suffix=ActiveConfig().cache_suffix())
        dataset = TuningDataset.load(dataset_cache_path(key, tmp_path))
        assert dataset.meta["cache_key"] == key
        assert dataset.meta["active"]["stop_reason"] in (
            "plateau", "budget", "exhausted", "max_rounds")


class TestDoctor:
    def test_decision_log_is_a_recognized_artifact(self, tmp_path):
        from repro.core.framework import diagnose_artifact

        clusters = [get_cluster("RI")]
        pool = build_pool(clusters, ("allgather",))
        result = run_active_collection(clusters=clusters,
                                       collectives=("allgather",),
                                       config=ActiveConfig(),
                                       pool=pool, use_cache=False)
        log = tmp_path / "decisions.jsonl"
        log.write_text(result.decision_log_text())
        check = diagnose_artifact(log)
        assert check.kind == "decision-log"
        assert check.status == "ok"

        torn = tmp_path / "decisions_torn.jsonl"
        torn.write_text('{"round": 1}\n{ torn')
        assert diagnose_artifact(torn).status == "corrupt"


class TestCli:
    def test_collect_active_cli(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("PML_MPI_CACHE", str(tmp_path / "cache"))
        log_path = tmp_path / "decisions.jsonl"
        out_path = tmp_path / "dataset.jsonl.gz"
        rc = main(["collect", "--active", "--clusters", "RI",
                   "--collectives", "allgather",
                   "--decision-log", str(log_path),
                   "--output", str(out_path), "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "active collection" in out
        assert "stop:" in out
        import json
        decisions = [json.loads(line)
                     for line in log_path.read_text().splitlines()]
        assert decisions and all("round" in d for d in decisions)
        assert TuningDataset.load(out_path).records
