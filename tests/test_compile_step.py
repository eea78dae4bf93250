"""The compile step's two fast paths against their oracles.

``Machine.evaluate`` prices a schedule in one segmented NumPy pass; its
oracle is the per-round sum of ``Machine.round_time``.  A forest grows
its trees in lockstep; its oracle is ``DecisionTreeClassifier.fit`` on
each tree's draw.  Both must agree exactly (``==``, byte for byte), and
both must stay clearly cheaper than their oracle.
"""

import gc
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core import collect_dataset
from repro.core.dataset import TuningDataset, feasible_configs
from repro.core.splits import split_dataset
from repro.hwmodel import all_clusters, get_cluster
from repro.ml import forest as forest_mod
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.simcluster import machine as machine_mod
from repro.simcluster.conditions import (
    NetworkConditions,
    machine_with_conditions,
)
from repro.simcluster.machine import Machine, Round
from repro.smpi.collectives import base
from repro.smpi.tuning import clear_measurement_cache

from .timing import best_interleaved

GOLDEN = Path(__file__).parent / "golden" / "mini_dataset.jsonl.gz"

#: Floor of both fast paths' speedup over their oracle.  Measured on a
#: 2-vCPU host: one-pass pricing about 3.6x over RI+Ray's schedules,
#: lockstep fitting about 4x on the training split.
MIN_SPEEDUP = 1.8


def round_by_round(machine, schedule):
    return sum(machine.round_time(r) * r.repeat for r in schedule)


# ---------------------------------------------------------------------------
# One-pass pricing
# ---------------------------------------------------------------------------

class TestOnePassPricing:
    def test_every_algorithm_on_every_cluster(self):
        """A seeded configuration per (cluster, collective, algorithm),
        up to 300 ranks."""
        rng = random.Random(0)
        priced = 0
        for spec in all_clusters():
            for collective in base.ALL_COLLECTIVES:
                configs = [c for c in feasible_configs(spec, collective)
                           if c[0] * c[1] <= 300]
                for algo in base.algorithms(collective).values():
                    nodes, ppn, msg = rng.choice(configs)
                    m = Machine(spec, nodes, ppn)
                    schedule = algo.schedule(m, msg)
                    assert m.evaluate(schedule) \
                        == round_by_round(m, schedule), \
                        (spec.name, collective, algo.name, nodes, ppn, msg)
                    priced += 1
        assert priced >= 18 * len(base.ALL_COLLECTIVES) * 3

    def test_single_rank_and_empty_schedules_cost_zero(self):
        spec = get_cluster("RI")
        solo = Machine(spec, 1, 1)
        for collective in base.ALL_COLLECTIVES:
            for algo in base.algorithms(collective).values():
                schedule = algo.schedule(solo, 1024)
                assert solo.evaluate(schedule) == 0 \
                    == round_by_round(solo, schedule)
        assert Machine(spec, 2, 4).evaluate([]) == 0

    @pytest.mark.parametrize("nodes, ppn", [(1, 8), (4, 1), (4, 4)])
    def test_hand_built_rounds(self, nodes, ppn):
        """Copy-only, intra-only, inter-only and mixed rounds, eager and
        rendezvous sizes, ``repeat > 1``, repeated ranks in one round."""
        m = Machine(get_cluster("Ray"), nodes, ppn)
        p = m.p
        rng = np.random.default_rng(nodes * 10 + ppn)
        rounds = [Round(src=[], dst=[], size=[],
                        copy_ranks=[0, 0, p - 1],
                        copy_bytes=[10.0, 3e6, 64.0])]
        for _ in range(12):
            count = int(rng.integers(1, 4 * p))
            src = rng.integers(0, p, count)
            dst = (src + rng.integers(1, p, count)) % p
            size = rng.choice([8.0, 16384.0, 16385.0, 65537.0, 4e6],
                              count)
            copies = rng.integers(0, p, int(rng.integers(0, 3)))
            rounds.append(Round(src, dst, size, copy_ranks=copies,
                                copy_bytes=np.full(len(copies), 512.0),
                                repeat=int(rng.integers(1, 4))))
        assert m.evaluate(rounds) == round_by_round(m, rounds)
        for rnd in rounds:
            assert m.evaluate([rnd]) == m.round_time(rnd) * rnd.repeat

    def test_schedule_spanning_several_chunks(self, monkeypatch):
        m = Machine(get_cluster("Ray"), 8, 8)
        calls = []
        price = Machine._price_rounds
        monkeypatch.setattr(machine_mod, "EVALUATE_CHUNK_ENTRIES", 600)
        monkeypatch.setattr(
            Machine, "_price_rounds",
            lambda self, rounds: calls.append(len(rounds))
            or price(self, rounds))
        for name in ("pairwise", "bruck", "scatter_dest"):
            schedule = base.get_algorithm("alltoall", name).schedule(
                m, 4096)
            assert m.evaluate(schedule) == round_by_round(m, schedule)
        assert len(calls) > 3 and max(calls) > 1

    def test_many_nodes(self):
        """1,024 single-rank nodes: one (round, node) bin per rank in
        the NIC loads and the distinct-peer counts."""
        m = Machine(get_cluster("Frontera"), 1024, 1)
        for name in ("bruck", "pairwise"):
            schedule = base.get_algorithm("alltoall", name).schedule(m, 64)
            assert m.evaluate(schedule) == round_by_round(m, schedule)

    def test_degraded_machines(self):
        spec = get_cluster("Ray")
        clean = Machine(spec, 4, 8)
        conditions = NetworkConditions(background_load=0.9,
                                       latency_jitter=4.0,
                                       link_width_factor=0.125)
        m = machine_with_conditions(clean, conditions)
        assert m.params != clean.params
        for collective in base.COLLECTIVES:
            for algo in base.algorithms(collective).values():
                schedule = algo.schedule(m, 65536)
                assert m.evaluate(schedule) == round_by_round(m, schedule)

    def test_collection_matches_round_by_round(self, tmp_path,
                                               monkeypatch):
        """RI+Ray's whole campaign: the same records, bit for bit."""
        clusters = [get_cluster("RI"), get_cluster("Ray")]

        def collect(cache):
            clear_measurement_cache()
            return collect_dataset(clusters, cache_dir=tmp_path / cache,
                                   use_cache=False).records

        fast = collect("fast")
        monkeypatch.setattr(Machine, "evaluate", round_by_round)
        reference = collect("reference")
        clear_measurement_cache()
        assert len(fast) == 588
        assert fast == reference


# ---------------------------------------------------------------------------
# Lockstep growth
# ---------------------------------------------------------------------------

def reference_trees(forest, X, y):
    """Each tree of *forest*'s draws fitted on its own, widened to the
    forest's classes as the forest reports them."""
    classes, y_enc = np.unique(y, return_inverse=True)
    trees = []
    for idx, seed in forest._draws(len(X)):
        tree = DecisionTreeClassifier(
            random_state=seed, **forest._tree_params()).fit(X[idx],
                                                            y_enc[idx])
        full = np.zeros((len(tree.values_), len(classes)))
        full[:, tree.classes_] = tree.values_
        tree.values_ = full
        tree.classes_ = np.arange(len(classes))
        trees.append(tree)
    return trees


def assert_same_trees(fitted, reference):
    assert len(fitted) == len(reference)
    for i, (a, b) in enumerate(zip(fitted, reference)):
        for name in ("feature_", "threshold_", "left_", "right_",
                     "values_", "classes_", "feature_importances_raw_",
                     "feature_importances_"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape \
                and x.tobytes() == y.tobytes(), (i, name)
        assert a._n_classes == b._n_classes
        assert a.n_features_in_ == b.n_features_in_
        assert a.random_state == b.random_state


def _data(n=240, seed=0):
    """Continuous, rounded (tied) and constant columns; three classes,
    one of them rare enough that bootstraps miss it."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    X[:, 2] = np.round(X[:, 2])
    X[:, 4] = 1.5
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    y[0] = 2
    return X, y


class TestLockstepFit:
    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("min_samples_leaf", [1, 5])
    @pytest.mark.parametrize("max_depth", [None, 3])
    @pytest.mark.parametrize("max_features", [None, "sqrt", 2])
    def test_every_tree_equals_its_reference(
            self, max_features, max_depth, min_samples_leaf, bootstrap):
        X, y = _data()
        rf = RandomForestClassifier(
            n_estimators=8, random_state=3, max_features=max_features,
            max_depth=max_depth, min_samples_leaf=min_samples_leaf,
            bootstrap=bootstrap).fit(X, y)
        assert_same_trees(rf.estimators_, reference_trees(rf, X, y))

    def test_bootstraps_missing_a_class(self):
        X, y = _data()
        rf = RandomForestClassifier(n_estimators=20,
                                    random_state=0).fit(X, y)
        widths = {tree._n_classes for tree in rf.estimators_}
        assert widths == {2, 3}
        assert_same_trees(rf.estimators_, reference_trees(rf, X, y))

    def test_steps_wider_than_a_slab(self, monkeypatch):
        """A slab far below one node's rows: every step is cut into
        several slabs, and each node's drawn features into several
        scoring passes."""
        monkeypatch.setattr(forest_mod, "FIT_SLAB_ENTRIES", 50)
        grown, scored = [], []
        grow, score = forest_mod._Lockstep._grow_slab, forest_mod._score_slab
        monkeypatch.setattr(
            forest_mod._Lockstep, "_grow_slab",
            lambda self, live, *args: grown.append(len(live))
            or grow(self, live, *args))
        monkeypatch.setattr(
            forest_mod, "_score_slab",
            lambda *args: scored.append(args[5].tolist()) or score(*args))
        X, y = _data()
        rf = RandomForestClassifier(n_estimators=6,
                                    random_state=1).fit(X, y)
        steps = max(len(t.feature_) for t in rf.estimators_)
        assert len(grown) > steps and max(grown) > 1
        assert any(len(sizes) == 1 and sizes[0] > 50 for sizes in scored)
        assert any(len(sizes) > 1 for sizes in scored)
        assert_same_trees(rf.estimators_, reference_trees(rf, X, y))

    def test_training_split_bundle_forest(self):
        """The perfbench training split's allgather forest."""
        X, y = _training_split("allgather")
        rf = RandomForestClassifier(n_estimators=25,
                                    random_state=0).fit(X, y)
        assert_same_trees(rf.estimators_, reference_trees(rf, X, y))


# ---------------------------------------------------------------------------
# Cost gates
# ---------------------------------------------------------------------------

def _training_split(collective):
    train, _ = split_dataset(TuningDataset.load(GOLDEN), "random", seed=0)
    sub = train.filter(collective=collective)
    return sub.feature_matrix(), sub.labels()


class TestCompileStepCost:
    def test_one_pass_pricing_beats_round_by_round(self):
        """Every third RI+Ray configuration of both collectives, every
        algorithm: ``evaluate`` against the per-round sum, timed
        interleaved, best of 3."""
        priced = []
        for name in ("RI", "Ray"):
            spec = get_cluster(name)
            for collective in base.COLLECTIVES:
                for nodes, ppn, msg in \
                        feasible_configs(spec, collective)[::3]:
                    m = Machine(spec, nodes, ppn)
                    priced += [(m, algo.schedule(m, msg)) for algo in
                               base.algorithms(collective).values()]

        def fast():
            for m, schedule in priced:
                m.evaluate(schedule)

        def reference():
            for m, schedule in priced:
                round_by_round(m, schedule)

        reference_s, fast_s = best_interleaved([reference, fast],
                                               repeats=3)
        assert reference_s / fast_s >= MIN_SPEEDUP, (
            f"one-pass pricing only {reference_s / fast_s:.2f}x faster "
            f"than round by round (floor {MIN_SPEEDUP}x)")

    def test_lockstep_beats_tree_by_tree(self):
        """Both collectives' 100-tree forests on the perfbench training
        split against the same draws fitted tree by tree."""
        splits = [_training_split(c) for c in base.COLLECTIVES]

        def lockstep():
            for X, y in splits:
                RandomForestClassifier(n_estimators=100,
                                       random_state=0).fit(X, y)

        def tree_by_tree():
            for X, y in splits:
                reference_trees(RandomForestClassifier(
                    n_estimators=100, random_state=0), X, y)

        reference_s, lockstep_s = best_interleaved(
            [tree_by_tree, lockstep], repeats=3)
        assert reference_s / lockstep_s >= MIN_SPEEDUP, (
            f"lockstep fit only {reference_s / lockstep_s:.2f}x faster "
            f"than tree by tree (floor {MIN_SPEEDUP}x)")

    def test_lockstep_memory_is_bounded(self):
        """5,000 rows x 14 features, 100 trees of depth 3.  Measured
        tracemalloc peaks: 6.0 MiB fitting tree by tree, 12.7 MiB in
        lockstep, 137 MiB for a lockstep that scores each whole step at
        once.  The bound is four times the tree-by-tree peak."""
        rng = np.random.default_rng(0)
        X = rng.integers(0, 16, size=(5000, 14)) * 0.5
        y = np.digitize(X[:, 0] + X[:, 1] - X[:, 2]
                        + rng.normal(0, 1, 5000), [-2, 2, 6, 10])
        RandomForestClassifier(n_estimators=2, max_depth=3,
                               random_state=0).fit(X, y)  # warm-up
        gc.collect()
        tracemalloc.start()
        try:
            RandomForestClassifier(n_estimators=100, max_depth=3,
                                   random_state=0).fit(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"
