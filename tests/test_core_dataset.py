"""Tests for dataset collection, records, and (de)serialization."""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.dataset import (
    CollectiveRecord,
    TuningDataset,
    benchmark_config,
    collect_dataset,
    feasible_configs,
)
from repro.hwmodel import get_cluster
from repro.ml import parallel as ml_parallel
from repro.smpi import algorithm_names
from repro.smpi.tuning import clear_measurement_cache

GOLDEN = Path(__file__).parent / "golden" / "mini_dataset.jsonl.gz"


class TestRecord:
    def test_label_is_fastest(self):
        r = CollectiveRecord("X", "allgather", 2, 4, 64,
                             {"ring": 2.0, "bruck": 1.0,
                              "recursive_doubling": 3.0})
        assert r.label == "bruck"
        assert r.best_time == 1.0

    def test_benchmark_config_covers_all_algorithms(self):
        spec = get_cluster("RI")
        rec = benchmark_config(spec, "alltoall", 2, 4, 256)
        assert set(rec.times) == set(algorithm_names("alltoall"))
        assert all(t > 0 for t in rec.times.values())
        assert rec.label in rec.times

    def test_measurements_deterministic(self):
        spec = get_cluster("RI")
        a = benchmark_config(spec, "allgather", 2, 4, 1024)
        b = benchmark_config(spec, "allgather", 2, 4, 1024)
        assert a.times == b.times


class TestFrozenCollection:
    def test_collection_reproduces_the_golden_dataset(self, tmp_path):
        """A fresh RI+Ray collection equals the golden dataset, frozen
        before schedule plans existed, record for record (times by
        ``==``): drift in plan sizing or pricing order shows against
        data the current code did not write."""
        clear_measurement_cache()
        fresh = collect_dataset([get_cluster("RI"), get_cluster("Ray")],
                                cache_dir=tmp_path, use_cache=False)
        golden = TuningDataset.load(GOLDEN)
        assert len(fresh) == len(golden) == 588
        for got, frozen in zip(fresh.records, golden.records):
            assert got == frozen, (got.cluster, got.collective, got.nodes,
                                   got.ppn, got.msg_size)


class TestFeasibleConfigs:
    def test_excludes_single_rank(self):
        spec = get_cluster("RI2")  # node_counts include 1, ppn include 1
        configs = feasible_configs(spec, "allgather")
        assert all(n * p >= 2 for n, p, _ in configs)

    def test_memory_filter_drops_huge_alltoall(self):
        # Catalyst has 32 GiB nodes and 48 PPN; large alltoalls at high
        # rank counts cannot fit.
        spec = get_cluster("Catalyst")
        full_grid = sum(1 for n in spec.node_counts
                        for p in spec.ppn_values
                        for _ in spec.msg_sizes if n * p >= 2)
        configs = feasible_configs(spec, "alltoall")
        assert len(configs) < full_grid

    def test_ri_grid_count(self):
        # RI: 1 node setting x 2 ppn x 21 sizes, nothing filtered.
        assert len(feasible_configs(get_cluster("RI"), "allgather")) == 42


class TestTuningDataset:
    def test_mini_contents(self, mini_dataset):
        assert len(mini_dataset) > 500
        assert set(mini_dataset.clusters()) == {"RI", "Ray",
                                                "Frontera RTX"}
        counts = mini_dataset.counts_by_cluster()
        assert counts["RI"] == 84  # 42 per collective

    def test_filter_by_collective(self, mini_dataset):
        ag = mini_dataset.filter(collective="allgather")
        assert len(ag) > 0
        assert all(r.collective == "allgather" for r in ag.records)

    def test_filter_by_cluster(self, mini_dataset):
        sub = mini_dataset.filter(clusters={"RI"})
        assert sub.clusters() == ("RI",)

    def test_filter_by_nodes(self, mini_dataset):
        sub = mini_dataset.filter(min_nodes=2, max_nodes=4)
        nodes = {r.nodes for r in sub.records}
        assert nodes <= {2, 4} and nodes

    def test_feature_matrix_shape_and_labels(self, mini_dataset):
        X = mini_dataset.feature_matrix()
        y = mini_dataset.labels()
        assert X.shape == (len(mini_dataset), 14)
        assert len(y) == len(mini_dataset)
        assert np.all(X[:, 2] >= 1)  # msg sizes

    def test_label_distribution_sums(self, mini_dataset):
        dist = mini_dataset.label_distribution()
        assert sum(dist.values()) == len(mini_dataset)

    def test_save_load_roundtrip(self, mini_dataset, tmp_path):
        path = mini_dataset.save(tmp_path / "ds.jsonl.gz")
        loaded = TuningDataset.load(path)
        assert len(loaded) == len(mini_dataset)
        assert loaded.records[0] == mini_dataset.records[0]
        assert loaded.records[-1].times == mini_dataset.records[-1].times

    def test_save_is_byte_deterministic(self, mini_dataset, tmp_path,
                                        monkeypatch):
        """Equal datasets give equal files: the gzip header records no
        write time and no (temporary) file name."""
        small = TuningDataset(mini_dataset.records[:40])
        first = small.save(tmp_path / "a" / "first.jsonl.gz")
        later = time.time() + 86_400.0
        monkeypatch.setattr(time, "time", lambda: later)
        second = small.save(tmp_path / "b" / "second.jsonl.gz")
        assert first.read_bytes() == second.read_bytes()
        assert TuningDataset.load(second).records == small.records

    def test_cache_hit(self, tmp_path):
        clusters = [get_cluster("RI")]
        a = collect_dataset(clusters=clusters, cache_dir=tmp_path)
        files = list(tmp_path.glob("*.jsonl.gz"))
        assert len(files) == 1
        b = collect_dataset(clusters=clusters, cache_dir=tmp_path)
        assert [r.times for r in a.records] == \
            [r.times for r in b.records]

    def test_parallel_collection_matches_serial(self, tmp_path):
        clusters = [get_cluster("RI"), get_cluster("Ray")]
        serial = collect_dataset(clusters=clusters, use_cache=False)
        parallel = collect_dataset(clusters=clusters, use_cache=False,
                                   workers=2)
        assert len(serial) == len(parallel)
        assert [r.times for r in serial.records] == \
            [r.times for r in parallel.records]

    def test_all_cores_starts_a_pool(self, monkeypatch):
        """``workers=-1`` means one worker per core, as ``n_jobs=-1``
        does for training."""
        started = []

        class RecordingPool(ml_parallel.ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(ml_parallel, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(ml_parallel.os, "cpu_count", lambda: 2)
        kwargs = {"clusters": [get_cluster("RI")],
                  "collectives": ("allgather", "alltoall"),
                  "use_cache": False}
        pooled = collect_dataset(workers=-1, **kwargs)
        assert started == [2]
        assert [r.times for r in pooled.records] == \
            [r.times for r in collect_dataset(**kwargs).records]

    def test_hardware_features_constant_within_cluster(self, mini_dataset):
        X = mini_dataset.feature_matrix()
        for cname in mini_dataset.clusters():
            rows = [i for i, r in enumerate(mini_dataset.records)
                    if r.cluster == cname]
            hw = X[rows, 3:]
            assert np.allclose(hw, hw[0])
