"""Tests for online inference, tuning tables, and the Fig. 4 framework."""

import json

import pytest

from repro.core.framework import PmlMpiFramework, offline_train
from repro.core.inference import generate_tuning_table, inference_latency
from repro.hwmodel import get_cluster
from repro.simcluster import Machine
from repro.smpi import TableSelector, algorithm_names


@pytest.fixture(scope="module")
def selector(mini_dataset):
    return offline_train(mini_dataset)


class TestPretrainedSelector:
    def test_select_returns_valid_algorithm(self, selector):
        machine = Machine(get_cluster("Haswell"), 2, 8)
        for collective in ("allgather", "alltoall"):
            algo = selector.select(collective, machine, 1024)
            assert algo in algorithm_names(collective)

    def test_unknown_collective_raises(self, selector):
        machine = Machine(get_cluster("RI"), 2, 2)
        with pytest.raises(KeyError, match="no pre-trained model"):
            selector.select("bcast", machine, 8)

    def test_generalizes_to_unseen_cluster(self, selector):
        """The mini dataset has no Sierra data; selection must still
        work purely from Sierra's hardware features."""
        machine = Machine(get_cluster("Sierra"), 4, 16)
        algo = selector.select("allgather", machine, 1 << 16)
        assert algo in algorithm_names("allgather")

    def test_describe_mentions_family(self, selector):
        assert "rf" in selector.describe()


class TestGenerateTuningTable:
    def test_covers_grid(self, selector):
        spec = get_cluster("RI")
        report = generate_tuning_table(selector, spec)
        # 1 node setting x 2 ppn x 21 sizes x 2 collectives
        assert report.n_configs == 84
        assert report.wall_seconds > 0
        for coll in ("allgather", "alltoall"):
            algo = report.table.lookup(coll, 2, 4, 1024)
            assert algo in algorithm_names(coll)

    def test_nearest_config_lookup(self, selector):
        spec = get_cluster("RI")
        table = generate_tuning_table(selector, spec).table
        # (3 nodes, 5 ppn) was never sampled; lookup falls back to the
        # nearest grid point instead of failing.
        algo = table.lookup("allgather", 3, 5, 2048)
        assert algo in algorithm_names("allgather")

    def test_json_roundtrip(self, selector, tmp_path):
        from repro.smpi import TuningTable

        spec = get_cluster("Ray")
        table = generate_tuning_table(selector, spec).table
        path = table.save(tmp_path / "ray.json")
        loaded = TuningTable.load(path)
        assert loaded.cluster == "Ray"
        assert loaded.lookup("alltoall", 4, 8, 64) == \
            table.lookup("alltoall", 4, 8, 64)
        # The artifact is real JSON (the paper stores JSON tables).
        payload = json.loads(path.read_text())
        assert payload["cluster"] == "Ray"

    def test_inference_latency_sub_second(self, selector):
        """The paper's central overhead claim: generating a cluster's
        full tuning table takes well under a second."""
        t = inference_latency(selector, get_cluster("Frontera"),
                              repeats=3)
        assert t < 1.0


class TestFramework:
    def test_first_setup_creates_table(self, selector, tmp_path):
        fw = PmlMpiFramework(selector, tmp_path)
        spec = get_cluster("RI")
        assert not fw.has_table("RI")
        runtime_selector = fw.setup_cluster(spec)
        assert isinstance(runtime_selector, TableSelector)
        assert fw.has_table("RI")

    def test_second_setup_reuses_table(self, selector, tmp_path):
        fw = PmlMpiFramework(selector, tmp_path)
        spec = get_cluster("RI")
        fw.setup_cluster(spec)
        path = fw.table_path("RI")
        before = path.read_text()
        fw.setup_cluster(spec)  # must load, not regenerate
        assert path.read_text() == before

    def test_force_regenerate(self, selector, tmp_path):
        fw = PmlMpiFramework(selector, tmp_path)
        spec = get_cluster("RI")
        fw.setup_cluster(spec)
        path = fw.table_path("RI")
        path.write_text(path.read_text())  # touch
        sel = fw.setup_cluster(spec, force_regenerate=True)
        assert isinstance(sel, TableSelector)

    def test_wrong_cluster_table_quarantined_and_regenerated(
            self, selector, tmp_path):
        """A table from another cluster must not brick compile-time
        setup: it is quarantined and a fresh table is generated."""
        from repro.core import RUNG_REGENERATED

        fw = PmlMpiFramework(selector, tmp_path)
        fw.setup_cluster(get_cluster("RI"))
        # Corrupt: rename RI's table to Ray's slot.
        fw.table_path("Ray").write_text(
            fw.table_path("RI").read_text())
        sel = fw.setup_cluster(get_cluster("Ray"))
        assert isinstance(sel, TableSelector)
        assert sel.table.cluster == "Ray"
        report = fw.last_report
        assert report.rung == RUNG_REGENERATED
        assert any("belongs to" in e for e in report.errors)
        quarantined = [p for p in tmp_path.iterdir()
                       if ".corrupt" in p.name]
        assert len(quarantined) == 1
        assert str(quarantined[0]) in report.quarantined

    def test_selector_consistency(self, selector, tmp_path):
        """Table lookups must reproduce direct model predictions on the
        sampled grid."""
        fw = PmlMpiFramework(selector, tmp_path)
        spec = get_cluster("Ray")
        table_sel = fw.setup_cluster(spec)
        machine = Machine(spec, 4, 8)
        for msg in (1, 512, 1 << 20):
            direct = selector.select("alltoall", machine, msg)
            via_table = table_sel.select("alltoall", machine, msg)
            assert direct == via_table


class TestShippedTableFeasibility:
    """The runtime selector ``setup_cluster`` returns answers an
    algorithm the queried communicator can run, off the table's grid
    too (regression: a nearest-config answer such as
    recursive_doubling was returned as-is at a 6-rank job)."""

    @pytest.mark.parametrize("cluster", ("Ray", "RI"))
    def test_feasible_off_grid_and_lookup_on_grid(self, selector,
                                                  tmp_path, cluster):
        import random

        from repro.smpi.collectives import base

        spec = get_cluster(cluster)
        runtime = PmlMpiFramework(selector, tmp_path).setup_cluster(spec)
        grid = {(n, p) for n in spec.node_counts for p in spec.ppn_values}
        off_grid = [(n, p)
                    for n in range(1, min(8, spec.max_nodes) + 1)
                    for p in range(2, 33) if (n, p) not in grid
                    and p <= spec.node.cpu.threads_per_node]
        rng = random.Random(0)
        for _ in range(40):
            n, p = rng.choice(off_grid)
            for collective in ("allgather", "alltoall"):
                algo = runtime.select(collective, Machine(spec, n, p),
                                      1 << rng.randint(0, 20))
                assert base.is_feasible(collective, algo, n * p), \
                    (collective, n, p, algo)
        for n, p in grid:
            for collective in ("allgather", "alltoall"):
                for m in spec.msg_sizes:
                    assert runtime.select(collective,
                                          Machine(spec, n, p), m) \
                        == runtime.table.lookup(collective, n, p, m)


class TestEmptyGridRegression:
    """An explicitly-passed empty grid must raise, never silently fall
    back to the cluster's default grid (regression: ``or``-based
    fallbacks treated ``()`` as "use the default")."""

    @pytest.mark.parametrize("kwargs", [
        {"node_counts": ()},
        {"ppn_values": ()},
        {"msg_sizes": ()},
        {"node_counts": (), "ppn_values": (), "msg_sizes": ()},
    ])
    def test_empty_grid_raises(self, selector, kwargs):
        spec = get_cluster("RI")
        with pytest.raises(ValueError, match="no valid configurations"):
            generate_tuning_table(selector, spec, **kwargs)

    def test_explicit_grid_still_honored(self, selector):
        spec = get_cluster("RI")
        report = generate_tuning_table(selector, spec,
                                       collectives=("allgather",),
                                       node_counts=(2,),
                                       ppn_values=(4,),
                                       msg_sizes=(64, 4096))
        assert report.n_configs == 2


class TestCrossCheckDeployment:
    """``pml-mpi doctor --bundle``: bundle vs. tuning-table consistency."""

    @pytest.fixture()
    def deployment(self, selector, tmp_path):
        from repro.core.bundle import save_selector

        bundle = tmp_path / "bundle.json"
        save_selector(selector, bundle)
        framework = PmlMpiFramework(selector, tmp_path / "tables")
        framework.setup_cluster(get_cluster("RI"))
        return bundle, tmp_path / "tables", framework

    def test_consistent_deployment_is_healthy(self, deployment):
        from repro.core.framework import cross_check_deployment

        bundle, tables, _ = deployment
        report = cross_check_deployment(bundle, tables)
        assert report.healthy, report.errors
        statuses = {c.kind: c.status for c in report.checks}
        assert statuses["bundle"] == "ok"
        assert statuses["cross-check"] == "ok"
        assert report.counters["cross_checked_tables"] == 1

    def test_misfiled_cluster_flagged(self, deployment):
        from repro.core.framework import cross_check_deployment

        bundle, tables, framework = deployment
        path = framework.table_path("RI")
        (tables / "Haswell.tuning.json").write_text(path.read_text())
        report = cross_check_deployment(bundle, tables)
        assert not report.healthy
        assert any("belongs to cluster" in e for e in report.errors)

    def test_collective_without_model_flagged(self, deployment,
                                              tmp_path):
        from repro.core.bundle import save_selector
        from repro.core.framework import cross_check_deployment
        from repro.core.inference import PretrainedSelector

        bundle, tables, _ = deployment
        slim = PretrainedSelector(
            {"allgather": _load_bundle_model(bundle, "allgather")})
        slim_path = tmp_path / "slim.json"
        save_selector(slim, slim_path)
        report = cross_check_deployment(slim_path, tables)
        assert not report.healthy
        assert any("no alltoall model" in e for e in report.errors)

    def test_foreign_label_flagged(self, deployment, tmp_path):
        """A table entry using a label the fitted classifier could
        never emit (tampered / hand-edited table) fails the check."""
        import numpy as np

        from repro.core.bundle import load_selector, save_selector
        from repro.core.framework import cross_check_deployment
        from repro.smpi.tuning import TuningTable

        bundle, tables, framework = deployment
        table = TuningTable.load(framework.table_path("RI"))
        used = {a for bps in table.entries["allgather"].values()
                for _, a in bps}
        victim = sorted(used)[0]
        slim = load_selector(bundle)
        model = slim.models["allgather"].model
        model.classes_ = np.array(
            [c for c in model.classes_ if str(c) != victim])
        slim_path = tmp_path / "slim-labels.json"
        save_selector(slim, slim_path)
        report = cross_check_deployment(slim_path, tables)
        assert not report.healthy
        assert any("cannot emit" in e and victim in e
                   for e in report.errors)

    def test_corrupt_bundle_reported_not_raised(self, deployment):
        from repro.core.framework import cross_check_deployment

        bundle, tables, _ = deployment
        bundle.write_text("{not json")
        report = cross_check_deployment(bundle, tables)
        assert not report.healthy
        assert report.checks[0].status == "corrupt"

    def test_doctor_directory_folds_cross_check_in(self, deployment):
        from repro.core.framework import doctor_directory

        bundle, tables, _ = deployment
        report = doctor_directory(tables, bundle=bundle)
        assert report.healthy
        assert any(c.kind == "cross-check" for c in report.checks)
        assert report.counters["cross_checked_tables"] == 1


def _load_bundle_model(bundle_path, collective):
    from repro.core.bundle import load_selector

    return load_selector(bundle_path).models[collective]
