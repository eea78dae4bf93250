"""Extension — the paper's future work (Section IX): applying the
framework to more collectives.

Collects a full 18-cluster dataset for MPI_Allreduce and MPI_Bcast,
trains the same RF pipeline with Frontera/MRI held out, and compares
against the MVAPICH-style defaults, random selection, and the oracle on
the held-out systems.

Shape checks mirror the paper's main results: PML matches or beats the
defaults in total, clearly beats random, and stays within 10% of the
oracle.
"""

from repro.apps import run_sweep
from repro.core import collect_dataset
from repro.core.framework import offline_train
from repro.hwmodel import get_cluster
from repro.smpi import (
    MvapichDefaultSelector,
    OracleSelector,
    RandomSelector,
)

EXT = ("allreduce", "bcast")
PANELS = [("Frontera", 16, 56), ("MRI", 8, 64)]


def test_future_work_collectives(report):
    def run():
        dataset = collect_dataset(collectives=EXT)
        train = dataset.filter(
            clusters=set(dataset.clusters()) - {"Frontera", "MRI"})
        pml = offline_train(train, collectives=EXT)
        selectors = {"pml": pml,
                     "default": MvapichDefaultSelector(),
                     "random": RandomSelector(0),
                     "oracle": OracleSelector()}
        out = {}
        for cluster, nodes, ppn in PANELS:
            spec = get_cluster(cluster)
            for coll in EXT:
                totals = {
                    name: run_sweep(spec, coll, nodes, ppn,
                                    sel).total_time()
                    for name, sel in selectors.items()
                }
                out[(cluster, coll)] = totals
        return dataset, out

    dataset, results = run()

    lines = [f"dataset: {len(dataset)} records, labels "
             f"{dataset.label_distribution()}",
             f"{'panel':<22} {'vs default':>11} {'vs random':>10} "
             f"{'vs oracle':>10}"]
    for (cluster, coll), totals in results.items():
        vs_def = totals["default"] / totals["pml"]
        vs_rnd = totals["random"] / totals["pml"]
        vs_orc = totals["oracle"] / totals["pml"]
        lines.append(f"{cluster + '/' + coll:<22} {vs_def:>10.3f}x "
                     f"{vs_rnd:>9.2f}x {vs_orc:>9.3f}x")
    lines.append("(paper Section IX: extend the framework to further "
                 "collectives — no reference numbers)")
    report("Extension — Allreduce/Bcast under the PML pipeline", lines)

    assert len(dataset) > 15_000
    for (cluster, coll), totals in results.items():
        vs_def = totals["default"] / totals["pml"]
        vs_rnd = totals["random"] / totals["pml"]
        vs_orc = totals["oracle"] / totals["pml"]
        assert vs_def >= 0.97, f"{cluster}/{coll}: lost to default"
        assert vs_rnd >= 1.05, f"{cluster}/{coll}: no win over random"
        assert vs_orc >= 0.90, f"{cluster}/{coll}: >10% from oracle"
