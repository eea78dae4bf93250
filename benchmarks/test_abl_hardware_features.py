"""Ablation — do hardware features earn their place? (DESIGN.md)

The paper's central design decision is feeding hardware features to the
model so it transfers to unseen clusters.  This ablation retrains the
RF under three feature sets — the paper's top-5, all 14, and the 3
MPI-specific features only — and evaluates on held-out clusters with
two metrics: classification accuracy and *mean runtime regret*
(selected algorithm's time / oracle time, averaged per configuration).

Accuracy alone under-values hardware features because near-tied
algorithms make label noise; regret is the deployment metric.  Shape
check: for MPI_Alltoall (the hardware-sensitive collective, cf. Fig. 6)
hardware-feature models must beat the MPI-only model on mean regret.
"""

import numpy as np

from repro.core.features import ALL_FEATURE_NAMES, MPI_FEATURE_NAMES
from repro.core.splits import split_dataset
from repro.core.training import train_model

FEATURE_SETS = {
    "top5": None,  # paper's importance-selected top 5
    "all14": ALL_FEATURE_NAMES,
    "mpi_only": MPI_FEATURE_NAMES,
}


def test_ablation_hardware_features(dataset, report):
    def run():
        train, test = split_dataset(dataset, "cluster")
        out = {}
        for coll in ("allgather", "alltoall"):
            sub = test.filter(collective=coll)
            X = sub.feature_matrix()
            per_set = {}
            for set_name, names in FEATURE_SETS.items():
                model = train_model(train, coll, family="rf",
                                    feature_names=names)
                preds = model.predict(X)
                regret = float(np.mean(
                    [r.times[p] / r.best_time
                     for r, p in zip(sub.records, preds)]))
                per_set[set_name] = (model.accuracy(sub), regret)
            out[coll] = per_set
        return out

    results = run()

    lines = [f"{'collective':<12} {'features':<10} {'accuracy':>9} "
             f"{'mean regret':>12}"]
    for coll, per_set in results.items():
        for set_name, (acc, regret) in per_set.items():
            lines.append(f"{coll:<12} {set_name:<10} {acc * 100:>8.1f}% "
                         f"{regret:>12.4f}")
    lines.append("claim: hardware features reduce regret on unseen "
                 "clusters (strongest for alltoall)")
    report("Ablation — hardware features on held-out clusters", lines)

    a2a = results["alltoall"]
    assert a2a["top5"][1] < a2a["mpi_only"][1], \
        "top-5 (with hardware) regret not below MPI-only"
    assert a2a["all14"][1] < a2a["mpi_only"][1], \
        "all-14 regret not below MPI-only"
    for coll, per_set in results.items():
        for set_name, (acc, regret) in per_set.items():
            assert regret < 1.5, f"{coll}/{set_name}: regret {regret}"
