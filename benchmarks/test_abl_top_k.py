"""Ablation — sensitivity to the top-k feature cutoff (DESIGN.md).

The paper keeps the top 5 of 14 features "to avoid overfitting".
This sweep retrains the RF at k = 3, 5, 8, 14 under the cluster-based
split.  Shape check: k = 5 is within 3 accuracy points of the best k —
i.e. the paper's choice sits on the plateau, and no k collapses.
"""

from repro.core.splits import split_dataset
from repro.core.training import train_model

KS = (3, 5, 8, 14)


def test_ablation_top_k(dataset, report):
    def run():
        train, test = split_dataset(dataset, "cluster")
        out = {}
        for coll in ("allgather", "alltoall"):
            sub = test.filter(collective=coll)
            out[coll] = {
                k: train_model(train, coll, family="rf",
                               top_k=k).accuracy(sub)
                for k in KS
            }
        return out

    results = run()

    lines = [f"{'collective':<12}" + "".join(f"{f'k={k}':>9}"
                                             for k in KS)]
    for coll, per_k in results.items():
        lines.append(f"{coll:<12}" + "".join(
            f"{per_k[k] * 100:>8.1f}%" for k in KS))
    lines.append("paper: k=5 chosen to avoid overfitting")
    report("Ablation — top-k feature cutoff (cluster split)", lines)

    for coll, per_k in results.items():
        best = max(per_k.values())
        assert per_k[5] >= best - 0.03, \
            f"{coll}: k=5 off the plateau ({per_k})"
        assert min(per_k.values()) > 0.6, f"{coll}: a k collapsed"
