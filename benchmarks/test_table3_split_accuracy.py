"""Table III — RF accuracy under the three split methodologies.

Paper:  MPI_Allgather  random 88.8  cluster 84.4  node 79.8
        MPI_Alltoall   random 89.9  cluster 82.7  node 86.7

Shape checks: all six accuracies in the 70-95% range; random split is
the easiest (>= the others minus small slack); every split stays within
12 points of the paper.
"""

from repro.core.splits import split_dataset
from repro.core.training import train_model

PAPER = {
    "allgather": {"random": 0.888, "cluster": 0.844, "node": 0.798},
    "alltoall": {"random": 0.899, "cluster": 0.827, "node": 0.867},
}


def test_table3_split_accuracy(dataset, report):
    def run():
        out = {"allgather": {}, "alltoall": {}}
        for method, kwargs in (("random", {"seed": 0}), ("cluster", {}),
                               ("node", {"max_train_nodes": 8})):
            train, test = split_dataset(dataset, method, **kwargs)
            for coll in out:
                model = train_model(train, coll, family="rf")
                out[coll][method] = model.accuracy(
                    test.filter(collective=coll))
        return out

    results = run()

    lines = [f"{'collective':<12} {'split':<9} {'paper':>7} "
             f"{'measured':>9}"]
    for coll, methods in results.items():
        for method, acc in methods.items():
            lines.append(f"{coll:<12} {method:<9} "
                         f"{PAPER[coll][method] * 100:>6.1f}% "
                         f"{acc * 100:>8.1f}%")
    report("Table III — split-methodology accuracy (RF)", lines)

    for coll, methods in results.items():
        for method, acc in methods.items():
            assert 0.70 <= acc <= 0.97, f"{coll}/{method}: {acc}"
            assert abs(acc - PAPER[coll][method]) < 0.12, \
                f"{coll}/{method}: {acc} vs paper {PAPER[coll][method]}"
        assert methods["random"] >= methods["cluster"] - 0.03
