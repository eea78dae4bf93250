"""Table I — dataset overview: 18 clusters, >9000 records per collective.

Paper: per-cluster sample counts (e.g. RI2 609, Frontera 756, MRI 491)
from grids of #node-settings x #PPN-settings x #message-sizes, with
some configurations missing.

Shape checks: 18 clusters present; >9000 records per collective; our
per-cluster counts within a factor of 2 of the paper's (the exact holes
in the paper's grid are not recoverable).
"""

PAPER_SAMPLES = {
    "RI2": 609, "RI": 42, "Haswell": 336, "Catalyst": 483, "Spock": 756,
    "Rome": 777, "Frontera": 756, "LLNL": 588, "Frontera RTX": 504,
    "Hartree": 294, "Mayer": 567, "Ray": 168, "Sierra": 819,
    "Bridges": 567, "Bebop": 525, "TACC KNL": 567, "TACC Skylake": 756,
    "MRI": 491,
}


def test_table1_dataset_overview(dataset, report):
    def summarize():
        per_cluster = {}
        for coll in ("allgather", "alltoall"):
            sub = dataset.filter(collective=coll)
            for name, count in sub.counts_by_cluster().items():
                per_cluster.setdefault(name, {})[coll] = count
        return per_cluster

    per_cluster = summarize()

    lines = [f"{'cluster':<14} {'paper':>6} {'allgather':>10} "
             f"{'alltoall':>9}"]
    for name, paper in PAPER_SAMPLES.items():
        ag = per_cluster[name]["allgather"]
        a2a = per_cluster[name]["alltoall"]
        lines.append(f"{name:<14} {paper:>6} {ag:>10} {a2a:>9}")
    total_ag = sum(v["allgather"] for v in per_cluster.values())
    total_a2a = sum(v["alltoall"] for v in per_cluster.values())
    lines.append(f"totals: allgather={total_ag}, alltoall={total_a2a} "
                 f"(paper: >9000 records for both)")
    report("Table I — dataset overview", lines)

    assert len(per_cluster) == 18
    assert total_ag > 9000 and total_a2a > 9000
    for name, paper in PAPER_SAMPLES.items():
        ours = per_cluster[name]["allgather"]
        assert paper / 2 <= ours <= paper * 2, \
            f"{name}: {ours} vs paper {paper}"
