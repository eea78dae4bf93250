"""Fig. 2 — MPI_Alltoall algorithm runtimes differ across clusters.

Paper: at 2 nodes x 16 PPN, the per-algorithm runtime curves (and
especially the identity of the best algorithm per message size) change
between TACC Frontera (Intel + EDR) and MRI (AMD + HDR): Bruck leads a
small-message band on one system but degrades on the other;
Scatter-Destination wins a mid-size band on MRI.

Shape checks: the best-algorithm-per-size sequence is not identical on
the two clusters, and each cluster has more than one distinct winner
across the sweep.
"""

from repro.hwmodel import get_cluster
from repro.simcluster import Machine
from repro.smpi import algorithms

MSG_SIZES = tuple(2**k for k in range(0, 21, 2))
NODES, PPN = 2, 16


def run_fig2():
    out = {}
    for cname in ("Frontera", "MRI"):
        machine = Machine(get_cluster(cname), NODES, PPN)
        rows = {}
        for msg in MSG_SIZES:
            times = {name: algo.estimate(machine, msg)
                     for name, algo in algorithms("alltoall").items()}
            rows[msg] = times
        out[cname] = rows
    return out


def test_fig02_cluster_variation(report):
    data = run_fig2()
    lines = []
    winners = {}
    for cname, rows in data.items():
        lines.append(f"-- {cname} (2 nodes x 16 PPN, alltoall) --")
        seq = []
        for msg, times in rows.items():
            best = min(times, key=times.__getitem__)
            seq.append(best)
            pretty = " ".join(f"{n[:6]}={t * 1e6:9.1f}us"
                              for n, t in times.items())
            lines.append(f"  m={msg:>8} {pretty} best={best}")
        winners[cname] = seq
    lines.append("paper: winner identity shifts between clusters "
                 "(e.g. Bruck vs Scatter_Dest in the 32-1024 B band)")
    report("Fig. 2 — per-cluster algorithm variation", lines)

    for seq in winners.values():
        assert len(set(seq)) >= 2, "one algorithm dominated everywhere"
    assert winners["Frontera"] != winners["MRI"], \
        "hardware had no effect on algorithm ranking"
