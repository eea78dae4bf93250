"""Ablation — the congestion terms of the network model (DESIGN.md).

The cost model adds two congestion mechanisms on top of plain
Hockney/LogGP: a destination-spread penalty and a flow-count penalty.
Without them, the one-shot Scatter-Destination blast would dominate
Pairwise at every large Alltoall size — contradicting both MPICH's
decision tables and the paper's measurements.  This ablation evaluates
algorithm rankings with the penalties zeroed out.

Shape checks: with the full model, pairwise wins large messages at
16x56; with congestion off, scatter_dest (wrongly) wins; small-message
rankings are unaffected by the ablation.
"""

import dataclasses

from repro.hwmodel import get_cluster
from repro.simcluster import Machine
from repro.smpi import algorithms

LARGE = 1 << 20
SMALL = 16


def _winner(machine, msg):
    times = {n: a.estimate(machine, msg)
             for n, a in algorithms("alltoall").items()}
    return min(times, key=times.__getitem__), times


def run_ablation():
    machine = Machine(get_cluster("Frontera"), 16, 56)
    full_large = _winner(machine, LARGE)
    full_small = _winner(machine, SMALL)

    # Zero out both congestion mechanisms.
    machine.params = dataclasses.replace(machine.params,
                                         spread_gamma=0.0,
                                         flow_gamma=0.0)
    abl_large = _winner(machine, LARGE)
    abl_small = _winner(machine, SMALL)
    return full_large, full_small, abl_large, abl_small


def test_ablation_congestion_model(report):
    full_large, full_small, abl_large, abl_small = run_ablation()

    def fmt(tag, res):
        winner, times = res
        body = " ".join(f"{n[:6]}={t * 1e3:9.2f}ms"
                        for n, t in times.items())
        return f"{tag:<28} {body} -> {winner}"

    lines = [fmt("full model, 1 MiB", full_large),
             fmt("no congestion, 1 MiB", abl_large),
             fmt("full model, 16 B", full_small),
             fmt("no congestion, 16 B", abl_small),
             "claim: congestion terms are what separate pairwise from "
             "the scatter blast at large sizes"]
    report("Ablation — congestion model terms (alltoall 16x56)", lines)

    assert full_large[0] in ("pairwise", "recursive_doubling"), \
        f"full model large-message winner: {full_large[0]}"
    assert abl_large[0] == "scatter_dest", \
        f"ablated model should (wrongly) favour the blast: {abl_large[0]}"
    # Small messages are latency/gap-bound — ablation must not change
    # the winner.
    assert full_small[0] == abl_small[0]
