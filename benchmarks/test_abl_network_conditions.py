"""Ablation — robustness to dynamic network conditions (Section III).

The paper trains on averaged measurements and argues that static
hardware features still improve selection despite dynamic noise.  This
ablation evaluates the cluster-held-out PML model on Frontera under an
idle fabric and under increasing background congestion, against the
per-condition oracle.

Shape checks: PML's regret vs the *congested* oracle grows with
congestion (its training never saw these conditions) but stays bounded
(< 40% mean regret even at 60% background load), and it still beats
random selection under every condition.
"""

import numpy as np

from repro.hwmodel import get_cluster
from repro.simcluster import Machine, NetworkConditions, \
    machine_with_conditions
from repro.smpi import RandomSelector, algorithm_names
from repro.smpi.tuning import measured_time

LOADS = (0.0, 0.3, 0.6)
MSGS = tuple(2**k for k in range(0, 21, 2))


def _sweep_regret(machine, degraded, selector_fn):
    """Mean regret of selector choices priced on the degraded fabric."""
    regrets = []
    for coll in ("allgather", "alltoall"):
        for msg in MSGS:
            times = {n: measured_time(degraded, coll, n, msg)
                     for n in algorithm_names(coll)}
            choice = selector_fn(coll, machine, msg)
            regrets.append(times[choice] / min(times.values()))
    return float(np.mean(regrets))


def test_ablation_network_conditions(heldout_selector, report):
    spec = get_cluster("Frontera")
    machine = Machine(spec, 8, 56)

    def run():
        out = {}
        rnd = RandomSelector(0)
        for load in LOADS:
            degraded = machine_with_conditions(
                machine, NetworkConditions(background_load=load))
            out[load] = {
                "pml": _sweep_regret(machine, degraded,
                                     heldout_selector.select),
                "random": _sweep_regret(machine, degraded, rnd.select),
            }
        return out

    results = run()

    lines = [f"{'bg load':>8} {'pml regret':>11} {'random regret':>14}"]
    for load, regs in results.items():
        lines.append(f"{load:>8.1f} {regs['pml']:>11.3f} "
                     f"{regs['random']:>14.3f}")
    lines.append("regret = chosen time / best-under-condition time, "
                 "averaged over both collectives x sizes")
    report("Ablation — selection quality under congestion", lines)

    for load, regs in results.items():
        assert regs["pml"] < regs["random"], \
            f"load {load}: PML no better than random"
        assert regs["pml"] < 1.4, \
            f"load {load}: PML regret {regs['pml']:.3f} unbounded"
    assert results[0.6]["pml"] >= results[0.0]["pml"] - 1e-9, \
        "congestion should not make an uninformed model better"
