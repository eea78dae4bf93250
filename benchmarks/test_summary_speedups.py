"""Section VII-C aggregates — average speedups and the oracle bound.

Paper: on MRI, average speedup over the default is 6.3% (Allgather) and
2.5% (Alltoall); vs random selection 2.96x and 2.76x.  Against
exhaustive offline micro-benchmarking (the oracle), the ML approach is
at most ~6% slower (0.6-5.8% across systems/collectives).

Shape checks: averaged over every evaluated configuration, PML beats
the default and random baselines, and its slowdown vs the oracle stays
under 8%.
"""

from repro.apps import run_sweep
from repro.hwmodel import get_cluster
from repro.smpi import (
    MvapichDefaultSelector,
    OracleSelector,
    RandomSelector,
)

#: Every evaluation configuration of Section VII-C.
CONFIGS = {
    "Frontera": [(n, ppn) for n in (1, 2, 4, 8, 16) for ppn in (28, 56)],
    "MRI": [(n, ppn) for n in (1, 2, 4, 8) for ppn in (64, 128)],
}


def test_summary_speedups(heldout_selector, report):
    def run():
        out = {}
        selectors = {
            "pml": heldout_selector,
            "default": MvapichDefaultSelector(),
            "random": RandomSelector(0),
            "oracle": OracleSelector(),
        }
        for cluster, configs in CONFIGS.items():
            spec = get_cluster(cluster)
            for coll in ("allgather", "alltoall"):
                totals = {name: 0.0 for name in selectors}
                for nodes, ppn in configs:
                    if nodes * ppn < 2:
                        continue
                    for name, sel in selectors.items():
                        sweep = run_sweep(spec, coll, nodes, ppn, sel)
                        totals[name] += sweep.total_time()
                out[(cluster, coll)] = totals
        return out

    results = run()

    paper = {
        ("MRI", "allgather"): (1.063, 2.96),
        ("MRI", "alltoall"): (1.025, 2.76),
    }
    lines = [f"{'system':<10} {'collective':<10} {'vs default':>11} "
             f"{'vs random':>10} {'vs oracle':>10}"]
    for (cluster, coll), totals in results.items():
        vs_def = totals["default"] / totals["pml"]
        vs_rnd = totals["random"] / totals["pml"]
        vs_orc = totals["oracle"] / totals["pml"]
        note = ""
        if (cluster, coll) in paper:
            pd, pr = paper[(cluster, coll)]
            note = f"  (paper: {pd:.3f}x / {pr:.2f}x)"
        lines.append(f"{cluster:<10} {coll:<10} {vs_def:>10.3f}x "
                     f"{vs_rnd:>9.2f}x {vs_orc:>9.3f}x{note}")
    lines.append("paper bound: ML at most ~6% slower than exhaustive "
                 "micro-benchmarking")
    report("Section VII-C — aggregate speedups", lines)

    for (cluster, coll), totals in results.items():
        vs_def = totals["default"] / totals["pml"]
        vs_rnd = totals["random"] / totals["pml"]
        vs_orc = totals["oracle"] / totals["pml"]
        assert vs_def >= 0.99, f"{cluster}/{coll}: lost to default"
        assert vs_rnd >= 1.10, f"{cluster}/{coll}: no win over random"
        assert vs_orc >= 0.92, \
            f"{cluster}/{coll}: >8% slower than oracle"
        assert vs_orc <= 1.001, \
            f"{cluster}/{coll}: oracle cannot lose ({vs_orc})"
