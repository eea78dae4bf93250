"""Fig. 1 — startup core-hours of offline micro-benchmarking vs ACCLAiM.

Paper: on TACC Frontera (PPN 56, MPI_Allgather), offline
micro-benchmarking's core hours grow steeply with node count, and
ACCLAiM's online training (anchored at 5.62 min @ 128 nodes) also grows
linearly — both are orders of magnitude above anything constant.

Shape checks: both curves grow monotonically; micro-benchmarking
dominates ACCLAiM at large node counts.
"""

from repro.core.overhead import acclaim_core_hours, microbenchmark_core_hours
from repro.hwmodel import get_cluster

NODE_COUNTS = (2, 8, 32, 128, 512, 2048, 8192)
PPN = 56


def run_fig1():
    spec = get_cluster("Frontera")
    micro = [microbenchmark_core_hours(spec, "allgather", n, PPN)
             for n in NODE_COUNTS]
    acclaim = [acclaim_core_hours(n, PPN) for n in NODE_COUNTS]
    return micro, acclaim


def test_fig01_core_hours(report):
    micro, acclaim = run_fig1()
    lines = [f"{'nodes':>6} {'microbench(core-h)':>20} "
             f"{'ACCLAiM(core-h)':>16}"]
    for n, m, a in zip(NODE_COUNTS, micro, acclaim):
        lines.append(f"{n:>6} {m:>20.3e} {a:>16.3e}")
    lines.append("paper: both grow with node count; ACCLAiM anchored at "
                 "5.62 min @ 128 nodes (= 671 core-h)")
    report("Fig. 1 — motivation: startup overhead", lines)

    # Shape assertions.
    assert all(b > a for a, b in zip(micro, micro[1:]))
    assert all(b > a for a, b in zip(acclaim, acclaim[1:]))
    # ACCLAiM anchor reproduced exactly.
    assert abs(acclaim_core_hours(128, 56) - 5.62 / 60 * 128 * 56) < 1e-9
    # Micro-benchmarking is the most expensive at scale.
    assert micro[-1] > acclaim[-1]
