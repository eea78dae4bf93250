"""Fig. 11 — PML vs Open MPI 5.1.0a decision rules, Frontera PPN 56.

Paper: PML wins mainly at larger sizes (beyond 4 KiB): 49.1%/57.7% for
Alltoall and 54.0%/36.2% for Allgather; tiny messages can show a slight
slowdown attributed to network conditions.

Shape checks: for each collective, PML achieves >= 25% speedup at some
size >= 4096 B, and its total time is no worse than 2% above Open
MPI's.
"""

from repro.smpi import OpenMpiDefaultSelector

from sweep_utils import panel_lines, run_panels

PANELS = [("allgather", 16, 56), ("alltoall", 16, 56)]


def test_fig11_vs_openmpi(heldout_selector, report):
    results = run_panels("Frontera", "ompi", OpenMpiDefaultSelector(),
                         heldout_selector, PANELS)

    lines = []
    for key, (res, summary) in results.items():
        lines.extend(panel_lines(key, res, "ompi", summary))
    lines.append("paper: 36-58% wins beyond 4 KiB; slight small-message "
                 "slowdowns attributed to network conditions")
    report("Fig. 11 — PML vs Open MPI 5.1.0a (Frontera, PPN 56)", lines)

    for key, (res, summary) in results.items():
        assert summary["total_time_speedup"] >= 0.98, \
            f"{key}: PML total worse than Open MPI"
        large = [pb.avg_time_s / pp.avg_time_s
                 for pb, pp in zip(res["ompi"].points,
                                   res["pml"].points)
                 if pb.msg_size >= 4096]
        assert max(large) >= 1.25, \
            f"{key}: no >=25% win at large sizes ({max(large):.2f})"
