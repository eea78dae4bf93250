"""Fig. 9 — PML vs MVAPICH2-2.3.7 defaults on TACC Frontera
(cluster-based protocol: Frontera excluded from training).

Paper: PML picks faster algorithms at several sizes — 36.6%/36.3%
speedups for Alltoall at 4096/8192 B, 60.0%/44.3% for Allgather at
4/2048 B; elsewhere the two frameworks often coincide.

Shape checks: over each panel PML's total time is no worse than ~2%
above the default's, and at least one panel shows a >= 20% per-size
win.
"""

from repro.smpi import MvapichDefaultSelector

from sweep_utils import panel_lines, run_panels

PANELS = [("allgather", 16, 56), ("alltoall", 16, 56),
          ("allgather", 16, 28), ("alltoall", 16, 28)]


def test_fig09_frontera(heldout_selector, report):
    results = run_panels("Frontera", "mvapich", MvapichDefaultSelector(),
                         heldout_selector, PANELS)

    lines = []
    for key, (res, summary) in results.items():
        lines.extend(panel_lines(key, res, "mvapich", summary))
    lines.append("paper: 36-60% wins at selected sizes; parity when both "
                 "choose the same algorithm")
    report("Fig. 9 — PML vs MVAPICH default (Frontera)", lines)

    best_win = 0.0
    for key, (res, summary) in results.items():
        assert summary["total_time_speedup"] >= 0.98, \
            f"{key}: PML total worse than default"
        best_win = max(best_win, summary["max_speedup"])
    assert best_win >= 1.2, f"no >=20% per-size win anywhere ({best_win})"
