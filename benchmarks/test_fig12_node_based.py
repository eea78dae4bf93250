"""Fig. 12 — node-based generalization: train on small node counts,
evaluate on a larger one, vs MVAPICH defaults.

Paper: Frontera — trained on 1/2/4/8 nodes, evaluated at 16 nodes
(13.2% and 43.5% wins at 2048/4096 B Alltoall); MRI — trained on 1/2/4
nodes, evaluated at 8 (74.1% at 1024 B Allgather; 58.6%/49.6% at
16/32 KiB Alltoall).

Shape checks: on each system the scaled-up evaluation still matches or
beats the default in total, with a >= 15% per-size win somewhere.
"""

from repro.smpi import MvapichDefaultSelector

from sweep_utils import panel_lines, run_panels


def test_fig12_node_based(frontera_node_selector,
                          mri_node_selector, report):
    def run():
        out = {}
        out["Frontera(16 nodes, trained<=8)"] = run_panels(
            "Frontera", "mvapich", MvapichDefaultSelector(),
            frontera_node_selector,
            [("allgather", 16, 56), ("alltoall", 16, 56)])
        out["MRI(8 nodes, trained<=4)"] = run_panels(
            "MRI", "mvapich", MvapichDefaultSelector(),
            mri_node_selector,
            [("allgather", 8, 128), ("alltoall", 8, 128)])
        return out

    results = run()

    lines = []
    for system, panels in results.items():
        lines.append(f"### {system}")
        for key, (res, summary) in panels.items():
            lines.extend(panel_lines(key, res, "mvapich", summary))
    lines.append("paper: 13-74% wins at selected sizes after scaling "
                 "past the training node counts")
    report("Fig. 12 — node-based benchmark results", lines)

    for system, panels in results.items():
        best = 0.0
        for key, (res, summary) in panels.items():
            assert summary["total_time_speedup"] >= 0.95, \
                f"{system}/{key}: scaled model worse than default"
            best = max(best, summary["max_speedup"])
        assert best >= 1.15, f"{system}: no >=15% win ({best:.2f})"
